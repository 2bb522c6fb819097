"""A frozen copy of the enumerating search that translate.eval_eso once was.

It tries every subset of every relation's candidate tuples, smallest
first, and every table of every function, checking each matrix conjunct
right after its last-quantified symbol.  That makes it slow and plainly
right, so the tests hold the grounded, propagating translate.eval_eso to
it.  Keep this file as it is; it is the reference, not a second
implementation to improve.
"""

import itertools

from teamlogic.model import subsets, tables
from teamlogic.semantics import Budget, compiled
from teamlogic.syntax import And, symbol_arities


def _conjuncts(phi):
    """The conjuncts of phi, reading And(p1, ..., pk) as p1 /\\ And(p2, ..., pk)."""
    out = []
    while isinstance(phi, And):
        head, *tail = phi.parts
        out.append(head)
        phi = tail[0] if len(tail) == 1 else And(*tail)
    return out + [phi]


def _checks(eso):
    """The matrix conjuncts as compiled closures: those that read no
    prefix symbol, and per prefix position those whose last-quantified
    symbol sits there."""
    name_pos = {sym.name: i for i, sym in enumerate(eso.prefix)}
    checkpoint = [[] for _sym in eso.prefix]
    upfront = []
    for c in _conjuncts(eso.matrix):
        relations, functions = symbol_arities(c)
        used = (relations.keys() | functions.keys()) & name_pos.keys()
        if used:
            checkpoint[max(name_pos[n] for n in used)].append(compiled(c))
        else:
            upfront.append(compiled(c))
    return upfront, checkpoint


def ref_eval_eso(model, eso, a, budget=None):
    """Exhaustively search prefix interpretations making the matrix true.

    A bounded relation is enumerated over the tuples of its bound only.
    The search keeps one private interpretation and overwrites symbol k
    in place; one node is one candidate value tried for one symbol.
    """
    tick = (budget or Budget()).tick
    interp = model.with_relation(eso.free_relation, a)
    upfront, checkpoint = _checks(eso)
    env = {}
    if not all(holds(interp, env) for holds in upfront):
        return False

    def values(sym):
        tuples = list(itertools.product(model.domain, repeat=sym.arity))
        if sym.kind == "function":
            return interp.functions, tables(tuples, model.domain)
        if sym.bound is not None:
            bvars, formula = sym.bound
            within = compiled(formula)
            kept = []
            for t in tuples:
                env.update(zip(bvars, t))
                if within(interp, env):
                    kept.append(t)
            env.clear()
            tuples = kept
        return interp.relations, (frozenset(rows) for rows in subsets(tuples))

    def assign(k):
        if k == len(eso.prefix):
            return True
        sym = eso.prefix[k]
        checks = checkpoint[k]
        table, candidates = values(sym)
        for value in candidates:
            tick()
            table[sym.name] = value
            for holds in checks:
                if not holds(interp, env):
                    break
            else:
                if assign(k + 1):
                    return True
        return False

    return assign(0)
