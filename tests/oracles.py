"""Independent reference implementations used only by the tests.

Everything here is written as a direct transcription of the defining
clauses, with no sharing of code or of algorithmic ideas with the
package: exhaustive enumeration of covers, partitions and witness
functions.  Slow on purpose; the tests keep the inputs tiny.
"""

import itertools

from teamlogic.model import Assignment, Team
from teamlogic.syntax import (
    And, DepAtom, EquiAtom, Equality, ExclAtom, Exists, Forall, InclAtom,
    IndepAtom, Name, Or, RelAtom,
)


def ref_term_names(term):
    if isinstance(term, Name):
        return {term.ident}
    return set().union(*(ref_term_names(a) for a in term.args))


def _ref_atom_terms(phi):
    if isinstance(phi, RelAtom):
        return phi.args
    if isinstance(phi, Equality):
        return (phi.left, phi.right)
    if isinstance(phi, DepAtom):
        return phi.args
    if isinstance(phi, IndepAtom):
        return phi.cond + phi.left + phi.right
    return phi.left + phi.right


def _head_tail(phi):
    """A junction of k parts read as the binary junction of its first part
    and the junction of the others, as the paper states the rules."""
    head, *tail = phi.parts
    return head, tail[0] if len(tail) == 1 else type(phi)(*tail)


def ref_free_names(phi):
    """Free identifiers, by recursion on the formula."""
    if isinstance(phi, (And, Or)):
        head, tail = _head_tail(phi)
        return ref_free_names(head) | ref_free_names(tail)
    if isinstance(phi, (Exists, Forall)):
        return ref_free_names(phi.body) - {phi.var}
    return set().union(*(ref_term_names(t) for t in _ref_atom_terms(phi)))


def ref_atom_kinds(phi):
    """The classes of the atoms occurring in a formula, by recursion."""
    if isinstance(phi, (And, Or)):
        head, tail = _head_tail(phi)
        return ref_atom_kinds(head) | ref_atom_kinds(tail)
    if isinstance(phi, (Exists, Forall)):
        return ref_atom_kinds(phi.body)
    return {type(phi)}


def ref_term(model, s, term):
    if isinstance(term, Name):
        v = s.get(term.ident)
        if v is not None:
            return v
        return model.constants[term.ident]
    return model.functions[term.func][
        tuple(ref_term(model, s, a) for a in term.args)]


def ref_tarski(model, s, phi):
    if isinstance(phi, RelAtom):
        held = tuple(ref_term(model, s, t) for t in phi.args) \
            in model.relations.get(phi.name, frozenset())
        return held if phi.positive else not held
    if isinstance(phi, Equality):
        same = ref_term(model, s, phi.left) == ref_term(model, s, phi.right)
        return same if phi.positive else not same
    if isinstance(phi, And):
        head, tail = _head_tail(phi)
        return ref_tarski(model, s, head) and ref_tarski(model, s, tail)
    if isinstance(phi, Or):
        head, tail = _head_tail(phi)
        return ref_tarski(model, s, head) or ref_tarski(model, s, tail)
    if isinstance(phi, Exists):
        return any(ref_tarski(model, s.extended(phi.var, m), phi.body)
                   for m in model.domain)
    if isinstance(phi, Forall):
        return all(ref_tarski(model, s.extended(phi.var, m), phi.body)
                   for m in model.domain)
    raise TypeError("not first order: %r" % (phi,))


def _tuple_values(model, s, terms):
    return tuple(ref_term(model, s, t) for t in terms)


def ref_sat(model, team, phi, strict=False):
    """Team satisfaction by literal transcription of the semantic clauses."""
    rows = list(team.rows)
    if isinstance(phi, (RelAtom, Equality)):
        return all(ref_tarski(model, s, phi) for s in rows)
    if isinstance(phi, DepAtom):
        pre, last = phi.args[:-1], phi.args[-1]
        for s1, s2 in itertools.product(rows, repeat=2):
            if _tuple_values(model, s1, pre) == _tuple_values(model, s2, pre) \
                    and ref_term(model, s1, last) != ref_term(model, s2, last):
                return False
        return True
    if isinstance(phi, IndepAtom):
        for s1, s2 in itertools.product(rows, repeat=2):
            if _tuple_values(model, s1, phi.cond) != \
                    _tuple_values(model, s2, phi.cond):
                continue
            if not any(
                    _tuple_values(model, s3, phi.cond) ==
                    _tuple_values(model, s1, phi.cond)
                    and _tuple_values(model, s3, phi.left) ==
                    _tuple_values(model, s1, phi.left)
                    and _tuple_values(model, s3, phi.right) ==
                    _tuple_values(model, s2, phi.right)
                    for s3 in rows):
                return False
        return True
    if isinstance(phi, (InclAtom, ExclAtom, EquiAtom)):
        left = {_tuple_values(model, s, phi.left) for s in rows}
        right = {_tuple_values(model, s, phi.right) for s in rows}
        if isinstance(phi, InclAtom):
            return left <= right
        if isinstance(phi, ExclAtom):
            return not (left & right)
        return left == right
    if isinstance(phi, And):
        head, tail = _head_tail(phi)
        return ref_sat(model, team, head, strict) and \
            ref_sat(model, team, tail, strict)
    if isinstance(phi, Or):
        head, tail = _head_tail(phi)
        n = len(rows)
        for bits in itertools.product((0, 1, 2) if not strict else (0, 1),
                                      repeat=n):
            # 0: head only, 1: tail only, 2: both (lax overlap)
            y = [s for s, b in zip(rows, bits) if b in (0, 2)]
            z = [s for s, b in zip(rows, bits) if b in (1, 2)]
            if ref_sat(model, team.with_rows(y), head, strict) and \
                    ref_sat(model, team.with_rows(z), tail, strict):
                return True
        return not rows
    if isinstance(phi, Exists):
        variables = team.variables if phi.var in team.variables \
            else team.variables + (phi.var,)
        if not rows:
            return ref_sat(model, Team(variables, []), phi.body, strict)
        if strict:
            spaces = [[(m,) for m in model.domain] for _ in rows]
        else:
            spaces = [[combo
                       for size in range(1, len(model.domain) + 1)
                       for combo in itertools.combinations(model.domain, size)]
                      for _ in rows]
        for choice in itertools.product(*spaces):
            ext = {s.extended(phi.var, m)
                   for s, values in zip(rows, choice) for m in values}
            if ref_sat(model, Team(variables, ext), phi.body, strict):
                return True
        return False
    if isinstance(phi, Forall):
        variables = team.variables if phi.var in team.variables \
            else team.variables + (phi.var,)
        ext = {s.extended(phi.var, m) for s in rows for m in model.domain}
        return ref_sat(model, Team(variables, ext), phi.body, strict)
    raise TypeError("not a formula: %r" % (phi,))


def reachable(nodes, edges, start):
    """Nodes reachable from start by one or more edge steps."""
    out = set()
    frontier = {b for (a, b) in edges if a == start}
    while frontier:
        out |= frontier
        frontier = {b for (a, b) in edges if a in out} - out
    return out


def ref_fd_holds(rows, xi, yi):
    seen = {}
    for row in rows:
        key = tuple(row[i] for i in xi)
        if seen.setdefault(key, row[yi]) != row[yi]:
            return False
    return True


def ref_implies(premises, goal, universe_size, max_tuples):
    """The first counterexample to a bounded implication of inclusion and
    exclusion dependencies, or None when there is none.

    Each dependency is a triple ("incl" or "excl", xs, ys) of attribute
    names.  The relations range over the sorted attributes, with at most
    max_tuples rows over the values "0", "1", ...: by size, and within a
    size in itertools.combinations order over the itertools.product
    rows.  The counterexample satisfies every premise and breaks the
    goal, checked on the value sets of each side.
    """
    attributes = sorted({a for _, xs, ys in premises + [goal]
                         for a in xs + ys})
    universe = [str(i) for i in range(universe_size)]
    rows = list(itertools.product(universe, repeat=len(attributes)))

    def values(relation, side):
        return {tuple(row[attributes.index(a)] for a in side)
                for row in relation}

    def holds(dep, relation):
        kind, xs, ys = dep
        left, right = values(relation, xs), values(relation, ys)
        return left <= right if kind == "incl" else not left & right

    for size in range(max_tuples + 1):
        for relation in itertools.combinations(rows, size):
            if all(holds(dep, relation) for dep in premises) \
                    and not holds(goal, relation):
                return relation
    return None
