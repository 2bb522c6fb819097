"""Deciding ESO sentences over a finite model: grounding and DPLL.

eval_eso grounds the sentence over the model into clauses over one
boolean per tuple a prefix relation may hold (and per argument tuple and
value of a prefix function), then decides the clauses by dpll, a DPLL
search with unit propagation that the game solver shares.  Callers
reach eval_eso as translate.eval_eso, next to the ie_to_eso translation
whose output it decides.

A ground formula is True, False, a literal (a boolean's number, negated
for its negation), an _All or an _Any; the last two hold two or more
ground formulas, none a constant and none of their own kind.
"""

import itertools

from .model import ModelError, eval_term
from .semantics import Budget, compiled, term_reader
from .syntax import (
    And, Or, Exists, Forall, Name, App, RelAtom, LITERALS,
    atom_term_tuples,
)


class _All(list):
    """A ground conjunction."""


class _Any(list):
    """A ground disjunction."""


def _ground_and(parts):
    out = _All()
    for part in parts:
        if part is True:
            continue
        if part is False:
            return False
        if type(part) is _All:
            out.extend(part)
        else:
            out.append(part)
    return out if len(out) > 1 else (out[0] if out else True)


def _ground_or(parts):
    out = _Any()
    for part in parts:
        if part is False:
            continue
        if part is True:
            return True
        if type(part) is _Any:
            out.extend(part)
        else:
            out.append(part)
    return out if len(out) > 1 else (out[0] if out else False)


class _Grounding:
    """The ground problem of one eval_eso call.

    Booleans are numbered 1, 2, ... as they are made: first those of the
    prefix symbols, in prefix order and within a symbol in
    itertools.product order of its tuples, then the auxiliary booleans
    of the clause translation.  relations maps each prefix relation
    quantified so far to {tuple: boolean}, over the tuples its bound does
    not rule out; functions maps each prefix function to {argument tuple:
    ((value, boolean), ...)}, one boolean per domain value, exactly one
    of them true.  names holds both maps' keys; every other symbol is the
    model's.
    """

    def __init__(self, model):
        self.model = model
        self.relations = {}
        self.functions = {}
        self.names = frozenset()
        self.first = [None]  # per boolean, the value a decision tries first
        self.clauses = []
        self.domain = [((v,), ()) for v in model.domain]  # as members()
        self._members = {}

    def boolean(self, first):
        self.first.append(first)
        return len(self.first) - 1

    def add_relation(self, sym):
        """Number sym's booleans; return the ground formulas W(t) -> bound
        that are not clauses yet."""
        domain = self.model.domain
        table, implied = {}, []
        if sym.bound is None:
            for t in itertools.product(domain, repeat=sym.arity):
                table[t] = self.boolean(False)
        else:
            bvars, formula = sym.bound
            holds, grounded = grounder(formula, self.names)
            model, env = self.model, {}
            for t in itertools.product(domain, repeat=sym.arity):
                env.update(zip(bvars, t))
                held = holds(model, env) if holds else grounded(self, env)
                if held is not False:
                    w = table[t] = self.boolean(False)
                    if held is not True:
                        implied.append(_ground_or((-w, held)))
        self.relations[sym.name] = table
        self._quantified(sym.name)
        return implied

    def add_function(self, sym):
        """Number sym's booleans and state that each argument tuple takes
        exactly one value."""
        domain = self.model.domain
        table = {}
        for args in itertools.product(domain, repeat=sym.arity):
            options = table[args] = tuple((v, self.boolean(True)) for v in domain)
            self.clauses.append(tuple(f for _v, f in options))
            for (_v, f), (_u, g) in itertools.combinations(options, 2):
                self.clauses.append((-f, -g))
        self.functions[sym.name] = table
        self._quantified(sym.name)

    def _quantified(self, name):
        self.names |= {name}
        for key in [key for key in self._members if key[0] == name]:
            del self._members[key]    # a guard on name reads the symbol now

    def members(self, key):
        """The tuples of a relation that a guard ranges over, key being
        (relation, arity, universal), each with the literals it adds to
        its item: ~W(t) (universal) or W(t) (existential) for a prefix
        relation W, none for the model's relations, whose atoms are
        constants.  Both come in itertools.product order."""
        out = self._members.get(key)
        if out is None:
            name, arity, universal = key
            table = self.relations.get(name)
            if table is not None:
                out = [(t, (-w if universal else w,)) for t, w in table.items()
                       if len(t) == arity]
            else:
                rows = self.model.relations.get(name)
                if rows is None:
                    raise ModelError("unknown relation %s" % name)
                out = [(t, ()) for t in sorted(rows) if len(t) == arity]
            self._members[key] = out
        return out

    def add(self, phi):
        """Add clauses stating the ground formula phi."""
        kind = type(phi)
        if kind is _All:
            for part in phi:
                self.add(part)
        elif kind is _Any:
            self.clause([self.name(part) for part in phi])
        elif phi is not True:
            self.clause(() if phi is False else (phi,))

    def name(self, phi):
        """A boolean equivalent to the ground formula phi (Tseitin 1968),
        set by propagation once the booleans phi reads are."""
        if type(phi) is int:
            return phi
        parts = [self.name(part) for part in phi]
        b = self.boolean(False)
        if type(phi) is _All:
            for p in parts:
                self.clause((-b, p))
            self.clause([b] + [-p for p in parts])
        else:
            self.clause([-b] + parts)
            for p in parts:
                self.clause((b, -p))
        return b

    def clause(self, literals):
        """Add a clause, dropping repeated literals, unless it holds both a
        literal and its negation."""
        if len(literals) == 2:
            a, b = literals
            if a == -b:
                return
            if a == b:
                literals = (a,)
        elif len(literals) > 2:
            literals = dict.fromkeys(literals)
            if not literals.keys().isdisjoint([-lit for lit in literals]):
                return
        self.clauses.append(tuple(literals))


def _atom_idents(phi):
    """The variables of a relation atom over distinct variables, cached;
    None for any other formula."""
    facts = phi.__dict__
    if "idents" not in facts:
        idents = None
        if (isinstance(phi, RelAtom)
                and all(isinstance(t, Name) for t in phi.args)):
            idents = tuple(t.ident for t in phi.args)
            if len(set(idents)) < len(idents):
                idents = None
        facts["idents"] = idents
    return facts["idents"]


def ground(phi, ctx, env):
    """The ground formula of the first order formula phi under env."""
    holds, grounded = grounder(phi, ctx.names)
    return holds(ctx.model, env) if holds else grounded(ctx, env)


def grounder(phi, names):
    """(holds, None) with phi's compiled closure if phi reads none of the
    prefix symbols in names, else (None, grounded) with the closure over
    (grounding, env) that grounds it.

    Its first use with a set of symbols builds the closures of phi's
    subformulas for that set and caches them in the node, next to its
    compiled closure: a subformula that reads none of the symbols runs
    its compiled closure and grounds to True or False.  A quantifier
    block sets and restores its variables in env in place, as compiled
    closures do.  No closure holds phi itself, so the cache adds no
    reference cycle.
    """
    built = phi.__dict__.get("ground")
    if built is None:
        built = phi.__dict__["ground"] = {}
    spec = built.get(names)
    if spec is None:
        spec = built[names] = _part(phi, names)
    return spec


def _part(phi, names):
    """(holds, None) with phi's compiled closure if phi reads none of the
    symbols in names, else (None, ground) with its ground closure."""
    if isinstance(phi, (Exists, Forall)):
        return _ground_block(phi, names)
    if isinstance(phi, LITERALS):
        if isinstance(phi, RelAtom) and phi.name in names \
                or not _functions(phi).isdisjoint(names):
            return None, _ground_atom(phi, names)
        return compiled(phi), None
    if not isinstance(phi, (And, Or)):   # raises as the compiled closure does
        return compiled(phi), None
    parts = [_part(part, names) for part in phi.parts]
    if all(holds for holds, _ground in parts):
        return compiled(phi), None
    return None, _junction(parts, isinstance(phi, And))


def _junction(parts, conjunction):
    """The ground closure of the conjunction or disjunction of parts.

    The parts that read no prefix symbol run first: each grounds to True
    or False, so the ground formula is the same, and one that decides
    the junction spares grounding the others.
    """
    parts = sorted(parts, key=lambda spec: spec[0] is None)
    decided = not conjunction
    join = _ground_and if conjunction else _ground_or

    def grounded(ctx, env):
        model = ctx.model
        out = []
        for holds, part in parts:
            held = holds(model, env) if holds else part(ctx, env)
            if held is decided:
                return decided
            out.append(held)
        return join(out)

    return grounded


def _functions(atom):
    """The function symbols an atom applies, cached."""
    facts = atom.__dict__
    if "functions" not in facts:
        out = set()
        stack = [t for terms in atom_term_tuples(atom) for t in terms]
        while stack:
            t = stack.pop()
            if isinstance(t, App):
                out.add(t.func)
                stack.extend(t.args)
        facts["functions"] = frozenset(out)
    return facts["functions"]


def _ground_atom(phi, names):
    """An atom reading a prefix symbol: a literal of a prefix relation,
    or, when it applies a prefix function, one clause per combination of
    the values its terms may take."""
    if isinstance(phi, RelAtom):
        terms, name, positive = phi.args, phi.name, phi.positive

        def value(ctx, row):
            table = ctx.relations.get(name)
            if table is None:
                rows = ctx.model.relations.get(name)
                if rows is None:
                    raise ModelError("unknown relation %s" % name)
                return (row in rows) == positive
            w = table.get(row)
            if w is None:
                return not positive
            return w if positive else -w

        if _functions(phi).isdisjoint(names):   # so name is a prefix relation
            read = term_reader(terms)

            def literal(ctx, env):
                w = ctx.relations[name].get(read(ctx.model, env))
                if w is None:
                    return not positive
                return w if positive else -w

            return literal
    else:
        terms, positive = (phi.left, phi.right), phi.positive

        def value(_ctx, pair):
            return (pair[0] == pair[1]) == positive

    def grounded(ctx, env):
        options = [_term_options(ctx, env, t) for t in terms]
        out = []
        for combo in itertools.product(*options):
            held = value(ctx, tuple(v for _lits, v in combo))
            if held is not True:
                out.append(_ground_or([-lit for lits, _v in combo
                                       for lit in lits] + [held]))
        return _ground_and(out)

    return grounded


def _term_options(ctx, env, term):
    """The values a term may take, as (literals, value) pairs: exactly
    one pair's literals all hold, and the term takes its value."""
    if not isinstance(term, App):
        return [((), eval_term(ctx.model, env, term))]
    table = ctx.functions.get(term.func)
    out = []
    for combo in itertools.product(*(_term_options(ctx, env, a)
                                     for a in term.args)):
        lits = tuple(lit for lits, _v in combo for lit in lits)
        args = tuple(v for _lits, v in combo)
        if table is None:
            out.append((lits, ctx.model.function_value(term.func, args)))
            continue
        values = table.get(args)
        if values is None:
            raise ModelError("no value for %s(%s)" % (term.func, ", ".join(args)))
        out.extend((lits + (f,), v) for v, f in values)
    return out


def _ground_block(phi, names):
    """A block of like quantifiers, grounded to the conjunction (forall)
    or disjunction (exists) of its body over the values of its variables.

    The body's disjuncts (forall) or conjuncts (exists) that are relation
    atoms, ~W(vs) or W(vs) over distinct block variables, are guards: a
    guarded variable ranges over the tuples of W only, since any other
    tuple makes the item True (forall) or False (exists).  Unguarded
    variables range over the domain.
    """
    universal = isinstance(phi, Forall)
    kind = type(phi)
    variables = []
    body = phi
    while isinstance(body, kind) and body.var not in variables:
        variables.append(body.var)
        body = body.body
    parts = body.parts if type(body) is (Or if universal else And) else (body,)
    specs = [_part(part, names) for part in parts]
    if all(holds for holds, _ground in specs):
        return compiled(phi), None
    loose = set(variables)
    guards, rest = [], []
    for part, spec in zip(parts, specs):
        idents = _atom_idents(part)
        if (idents is not None and part.positive != universal
                and loose.issuperset(idents)):
            loose.difference_update(idents)
            guards.append(((part.name, len(idents), universal), idents))
        else:
            rest.append(spec)
    if len(rest) == 1:
        holds, rest = rest[0]
    elif rest:
        holds, rest = None, _junction(rest, not universal)
    else:   # the items are the guards' literals alone
        holds, rest = (lambda _model, _env: not universal), None
    loose = [v for v in variables if v in loose]
    bound = [i for _key, idents in guards for i in idents] + loose
    keys = [key for key, _idents in guards]
    single = len(keys) + len(loose) == 1
    decided = not universal
    combine = _ground_or if universal else _ground_and
    join = _ground_and if universal else _ground_or
    gather = _Any if universal else _All

    def grounded(ctx, env):
        model = ctx.model
        sources = [ctx.members(key) for key in keys]
        if single:
            rows = sources[0] if sources else ctx.domain
        else:
            sources += [ctx.domain] * len(loose)
            rows = sources[0]
            for source in sources[1:]:
                rows = [(t + u, lits + more)
                        for t, lits in rows for u, more in source]
        saved = [env.get(n) for n in bound]
        items = []
        for values, lits in rows:
            env.update(zip(bound, values))
            held = holds(model, env) if holds else rest(ctx, env)
            if held is universal:
                continue
            if held is decided:
                if not lits:
                    items = None
                    break
                items.append(lits[0] if len(lits) == 1 else gather(lits))
            else:
                items.append(combine(lits + (held,)) if lits else held)
        for n, value in zip(bound, saved):
            if value is None:
                env.pop(n, None)
            else:
                env[n] = value
        if items is None:
            return decided
        return join(items) if items else universal

    return None, grounded


def dpll(clauses, first, tick):
    """A satisfying assignment of the clauses over booleans
    1 .. len(first) - 1, found by DPLL with unit propagation (Davis,
    Logemann & Loveland 1962), or None if there is none.  The clauses
    are sequences of literals: a boolean's number, negated for its
    negation.  In the list returned, item b is boolean b's value.

    Each decision sets the lowest-numbered unset boolean to first[b]
    and, if that fails, to the other value; each value tried ticks the
    budget.  A loop with an explicit stack of decisions, not a recursion
    per decision.  eval_eso and the game solver both decide by it.
    """
    count = len(first) - 1
    # truth[lit] and occurs[lit] are indexed by the literal itself: a
    # negative literal counts from the end of the list.
    truth = [None] * (2 * count + 1)
    occurs = [[] for _ in truth]
    units = []
    for clause in clauses:
        if not clause:
            return None
        if len(clause) == 1:
            units.append(clause[0])
        for lit in clause:
            occurs[lit].append(clause)
    trail = []

    def propagate(lit):
        """Set lit and every literal it forces; False on a conflict."""
        if truth[lit] is not None:
            return truth[lit]
        head = len(trail)
        truth[lit], truth[-lit] = True, False
        trail.append(lit)
        while head < len(trail):
            for clause in occurs[-trail[head]]:
                unit = 0
                for other in clause:
                    held = truth[other]
                    if held is None:
                        if unit:
                            break
                        unit = other
                    elif held:
                        break
                else:
                    if not unit:
                        return False
                    truth[unit], truth[-unit] = True, False
                    trail.append(unit)
            head += 1
        return True

    def undo(mark):
        for lit in trail[mark:]:
            truth[lit] = truth[-lit] = None
        del trail[mark:]

    if not all(propagate(lit) for lit in units):
        return None
    decisions = []   # (trail length before, boolean, flipped already)
    b = 1
    while True:
        while b <= count and truth[b] is not None:
            b += 1
        if b > count:
            return truth[:count + 1]
        tick()
        decisions.append((len(trail), b, False))
        held = propagate(b if first[b] else -b)
        while not held:
            while decisions:
                mark, b, flipped = decisions.pop()
                undo(mark)
                if not flipped:
                    break
            else:
                return None
            tick()
            decisions.append((mark, b, True))
            held = propagate(-b if first[b] else b)


def eval_eso(model, eso, a, budget=None):
    """Whether some interpretation of the prefix makes the matrix true,
    with the free relation holding the tuples a.

    The sentence is grounded into clauses over booleans W(t), one per
    tuple t that a prefix relation W may hold: all tuples, or those its
    bound does not rule out under the symbols before it.  A prefix
    function f has a boolean f(args, v) per argument tuple and value,
    exactly one true per argument tuple.  The model's tables and a are
    constants.  The clauses are decided by dpll: decisions follow the
    booleans' numbers, so prefix order and then itertools.product tuple
    order; a relation's boolean is tried false first and a function's
    true first.  One node is the root (grounding and the first
    propagation) or one value tried at a decision.
    """
    tick = (budget or Budget()).tick
    tick()
    ctx = _Grounding(model.with_relation(eso.free_relation, a))
    implied = []
    for sym in eso.prefix:
        if sym.kind == "function":
            ctx.add_function(sym)
        else:
            implied.extend(ctx.add_relation(sym))
    for phi in implied:
        ctx.add(phi)
    held = ground(eso.matrix, ctx, {})
    if held is False:
        return False
    ctx.add(held)
    return dpll(ctx.clauses, ctx.first, tick) is not None
