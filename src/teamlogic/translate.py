"""Formula rewriters between the atom families, plus the ESO bridge.

Each atom translation emits the equivalent formula over another atom
family, with deterministically named fresh variables (_v0, _v1, ...).
Tuple equalities and disequalities expand componentwise: z1...zk = t1...tk
becomes a conjunction of equalities, its negation a disjunction of
disequalities.

The ESO bridge maps formulas over {FO, incl, excl} to existential
second-order sentences with one free relation symbol holding the team,
and Skolem-style second-order normal forms back into the team language.
Its relation quantifiers may be bounded, exists W within B: each subteam
ranges over the subsets of its parent team, so the matrix names every
team by one atom.
"""

import itertools
import re
from dataclasses import dataclass

from .eso import eval_eso
from .syntax import (
    And, Or, Exists, Forall, Name, App,
    RelAtom, Equality, DepAtom, IndepAtom, InclAtom, ExclAtom, EquiAtom,
    ATOMS, LITERALS, atom_term_tuples,
    conjoin, disjoin, exists_block, flatten_and, forall_block,
    free_names, term_names, is_first_order, negate_nnf, parse, render,
    substitute, substitute_term, subformula_instances,
    fresh_names, fresh_vars,
)


class TranslateError(ValueError):
    pass


def _names_of_terms(terms):
    out = set()
    for t in terms:
        out |= term_names(t)
    return out


def _draw(count, terms, fresh):
    """The names for count new variables of an atom's translation.

    fresh is an iterator of unused names, which compile threads through
    every rule it applies; by default the names are the first count of
    _v0, _v1, ... outside the names of the atom's terms.
    """
    if fresh is None:
        fresh = fresh_names(_names_of_terms(terms))
    return list(itertools.islice(fresh, count))


def _all_names(phi):
    """Every identifier occurring in a formula, bound or free."""
    if isinstance(phi, ATOMS):
        return set(free_names(phi))
    if isinstance(phi, (And, Or)):
        return set().union(*map(_all_names, phi.parts))
    return _all_names(phi.body) | {phi.var}


def tuple_equal(left, right):
    """z1...zk = t1...tk as a conjunction of component equalities."""
    if not left:
        raise TranslateError("tuple equality needs a nonempty tuple")
    return conjoin([Equality(a, b) for a, b in zip(left, right)])


def tuple_unequal(left, right):
    if not left:
        raise TranslateError("tuple disequality needs a nonempty tuple")
    return disjoin([Equality(a, b, positive=False) for a, b in zip(left, right)])


# ---------------------------------------------------------------------------
# Constancy rewriting


def _is_constancy(phi):
    return isinstance(phi, DepAtom) and len(phi.args) == 1


def _rewrite_atoms(phi, fix):
    """phi with each atom a replaced by fix(a) wherever that is not None.

    Atoms are visited in pre-order, so fix may draw fresh names in the
    order the atoms are written.
    """
    if isinstance(phi, ATOMS):
        out = fix(phi)
        return phi if out is None else out
    if isinstance(phi, (And, Or)):
        return type(phi)(*(_rewrite_atoms(part, fix) for part in phi.parts))
    return type(phi)(phi.var, _rewrite_atoms(phi.body, fix))


def const_pushout(phi):
    """Lift the outermost constancy atom into a quantified constant.

    dep(t) is replaced in place by z = t for a fresh z, and the result
    wrapped as exists z . (dep(z) /\\ ...).
    """
    z = fresh_vars(1, _all_names(phi))[0]
    lifted = []

    def fix(atom):
        if lifted or not _is_constancy(atom):
            return None
        lifted.append(atom)
        return Equality(Name(z), atom.args[0])

    inner = _rewrite_atoms(phi, fix)
    if not lifted:
        raise TranslateError("no constancy atom to lift")
    return Exists(z, And(DepAtom((Name(z),)), inner))


def const_normal_form(phi):
    """exists z1..zn (dep(z1) /\\ ... /\\ dep(zn) /\\ psi) with psi first order."""
    fresh = fresh_names(_all_names(phi))
    names = []

    def fix(atom):
        if _is_constancy(atom):
            z = next(fresh)
            names.append(z)
            return Equality(Name(z), atom.args[0])
        if isinstance(atom, DepAtom):
            raise TranslateError("wide dependence atom outside constancy logic")
        if isinstance(atom, (IndepAtom, InclAtom, ExclAtom, EquiAtom)):
            raise TranslateError("non-constancy dependency atom")
        return None

    body = _rewrite_atoms(phi, fix)
    if not names:
        return phi
    parts = [DepAtom((Name(z),)) for z in names] + [body]
    return exists_block(names, conjoin(parts))


def const_sentence_collapse(phi):
    """Drop the constancy conjuncts of a normal-form sentence."""
    prefix = []
    body = phi
    while isinstance(body, Exists):
        prefix.append(body.var)
        body = body.body
    conjuncts = flatten_and(body)
    kept = [c for c in conjuncts
            if not (_is_constancy(c) and isinstance(c.args[0], Name)
                    and c.args[0].ident in prefix)]
    if any(not is_first_order(c) for c in kept):
        raise TranslateError("not a constancy normal form sentence")
    if not kept:
        raise TranslateError("nothing but constancy conjuncts")
    return exists_block(prefix, conjoin(kept))


# ---------------------------------------------------------------------------
# Atom-to-atom translations


def dep_to_indep(terms):
    terms = tuple(terms)
    return IndepAtom(terms[:-1], (terms[-1],), (terms[-1],))


def dep_to_exc(terms, fresh=None):
    terms = tuple(terms)
    z, = _draw(1, terms, fresh)
    left = terms[:-1] + (Name(z),)
    return Forall(z, Or(Equality(Name(z), terms[-1]),
                        ExclAtom(left, terms)))


def exc_to_dep(t1s, t2s, fresh=None):
    t1s, t2s = tuple(t1s), tuple(t2s)
    width = len(t1s)
    names = _draw(width + 2, t1s + t2s, fresh)
    zs, (u1, u2) = names[:width], names[width:]
    zterms = tuple(Name(z) for z in zs)
    body = conjoin([
        DepAtom(zterms + (Name(u1),)),
        DepAtom(zterms + (Name(u2),)),
        Or(And(Equality(Name(u1), Name(u2)), tuple_unequal(zterms, t1s)),
           And(Equality(Name(u1), Name(u2), positive=False),
               tuple_unequal(zterms, t2s))),
    ])
    return forall_block(zs, exists_block([u1, u2], body))


def equi_to_inc(t1s, t2s):
    t1s, t2s = tuple(t1s), tuple(t2s)
    return And(InclAtom(t1s, t2s), InclAtom(t2s, t1s))


def inc_to_equi(t1s, t2s, fresh=None):
    t1s, t2s = tuple(t1s), tuple(t2s)
    width = len(t1s)
    names = _draw(2 + width, t1s + t2s, fresh)
    (u1, u2), zs = names[:2], names[2:]
    zterms = tuple(Name(z) for z in zs)
    body = And(EquiAtom(t2s, zterms),
               Or(Equality(Name(u1), Name(u2), positive=False),
                  tuple_equal(zterms, t1s)))
    return forall_block([u1, u2], exists_block(zs, body))


def inc_to_indep(t1s, t2s, fresh=None):
    t1s, t2s = tuple(t1s), tuple(t2s)
    width = len(t1s)
    names = _draw(2 + width, t1s + t2s, fresh)
    (v1, v2), zs = names[:2], names[2:]
    zterms = tuple(Name(z) for z in zs)
    first = And(tuple_unequal(zterms, t1s), tuple_unequal(zterms, t2s))
    second = And(Equality(Name(v1), Name(v2), positive=False),
                 tuple_unequal(zterms, t2s))
    third = And(Or(Equality(Name(v1), Name(v2)), tuple_equal(zterms, t2s)),
                IndepAtom((), zterms, (Name(v1), Name(v2))))
    return forall_block([v1, v2] + zs, disjoin([first, second, third]))


def indep_to_ie(t1s, t2s, t3s, fresh=None):
    t1s, t2s, t3s = tuple(t1s), tuple(t2s), tuple(t3s)
    w1, w2, w3 = len(t1s), len(t2s), len(t3s)
    names = _draw(w1 + w2 + w3 + 4, t1s + t2s + t3s, fresh)
    ps = names[:w1]
    qs = names[w1:w1 + w2]
    rs = names[w1 + w2:w1 + w2 + w3]
    u1, u2, u3, u4 = names[w1 + w2 + w3:]
    pt = tuple(Name(n) for n in ps)
    qt = tuple(Name(n) for n in qs)
    rt = tuple(Name(n) for n in rs)
    deps = [DepAtom(pt + qt + rt + (Name(u),)) for u in (u1, u2, u3, u4)]
    side1 = And(Equality(Name(u1), Name(u2), positive=False),
                ExclAtom(pt + qt, t1s + t2s))
    side2 = conjoin([Equality(Name(u1), Name(u2)),
                     Equality(Name(u3), Name(u4), positive=False),
                     ExclAtom(pt + rt, t1s + t3s)])
    side3 = conjoin([Equality(Name(u1), Name(u2)),
                     Equality(Name(u3), Name(u4)),
                     InclAtom(pt + qt + rt, t1s + t2s + t3s)])
    body = conjoin(deps + [disjoin([side1, side2, side3])])
    return forall_block(list(ps) + list(qs) + list(rs),
                        exists_block([u1, u2, u3, u4], body))


# ---------------------------------------------------------------------------
# Whole-formula compilation


_ATOM_KIND = {DepAtom: "dep", IndepAtom: "indep", InclAtom: "incl",
              ExclAtom: "excl", EquiAtom: "equi"}


def _rewrite_atom(atom, target, fresh):
    if isinstance(atom, DepAtom):
        if "excl" in target:
            return dep_to_exc(atom.args, fresh)
        if "indep" in target:
            return dep_to_indep(atom.args)
    if isinstance(atom, ExclAtom):
        if "dep" in target or "indep" in target:
            return exc_to_dep(atom.left, atom.right, fresh)
    if isinstance(atom, EquiAtom):
        if "incl" in target or "indep" in target:
            return equi_to_inc(atom.left, atom.right)
    if isinstance(atom, InclAtom):
        if "equi" in target:
            return inc_to_equi(atom.left, atom.right, fresh)
        if "indep" in target:
            return inc_to_indep(atom.left, atom.right, fresh)
    if isinstance(atom, IndepAtom):
        if "incl" in target and "excl" in target:
            return indep_to_ie(atom.cond, atom.left, atom.right, fresh)
    raise TranslateError("no translation path from %s atoms to {%s}"
                         % (_ATOM_KIND[type(atom)], ", ".join(sorted(target))))


def compile(phi, target):
    """Rewrite all atoms outside the target families, fresh vars globally.

    target is a set drawn from {dep, indep, incl, excl, equi}; first
    order material always passes through.  Inclusion atoms cannot reach
    a downward-closed target ({dep, excl} subsets) and raise.
    """
    target = set(target)
    # Every name a translation adds is drawn from this one iterator, so
    # the names outside phi's own are each drawn once, in order: the
    # first names unused so far, at O(1) per name.
    fresh = fresh_names(_all_names(phi))

    def fix(atom):
        kind = _ATOM_KIND.get(type(atom))
        if kind is None or kind in target:
            return None
        return _rewrite_atoms(_rewrite_atom(atom, target, fresh), fix)

    return _rewrite_atoms(phi, fix)


# ---------------------------------------------------------------------------
# Transitive closure and the parity sentence


def tc_sentence(psi, avars, bvars, xvars, yvars):
    """Sentence satisfied iff b is NOT reachable from a along psi-edges.

    psi is a first order edge formula with free variables xvars (source)
    and yvars (target), all distinct; avars/bvars are constant-name
    tuples.  The output quantifies a team column holding a psi-closed set
    that contains a and avoids b.
    """
    if not is_first_order(psi):
        raise TranslateError("edge formula must be first order")
    width = len(xvars)
    if not width or any(len(vs) != width for vs in (avars, bvars, yvars)):
        raise TranslateError("tc needs a, b, x and y tuples of one nonzero width")
    if len(set(xvars) | set(yvars)) != 2 * width:
        raise TranslateError("x and y must be distinct variables")
    avoid = _all_names(psi) | set(xvars) | set(yvars) | set(avars) | set(bvars)
    names = fresh_vars(2 * width, avoid)
    zs, ws = names[:width], names[width:]
    zterms = tuple(Name(z) for z in zs)
    wterms = tuple(Name(w) for w in ws)
    edge = substitute(psi, {**{x: zt for x, zt in zip(xvars, zterms)},
                            **{y: wt for y, wt in zip(yvars, wterms)}})
    inner = forall_block(ws, Or(negate_nnf(edge), InclAtom(wterms, zterms)))
    body = conjoin([InclAtom(tuple(Name(a) for a in avars), zterms),
                    tuple_unequal(zterms, tuple(Name(b) for b in bvars)),
                    inner])
    return exists_block(zs, body)


def odd_cardinality_sentence():
    r"""The parity sentence over linear orders with saturating successor.

    Holds in a model iff its domain has odd size of at least 3, where the
    domain is a linear order 0 < 1 < ... < e with constants 0 (first) and
    e (last) and successor S(i) = i+1 below e, S(e) = e.

    Instantiates tc_sentence with start constant 0, forbidden endpoint e
    and the edge

        x = 0 /\ y = S(x)  \/  x != 0 /\ y = S(S(x)) /\ S(S(x)) != S(x)

    so 0 steps to 1 and every other element steps two places up.  The
    elements reachable from 0 are exactly the odd ones, and e is
    unreachable iff e is even, i.e. iff the size is odd.  The guard keeps
    a saturated step from counting as an edge: without it, a chain that
    lands on the element before e would step to S(S(e-1)) = S(e) = e,
    and e would be reachable on every size.
    """
    x, y, zero = Name("x"), Name("y"), Name("0")
    sx = App("S", (x,))
    ssx = App("S", (sx,))
    psi = Or(conjoin([Equality(x, zero), Equality(y, sx)]),
             conjoin([Equality(x, zero, positive=False), Equality(y, ssx),
                      Equality(ssx, sx, positive=False)]))
    return tc_sentence(psi, ("0",), ("e",), ("x",), ("y",))


# ---------------------------------------------------------------------------
# Existential second-order bridge


@dataclass(frozen=True)
class SOSymbol:
    r"""A second-order symbol of an ESO prefix.

    A relation may carry a bound (variables, FO formula).  It then ranges
    over the subsets of the bound's extension, read under the symbols
    quantified before it: exists W within B is the plain ESO
    exists W (forall variables . (~W(variables) \/ B) /\ ...).  Relations
    without a bound range over all tuples, functions over all tables.
    """

    kind: str  # "relation" | "function"
    name: str
    arity: int
    bound: tuple = None  # (variable tuple, FO formula) or None


@dataclass
class ESOFormula:
    """An ESO sentence with one free relation symbol holding the team.

    The prefix quantifies relations, each bounded or not, and functions.
    """

    free_relation: str
    free_arity: int
    prefix: list  # of SOSymbol, quantified left to right
    matrix: object  # FO formula over the extended signature


def ie_to_eso(phi, vs):
    """Build Phi(A) with: M sat_X phi (lax)  iff  Phi holds with A := X(vs).

    Each team met on the way down the syntax tree is named by one
    membership formula mu: A(vs) for the input team, and W(...) for a
    relation W bounded by its parent team.  A k-part disjunction
    quantifies k covering subrelations, one per disjunct, existentials a
    witness relation pairing each row with its chosen values, universals
    rebind the column directly.
    Only a quantifier over a team variable wraps mu, in exists old . ...
    Every atom adds one constraint that reads ~mu(v).
    """
    vs = tuple(vs)
    if len(set(vs)) != len(vs):
        raise TranslateError("repeated team variable in %s" % ", ".join(vs))
    missing = free_names(phi) - set(vs)
    if missing:
        raise TranslateError("free variables outside the team tuple: %s"
                             % ", ".join(sorted(missing)))
    prefix = []
    constraints = []
    names = fresh_names(_all_names(phi) | set(vs))

    def fresh(count):
        return list(itertools.islice(names, count))

    def rel_args(variables):
        return tuple(Name(v) for v in variables)

    def subteam(variables, mu):
        """W(variables) for a fresh relation W within the team mu."""
        name = "W%d" % (len(prefix) + 1)
        prefix.append(SOSymbol("relation", name, len(variables),
                               (variables, mu)))
        return RelAtom(name, rel_args(variables))

    def go(sub, mu, variables):
        if isinstance(sub, LITERALS):
            constraints.append(forall_block(
                variables, Or(negate_nnf(mu), sub)))
            return
        if isinstance(sub, (InclAtom, ExclAtom)):
            if isinstance(sub, InclAtom) and not sub.left:
                return
            # A second row of the same team, over primed variables.
            primed = fresh(len(variables))
            ren = {v: Name(p) for v, p in zip(variables, primed)}
            mu2 = substitute(mu, ren)
            t2p = tuple(substitute_term(t, ren) for t in sub.right)
            if isinstance(sub, InclAtom):
                match = conjoin([Equality(a, b) for a, b in zip(t2p, sub.left)])
                constraints.append(forall_block(
                    variables,
                    Or(negate_nnf(mu), exists_block(primed, And(mu2, match)))))
                return
            parts = [negate_nnf(mu), negate_nnf(mu2)]
            # No two rows differ on zero terms: excl( ; ) needs the empty team.
            if sub.left:
                parts.append(tuple_unequal(sub.left, t2p))
            constraints.append(forall_block(list(variables) + primed,
                                            disjoin(parts)))
            return
        if isinstance(sub, And):
            for part in sub.parts:
                go(part, mu, variables)
            return
        if isinstance(sub, Or):
            sides = [subteam(variables, mu) for _part in sub.parts]
            constraints.append(forall_block(
                variables, Or(negate_nnf(mu), *sides)))
            for part, side in zip(sub.parts, sides):
                go(part, side, variables)
            return
        if isinstance(sub, Exists):
            x = sub.var
            if x not in variables:
                wvars = variables + (x,)
                witness = subteam(wvars, mu)
                constraints.append(forall_block(
                    variables, Or(negate_nnf(mu), Exists(x, witness))))
                go(sub.body, witness, wvars)
                return
            # Overwrite: the witness relation pairs each old row (with
            # its old x value) with the new x values chosen for it.
            old, xn = fresh(2)
            witness = subteam(variables + (xn,), mu)
            constraints.append(forall_block(
                variables, Or(negate_nnf(mu), Exists(xn, witness))))
            # Membership after the overwrite: some old value of x connects
            # the surviving coordinates to the new one through the witness.
            args_old = tuple(Name(old) if v == x else Name(v) for v in variables)
            moved = RelAtom(witness.name, args_old + (Name(x),))
            go(sub.body, Exists(old, moved), variables)
            return
        if isinstance(sub, Forall):
            x = sub.var
            if x not in variables:
                go(sub.body, mu, variables + (x,))
                return
            old = fresh(1)[0]
            go(sub.body, Exists(old, substitute(mu, {x: Name(old)})), variables)
            return
        raise TranslateError("cannot translate %s to ESO" % render(sub))

    try:
        go(phi, RelAtom("A", rel_args(vs)), vs)
    finally:
        del go   # go refers to itself: break the cycle
    if constraints:
        matrix = conjoin(constraints)
    else:
        v = fresh(1)[0]
        matrix = Forall(v, Equality(Name(v), Name(v)))
    return ESOFormula("A", len(vs), prefix, matrix)


def format_eso(eso):
    """Line-oriented text for an ESO sentence, stable across runs."""
    lines = ["free relation %s/%d" % (eso.free_relation, eso.free_arity)]
    for sym in eso.prefix:
        line = "exists %s %s/%d" % (sym.kind, sym.name, sym.arity)
        if sym.bound is not None:
            bvars, formula = sym.bound
            line += " within %s . %s" % (" ".join(bvars), render(formula))
        lines.append(line)
    lines.append("matrix: %s" % render(eso.matrix))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Skolem-style second-order normal forms


@dataclass
class SkolemNF:
    """A normal form ∃f1..fn ∀x⃗y⃗ ((A x⃗ ↔ f1(x⃗)=f2(x⃗)) ∧ psi).

    psi is quantifier-free FO over x⃗, y⃗ and the fixed applications
    fi(w⃗i); the first two functions both take exactly x⃗.  The function
    names are distinct, and so are the variables of x⃗ and y⃗ together.
    """

    a_arity: int
    xvars: tuple
    yvars: tuple
    functions: list  # of (name, argument-variable tuple)
    psi: object

    def __post_init__(self):
        self.xvars = tuple(self.xvars)
        self.yvars = tuple(self.yvars)
        self.functions = [(name, tuple(ws)) for name, ws in self.functions]
        if len(self.functions) < 2:
            raise TranslateError("normal form needs at least two functions")
        names = [name for name, _ws in self.functions]
        if len(set(names)) != len(names):
            raise TranslateError("function names must be distinct")
        quantified = self.xvars + self.yvars
        if len(set(quantified)) != len(quantified):
            raise TranslateError("x and y must be distinct variables")
        if self.functions[0][1] != self.xvars or self.functions[1][1] != self.xvars:
            raise TranslateError("the first two functions must take the x-tuple")
        if self.a_arity != len(self.xvars):
            raise TranslateError("relation arity must match the x-tuple")
        allowed = set(self.xvars) | set(self.yvars)
        for _name, ws in self.functions:
            if not set(ws) <= allowed:
                raise TranslateError("function arguments outside the quantified tuple")
        declared = {name: tuple(Name(w) for w in ws) for name, ws in self.functions}
        for _path, sub in subformula_instances(self.psi):
            if not isinstance(sub, LITERALS + (And, Or)):
                raise TranslateError("psi must be quantifier-free first order")
            if isinstance(sub, LITERALS):
                for t in itertools.chain.from_iterable(atom_term_tuples(sub)):
                    if isinstance(t, App) and declared.get(t.func) != t.args:
                        raise TranslateError(
                            "psi may apply a function only to its declared "
                            "variables: %s" % t)


def _replace_apps(phi, mapping):
    """Replace function applications f(...) by terms, keyed on f's name."""

    def fix_term(t):
        if isinstance(t, App):
            if t.func in mapping:
                return mapping[t.func]
            return App(t.func, tuple(fix_term(a) for a in t.args))
        return t

    def fix(atom):
        if isinstance(atom, RelAtom):
            return RelAtom(atom.name, tuple(fix_term(t) for t in atom.args),
                           atom.positive)
        if isinstance(atom, Equality):
            return Equality(fix_term(atom.left), fix_term(atom.right),
                            atom.positive)
        raise TranslateError("psi must be first order")

    return _rewrite_atoms(phi, fix)


def skolemnf_to_ie(nf, vs):
    """The team-logic equivalent of a normal-form ESO sentence.

    Output: ∀x⃗y⃗ ∃z⃗ (⋀i dep(w⃗i, zi) ∧ ((v⃗ ⊆ x⃗ ∧ z1 = z2) ∨
    (v⃗ | x⃗ ∧ z1 ≠ z2)) ∧ psi[fi(w⃗i) := zi]); the equivalence with the
    source sentence holds over nonempty teams.
    """
    vs = tuple(vs)
    if len(vs) != nf.a_arity:
        raise TranslateError("team tuple width must match the relation arity")
    avoid = set(vs) | set(nf.xvars) | set(nf.yvars) | _all_names(nf.psi)
    quantified = list(nf.xvars) + list(nf.yvars)
    renames = fresh_vars(len(quantified) + len(nf.functions), avoid)
    fresh_xy = renames[:len(quantified)]
    zs = renames[len(quantified):]
    ren = {old: Name(new) for old, new in zip(quantified, fresh_xy)}
    xterms = tuple(ren[x] for x in nf.xvars)
    psi = substitute(_replace_apps(nf.psi,
                                   {name: Name(z)
                                    for (name, _ws), z in zip(nf.functions, zs)}),
                     ren)
    deps = []
    for (name, ws), z in zip(nf.functions, zs):
        wterms = tuple(ren[w] for w in ws)
        deps.append(DepAtom(wterms + (Name(z),)))
    vterms = tuple(Name(v) for v in vs)
    # The inclusion side collects the rows whose x values name team tuples,
    # so the membership test must read "x values among the team values".
    equalizer = Or(And(InclAtom(xterms, vterms),
                       Equality(Name(zs[0]), Name(zs[1]))),
                   And(ExclAtom(xterms, vterms),
                       Equality(Name(zs[0]), Name(zs[1]), positive=False)))
    body = conjoin(deps + [equalizer, psi])
    return forall_block(fresh_xy, exists_block(zs, body))


def skolemnf_to_eso(nf):
    """The source sentence of a normal form, for cross-checks by eval_eso."""
    xterms = tuple(Name(x) for x in nf.xvars)
    f1, f2 = nf.functions[0][0], nf.functions[1][0]
    eq = Equality(App(f1, xterms), App(f2, xterms))
    a_atom = RelAtom("A", xterms)
    bicond = And(Or(RelAtom("A", xterms, positive=False), eq),
                 Or(a_atom, Equality(App(f1, xterms), App(f2, xterms),
                                     positive=False)))
    matrix = forall_block(list(nf.xvars) + list(nf.yvars), And(bicond, nf.psi))
    prefix = [SOSymbol("function", name, len(ws)) for name, ws in nf.functions]
    return ESOFormula("A", nf.a_arity, prefix, matrix)


def parse_skolemnf(text):
    """Parse the block syntax 'A/k ; x: ... ; y: ... ; f: ... ; psi: ...'.

    Example: "A/1 ; x: u ; y: ; f1: u ; f2: u ; psi: f1(u) = f2(u)".
    Function segments list the argument variables after the name.
    """
    segments = [seg.strip() for seg in text.split(";")]
    if len(segments) < 5:
        raise TranslateError("normal form needs A/k, x, y, functions and psi")
    m = re.fullmatch(r"A/(\d+)", segments[0])
    if not m:
        raise TranslateError("first segment must be A/<arity>")
    a_arity = int(m.group(1))
    xvars = yvars = None
    functions = []
    psi = None
    keys = set()
    for seg in segments[1:]:
        key, colon, rest = seg.partition(":")
        key = key.strip()
        rest = rest.strip()
        if not colon or not key:
            raise TranslateError("segment %r has no 'key:'" % seg)
        if key in keys:
            raise TranslateError("segment %s given twice" % key)
        keys.add(key)
        if key == "x":
            xvars = tuple(rest.split())
        elif key == "y":
            yvars = tuple(rest.split())
        elif key == "psi":
            psi = parse(rest)
        else:
            functions.append((key, tuple(rest.split())))
    if xvars is None or yvars is None or psi is None:
        raise TranslateError("missing x, y or psi segment")
    return SkolemNF(a_arity, xvars, yvars, functions, psi)
