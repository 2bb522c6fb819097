import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from teamlogic.model import Assignment, Model, ModelError, Team, all_teams
from teamlogic.translate import ESOFormula, SOSymbol, eval_eso, indep_to_ie
from teamlogic.semantics import (
    Budget, BudgetExceeded, Evaluator, Mode, check_atom, check_dependence,
    check_equiextension, check_exclusion, check_inclusion, check_independence,
    is_downward_closed, is_union_closed, satisfies,
    Verdict, compiled, satisfies_sentence, tarski,
)
from teamlogic.syntax import (
    And, App, DepAtom, EquiAtom, Equality, ExclAtom, Exists, Forall, InclAtom,
    IndepAtom, Name, Or, RelAtom, flatten_and, parse, render,
)

from budgets import within
from oracles import ref_sat, ref_tarski

DOM = ("0", "1")
M2 = Model(DOM)
M3 = Model(("0", "1", "2"))


def team(pairs, variables=("x", "y")):
    return Team.from_tuples(variables, pairs)


# --- atom checkers against their definitions -------------------------------


def test_check_dependence():
    x = team([("0", "0"), ("0", "1")])
    args = (Name("x"), Name("y"))
    assert not check_dependence(M2, x, args)
    assert check_dependence(M2, team([("0", "0"), ("1", "1")]), args)
    # constancy: width one
    assert check_dependence(M2, team([("0", "0"), ("1", "0")]), (Name("y"),))
    assert not check_dependence(M2, x, (Name("y"),))


def test_check_independence_unconditional():
    full = team([("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")])
    assert check_independence(M2, full, (), (Name("x"),), (Name("y"),))
    assert not check_independence(M2, team([("0", "0"), ("1", "1")]),
                                  (), (Name("x"),), (Name("y"),))


def test_check_inclusion_exclusion_equiextension():
    x = team([("0", "1"), ("1", "1")])
    assert check_inclusion(M2, x, (Name("y"),), (Name("x"),))
    assert not check_inclusion(M2, x, (Name("x"),), (Name("y"),))
    assert not check_exclusion(M2, x, (Name("x"),), (Name("y"),))
    assert check_exclusion(M2, team([("0", "1")]), (Name("x"),), (Name("y"),))
    assert check_equiextension(M2, team([("0", "1"), ("1", "0")]),
                               (Name("x"),), (Name("y"),))


def test_closure_class_of_formulas():
    assert is_downward_closed(parse("dep(x, y) /\\ excl(x ; y)"))
    assert not is_downward_closed(parse("incl(x ; y)"))
    assert is_union_closed(parse("incl(x ; y) \\/ equi(x ; y)"))
    assert not is_union_closed(parse("dep(x, y)"))
    assert is_union_closed(parse("x = y"))


# --- basic evaluation facts ------------------------------------------------


def test_empty_team_satisfies_everything():
    empty = Team(("x", "y"), [])
    for text in ("x != x", "dep(x, y)", "incl(x ; y)",
                 "exists z . incl(z ; x)", "x = y \\/ x != y"):
        for mode in (Mode.LAX, Mode.STRICT):
            assert satisfies(M2, empty, parse(text), mode).is_sat


def test_singleton_team_agrees_with_tarski():
    phi = parse("exists z . (z = x /\\ z != y)")
    for values in itertools.product(DOM, repeat=2):
        x = team([values])
        expected = tarski(M2, x.sorted_rows()[0], phi)
        assert satisfies(M2, x, phi).is_sat == expected


def test_free_variable_outside_team_rejected():
    with pytest.raises(ValueError):
        satisfies(M2, team([("0", "1")]), parse("incl(x ; w)"))


def test_constants_do_not_count_as_free_variables():
    m = Model(DOM, constants={"c": "1"})
    x = Team.from_tuples(("x",), [("1",)])
    assert satisfies(m, x, parse("incl(x ; c)")).is_sat


def test_satisfies_sentence():
    assert satisfies_sentence(M2, parse("forall x . exists y . x != y")).is_sat
    assert not satisfies_sentence(M2, parse("exists y . forall x . x = y")).is_sat


def test_budget_exceeded_reported_not_raised():
    phi = parse("exists a b c . (incl(x ; a) \\/ incl(y ; b) \\/ incl(x ; c))")
    budget = Budget(5)
    verdict = satisfies(M2, team([("0", "1"), ("1", "0")]), phi,
                        budget=budget)
    assert verdict.status == "budget_exceeded"
    assert verdict.nodes_used == budget.nodes == 6


def test_verdict_counts_nodes():
    budget = Budget()
    verdict = satisfies(M2, team([("0", "1")]), parse("x = y \\/ x != y"),
                        budget=budget)
    assert verdict.nodes_used > 0 and verdict.nodes_used == budget.nodes


@pytest.mark.parametrize("text", ["incl(x ; x) \\/ excl(x ; x)",
                                  "exists z . dep(x, z)"])
def test_strict_search_over_a_thousand_rows(text):
    # One slot per row: the search core must not recurse once per slot.
    dom = tuple(str(i) for i in range(34))
    rows = list(itertools.product(dom, repeat=2))[:1100]
    verdict = satisfies(Model(dom), team(rows), parse(text), Mode.STRICT)
    assert verdict == Verdict("sat", 1103)


@pytest.mark.parametrize("mode", [Mode.LAX, Mode.STRICT])
@pytest.mark.parametrize("last", ["x != y", "x = y"])
def test_a_chain_of_ten_thousand_conjuncts_is_decided(mode, last):
    # A chain is one node, so no walker recurses once per conjunct.
    parts = ["incl(x ; y)", "dep(x, y)", "(x = x \\/ excl(x ; y))", last]
    x = team([("0", "1"), ("1", "0")])
    phi = parse(" /\\ ".join(parts * 2_500))
    assert len(phi.parts) == 10_000
    got = within(100, "%d conjuncts, %s" % (len(phi.parts), mode.name),
                 satisfies, M2, x, phi, mode).is_sat
    assert got == ref_sat(M2, x, parse(" /\\ ".join(parts)),
                          strict=mode is Mode.STRICT)


# --- the fixture instances as unit facts -----------------------------------


def test_lax_strict_split_on_inclusion_disjunction():
    m = Model([str(i) for i in range(5)])
    x = Team.from_tuples(("x", "y", "z"),
                         [("0", "1", "2"), ("1", "0", "3"), ("4", "3", "0")])
    phi = parse("incl(x ; y) \\/ incl(y ; z)")
    assert satisfies(m, x, phi, Mode.LAX).is_sat
    assert not satisfies(m, x, phi, Mode.STRICT).is_sat


def test_lax_strict_split_on_existential():
    x = Team.from_tuples(("y", "z"), [("0", "1")])
    phi = parse("exists x . (incl(y ; x) /\\ incl(z ; x))")
    assert satisfies(M2, x, phi, Mode.LAX).is_sat
    assert not satisfies(M2, x, phi, Mode.STRICT).is_sat


def test_strict_disjunction_not_local():
    m = Model([str(i) for i in range(5)])
    wide = Team.from_tuples(
        ("x", "y", "z", "u"),
        [("0", "1", "2", "0"), ("1", "0", "3", "0"),
         ("1", "0", "3", "1"), ("4", "3", "0", "0")])
    phi = parse("incl(x ; y) \\/ incl(y ; z)")
    assert satisfies(m, wide, phi, Mode.STRICT).is_sat
    assert not satisfies(m, wide.restrict(("x", "y", "z")), phi,
                         Mode.STRICT).is_sat


# --- oracle agreement ------------------------------------------------------

_vars = ("x", "y")
_names = st.sampled_from(_vars)
_tuple1 = _names.map(lambda v: (Name(v),))


def _team_atoms():
    return st.one_of(
        st.tuples(_names, _names, st.booleans()).map(
            lambda p: Equality(Name(p[0]), Name(p[1]), p[2])),
        st.lists(_names, min_size=1, max_size=2).map(
            lambda vs: DepAtom(tuple(Name(v) for v in vs))),
        st.tuples(_tuple1, _tuple1).map(lambda p: InclAtom(*p)),
        st.tuples(_tuple1, _tuple1).map(lambda p: ExclAtom(*p)),
        st.tuples(_tuple1, _tuple1).map(lambda p: EquiAtom(*p)),
        st.tuples(_tuple1, _tuple1).map(lambda p: IndepAtom((), p[0], p[1])),
    )


_formulas = st.recursive(
    _team_atoms(),
    lambda children: st.one_of(
        st.tuples(children, children).map(lambda p: And(*p)),
        st.tuples(children, children).map(lambda p: Or(*p)),
        st.tuples(st.sampled_from(("x", "y", "w")), children).map(
            lambda p: Exists(*p)),
        st.tuples(st.sampled_from(("x", "y", "w")), children).map(
            lambda p: Forall(*p)),
    ),
    max_leaves=4)

_teams = st.lists(st.tuples(st.sampled_from(DOM), st.sampled_from(DOM)),
                  max_size=3).map(lambda rows: team(rows))


# The generated-input searches below run under this budget.  Over 80
# hypothesis seeds the worst search spent 367 nodes.
NODES = 20_000


def _sat(x, phi, mode):
    return within(NODES, "%s on %r, %s" % (render(phi), x, mode.name),
                  satisfies, M2, x, phi, mode).is_sat


@settings(max_examples=250, deadline=None)
@given(_formulas, _teams, st.booleans())
def test_evaluator_matches_reference(phi, x, strict):
    mode = Mode.STRICT if strict else Mode.LAX
    got = _sat(x, phi, mode)
    want = ref_sat(M2, x, phi, strict=strict)
    assert got == want


@settings(max_examples=100, deadline=None)
@given(_formulas, _teams)
def test_strict_sat_implies_lax_sat(phi, x):
    if _sat(x, phi, Mode.STRICT):
        assert _sat(x, phi, Mode.LAX)


@settings(max_examples=100, deadline=None)
@given(_formulas, _teams)
def test_lax_locality_under_dummy_column(phi, x):
    wide = x.extend_universal("u", DOM)
    assert _sat(x, phi, Mode.LAX) == _sat(wide, phi, Mode.LAX)


@pytest.mark.parametrize("text, status", [
    ("exists w w . indep( ; y ; y)", "unsat"),
    ("exists w . forall x . exists y . indep( ; x ; x)", "unsat"),
    ("exists w . (dep(x) \\/ dep(y))", "sat"),
])
def test_lax_quantifier_over_an_unread_variable(text, status):
    # The first two were drawn by the locality test above: choosing lax
    # values for a column that the body never reads spent more than
    # 10,000,000 nodes on this 6-row team, and the verdict was
    # budget_exceeded on both sides of that test.
    x = team([("0", "0"), ("0", "1"), ("1", "1")]).extend_universal("u", DOM)
    verdict = satisfies(M2, x, parse(text), Mode.LAX, budget=Budget(100))
    assert verdict.status == status


# Witness searches whose atom pruners cut picks: a lax value set that
# breaks dep on its own rows, an overwriting exists x that maps two rows
# of a bucket to one, and a lax value set whose earlier values can clash
# with an old row under excl where its last value does not.  Then the
# value indexes behind the atom pruners: an overwriting exists x whose
# picks put one row into a bucket twice, so that undoing one copy must
# leave the other counted; a dep atom whose determinant is a tuple of a
# team column and the new one; and an excl atom between two tuples.
PRUNED_WITNESSES = [
    (Mode.LAX, "exists z . (dep(x, z) /\\ incl(y ; z))"),
    (Mode.STRICT, "exists x . (excl(x ; y) /\\ dep(y, x))"),
    (Mode.LAX, "exists z . (excl(z ; x) /\\ incl(y ; z))"),
    (Mode.STRICT, "exists x . (dep(y, x) /\\ incl(x ; y) /\\ x != y)"),
    (Mode.LAX, "exists z . (dep(x, z, y) /\\ z != y /\\ incl(y ; z))"),
    (Mode.STRICT, "exists x . (excl(x, y ; y, x) /\\ incl(y ; x))"),
]

# The benchmark's strict exc_to_dep text for excl(x ; y), as frozen in
# perfbench/frozen.py: an exists block under a forall, whose inner exists
# meets the same rows again at every leaf of the outer witness search.
EXC_TO_DEP = ("forall _v0 . exists _v1 _v2 . (dep(_v0, _v1) /\\ dep(_v0, _v2)"
              " /\\ (_v1 = _v2 /\\ _v0 != x \\/ _v1 != _v2 /\\ _v0 != y))")

# Cases decided over three elements, where the reference evaluator cannot
# enumerate the translation's witness functions; it decides the source
# atom instead.
SOURCE_ATOMS = {EXC_TO_DEP: "excl(x ; y)"}

# Splits of a disjunction whose sides the pruners cut, with the sides
# that own the search's buckets, in bucket order: every side of a strict
# split; in the lax cover, the sides neither flat nor union closed.  The
# strict split's first side has a compound downward-closed conjunct,
# pruned on the whole bucket.
PRUNED_SPLITS = [
    (Mode.STRICT,
     "(x != y /\\ (dep(y) \\/ excl(x ; y))) \\/ (dep(x) /\\ incl(y ; x))",
     (0, 1)),
    (Mode.LAX, "x = y \\/ (dep(y) /\\ incl(y ; x)) \\/ excl(x ; y)", (1, 2)),
]

# One case per search path of the evaluator, each checked on every team
# of at most three rows; the named method must be reached and decide,
# and the teams must meet both verdicts.
SEARCH_PATHS = [
    # lax cover search: a flat side plus two sides needing a search, one
    # of them neither union nor downward closed
    ("_side_holds", Mode.LAX,
     "x = y \\/ (dep(y) /\\ incl(y ; x)) \\/ excl(x ; y)"),
    # strict split, pruning the downward-closed side as it grows
    ("_sat_or_strict", Mode.STRICT,
     "(x != y /\\ dep(y)) \\/ (dep(x) /\\ incl(y ; x))"),
    # class-wise search of a block pinned by a dependence atom
    ("_sat_exists_pinned", Mode.LAX,
     "exists u . (dep(x, u) /\\ (u = y /\\ incl(x ; y) \\/ u != y /\\ excl(x ; y)))"),
    # per-row witness search, over a team column and over a new one:
    # flat filters, atom and compound pruners, then the whole body
    ("_sat_exists_one", Mode.LAX, "exists x . (dep(y, x) /\\ x != y /\\ incl(x ; y))"),
    ("_sat_exists_one", Mode.STRICT, "exists x . (dep(y, x) /\\ x != y /\\ incl(x ; y))"),
    ("_sat_exists_one", Mode.LAX,
     "exists z . (excl(z ; x) /\\ (dep(z) \\/ z = y) /\\ incl(z ; y))"),
    ("_sat_exists_one", Mode.STRICT,
     "exists z . (excl(z ; x) /\\ (dep(z) \\/ z = y) /\\ incl(z ; y))"),
    *(("_sat_exists_one", mode, text) for mode, text in PRUNED_WITNESSES),
    ("_sat_or_strict", *PRUNED_SPLITS[0][:2]),
    # class-wise search whose flat conjuncts read only block variables,
    # so that the value tuples are grouped by the sides they pass (with
    # incl(x ; y) in place of incl(y ; x) it holds on every team here)
    ("_sat_exists_pinned", Mode.LAX,
     "exists u v . (dep(x, u) /\\ dep(x, v) /\\ "
     "(u = v /\\ incl(y ; x) \\/ u != v /\\ excl(x ; y)))"),
    # a row with two sides, one of them pruned, must not be forced to it
    ("_sat_exists_pinned", Mode.LAX,
     "exists u . (dep(x, u) /\\ (x = y \\/ u = x /\\ excl(x ; y)))"),
    # nested witness searches sharing their slots and pruners (see
    # EXC_TO_DEP), over three elements
    ("_sat_exists_one", Mode.STRICT, EXC_TO_DEP),
    # one variable under two bodies, and one body over two sets of
    # columns, in one query: the slots and pruners kept for one must not
    # serve the other
    ("_sat_exists_one", Mode.STRICT,
     "exists z . (z = x /\\ dep(y, z)) /\\ exists z . (z != x /\\ dep(y, z))"),
    ("_sat_exists_one", Mode.STRICT,
     "exists z . (z != x /\\ (dep(z) \\/ excl(z ; y))) /\\ "
     "forall w . exists z . (z != x /\\ (dep(z) \\/ excl(z ; y)))"),
]


@pytest.mark.parametrize("method, mode, text", SEARCH_PATHS)
def test_search_path_matches_reference(monkeypatch, method, mode, text):
    decided = []
    original = getattr(Evaluator, method)

    def spy(self, *args):
        result = original(self, *args)
        decided.append(result is not None)
        return result

    monkeypatch.setattr(Evaluator, method, spy)
    phi = parse(text)
    model, reference = (M3, parse(SOURCE_ATOMS[text])) if text in SOURCE_ATOMS \
        else (M2, phi)
    verdicts = set()
    for x in all_teams(("x", "y"), model.domain, max_rows=3):
        got = satisfies(model, x, phi, mode).is_sat
        assert got == ref_sat(model, x, reference,
                              strict=mode is Mode.STRICT), x
        verdicts.add(got)
    assert any(decided) and verdicts == {True, False}


def test_witness_search_builds_each_extension_once_per_evaluator(monkeypatch):
    # The inner exists of EXC_TO_DEP meets the same rows at every leaf of
    # the outer witness search: 486 extensions were built for its 54
    # distinct (row, value) pairs before its options were kept per
    # evaluator.  The verdict and the node count did not change.
    built = []
    extended = Assignment.extended

    def spy(self, var, value):
        built.append((self, var, value))
        return extended(self, var, value)

    monkeypatch.setattr(Assignment, "extended", spy)
    verdict = satisfies(M3, team([("0", "1"), ("1", "0")]), parse(EXC_TO_DEP),
                        Mode.STRICT)
    assert verdict == Verdict("unsat", 231)
    inner = [b for b in built if b[1] == "_v2"]
    assert len(inner) == len(set(inner)) == 54
    assert len(built) == len(set(built))


@pytest.mark.parametrize("mode, text", PRUNED_WITNESSES)
def test_witness_search_hands_on_only_picks_passing_its_pruners(
        monkeypatch, mode, text):
    phi = parse(text)
    pruners = [c for c in flatten_and(phi.body)
               if isinstance(c, (DepAtom, ExclAtom))]
    judged = []
    original = Evaluator.sat

    def spy(self, psi, x):
        if psi == phi.body:
            judged.append(x)
            assert all(check_atom(self.model, x, c) for c in pruners), x
        return original(self, psi, x)

    # On three elements a new row can clash with an old one in either
    # direction of excl without clashing with itself.
    monkeypatch.setattr(Evaluator, "sat", spy)
    for x in all_teams(("x", "y"), M3.domain, max_rows=3):
        satisfies(M3, x, phi, mode)
    assert judged


@pytest.mark.parametrize("mode, text, owners", PRUNED_SPLITS)
def test_splits_hand_on_only_picks_passing_their_pruners(
        monkeypatch, mode, text, owners):
    phi = parse(text)
    sides = [flatten_and(side) for side in phi.parts]
    pruners = [[c for c in sides[i] if isinstance(c, (DepAtom, ExclAtom))]
               for i in owners]
    compound = {c for side in sides for c in side
                if isinstance(c, (And, Or)) and is_downward_closed(c)}
    judged, evaluated, depth = [], set(), [0]
    backtrack, sat = Evaluator._backtrack, Evaluator.sat

    def judge(self, done):
        def judged_done(buckets):
            judged.append(buckets)
            for rows, atoms in zip(buckets, pruners):
                x = Team(("x", "y"), rows)
                assert all(check_atom(self.model, x, c) for c in atoms), x
            return done(buckets)
        return judged_done

    def spy_backtrack(self, slots, prune, done):
        # Only the split of phi itself; nested searches have other sides.
        depth[0] += 1
        try:
            return backtrack(self, slots, prune,
                             judge(self, done) if depth[0] == 1 else done)
        finally:
            depth[0] -= 1

    def spy_sat(self, psi, x):
        evaluated.add(psi)
        return sat(self, psi, x)

    monkeypatch.setattr(Evaluator, "_backtrack", spy_backtrack)
    monkeypatch.setattr(Evaluator, "sat", spy_sat)
    m3 = Model(("0", "1", "2"))
    for x in all_teams(("x", "y"), m3.domain, max_rows=3):
        satisfies(m3, x, phi, mode)
    assert judged and compound <= evaluated


def test_lax_cover_settles_a_downward_closed_side_on_its_bucket():
    # The leading exists keeps the pruner from covering the second side,
    # but the side is downward closed: failing on the rows it must take,
    # it fails on every larger team too, so the cover must not try the
    # 2^20 sets of optional rows on the full team over five elements.
    phi = parse("x != c \\/ exists z . (dep(x, z) /\\ excl(z ; y))")
    m = Model(DOM, constants={"c": "0"})
    verdicts = set()
    for x in all_teams(("x", "y"), DOM, max_rows=3):
        got = satisfies(m, x, phi, Mode.LAX).is_sat
        assert got == ref_sat(m, x, phi, strict=False), x
        verdicts.add(got)
    assert verdicts == {True, False}
    dom5 = tuple("01234")
    full = team(itertools.product(dom5, dom5))
    verdict = satisfies(Model(dom5, constants={"c": "0"}), full, phi,
                        Mode.LAX, budget=Budget(1000))
    assert verdict.status == "unsat" and verdict.nodes_used < 100


def test_pinned_search_decides_the_independence_translation_on_one_row():
    # The shape of the benchmark's lax probe: on one row over three
    # elements, indep_to_ie's pinned block has 27 single-row classes of
    # 81 value tuples, each falling into one of three sides.  The source
    # atom is the reference; ref_sat on the translation is far too slow.
    atom = parse("indep(z ; x ; y)")
    phi = indep_to_ie(atom.cond, atom.left, atom.right)
    m3 = Model(("0", "1", "2"))
    for values in itertools.product(m3.domain, repeat=3):
        x = Team.from_tuples(("x", "y", "z"), [values])
        verdict = satisfies(m3, x, phi, Mode.LAX, budget=Budget(1000))
        assert ref_sat(m3, x, atom)
        assert verdict.status == "sat", (values, verdict)


# Pinned blocks: every block variable is pinned by dep(pin, v); flat
# conjuncts read only the block, only team columns, or both; side bodies
# are absent, union closed, downward closed (atom or compound), or
# neither.
_BLOCK_FLAT = ("u = v", "u != v")
_COLUMN_FLAT = ("u = x", "u != y", "v = y", "v != x", "x = y", "x != y")
_SIDE_BODIES = (None, "incl(x ; y)", "equi(x ; y)", "incl(y ; x) /\\ y != u",
                "dep(y)", "excl(x ; y)", "dep(x, y)",
                "excl(x ; y) \\/ dep(y)", "dep(x) /\\ incl(y ; x)")


@st.composite
def _pinned_blocks(draw):
    block = draw(st.sampled_from((("u",), ("u", "v"))))

    def usable(conjuncts):
        return [c for c in conjuncts if "v" in block or "v" not in c]

    flat = st.sampled_from(usable(_BLOCK_FLAT + _COLUMN_FLAT))
    pin = draw(st.sampled_from(("", "x, ", "y, ", "x, y, ")))
    conjuncts = ["dep(%s%s)" % (pin, var) for var in block]
    conjuncts += draw(st.lists(flat, max_size=1))
    sides = []
    for _ in range(draw(st.integers(2, 3))):
        side = draw(st.lists(flat, max_size=2))
        body = draw(st.sampled_from(_SIDE_BODIES))
        if body is not None and "u" not in body:
            side.append("(%s)" % body)
        sides.append(" /\\ ".join(side) or "x = x")
    conjuncts.append("(%s)" % " \\/ ".join("(%s)" % s for s in sides))
    return block, parse("exists %s . (%s)" % (" ".join(block),
                                            " /\\ ".join(conjuncts)))


_nonempty_teams = st.lists(st.tuples(st.sampled_from(DOM), st.sampled_from(DOM)),
                           min_size=1, max_size=3).map(lambda rows: team(rows))


@settings(max_examples=150, deadline=None)
@given(_pinned_blocks(), _nonempty_teams)
def test_pinned_search_matches_reference(pinned, x):
    block, phi = pinned
    body = phi
    for _var in block:
        body = body.body
    got = within(NODES, "%s on %r" % (render(phi), x),
                 lambda budget: Evaluator(M2, Mode.LAX, budget)
                 ._sat_exists_pinned(list(block), body, x))
    assert got is not None
    assert got == ref_sat(M2, x, phi)


def test_tarski_matches_reference_on_fo():
    m = Model(DOM, constants={"c": "0"},
              functions={"S": {("0",): "1", ("1",): "0"}},
              relations={"R": [("0", "1")]})
    phi = parse("forall a . (R(a, x) \\/ exists b . (S(b) = a /\\ b != c))")
    for value in DOM:
        s = Assignment({"x": value})
        assert tarski(m, s, phi) == ref_tarski(m, s, phi)


# --- the compiled first order evaluator -------------------------------------


_FO_NAMES = ("x", "y", "z", "c")


def _fo_terms():
    names = st.sampled_from(_FO_NAMES).map(Name)
    return st.recursive(names, lambda inner: inner.map(lambda t: App("f", (t,))),
                        max_leaves=3)


def _fo_literals():
    terms = _fo_terms()
    return st.one_of(
        st.builds(RelAtom, st.just("R"), st.tuples(terms, terms), st.booleans()),
        st.builds(Equality, terms, terms, st.booleans()))


def _fo_formulas():
    return st.recursive(_fo_literals(), lambda inner: st.one_of(
        st.builds(And, inner, inner), st.builds(Or, inner, inner),
        st.builds(Exists, st.sampled_from(_FO_NAMES), inner),
        st.builds(Forall, st.sampled_from(_FO_NAMES), inner)), max_leaves=6)


@st.composite
def _fo_models(draw):
    """A model over 2 or 3 elements with a binary R, a constant c and a
    unary function f, and a row over x and y."""
    dom = ("0", "1", "2")[:draw(st.integers(2, 3))]
    pairs = list(itertools.product(dom, repeat=2))
    model = Model(dom, constants={"c": draw(st.sampled_from(dom))},
                  functions={"f": {(a,): draw(st.sampled_from(dom)) for a in dom}},
                  relations={"R": draw(st.sets(st.sampled_from(pairs)))})
    row = Assignment({"x": draw(st.sampled_from(dom)),
                      "y": draw(st.sampled_from(dom))})
    return model, row


def _reference(model, row, phi):
    """The oracle's Tarski verdict on the row, or ModelError where it
    meets a name that is neither bound nor a constant."""
    try:
        return ref_tarski(model, row, phi)
    except KeyError:
        return ModelError


@settings(max_examples=300, deadline=None)
@given(_fo_formulas(), _fo_models())
def test_compiled_tarski_matches_the_reference(phi, drawn):
    model, row = drawn
    want = _reference(model, row, phi)
    if want is ModelError:
        with pytest.raises(ModelError):
            tarski(model, row, phi)
    else:
        assert tarski(model, row, phi) == want, render(phi)


_FIXED = Model(DOM, constants={"c": "0"},
               functions={"f": {("0",): "1", ("1",): "1"}},
               relations={"R": [("1",)]})


def test_compiled_quantifier_restores_a_rebound_team_variable():
    phi = parse("(exists x . R(x)) /\\ x = c")
    for value in DOM:
        env = {"x": value}
        assert compiled(phi)(_FIXED, env) == (value == "0")
        assert env == {"x": value}
    env = {}
    assert compiled(parse("forall y . exists x . R(x)"))(_FIXED, env)
    assert env == {}


def test_compiled_variable_shadows_a_constant_of_the_same_name():
    for text in ("R(c)", "c = f(c)", "exists x . (x = c /\\ R(x))"):
        phi = parse(text)
        assert tarski(_FIXED, Assignment({"c": "1"}), phi)
        assert not tarski(_FIXED, Assignment({}), phi)
    assert tarski(_FIXED, Assignment({}), parse("exists c . R(c)"))
    assert not tarski(_FIXED, Assignment({}), parse("(exists c . R(c)) /\\ R(c)"))


def test_compiled_function_terms():
    # skolemnf_to_eso writes f(x) = g(x) over quantified arguments.
    m = _FIXED.with_function("g", {("0",): "0", ("1",): "1"})
    for text in ("f(x) = g(x)", "f(f(x)) != x", "R(f(x))",
                 "forall y . (f(y) = g(y) \\/ ~R(g(y)))",
                 "exists y . f(y) = c"):
        phi = parse(text)
        for value in DOM:
            s = Assignment({"x": value})
            assert tarski(m, s, phi) == ref_tarski(m, s, phi), text


def test_compiled_closure_reads_tables_overwritten_later():
    m = Model(DOM, relations={"R": [("1",)], "B": []})
    phi = parse("forall x . (R(x) \\/ B(x))")
    assert not tarski(m, Assignment({}), phi)
    m.relations["B"] = frozenset({("0",)})
    assert tarski(m, Assignment({}), phi)
    # eval_eso reads B as the prefix symbol, though the model has a table
    # B and phi's nodes already hold closures compiled against it.
    eso = ESOFormula("A", 1, [SOSymbol("relation", "B", 1)],
                     And(phi, parse("forall x . (~B(x) \\/ A(x))")))
    for rows, held in (({("0",)}, True), (set(), False), ({("0",), ("1",)}, True)):
        assert eval_eso(m, eso, rows) == held


@pytest.mark.parametrize("text, assignment, where", [
    ("x = y", {"x": "0"}, "unbound identifier 'y'"),
    ("exists y . y = z", {}, "unbound identifier 'z'"),
    ("R(x) \\/ Q(x)", {"x": "0"}, "unknown relation Q"),
    ("forall x . Q(x)", {}, "unknown relation Q"),
    ("g(x) = x", {"x": "0"}, "no value for g(0)"),
    ("exists y . f(x, y) = y", {"x": "0"}, "no value for f(0, 0)"),
], ids=["unbound", "unbound-under-quantifier", "unknown-relation",
        "unknown-relation-under-quantifier", "unknown-function",
        "function-arity"])
def test_compiled_errors_are_raised_by_the_call(text, assignment, where):
    phi = parse(text)
    compiled(phi)  # compiling raises nothing
    with pytest.raises(ModelError, match=re.escape(where)):
        tarski(_FIXED, Assignment(assignment), phi)


def test_compiled_short_circuit_skips_an_erroneous_branch():
    s = Assignment({"x": "1"})
    for text, held in (("R(x) \\/ Q(x)", True), ("~R(x) /\\ Q(x)", False),
                       ("x = x \\/ y = g(z)", True),
                       ("exists y . (y != x \\/ Q(y))", True)):
        assert tarski(_FIXED, s, parse(text)) == held


def test_compiled_non_first_order_node_raises_when_reached():
    assert not tarski(M2, Assignment({"x": "0"}), parse("x != x /\\ dep(x)"))
    with pytest.raises(ValueError):
        tarski(M2, Assignment({"x": "0"}), parse("x = x /\\ dep(x)"))


# --- largest satisfying subteam --------------------------------------------


def test_largest_subteam_is_greatest_fixpoint():
    phi = parse("incl(x ; y)")
    x = team([("0", "1"), ("1", "1"), ("0", "0")])
    ev = Evaluator(M2, Mode.LAX, Budget())
    best = frozenset(ev.largest_subteam(phi, x))
    assert satisfies(M2, x.with_rows(best), phi).is_sat
    # maximal: every satisfying subteam is contained in it
    rows = x.sorted_rows()
    for size in range(len(rows) + 1):
        for chosen in itertools.combinations(rows, size):
            sub = x.with_rows(chosen)
            if satisfies(M2, sub, phi).is_sat:
                assert sub.rows <= best
