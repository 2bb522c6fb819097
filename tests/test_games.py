import dataclasses
import math

import pytest
from hypothesis import given, reject, settings, strategies as st

from teamlogic.games import (
    PLAYER_I, PLAYER_II, Arena, ArenaError, Strategy, build_arena,
    find_uniform_winning, format_strategy, is_uniform, reachable_under,
)
from teamlogic import translate
from teamlogic.model import Model, Team
from teamlogic.semantics import Budget, BudgetExceeded, Mode, satisfies
from teamlogic.syntax import (
    And, App, Equality, Exists, ExclAtom, Forall, InclAtom, Name, Or, RelAtom,
    conjoin, forall_block, parse, render,
)

from budgets import within
from oracles import ref_sat
from ref_eso import ref_eval_eso

DOM = ("0", "1")
M2 = Model(DOM)


def team(pairs, variables=("x", "y")):
    return Team.from_tuples(variables, pairs)


def test_arena_rejects_untranslated_atoms():
    with pytest.raises(ArenaError):
        build_arena(M2, team([("0", "1")]), parse("dep(x, y)"))
    with pytest.raises(ArenaError):
        build_arena(M2, team([("0", "1")]), parse("indep( ; x ; y)"))


def test_arena_shape_for_connectives():
    x = team([("0", "1")])
    arena = build_arena(M2, x, parse("x = y \\/ exists z . z = x"))
    (start,) = arena.initial
    assert arena.turn[start] == PLAYER_II
    assert len(arena.successors[start]) == 2
    quant = arena.successors[start][1]
    assert len(arena.successors[quant]) == len(DOM)
    # A chain is one junction: one position with a successor per part.
    arena = build_arena(M2, x, parse("x = y \\/ y = x \\/ exists z . z = x"))
    (start,) = arena.initial
    assert arena.turn[start] == PLAYER_II
    assert [path for path, _s in arena.successors[start]] == [(0,), (1,), (2,)]


def test_terminal_winners():
    x = team([("0", "1")])
    arena = build_arena(M2, x, parse("x = y"))
    (start,) = arena.initial
    assert arena.is_terminal(start)
    assert arena.terminal_winner(start) == PLAYER_I
    arena = build_arena(M2, x, parse("incl(x ; y)"))
    (start,) = arena.initial
    assert arena.terminal_winner(start) == PLAYER_II


def test_uniformity_inclusion_needs_witness():
    x = team([("0", "1"), ("1", "0")])
    arena = build_arena(M2, x, parse("incl(x ; y)"))
    tau = Strategy({})
    assert arena.terminal_winner(arena.initial[0]) == PLAYER_II
    assert is_uniform(arena, tau)
    # x value 0 never appears as a y value: no witness position
    x2 = team([("0", "1")])
    arena2 = build_arena(M2, x2, parse("incl(x ; y)"))
    assert not is_uniform(arena2, Strategy({}))


def test_exclusion_uniformity():
    arena = build_arena(M2, team([("0", "1")]), parse("excl(x ; y)"))
    assert is_uniform(arena, Strategy({}))
    arena = build_arena(M2, team([("0", "0")]), parse("excl(x ; y)"))
    assert not is_uniform(arena, Strategy({}))


def test_find_uniform_winning_on_split_disjunction():
    m = Model([str(i) for i in range(5)])
    x = Team.from_tuples(("x", "y", "z"),
                         [("0", "1", "2"), ("1", "0", "3"), ("4", "3", "0")])
    phi = parse("incl(x ; y) \\/ incl(y ; z)")
    assert find_uniform_winning(build_arena(m, x, phi)) is not None
    assert find_uniform_winning(build_arena(m, x, phi),
                                deterministic=True) is None


def test_strategy_dump_is_stable():
    m = Model([str(i) for i in range(5)])
    x = Team.from_tuples(("x", "y", "z"),
                         [("0", "1", "2"), ("1", "0", "3"), ("4", "3", "0")])
    phi = parse("incl(x ; y) \\/ incl(y ; z)")
    arena = build_arena(m, x, phi)
    one = format_strategy(arena, find_uniform_winning(arena))
    two = format_strategy(arena, find_uniform_winning(arena))
    assert one == two and one


def test_reachable_under_requires_total_strategy():
    x = team([("0", "0")])
    arena = build_arena(M2, x, parse("x = y \\/ x != y"))
    with pytest.raises(ValueError):
        reachable_under(arena, Strategy({}))


def test_position_cap():
    m = Model([str(i) for i in range(10)])
    x = Team.from_tuples(("x",), [(d,) for d in m.domain])
    phi = parse("exists a b c d . (a = b /\\ c = d)")
    with pytest.raises(ArenaError):
        Arena(m, x, phi)


@pytest.mark.parametrize("text, deterministic, size", [
    ("forall a b c d . (x = a \\/ x != a)", True, 3412),
    ("forall a b c d . (x = a \\/ x != a \\/ excl(x ; a))", False, 4436),
])
def test_search_over_thousands_of_positions(text, deterministic, size):
    # The solver must not recurse once per position it visits.
    m = Model(tuple("0123"))
    arena = build_arena(m, Team.from_tuples(("x",), [(d,) for d in m.domain]),
                        parse(text))
    assert len(arena.positions) == size
    tau = find_uniform_winning(arena, deterministic=deterministic)
    assert tau is not None and is_uniform(arena, tau)


@pytest.mark.parametrize("rows, found, nodes", [
    ([("0", "1"), ("1", "2"), ("2", "0")], True, 1),
    ([("0", "1"), ("1", "2"), ("2", "0"), ("0", "0")], False, 1),
])
def test_search_spends_a_fixed_number_of_nodes(rows, found, nodes):
    # Deterministic dep(x, y), compiled: unit propagation decides both
    # at the root.
    phi = translate.compile(parse("dep(x, y)"), frozenset({"incl", "excl"}))
    arena = build_arena(Model(tuple("012")), team(rows), phi)
    budget = Budget(nodes)
    tau = find_uniform_winning(arena, deterministic=True, budget=budget)
    assert (tau is not None) == found
    assert budget.nodes == nodes


@pytest.mark.parametrize("deterministic", [False, True])
def test_search_propagates_over_a_large_arena(deterministic):
    # 5,442 positions over 6 values; each leaf row picks a disjunct whose
    # incl or excl team must still hold.  The search that branched on
    # every open choice spent 5,047 nodes on this formula in both modes.
    m = Model(tuple("012345"))
    arena = build_arena(
        m, Team.from_tuples(("x",), [(d,) for d in m.domain]),
        parse("forall a b c . (excl(x ; a) \\/ incl(a ; x) \\/ a = b)"))
    assert len(arena.positions) == 5442
    tau = find_uniform_winning(arena, deterministic=deterministic,
                               budget=Budget(1_000))
    assert tau is not None and is_uniform(arena, tau)


@pytest.mark.parametrize("deterministic", [False, True])
def test_search_finds_an_exclusion_clash_when_it_is_made(deterministic):
    # Each of the 9 rows after forall y picks disjuncts: y = y takes any
    # row, the excl atoms only a clash-free few.  Checked only once every
    # choice was made, a clash sent the search back over later, unrelated
    # choices, and the lax search spent more than 10,000,000 nodes.
    m = Model(tuple("012"))
    x = team([("0", "2"), ("1", "0"), ("2", "0")])
    phi = parse("forall y . (incl(x ; y) /\\ (excl(x ; y) \\/ excl(x ; x)"
                " \\/ y = y))")
    arena = build_arena(m, x, phi)
    tau = find_uniform_winning(arena, deterministic=deterministic,
                               budget=Budget(1_000))
    assert tau is not None and is_uniform(arena, tau)


# --- agreement with team semantics ----------------------------------------

_names = st.sampled_from(("x", "y"))
_tuple1 = _names.map(lambda v: (Name(v),))
_ie_atoms = st.one_of(
    st.tuples(_names, _names, st.booleans()).map(
        lambda p: Equality(Name(p[0]), Name(p[1]), p[2])),
    st.tuples(_tuple1, _tuple1).map(lambda p: InclAtom(*p)),
    st.tuples(_tuple1, _tuple1).map(lambda p: ExclAtom(*p)),
)
_ie_formulas = st.recursive(
    _ie_atoms,
    lambda children: st.one_of(
        st.tuples(children, children).map(lambda p: And(*p)),
        st.tuples(children, children).map(lambda p: Or(*p)),
    ),
    max_leaves=4)
_teams = st.lists(st.tuples(st.sampled_from(DOM), st.sampled_from(DOM)),
                  max_size=3).map(team)


# The generated-input searches below run under these budgets.  Over 80
# hypothesis seeds the worst team or game search spent 985 nodes, and
# the worst eval_eso call 35 over domain 2 (the bridge test, on the
# sentence with its bounds in the matrix), 16 on ie_to_eso sentences
# over domain 3 with teams of up to 3 rows (the three-way and
# differential tests) and 1,295 on the normal forms with functions over
# domain 3.
NODES = 20_000
ESO_NODES_D2 = 1_000
ESO_NODES_D3 = 10_000


@settings(max_examples=200, deadline=None)
@given(_ie_formulas, _teams, st.booleans())
def test_game_agrees_with_team_semantics(phi, x, deterministic):
    what = "%s on %r" % (render(phi), x)
    arena = build_arena(M2, x, phi)
    tau = within(NODES, what, find_uniform_winning, arena,
                 deterministic=deterministic)
    mode = Mode.STRICT if deterministic else Mode.LAX
    assert (tau is not None) == within(NODES, what, satisfies, M2, x, phi,
                                       mode).is_sat
    assert (tau is not None) == ref_sat(M2, x, phi, strict=deterministic)
    if tau is not None:
        assert is_uniform(arena, tau)
        if deterministic:
            assert all(len(succ) == 1 for succ in tau.choices.values())


# --- three ways to decide one formula ---------------------------------------

_small = st.recursive(
    _ie_atoms,
    lambda children: st.tuples(st.sampled_from((And, Or)), children,
                               children).map(lambda p: p[0](p[1], p[2])),
    max_leaves=2)


def _quantified(bodies):
    return st.tuples(st.sampled_from((Exists, Forall)), _names, bodies).map(
        lambda p: p[0](p[1], p[2]))


# At most 4 leaves and one quantifier, over the whole formula or one side.
_one_quantifier = st.one_of(
    _quantified(_ie_formulas),
    st.tuples(st.sampled_from((And, Or)), _quantified(_small), _small,
              st.booleans()).map(
        lambda p: p[0](p[1], p[2]) if p[3] else p[0](p[2], p[1])),
)


@st.composite
def _instances(draw):
    dom = tuple(str(i) for i in range(draw(st.sampled_from((2, 3)))))
    value = st.sampled_from(dom)
    return Model(dom), team(draw(st.lists(st.tuples(value, value),
                                          max_size=3)))


_dependence = st.sampled_from(("dep(x, y)", "dep(y, x)", "dep(x)",
                                "equi(x ; y)")).map(parse)


@settings(max_examples=200, deadline=None)
@given(_one_quantifier, _instances(), _dependence, st.sampled_from((And, Or)))
def test_team_game_and_eso_semantics_agree(phi, instance, dependence, join):
    # Lax satisfaction is a uniform strategy and an ESO model; strict
    # satisfaction is a deterministic uniform strategy.
    m, x = instance
    what = "%s on %r over %s" % (render(phi), x, ",".join(m.domain))
    lax = within(NODES, what, satisfies, m, x, phi, Mode.LAX).is_sat
    arena = build_arena(m, x, phi)
    for deterministic, mode in ((False, Mode.LAX), (True, Mode.STRICT)):
        tau = within(NODES, what, find_uniform_winning, arena,
                     deterministic=deterministic)
        assert (tau is not None) == within(NODES, what, satisfies, m, x, phi,
                                           mode).is_sat
        assert tau is None or is_uniform(arena, tau)
    relation = {row.values_for(("x", "y")) for row in x.rows}
    eso = translate.ie_to_eso(phi, ("x", "y"))
    assert within(ESO_NODES_D3, what, translate.eval_eso, m, eso,
                  relation) == lax
    # Compiling into {incl, excl} keeps the lax verdict of a formula with
    # a dependence or equiextension atom as well.
    psi = join(phi, dependence)
    what = "%s on %r over %s" % (render(psi), x, ",".join(m.domain))
    assert within(NODES, what, satisfies, m, x,
                  translate.compile(psi, {"incl", "excl"}), Mode.LAX).is_sat \
        == within(NODES, what, satisfies, m, x, psi, Mode.LAX).is_sat


def test_eval_eso_decides_a_two_row_team_at_the_root():
    # The enumerating search tried 97,472 interpretations of the four
    # split relations here, about 1.4 s.  excl(x ; x) and excl(y ; y)
    # hold on the empty team only, so both sides of the second
    # disjunction are empty, every row's cover clause is left without a
    # literal, and the root refutes the sentence before any decision.
    m3 = Model(("0", "1", "2"))
    phi = parse("forall x . ((incl(x ; x) \\/ incl(x ; x)) /\\ "
                "(excl(x ; x) \\/ excl(y ; y)))")
    eso = translate.ie_to_eso(phi, ("x", "y"))
    assert len(eso.prefix) == 4
    assert not within(1, render(phi), translate.eval_eso, m3, eso,
                      {("1", "0"), ("2", "2")})


def _bounds_in_the_matrix(eso):
    """The same sentence with each bound dropped from its quantifier and
    written as a conjunct forall bvars . (~W(bvars) \\/ bound) instead."""
    conjuncts = [eso.matrix]
    for sym in eso.prefix:
        bvars, formula = sym.bound
        outside = RelAtom(sym.name, tuple(map(Name, bvars)), positive=False)
        conjuncts.append(forall_block(bvars, Or(outside, formula)))
    return translate.ESOFormula(
        eso.free_relation, eso.free_arity,
        [dataclasses.replace(sym, bound=None) for sym in eso.prefix],
        conjoin(conjuncts))


@settings(max_examples=200, deadline=None)
@given(_one_quantifier,
       st.lists(st.tuples(st.sampled_from(DOM), st.sampled_from(DOM)),
                max_size=2))
def test_eso_bridge_agrees_with_the_reference(phi, rows):
    # A bounded relation quantifier is plain ESO: the same search over
    # every relation, with the bound as a matrix conjunct, finds the same.
    what = "%s on %r" % (render(phi), team(rows))
    eso = translate.ie_to_eso(phi, ("x", "y"))
    held = within(ESO_NODES_D2, what, translate.eval_eso, M2, eso, set(rows))
    assert held == ref_sat(M2, team(rows), phi)
    assert within(ESO_NODES_D2, what, translate.eval_eso, M2,
                  _bounds_in_the_matrix(eso), set(rows)) == held


# --- the grounded ESO search against the enumerating one --------------------

# The frozen enumerating search judges a draw only where it finishes
# within this many nodes, about 1.5 s; the other draws are rejected.
# Over 80 hypothesis seeds it ran out on some ie_to_eso draws and spent
# at most 20,439 nodes on the normal forms.
REF_ESO_NODES = 300_000


def _enumerated(m, eso, relation):
    try:
        return ref_eval_eso(m, eso, relation, Budget(REF_ESO_NODES))
    except BudgetExceeded:
        reject()


@settings(max_examples=200, deadline=None)
@given(_one_quantifier, _instances())
def test_eval_eso_agrees_with_the_enumerating_search(phi, instance):
    m, x = instance
    what = "%s on %r over %s" % (render(phi), x, ",".join(m.domain))
    relation = {row.values_for(("x", "y")) for row in x.rows}
    eso = translate.ie_to_eso(phi, ("x", "y"))
    held = within(ESO_NODES_D3, what, translate.eval_eso, m, eso, relation)
    assert held == _enumerated(m, eso, relation)
    interpretations = math.prod(2 ** len(m.domain) ** sym.arity
                                for sym in eso.prefix)
    if interpretations <= 4096:
        unbounded = _bounds_in_the_matrix(eso)
        assert within(ESO_NODES_D3, what, translate.eval_eso, m, unbounded,
                      relation) == held
        assert _enumerated(m, unbounded, relation) == held


@st.composite
def _normal_forms(draw):
    """A model with a unary relation R, a Skolem normal form over it with
    functions f1(u), f2(u) and g, and a value for A."""
    dom = tuple(str(i) for i in range(draw(st.sampled_from((2, 3)))))
    ys = draw(st.sampled_from(((), ("w",))))
    arguments = [(), ("u",)] + [("w",)] * bool(ys) \
        + [("u", "w")] * (bool(ys) and len(dom) == 2)
    functions = [("f1", ("u",)), ("f2", ("u",)),
                 ("g", draw(st.sampled_from(arguments)))]
    terms = st.sampled_from([Name(v) for v in ("u",) + ys] +
                            [App(f, tuple(map(Name, ws))) for f, ws in functions])
    atoms = st.one_of(
        st.tuples(terms, terms, st.booleans()).map(lambda p: Equality(*p)),
        st.tuples(terms, st.booleans()).map(
            lambda p: RelAtom("R", (p[0],), p[1])))
    psi = draw(st.recursive(atoms, lambda children: st.tuples(
        st.sampled_from((And, Or)), children, children).map(
            lambda p: p[0](p[1], p[2])), max_leaves=4))
    values = st.sets(st.tuples(st.sampled_from(dom)))
    m = Model(dom, relations={"R": draw(values)})
    return m, translate.SkolemNF(1, ("u",), ys, functions, psi), draw(values)


@settings(max_examples=100, deadline=None)
@given(_normal_forms())
def test_eval_eso_agrees_with_the_enumerating_search_on_functions(instance):
    m, nf, relation = instance
    eso = translate.skolemnf_to_eso(nf)
    what = "%s over %s" % (translate.format_eso(eso), ",".join(m.domain))
    held = within(ESO_NODES_D3, what, translate.eval_eso, m, eso, relation)
    assert held == _enumerated(m, eso, relation)
