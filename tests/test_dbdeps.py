import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from teamlogic.dbdeps import (
    DBRelation, DependencyError, Derivation, Egd, Exd, Fd, Ind, Tgd,
    check_dependency, derive, find_violation, parse_dependency,
    semantic_implies, verify_derivation,
)
from teamlogic.syntax import ParseError

from oracles import ref_fd_holds


def rel(attributes, rows):
    return DBRelation(attributes, rows)


# --- parsing ---------------------------------------------------------------


def test_parse_dependency_kinds():
    assert parse_dependency("incl(A,B ; C,D)") == Ind(("A", "B"), ("C", "D"))
    assert parse_dependency("excl(A ; B)") == Exd(("A",), ("B",))
    assert parse_dependency("fd(A,B -> C)") == Fd(("A", "B"), "C")
    tgd = parse_dependency("tgd: A(x,y) & A(y,z) -> exists w . A(x,w)")
    assert tgd == Tgd((("A", ("x", "y")), ("A", ("y", "z"))), ("w",),
                      (("A", ("x", "w")),))
    egd = parse_dependency("egd: A(x,y) & A(x,z) -> y = z")
    assert egd == Egd((("A", ("x", "y")), ("A", ("x", "z"))), "y", "z")
    with pytest.raises(ParseError):
        parse_dependency("nonsense(A)")
    with pytest.raises(DependencyError):
        parse_dependency("incl(A ; B,C)")


def test_round_trip_str():
    for text in ("incl(A,B ; C,D)", "excl(A ; B)", "fd(A,B -> C)"):
        assert str(parse_dependency(text)) == text


# --- satisfaction ----------------------------------------------------------


def test_check_ind_exd_values():
    r = rel(("A", "B"), [("0", "1"), ("1", "2")])
    assert not check_dependency(r, Ind(("A",), ("B",)))  # 0 not a B value
    assert check_dependency(r, Ind(("B",), ("B",)))
    assert not check_dependency(r, Exd(("A",), ("B",)))  # 1 on both sides
    r2 = rel(("A", "B"), [("0", "1")])
    assert check_dependency(r2, Exd(("A",), ("B",)))


def test_check_fd_matches_reference():
    rows = [("0", "1", "0"), ("0", "1", "1"), ("1", "0", "0")]
    r = rel(("A", "B", "C"), rows)
    assert check_dependency(r, Fd(("A",), "B")) == \
        ref_fd_holds(rows, [0], 1)
    assert check_dependency(r, Fd(("A",), "C")) == \
        ref_fd_holds(rows, [0], 2)
    assert check_dependency(r, Fd(("A", "C"), "B"))


def test_check_tgd_transitivity():
    closed = rel(("A", "B"), [("0", "1"), ("1", "2"), ("0", "2")])
    open_ = rel(("A", "B"), [("0", "1"), ("1", "2")])
    tgd = parse_dependency("tgd: A(x,y) & A(y,z) -> A(x,z)")
    assert check_dependency(closed, tgd)
    assert not check_dependency(open_, tgd)


def test_check_tgd_existential_head_uses_universe():
    r = rel(("A", "B"), [("0", "1")])
    tgd = parse_dependency("tgd: A(x,y) -> exists w . A(y,w)")
    assert not check_dependency(r, tgd)
    r2 = rel(("A", "B"), [("0", "1"), ("1", "1")])
    assert check_dependency(r2, tgd)


def test_check_egd():
    egd = parse_dependency("egd: A(x,y) & A(x,z) -> y = z")
    assert check_dependency(rel(("A", "B"), [("0", "1"), ("1", "2")]), egd)
    assert not check_dependency(rel(("A", "B"), [("0", "1"), ("0", "2")]), egd)


def test_check_dependency_agrees_with_find_violation_on_generating_deps():
    deps = [parse_dependency(text) for text in (
        "tgd: A(x,y) & A(y,z) -> exists w . A(x,w)",
        "egd: A(x,y) & A(x,z) -> y = z",
        "tgd: A(x,y) & A(y,z) -> A(x,z)",
        "tgd: A(x,y) -> exists w . A(y,w)")]
    pairs = list(itertools.product("01", repeat=2))
    verdicts = set()
    for size in range(4):
        for rows in itertools.combinations(pairs, size):
            r = rel(("A", "B"), rows)
            for dep, universe in itertools.product(deps, (None, ("0", "1"))):
                held = check_dependency(r, dep, universe)
                assert held == (find_violation(r, dep, universe) is None)
                verdicts.add(held)
    assert verdicts == {True, False}


def test_find_violation_witnesses():
    r = rel(("A", "B"), [("0", "1"), ("0", "2")])
    assert find_violation(r, Fd(("A",), "B")) == (("0", "1"), ("0", "2"))
    assert find_violation(r, Ind(("A",), ("B",))) == (("0",),)
    assert find_violation(r, Exd(("B",), ("B",)))
    assert find_violation(r, Ind(("B",), ("B",))) is None


@pytest.mark.parametrize("text", [
    "tgd: A(x, y) -> A(y, z)", "egd: A(x, y) -> x = z",
])
def test_head_variables_must_be_bound(text):
    with pytest.raises(DependencyError):
        parse_dependency(text)


@pytest.mark.parametrize("text", ["tgd: A(x) -> A(x)", "egd: A(x) -> x = x",
                                  "tgd: A(x, y) -> A(x, y, y)"])
def test_atom_width_must_match_the_relation(text):
    with pytest.raises(DependencyError):
        find_violation(rel(("A", "B"), [("0", "1")]), parse_dependency(text))


def test_csv_loader(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("A,B\n0,1\n1,0\n")
    r = DBRelation.from_csv(str(path))
    assert r.attributes == ("A", "B")
    assert len(r.tuples) == 2


# --- derivations -----------------------------------------------------------


def D(text):
    return parse_dependency(text)


def test_identity_axiom():
    d = derive([], D("incl(A,B ; A,B)"))
    assert d is not None and d.rule == "I1"
    assert verify_derivation(d, [])


def test_projection_axiom():
    d = derive([D("incl(A,B ; B,C)")], D("incl(B,A ; C,B)"))
    assert d is not None
    assert verify_derivation(d, [D("incl(A,B ; B,C)")])


def test_transitivity_axiom():
    prem = [D("incl(A ; B)"), D("incl(B ; C)")]
    d = derive(prem, D("incl(A ; C)"))
    assert d is not None and d.rule == "I3"
    assert verify_derivation(d, prem)


def test_interaction_axiom():
    prem = [D("excl(A ; B)"), D("incl(C ; A)"), D("incl(C ; B)")]
    d = derive(prem, D("excl(C ; C)"))
    assert d is not None
    assert verify_derivation(d, prem)


def test_underivable_goal_returns_none():
    assert derive([D("incl(A ; B)")], D("incl(B ; A)"), depth=4) is None


def test_inc_only_system_restricts_vocabulary():
    assert derive([D("incl(A ; B)"), D("incl(B ; C)")], D("incl(A ; C)"),
                  system="inc-only") is not None
    with pytest.raises(DependencyError):
        derive([D("excl(A ; B)")], D("excl(B ; A)"), system="inc-only")


def test_fd_premises_rejected():
    with pytest.raises(DependencyError):
        derive([D("fd(A -> B)")], D("incl(A ; B)"))
    with pytest.raises(DependencyError):
        derive([], D("fd(A -> B)"))


def test_verifier_rejects_forged_trees():
    good = derive([], D("incl(A ; A)"))
    forged = Derivation("I1", Ind(("A",), ("B",)))
    assert not verify_derivation(forged, [])
    forged2 = Derivation("premise", Ind(("A",), ("B",)))
    assert not verify_derivation(forged2, [])
    assert verify_derivation(good, [])


# --- semantic implication --------------------------------------------------


def test_semantic_implies_validities():
    ok, cex = semantic_implies([D("incl(A ; B)"), D("incl(B ; C)")],
                               D("incl(A ; C)"))
    assert ok and cex is None


def test_semantic_implies_counterexample():
    ok, cex = semantic_implies([D("incl(A ; B)")], D("incl(B ; A)"))
    assert not ok
    assert not check_dependency(cex, D("incl(B ; A)"))
    assert check_dependency(cex, D("incl(A ; B)"))


def test_fixture_lists_agree_with_both_engines(fixtures_dir):
    imps = json.loads((fixtures_dir / "casanova-implications.json").read_text())
    nonimps = json.loads(
        (fixtures_dir / "casanova-non-implications.json").read_text())
    # spot-check a deterministic slice here; the acceptance test runs all
    for case in imps[::10]:
        prem = [D(p) for p in case["premises"]]
        goal = D(case["goal"])
        d = derive(prem, goal)
        assert d is not None and verify_derivation(d, prem)
        assert semantic_implies(prem, goal)[0]
    for case in nonimps[::3]:
        prem = [D(p) for p in case["premises"]]
        ok, cex = semantic_implies(prem, D(case["goal"]))
        assert not ok and cex is not None


# --- soundness property: derivable implies semantically valid --------------

_attrs = st.sampled_from(("A", "B", "C"))


@st.composite
def _deps(draw):
    width = draw(st.integers(1, 2))
    xs = tuple(draw(_attrs) for _ in range(width))
    ys = tuple(draw(_attrs) for _ in range(width))
    return (Ind if draw(st.booleans()) else Exd)(xs, ys)


@settings(max_examples=60, deadline=None)
@given(st.lists(_deps(), max_size=2), _deps())
def test_derivable_implies_semantically_valid(premises, goal):
    d = derive(premises, goal, depth=3)
    if d is not None:
        assert verify_derivation(d, premises)
        ok, cex = semantic_implies(premises, goal, universe_size=2,
                                   max_tuples=2)
        assert ok, (premises, goal, sorted(cex.tuples))
