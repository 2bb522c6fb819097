import importlib.util
import itertools
import json
import pathlib
import sys

import pytest
from hypothesis import given, settings, strategies as st

from teamlogic.dbdeps import (
    DBRelation, DependencyError, Derivation, Egd, Exd, Fd, Ind, Tgd,
    check_dependency, derive, find_violation, parse_dependency,
    semantic_implies, verify_derivation,
)
from teamlogic.syntax import ParseError

from oracles import ref_fd_holds, ref_implies
from ref_derive import ref_derive


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


@pytest.mark.parametrize("premises, goal", [
    (["fd(A -> B)"], "incl(A ; B)"),
    ([], "fd(A -> B)"),
    (["tgd: A(x,y) -> A(y,x)"], "incl(A ; B)"),
    ([], "tgd: A(x,y) -> A(y,x)"),
    (["egd: A(x,y) & A(x,z) -> y = z"], "excl(A ; B)"),
    ([], "egd: A(x,y) & A(x,z) -> y = z"),
], ids=["fd-premise", "fd-goal", "tgd-premise", "tgd-goal", "egd-premise",
        "egd-goal"])
def test_semantic_implies_rejects_other_kinds(premises, goal):
    with pytest.raises(DependencyError):
        semantic_implies([D(p) for p in premises], D(goal))


@pytest.mark.parametrize("bounds", [{"max_tuples": -1}, {"universe_size": -1}],
                         ids=["max_tuples", "universe_size"])
def test_semantic_implies_rejects_negative_bounds(bounds):
    with pytest.raises(ValueError):
        semantic_implies([D("incl(A ; B)")], D("incl(B ; A)"), **bounds)


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


# --- differential tests against the references in tests/ -------------------


@st.composite
def _deps_over(draw, attrs, kinds=(Ind, Exd)):
    width = draw(st.integers(1, 2))
    xs = tuple(draw(attrs) for _ in range(width))
    ys = tuple(draw(attrs) for _ in range(width))
    return draw(st.sampled_from(kinds))(xs, ys)


def _triple(dep):
    return ("incl" if isinstance(dep, Ind) else "excl", dep.xs, dep.ys)


@settings(max_examples=300, deadline=None)
@given(st.lists(_deps_over(_attrs), max_size=3), _deps_over(_attrs),
       st.integers(2, 3), st.integers(0, 3))
def test_semantic_implies_matches_reference(premises, goal, universe_size,
                                            max_tuples):
    holds, cex = semantic_implies(premises, goal, universe_size, max_tuples)
    ref = ref_implies([_triple(p) for p in premises], _triple(goal),
                      universe_size, max_tuples)
    assert holds == (ref is None)
    if ref is not None:
        assert cex.tuples == frozenset(ref)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(("inc-exc", "inc-only")), st.integers(2, 4),
       st.integers(1, 4), st.data())
def test_derive_matches_the_naive_closure(system, n_attrs, depth, data):
    attrs = st.sampled_from("ABCD"[:n_attrs])
    deps = _deps_over(attrs, (Ind,) if system == "inc-only" else (Ind, Exd))
    premises = data.draw(st.lists(deps, max_size=4))
    for goal in data.draw(st.lists(deps, min_size=3, max_size=3)):
        found = derive(premises, goal, system, depth)
        ref = ref_derive(premises, goal, system, depth)
        assert (found and found.lines()) == (ref and ref.lines())


def test_wide_exclusion_goal_stays_underivable():
    premises = [D("excl(A,B,C ; D,A,B)"), D("incl(A ; D)")]
    assert derive(premises, D("excl(A,A,A ; D,D,D)"), depth=3) is None


@pytest.mark.parametrize("premises, goal", [
    (["excl(A ; D)"], "excl(A,B,C ; D,A,B)"),
    (["excl(B ; A)"], "excl(A,A,B ; B,B,A)"),
    (["excl(A,B ; C,C)"], "excl(B,A,A ; C,C,B)"),
    (["excl(A,B ; B,A)"], "excl(A,A,B ; B,A,A)"),
    (["excl(A ; B)", "incl(C ; A)"], "excl(C,A,C ; B,B,B)"),
])
def test_wide_exclusion_derivations_match_the_naive_closure(premises, goal):
    premises = [D(p) for p in premises]
    found = derive(premises, D(goal), depth=4)
    assert found is not None and verify_derivation(found, premises)
    assert found.lines() == ref_derive(premises, D(goal), depth=4).lines()


# --- the fixture report script ---------------------------------------------


def _report_script():
    path = (pathlib.Path(__file__).resolve().parent.parent / "scripts"
            / "dependency_calculus_report.py")
    spec = importlib.util.spec_from_file_location("calculus_report", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, stub, reason", [
    ("verify_derivation", lambda derivation, premises: False,
     "derivation does not verify"),
    ("semantic_implies", lambda premises, goal: (True, None),
     "no counterexample found"),
], ids=["verify", "refute"])
def test_report_script_exits_1_when_a_check_fails(monkeypatch, capsys, name,
                                                  stub, reason):
    report = _report_script()
    monkeypatch.setattr(report, name, stub)
    monkeypatch.setattr(sys, "argv", ["dependency_calculus_report.py"])
    assert report.main() == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "FAILED    " + reason)
