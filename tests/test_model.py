import json

import pytest
from hypothesis import given, strategies as st

from teamlogic.model import (
    Assignment, Model, ModelError, Team, all_teams, eval_term, subsets, tables,
)
from teamlogic.syntax import App, Name


def small_model():
    return Model(["0", "1"], constants={"c": "0"},
                 functions={"S": {("0",): "1", ("1",): "0"}},
                 relations={"R": [("0", "1")]})


def test_model_validation():
    with pytest.raises(ModelError):
        Model([])
    with pytest.raises(ModelError):
        Model(["0"])
    Model(["0"], allow_unit_domain=True)
    with pytest.raises(ModelError):
        Model(["0", "1"], constants={"c": "7"})
    with pytest.raises(ModelError):
        Model(["0", "1"], functions={"S": {("0",): "1"}})  # not total
    with pytest.raises(ModelError):
        Model(["0", "1"], relations={"R": [("0",), ("0", "1")]})


def test_copies_validate_the_new_table_and_leave_the_model_alone():
    m = small_model()
    for bad in ([("0",), ("0", "1")], [("7",)]):
        with pytest.raises(ModelError):
            m.with_relation("B", bad)
    for bad in ({("0",): "1"}, {("0",): "1", ("1",): "7"},
                {("0",): "1", ("1", "0"): "0"}):
        with pytest.raises(ModelError):
            m.with_function("g", bad)
    copy = m.with_relation("R", [("1", "1")]).with_function("S", {("0",): "0", ("1",): "0"})
    assert copy.relations["R"] == {("1", "1")}
    assert copy.function_value("S", ("1",)) == "0"
    assert copy.constants == m.constants and copy.domain == m.domain
    assert m.relations["R"] == {("0", "1")}
    assert m.function_value("S", ("1",)) == "0" and m.function_value("S", ("0",)) == "1"
    assert m.to_json_dict() == small_model().to_json_dict()


def test_eval_term_shadowing():
    m = small_model()
    s = Assignment({"x": "1", "c": "1"})
    assert eval_term(m, s, Name("c")) == "1"  # variable shadows constant
    assert eval_term(m, Assignment({}), Name("c")) == "0"
    assert eval_term(m, s, App("S", (Name("x"),))) == "0"
    with pytest.raises(ModelError):
        eval_term(m, Assignment({}), Name("nope"))


def test_model_json_round_trip(tmp_path):
    m = small_model()
    path = tmp_path / "m.json"
    path.write_text(json.dumps(m.to_json_dict()))
    back = Model.load(str(path))
    assert back.domain == m.domain
    assert back.constants == m.constants
    assert back.functions == m.functions
    assert back.relations == m.relations


def test_team_row_domain_checked():
    with pytest.raises(ModelError):
        Team(("x", "y"), [{"x": "0"}])


def test_team_restrict_and_relation():
    x = Team.from_tuples(("x", "y"), [("0", "1"), ("1", "1")])
    assert len(x.restrict(("y",))) == 1
    m = small_model()
    assert x.relation(m, (Name("x"), Name("y"))) == {("0", "1"), ("1", "1")}


def test_extend_universal_duplicates_rows():
    x = Team.from_tuples(("x",), [("0",)])
    wide = x.extend_universal("y", ("0", "1"))
    assert sorted(r.values_for(("x", "y")) for r in wide.rows) == \
        [("0", "0"), ("0", "1")]


def test_extend_universal_overwrites_existing_column():
    x = Team.from_tuples(("x", "y"), [("0", "0")])
    wide = x.extend_universal("y", ("0", "1"))
    assert len(wide) == 2
    assert wide.variables == ("x", "y")


def test_team_json_round_trip(tmp_path):
    x = Team.from_tuples(("x", "y"), [("0", "1"), ("1", "0")])
    path = tmp_path / "t.json"
    path.write_text(json.dumps(x.to_json_dict()))
    assert Team.load(str(path)) == x


def test_all_teams_counts():
    teams = list(all_teams(("x", "y"), ("0", "1"), max_rows=2))
    # C(4,0) + C(4,1) + C(4,2)
    assert len(teams) == 1 + 4 + 6
    rows = [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
    assert teams == [Team.from_tuples(("x", "y"), chosen)
                     for chosen in subsets(rows, 0, 2)]


# Node counts, strategies, and the first witness, derivation and
# counterexample each engine finds all follow these two orders.


def test_subsets_come_smallest_first_in_combinations_order():
    assert list(subsets("abc")) == [
        (), ("a",), ("b",), ("c",),
        ("a", "b"), ("a", "c"), ("b", "c"), ("a", "b", "c")]
    assert list(subsets(iter("abcd"), 2, 2)) == [
        ("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]


def test_subsets_bounds():
    assert list(subsets("abc", 1, 1)) == [("a",), ("b",), ("c",)]
    assert list(subsets("abc", 2)) == [
        ("a", "b"), ("a", "c"), ("b", "c"), ("a", "b", "c")]
    assert list(subsets("abc", 0, 1)) == [(), ("a",), ("b",), ("c",)]
    assert list(subsets("ab", 1, 5)) == [("a",), ("b",), ("a", "b")]
    assert list(subsets("ab", 3)) == []
    assert list(subsets("ab", 2, 1)) == []
    assert list(subsets([])) == [()]
    assert list(subsets([], 1)) == []


def test_tables_come_in_product_order():
    assert list(tables(["p", "q"], "01")) == [
        {"p": "0", "q": "0"}, {"p": "0", "q": "1"},
        {"p": "1", "q": "0"}, {"p": "1", "q": "1"}]
    assert [list(t.items()) for t in tables(iter("qp"), "01")][:2] == [
        [("q", "0"), ("p", "0")], [("q", "0"), ("p", "1")]]
    assert list(tables([], "01")) == [{}]
    assert list(tables(["p"], "")) == []


@given(st.lists(st.tuples(st.sampled_from("01"), st.sampled_from("01")),
                max_size=4))
def test_team_equality_ignores_duplicates(pairs):
    x = Team.from_tuples(("x", "y"), pairs)
    y = Team.from_tuples(("x", "y"), pairs + pairs)
    assert x == y and len(x) == len({tuple(p) for p in pairs})
