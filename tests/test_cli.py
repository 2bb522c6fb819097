import json
import re

import pytest

from teamlogic import cli
from teamlogic.cli import main
from teamlogic.syntax import MAX_NESTING


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def split_fixture(tmp_path, fixtures_dir):
    """Split a combined fixture file into --model / --team files."""

    def split(name):
        data = json.loads((fixtures_dir / name).read_text())
        model_path = tmp_path / "model.json"
        team_path = tmp_path / "team.json"
        model_path.write_text(json.dumps(data["model"]))
        team_path.write_text(json.dumps(data["team"]))
        return str(model_path), str(team_path), data["formula"]

    return split


# --- check -----------------------------------------------------------------


def test_check_lax_vs_strict_exit_codes(capsys, split_fixture):
    model, team, formula = split_fixture("prop-4.2-lax-vs-strict.json")
    code, out, _ = run(capsys, "check", "--model", model, "--team", team,
                       formula)
    assert code == 0 and out.strip() == "sat (lax)"
    code, out, _ = run(capsys, "check", "--model", model, "--team", team,
                       "--mode", "strict", formula)
    assert code == 1 and out.strip() == "unsat (strict)"


def test_check_sentence_without_team(capsys):
    code, out, _ = run(capsys, "check", "--domain", "0,1",
                       "forall x . exists y . x != y")
    assert code == 0
    code, _, _ = run(capsys, "check", "--domain", "0,1",
                     "exists y . forall x . x = y")
    assert code == 1


def test_check_usage_errors(capsys):
    code, _, err = run(capsys, "check", "x = y")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "check", "--domain", "0,1", "x = ")
    assert code == 2
    code, _, err = run(capsys, "check", "--domain", "0,1", "--team",
                       "/nonexistent/team.json", "x = y")
    assert code == 2


def test_check_deep_nesting_is_a_usage_error(capsys):
    for formula in ("(" * 400 + "forall x . x = x" + ")" * 400,
                    "exists x . " * 400 + "x = x"):
        code, out, err = run(capsys, "check", "--domain", "0,1", formula)
        assert code == 2 and not out and err.startswith("error:")


@pytest.mark.parametrize("op", ["/\\", "\\/"], ids=["and", "or"])
def test_a_long_chain_is_not_nesting(capsys, tmp_path, op):
    # A chain of 10,000 parts is one junction, nested one level deep.
    chain = "(%s)" % (" %s " % op).join(["x = x", "incl(x ; x)"] * 5_000)
    path = tmp_path / "team.json"
    path.write_text(json.dumps({"vars": ["x"], "rows": [["0"]]}))
    code, out, err = run(capsys, "check", "--domain", "0,1",
                         "forall x . " + chain)
    assert code == 0 and out.strip() == "sat (lax)" and not err
    code, out, err = run(capsys, "game", "--domain", "0,1", "--team",
                         str(path), chain)
    assert code == 0 and out and not err
    code, out, err = run(capsys, "translate", "--rule", "ie2eso",
                         "--team-vars", "x", chain)
    assert code == 0 and out.startswith("free relation A/1\n") and not err


@pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1])
def test_check_nesting_limit_is_a_parse_rule(capsys, depth):
    for formula in ("exists x . " * depth + "x = x",
                    "(" * (depth - 1) + "forall x . x = x" + ")" * (depth - 1)):
        code, out, err = run(capsys, "check", "--domain", "0,1", formula)
        if depth <= MAX_NESTING:
            assert code == 0 and out.strip() == "sat (lax)" and not err
        else:
            assert code == 2 and not out
            assert err.splitlines() == [
                "error: formula nested deeper than %d levels" % MAX_NESTING]


def test_check_unbound_identifier_under_a_quantifier_is_a_usage_error(
        capsys, tmp_path):
    path = tmp_path / "team.json"
    path.write_text(json.dumps({"vars": ["x"], "rows": [["0"]]}))
    code, out, err = run(capsys, "check", "--domain", "0,1", "--team",
                         str(path), "exists y . y = z")
    assert code == 2 and not out
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("domain", ["0,1,", "0, ,1", ",0,1"],
                         ids=["trailing-comma", "blank-label", "leading-comma"])
def test_check_empty_domain_label_is_a_usage_error(capsys, domain):
    # With "" as a third element the sentence would come out sat.
    code, out, err = run(capsys, "check", "--domain", domain,
                         "exists x y z . (x != y /\\ y != z /\\ x != z)")
    assert code == 2 and not out
    assert err.splitlines() == ["error: --domain %r has an empty label" % domain]


def test_check_team_without_rows_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "team.json"
    path.write_text(json.dumps({"vars": ["x"]}))
    code, out, err = run(capsys, "check", "--domain", "0,1", "--team",
                         str(path), "x = x")
    assert code == 2 and not out and err.startswith("error:")


def test_check_team_value_outside_domain_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "team.json"
    for value in ("7", 7):
        path.write_text(json.dumps({"vars": ["x"], "rows": [[value]]}))
        code, out, err = run(capsys, "check", "--domain", "0,1", "--team",
                             str(path), "x = x")
        assert code == 2 and not out and err.startswith("error:")


@pytest.mark.parametrize("data", [
    {"vars": [1], "rows": [["0"]]},
    {"vars": ["x", "x"], "rows": [["0", "1"]]},
], ids=["non-string-var", "repeated-var"])
def test_check_malformed_team_vars_is_a_usage_error(capsys, tmp_path, data):
    path = tmp_path / "team.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "check", "--domain", "0,1", "--team",
                         str(path), "forall y . y = y")
    assert code == 2 and not out and err.startswith("error:")


@pytest.mark.parametrize("data", [
    {"constants": {}},
    {"domain": "01"},
    {"domain": ["0", "1"], "constants": [["c", "0"]]},
    {"domain": ["0", "1"], "functions": ["S"]},
    {"domain": ["0", "1"], "relations": [["R", ["0"]]]},
    {"domain": ["0", "1"], "relations": {"R": "01"}},
], ids=["no-domain", "domain-string", "constants-list", "functions-list",
        "relations-list", "relation-string"])
def test_check_malformed_model_is_a_usage_error(capsys, tmp_path, data):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "check", "--model", str(path),
                         "forall x . x = x")
    assert code == 2 and not out and err.startswith("error:")


@pytest.mark.parametrize("data, message", [
    ({"constants": {"c": ["0"]}}, "constant c is not a string"),
    ({"functions": {"f": {"0": ["1"], "1": "0"}}},
     "function f has a value that is not a string"),
    ({"functions": {"f": {}}}, "function f has an empty table"),
], ids=["constant-list", "function-value-list", "empty-function"])
def test_check_model_values_must_be_strings(capsys, tmp_path, data, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"domain": ["0", "1"], **data}))
    code, out, err = run(capsys, "check", "--model", str(path),
                         "forall x . x = x")
    assert code == 2 and not out
    assert err == "error: %s\n" % message


def test_check_json_report(capsys, split_fixture):
    model, team, formula = split_fixture("prop-4.2-lax-vs-strict.json")
    code, out, _ = run(capsys, "check", "--json", "--model", model,
                       "--team", team, formula)
    report = json.loads(out)
    assert code == 0 and report["verdict"] == "sat"
    assert report["mode"] == "lax" and report["nodes"] > 0


def test_check_budget_exit_code(capsys, split_fixture):
    model, team, formula = split_fixture("prop-4.2-lax-vs-strict.json")
    code, out, _ = run(capsys, "check", "--model", model, "--team", team,
                       "--budget", "2", formula)
    assert code == 3 and out.strip() == "budget_exceeded (lax)"


# --- game ------------------------------------------------------------------


def test_game_nondeterministic_vs_deterministic(capsys, split_fixture):
    model, team, formula = split_fixture("prop-4.2-lax-vs-strict.json")
    code, out, _ = run(capsys, "game", "--model", model, "--team", team,
                       formula)
    assert code == 0 and out.strip()
    code, out, _ = run(capsys, "game", "--model", model, "--team", team,
                       "--deterministic", formula)
    assert code == 1 and out.strip() == "none"


def test_game_requires_translated_atoms(capsys, split_fixture):
    model, team, _ = split_fixture("prop-4.2-lax-vs-strict.json")
    code, _, err = run(capsys, "game", "--model", model, "--team", team,
                       "dep(x, y)")
    assert code == 2 and "error" in err
    code, _, _ = run(capsys, "game", "--model", model, "--team", team,
                     "--compile", "dep(x, y)")
    assert code in (0, 1)


@pytest.mark.parametrize("subcommand", ["check", "game"])
@pytest.mark.parametrize("formula", [
    "R(x, x)", "S(x)", "f(x) = x", "g(x, x) = x",
], ids=["relation-arity", "missing-relation", "missing-function",
        "function-arity"])
def test_formula_symbols_must_match_the_model(capsys, tmp_path, subcommand,
                                              formula):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"domain": ["0", "1"],
                                 "relations": {"R": [["0"]]},
                                 "functions": {"g": {"0": "1", "1": "0"}}}))
    team = tmp_path / "team.json"
    team.write_text(json.dumps({"vars": ["x"], "rows": [["0"]]}))
    code, out, err = run(capsys, subcommand, "--model", str(model),
                         "--team", str(team), formula)
    assert code == 2 and not out
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_game_needs_team(capsys):
    code, _, err = run(capsys, "game", "--domain", "0,1", "x = y")
    assert code == 2 and "team" in err


# --- translate -------------------------------------------------------------


def test_translate_dep2exc_display(capsys):
    code, out, _ = run(capsys, "translate", "--rule", "dep2exc", "dep(x, y)")
    assert code == 0
    assert out.strip() == \
        "forall _v0 . (_v0 = y \\/ excl(x, _v0 ; x, y))"


def test_translate_equi2inc_display(capsys):
    code, out, _ = run(capsys, "translate", "--rule", "equi2inc",
                       "equi(x ; y)")
    assert code == 0
    assert out.strip() == "incl(x ; y) /\\ incl(y ; x)"


def test_translate_wrong_atom_type(capsys):
    code, _, err = run(capsys, "translate", "--rule", "dep2exc", "incl(x ; y)")
    assert code == 2 and "applies to a single" in err


def test_translate_tc_requires_tuple_flags(capsys):
    code, _, err = run(capsys, "translate", "--rule", "tc", "x = y")
    assert code == 2
    code, out, _ = run(capsys, "translate", "--rule", "tc",
                       "--avars", "a", "--bvars", "b",
                       "--xvars", "x", "--yvars", "y", "E(x, y)")
    assert code == 0 and "incl(" in out


@pytest.mark.parametrize("avars, xvars", [("a,b", "x"), ("a", "x,w")])
def test_translate_tc_rejects_mismatched_widths(capsys, avars, xvars):
    code, out, err = run(capsys, "translate", "--rule", "tc",
                         "--avars", avars, "--bvars", "c",
                         "--xvars", xvars, "--yvars", "y", "E(x, y)")
    assert code == 2 and not out
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("xvars, yvars, formula", [
    ("x", "x", "E(x, x)"), ("x,x", "y,y", "E(x, y)"),
])
def test_translate_tc_rejects_repeated_variables(capsys, xvars, yvars, formula):
    width = len(xvars.split(","))
    code, out, err = run(capsys, "translate", "--rule", "tc",
                         "--avars", ",".join(["a"] * width),
                         "--bvars", ",".join(["b"] * width),
                         "--xvars", xvars, "--yvars", yvars, formula)
    assert code == 2 and not out
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("rule, formula", [
    ("exc2dep", "excl( ; )"), ("inc2equi", "incl( ; )"),
    ("inc2indep", "incl( ; )"),
])
def test_translate_zero_width_atom_is_a_usage_error(capsys, rule, formula):
    code, out, err = run(capsys, "translate", "--rule", rule, formula)
    assert code == 2 and not out
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_translate_ie2eso_zero_width_exclusion(capsys):
    code, out, _ = run(capsys, "translate", "--rule", "ie2eso",
                       "--team-vars", "x", "excl( ; )")
    assert code == 0
    assert out.splitlines()[-1] == "matrix: forall x _v0 . (~A(x) \\/ ~A(_v0))"


def test_translate_expand_deps_binds_a_fresh_variable_per_dep(
        capsys, fixtures_dir):
    expanded = re.compile(r"forall (_v\d+) \. \(\1 = ")
    code, out, _ = run(capsys, "translate", "--rule", "indep2ie",
                       "--expand-deps", "indep( ; x ; y)")
    assert code == 0 and "dep(" not in out
    assert expanded.findall(out) == ["_v6", "_v7", "_v8", "_v9"]
    path = str(fixtures_dir / "thm-6-skolemnf-trivial.txt")
    code, out, _ = run(capsys, "translate", "--rule", "snf2ie", "--from-file",
                       "--expand-deps", "--team-vars", "v", path)
    assert code == 0 and "dep(" not in out
    assert expanded.findall(out) == ["_v3", "_v4"]


@pytest.mark.parametrize("argv", [
    ["--rule", "dep2exc", "--expand-deps", "dep(x, y)"],
    ["--rule", "dep2exc", "--team-vars", "x", "--avars", "q", "dep(x, y)"],
    ["--rule", "ie2eso", "--team-vars", "x", "--expand-deps", "x = x"],
    ["--rule", "tc", "--avars", "a", "--bvars", "b", "--xvars", "x",
     "--yvars", "y", "--team-vars", "x", "E(x, y)"],
], ids=["dep2exc-expand", "dep2exc-vars", "ie2eso-expand", "tc-team-vars"])
def test_translate_rule_rejects_flags_it_does_not_read(capsys, argv):
    code, out, err = run(capsys, "translate", *argv)
    assert code == 2 and not out
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_translate_ie2eso_rejects_a_repeated_team_variable(capsys):
    code, out, err = run(capsys, "translate", "--rule", "ie2eso",
                         "--team-vars", "x,x", "incl(x ; x)")
    assert code == 2 and not out
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_translate_snf2ie_malformed_form_is_a_usage_error(capsys):
    code, out, err = run(capsys, "translate", "--rule", "snf2ie",
                         "--team-vars", "v",
                         "A/1 ; x: u ; y: ; f1: u ; f2: u ; psi: f1(f2(u)) = u")
    assert code == 2 and not out
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_translate_snf2ie_from_file(capsys, fixtures_dir):
    path = str(fixtures_dir / "thm-6-skolemnf-trivial.txt")
    code, out, _ = run(capsys, "translate", "--rule", "snf2ie",
                       "--from-file", "--team-vars", "v", path)
    assert code == 0 and "dep(" in out and "incl(" in out


def test_translate_ie2eso_dump(capsys):
    code, out, _ = run(capsys, "translate", "--rule", "ie2eso",
                       "--team-vars", "x,y", "incl(x ; y)")
    assert code == 0
    assert out.splitlines()[0] == "free relation A/2"
    assert any(line.startswith("matrix:") for line in out.splitlines())


def test_translate_ie2eso_prints_each_bound(capsys):
    code, out, _ = run(capsys, "translate", "--rule", "ie2eso",
                       "--team-vars", "x,y", "x = y \\/ exists x . incl(x ; y)")
    assert code == 0
    lines = out.splitlines()
    assert lines[:4] == ["free relation A/2",
                         "exists relation W1/2 within x y . A(x, y)",
                         "exists relation W2/2 within x y . A(x, y)",
                         "exists relation W3/3 within x y _v1 . W2(x, y)"]
    assert len(lines) == 5 and lines[4].startswith("matrix: ")


# --- equiv -----------------------------------------------------------------


def test_equiv_accepts_translation(capsys):
    code, out, _ = run(capsys, "equiv", "dep(x, y)",
                       "forall _v0 . (_v0 = y \\/ excl(x, _v0 ; x, y))",
                       "--domains", "2..2", "--max-rows", "3")
    assert code == 0 and out.strip() == "equivalent"


def test_equiv_counterexample(capsys):
    code, out, _ = run(capsys, "equiv", "incl(x ; y)", "incl(y ; x)",
                       "--domains", "2..2", "--max-rows", "2")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "counterexample"
    # the reported team really separates the two formulas
    team_line = next(l for l in lines if l.startswith("team:"))
    data = json.loads(team_line.split(":", 1)[1])
    assert data["rows"]


def test_equiv_with_relation_symbols(capsys):
    code, out, _ = run(capsys, "equiv", "R(x)", "R(x)",
                       "--domains", "2..2", "--max-rows", "2")
    assert code == 0


def test_equiv_rejects_a_relation_at_two_arities(capsys):
    code, out, err = run(capsys, "equiv", "R(x)", "R(x, x)",
                         "--domains", "2..2", "--max-rows", "2")
    assert code == 2 and not out and err.startswith("error:")


def test_equiv_rejects_an_empty_domain_range(capsys):
    # The counterexample of test_equiv_counterexample lies on 2..2; a
    # reversed range searches nothing and must not read as equivalent.
    code, out, err = run(capsys, "equiv", "incl(x ; y)", "incl(y ; x)",
                         "--domains", "3..1")
    assert code == 2 and not out and err.startswith("error:")


def test_equiv_rejects_a_negative_row_bound(capsys):
    code, out, err = run(capsys, "equiv", "incl(x ; y)", "incl(y ; x)",
                         "--max-rows", "-1")
    assert code == 2 and not out and err.startswith("error:")


def test_equiv_budget(capsys):
    code, out, _ = run(capsys, "equiv", "exists a . incl(x ; a)",
                       "exists a . incl(x ; a)",
                       "--domains", "2..2", "--budget", "1")
    assert code == 3 and out.strip() == "budget_exceeded"
    # The budget bounds each evaluation, not the sum over all teams.
    code, out, _ = run(capsys, "equiv", "exists a . incl(x ; a)",
                       "exists a . incl(x ; a)",
                       "--domains", "2..2", "--budget", "5")
    assert code == 0 and out.strip() == "equivalent"


# --- derive ----------------------------------------------------------------


def test_derive_transitivity(capsys):
    code, out, _ = run(capsys, "derive", "incl(A ; C)",
                       "-p", "incl(A ; B)", "-p", "incl(B ; C)")
    assert code == 0
    assert out.splitlines()[0].startswith("incl(A ; C)")
    assert "I3" in out


def test_derive_not_derivable(capsys):
    code, out, _ = run(capsys, "derive", "incl(B ; A)",
                       "-p", "incl(A ; B)", "--depth", "4")
    assert code == 1 and "not derivable" in out


def test_derive_rejects_a_negative_depth(capsys):
    code, out, err = run(capsys, "derive", "incl(A ; C)", "-p", "incl(A ; B)",
                         "-p", "incl(B ; C)", "--depth", "-1")
    assert code == 2 and not out and err.startswith("error:")


def test_derive_rejects_fd_premise(capsys):
    code, _, err = run(capsys, "derive", "incl(A ; B)", "-p", "fd(A -> B)")
    assert code == 2 and "error" in err


# --- dbcheck ---------------------------------------------------------------


def test_dbcheck_mixed_results(capsys, tmp_path):
    csv = tmp_path / "r.csv"
    csv.write_text("A,B\n0,1\n0,2\n")
    code, out, _ = run(capsys, "dbcheck", str(csv),
                       "fd(A -> B)", "incl(B ; B)")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("violated: fd(A -> B)  witness:")
    assert lines[1] == "holds: incl(B ; B)"


def test_dbcheck_deps_file_and_json(capsys, tmp_path):
    csv = tmp_path / "r.csv"
    csv.write_text("A,B\n0,0\n1,1\n")
    deps = tmp_path / "deps.txt"
    deps.write_text("# comment line\nincl(A ; B)\nexcl(A ; B)\n")
    code, out, _ = run(capsys, "dbcheck", "--json", str(csv),
                       "--deps-file", str(deps))
    report = json.loads(out)
    assert code == 1 and report["verdict"] == "violated"
    assert len(report["violations"]) == 1


@pytest.mark.parametrize("dependency", [
    "tgd: A(x, y) -> A(y, z)", "egd: A(x, y) -> x = z",
    "tgd: A(x) -> A(x)", "egd: A(x) -> x = x",
], ids=["tgd-unbound", "egd-unbound", "tgd-width", "egd-width"])
def test_dbcheck_malformed_generating_dependency(capsys, tmp_path, dependency):
    csv = tmp_path / "ok.csv"
    csv.write_text("A,B\n0,1\n1,0\n")
    code, out, err = run(capsys, "dbcheck", str(csv), dependency)
    assert code == 2 and not out
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_dbcheck_rejects_a_repeated_attribute(capsys, tmp_path):
    csv = tmp_path / "r.csv"
    csv.write_text("A,A\n1,2\n2,1\n")
    code, out, err = run(capsys, "dbcheck", str(csv),
                         "incl(A ; A)", "fd(A -> A)")
    assert code == 2 and not out
    assert err.startswith("error: ") and len(err.splitlines()) == 1


# --- flags and input files ------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["translate", "--rule", "dep2exc", "--mode", "strict", "dep(x, y)"],
    ["derive", "incl(A ; B)", "-p", "incl(A ; B)", "--budget", "5"],
    ["dbcheck", "--allow-unit-domain", "r.csv", "incl(A ; B)"],
], ids=["translate-mode", "derive-budget", "dbcheck-unit-domain"])
def test_search_flags_only_where_a_search_reads_them(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_game_has_no_mode_flag(capsys, split_fixture):
    # The strict reading is --deterministic; --mode must neither be read
    # as the lax question nor as an abbreviation of --model.
    model, team, formula = split_fixture("prop-4.2-lax-vs-strict.json")
    with pytest.raises(SystemExit) as exit_:
        main(["game", "--mode", "strict", "--model", model, "--team", team,
              formula])
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check", "--domain", "0,1", "--team", "{dir}", "x = x"],
    ["dbcheck", "{dir}", "incl(A ; B)"],
], ids=["check-team", "dbcheck-relation"])
def test_unreadable_input_file_is_a_usage_error(capsys, tmp_path, argv):
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 2 and not out
    assert err.startswith("error:") and len(err.splitlines()) == 1


# --- internal errors -------------------------------------------------------


def test_internal_error_does_not_read_as_a_verdict(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_check", broken)
    code, out, err = run(capsys, "check", "--domain", "0,1", "x = x")
    assert code == cli.EXIT_INTERNAL
    assert code not in (cli.EXIT_SAT, cli.EXIT_UNSAT, cli.EXIT_USAGE,
                        cli.EXIT_BUDGET)
    assert not out and err == "internal error: RuntimeError: boom\n"
