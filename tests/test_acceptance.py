"""The release gate: twelve numbered checks, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they appear.  Each check prints "criterion NN: PASS" or "... FAIL"
before asserting, so the transcript always carries a full scoreboard.
"""

import itertools
import json
import time

from teamlogic import translate
from teamlogic.cli import main as cli_main
from teamlogic.dbdeps import (
    derive, parse_dependency, semantic_implies, verify_derivation,
)
from teamlogic.games import build_arena, find_uniform_winning
from teamlogic.model import Model, Team, all_teams
from teamlogic.semantics import Mode, satisfies, satisfies_sentence
from teamlogic.syntax import parse, render

import corpus
from fastcorpus import CorpusEvaluator, row_universe
from oracles import reachable


def report(number, ok, detail=""):
    tail = "" if ok or not detail else "  (%s)" % detail
    print("criterion %02d: %s%s" % (number, "PASS" if ok else "FAIL", tail))
    assert ok, detail


def load_case(fixtures_dir, name):
    data = json.loads((fixtures_dir / name).read_text())
    model = Model.from_json_dict(data["model"])
    team = Team.from_json_dict(data["team"])
    return model, team, parse(data["formula"]), data


# --- 1, 2: lax and strict disagree on the two displayed instances -----------


def test_criterion_01_disjunction_split(fixtures_dir):
    start = time.perf_counter()
    model, team, phi, _ = load_case(fixtures_dir, "prop-4.2-lax-vs-strict.json")
    lax = satisfies(model, team, phi, Mode.LAX).is_sat
    strict = satisfies(model, team, phi, Mode.STRICT).is_sat
    elapsed = time.perf_counter() - start
    report(1, lax and not strict and elapsed < 1.0,
           "lax=%s strict=%s %.2fs" % (lax, strict, elapsed))


def test_criterion_02_existential_split(fixtures_dir):
    start = time.perf_counter()
    model, team, phi, _ = load_case(fixtures_dir,
                                    "prop-4.2-lax-vs-strict-exists.json")
    lax = satisfies(model, team, phi, Mode.LAX).is_sat
    strict = satisfies(model, team, phi, Mode.STRICT).is_sat
    elapsed = time.perf_counter() - start
    report(2, lax and not strict and elapsed < 1.0,
           "lax=%s strict=%s %.2fs" % (lax, strict, elapsed))


# --- 3: strict satisfaction is not a function of the free columns -----------


def test_criterion_03_strict_nonlocality(fixtures_dir):
    ok = True
    details = []
    for name in ("prop-4.2-strict-nonlocal-disjunction.json",
                 "prop-4.2-strict-nonlocal-existential.json"):
        model, wide, phi, data = load_case(fixtures_dir, name)
        narrow = wide.restrict(data["free_vars"])
        wide_strict = satisfies(model, wide, phi, Mode.STRICT).is_sat
        narrow_strict = satisfies(model, narrow, phi, Mode.STRICT).is_sat
        wide_lax = satisfies(model, wide, phi, Mode.LAX).is_sat
        narrow_lax = satisfies(model, narrow, phi, Mode.LAX).is_sat
        case_ok = wide_strict and not narrow_strict and wide_lax == narrow_lax
        ok = ok and case_ok
        details.append("%s: strict %s/%s lax %s/%s" %
                       (name, wide_strict, narrow_strict, wide_lax, narrow_lax))
    report(3, ok, "; ".join(details))


# --- 4, 5, 6: whole-corpus closure properties -------------------------------

VARS = ("x", "y")
DOM = ("0", "1")
M2 = Model(DOM)


def _restriction_map(wide):
    """Wide-universe mask -> its projection onto the x, y columns."""
    narrow_rows = row_universe(VARS, DOM)
    narrow_index = {row: i for i, row in enumerate(narrow_rows)}
    projected = [1 << narrow_index[row.restricted(VARS)] for row in wide.rows]
    table = {}
    for mask in wide.masks:
        out, rest = 0, mask
        while rest:
            bit = rest & -rest
            out |= projected[bit.bit_length() - 1]
            rest ^= bit
        table[mask] = out
    return table


def _team_from_mask(evaluator, mask, variables):
    rows = [row for i, row in enumerate(evaluator.rows) if mask >> i & 1]
    return Team(variables, rows)


def test_criterion_04_lax_locality():
    formulas = list(corpus.formulas(VARS, depth=3, kinds=("eq", "incl", "excl")))
    wide = CorpusEvaluator(VARS + ("u",), DOM, max_rows=3, lax=True)
    narrow = CorpusEvaluator(VARS, DOM, max_rows=3, lax=True)
    restrict = _restriction_map(wide)
    violations = 0
    for phi in formulas:
        wide_vec = wide.vector(phi)
        narrow_vec = narrow.vector(phi)
        for mask in wide.masks:
            if wide_vec[mask] != narrow_vec[restrict[mask]]:
                violations += 1
    # the bitmask engine itself is cross-checked against the evaluator
    # on a deterministic sample before the corpus-wide count is trusted
    pairs = corpus.sample(list(itertools.product(range(0, len(formulas), 97),
                                                 wide.masks)), 120, key=str)
    mismatches = 0
    for index, mask in pairs:
        phi = formulas[index]
        team = _team_from_mask(wide, mask, VARS + ("u",))
        if wide.vector(phi)[mask] != satisfies(M2, team, phi, Mode.LAX).is_sat:
            mismatches += 1
    report(4, violations == 0 and mismatches == 0,
           "%d locality violations, %d engine mismatches over %d formulas"
           % (violations, mismatches, len(formulas)))


def test_criterion_05_union_and_downward_closure():
    union_corpus = list(corpus.formulas(VARS, depth=3, kinds=("eq", "incl")))
    down_corpus = list(corpus.formulas(VARS, depth=3,
                                       kinds=("eq", "excl", "dep")))
    engine = CorpusEvaluator(VARS, DOM, max_rows=4, lax=True)
    union_bad = 0
    for phi in union_corpus:
        vec = engine.vector(phi)
        sat_masks = [m for m in engine.masks if vec[m]]
        for m1 in sat_masks:
            for m2 in sat_masks:
                if not vec[m1 | m2]:
                    union_bad += 1
    down_bad = 0
    for phi in down_corpus:
        vec = engine.vector(phi)
        for mask in engine.masks:
            if not vec[mask]:
                continue
            sub = mask
            while True:
                if not vec[sub]:
                    down_bad += 1
                if sub == 0:
                    break
                sub = (sub - 1) & mask
    report(5, union_bad == 0 and down_bad == 0,
           "%d union violations / %d formulas, %d downward violations / %d"
           % (union_bad, len(union_corpus), down_bad, len(down_corpus)))


def test_criterion_06_lax_equals_strict_on_dependence_corpus():
    formulas = list(corpus.formulas(VARS, depth=3, kinds=("eq", "dep")))
    lax = CorpusEvaluator(VARS, DOM, max_rows=3, lax=True)
    strict = CorpusEvaluator(VARS, DOM, max_rows=3, lax=False)
    disagreements = sum(1 for phi in formulas
                        if lax.vector(phi) != strict.vector(phi))
    report(6, disagreements == 0,
           "%d of %d formulas disagree" % (disagreements, len(formulas)))


# --- 7: every atom translation survives the brute-force oracle --------------


def test_criterion_07_translation_equivalences(capsys):
    dep = parse("dep(x, y)")
    incl = parse("incl(x ; y)")
    excl = parse("excl(x ; y)")
    equi = parse("equi(x ; y)")
    indep = parse("indep(z ; x ; y)")
    cases = [
        ("dep_to_indep", "dep(x, y)",
         translate.dep_to_indep(dep.args), 4),
        ("dep_to_exc", "dep(x, y)",
         translate.dep_to_exc(dep.args), 4),
        ("exc_to_dep", "excl(x ; y)",
         translate.exc_to_dep(excl.left, excl.right), 4),
        ("equi_to_inc", "equi(x ; y)",
         translate.equi_to_inc(equi.left, equi.right), 4),
        ("inc_to_equi", "incl(x ; y)",
         translate.inc_to_equi(incl.left, incl.right), 4),
        ("inc_to_indep", "incl(x ; y)",
         translate.inc_to_indep(incl.left, incl.right), 2),
        ("indep_to_ie", "indep(z ; x ; y)",
         translate.indep_to_ie(indep.cond, indep.left, indep.right), 2),
    ]
    start = time.perf_counter()
    failures = []
    for name, source, translated, max_rows in cases:
        code = cli_main(["equiv", source, render(translated),
                         "--domains", "2..2", "--max-rows", str(max_rows)])
        out = capsys.readouterr().out.strip().splitlines()
        if code != 0 or out[-1] != "equivalent":
            failures.append("%s -> exit %d" % (name, code))
    elapsed = time.perf_counter() - start
    report(7, not failures and elapsed < 600,
           "%s in %.1fs" % (failures or "all equivalent", elapsed))


# --- 8: strategy search and the evaluator never disagree --------------------


def test_criterion_08_game_team_agreement():
    formulas = list(corpus.formulas(VARS, depth=3, kinds=("eq", "incl", "excl")))
    teams = list(all_teams(VARS, DOM, max_rows=3))
    picked = corpus.sample(list(itertools.product(range(len(formulas)),
                                                  range(len(teams)))),
                           500, key=str)
    disagreements = 0
    for findex, tindex in picked:
        phi, team = formulas[findex], teams[tindex]
        arena = build_arena(M2, team, phi)
        nondet = find_uniform_winning(arena) is not None
        det = find_uniform_winning(arena, deterministic=True) is not None
        if nondet != satisfies(M2, team, phi, Mode.LAX).is_sat:
            disagreements += 1
        if det != satisfies(M2, team, phi, Mode.STRICT).is_sat:
            disagreements += 1
    report(8, disagreements == 0,
           "%d disagreements over %d sampled instances"
           % (disagreements, len(picked)))


# --- 9: the odd-cardinality sentence on small linear orders -----------------


def test_criterion_09_odd_cardinality():
    sentence = translate.odd_cardinality_sentence()
    sat_sizes = set()
    for size in range(2, 7):
        domain = [str(i) for i in range(size)]
        successor = {(str(i),): str(min(i + 1, size - 1)) for i in range(size)}
        model = Model(domain, constants={"0": "0", "e": str(size - 1)},
                      functions={"S": successor})
        if satisfies_sentence(model, sentence).is_sat:
            sat_sizes.add(size)
    report(9, sat_sizes == {3, 5},
           "sat sizes %s, wanted {3, 5}" % (sorted(sat_sizes),))


# --- 10: the transitive-closure sentence against a reachability oracle ------


def test_criterion_10_transitive_closure():
    sentence = translate.tc_sentence(parse("E(p, q)"),
                                     ("ca",), ("cb",), ("p",), ("q",))
    nodes = ("0", "1", "2")
    arcs = [(u, v) for u in nodes for v in nodes if u != v]
    disagreements = 0
    graphs = 0
    for bits in itertools.product((0, 1), repeat=len(arcs)):
        edges = [arc for arc, bit in zip(arcs, bits) if bit]
        graphs += 1
        pairs = corpus.sample(list(itertools.product(nodes, nodes)), 3,
                              key=lambda p: "%s%s" % (bits, p))
        for a, b in pairs:
            model = Model(nodes, constants={"ca": a, "cb": b},
                          relations={"E": edges})
            got = satisfies_sentence(model, sentence).is_sat
            in_closure = b == a or b in reachable(nodes, set(edges), a)
            if got != (not in_closure):
                disagreements += 1
    report(10, graphs == 64 and disagreements == 0,
           "%d graphs, %d disagreements" % (graphs, disagreements))


# --- 11: the second-order bridge in both directions -------------------------


def test_criterion_11_eso_bridge(fixtures_dir):
    formulas = list(corpus.formulas(VARS, depth=3, kinds=("eq", "incl", "excl")))
    teams = [t for t in all_teams(VARS, DOM, max_rows=2) if t.rows]
    forward_bad = 0
    for phi in formulas:
        eso = translate.ie_to_eso(phi, VARS)
        for team in teams:
            relation = {row.values_for(VARS) for row in team.rows}
            got = translate.eval_eso(M2, eso, relation)
            want = satisfies(M2, team, phi, Mode.LAX).is_sat
            if got != want:
                forward_bad += 1
    backward_bad = 0
    for name in ("thm-6-skolemnf-trivial.txt", "thm-6-skolemnf-equalizer.txt"):
        nf = translate.parse_skolemnf((fixtures_dir / name).read_text())
        vs = tuple("v%d" % i for i in range(nf.a_arity))
        phi = translate.skolemnf_to_ie(nf, vs)
        eso = translate.skolemnf_to_eso(nf)
        for team in all_teams(vs, DOM):
            if not team.rows:
                continue
            relation = {row.values_for(vs) for row in team.rows}
            got = satisfies(M2, team, phi, Mode.LAX).is_sat
            want = translate.eval_eso(M2, eso, relation)
            if got != want:
                backward_bad += 1
    report(11, forward_bad == 0 and backward_bad == 0,
           "%d forward mismatches over %d formulas, %d normal-form mismatches"
           % (forward_bad, len(formulas), backward_bad))


# --- 12: the dependency calculus end to end ---------------------------------


def test_criterion_12_dependency_calculus(fixtures_dir):
    problems = []
    cases = json.loads((fixtures_dir / "casanova-derivations.json").read_text())
    for case in cases:
        premises = [parse_dependency(p) for p in case["premises"]]
        goal = parse_dependency(case["goal"])
        found = derive(premises, goal, depth=6)
        if found is None or not verify_derivation(found, premises):
            problems.append("derivation %s" % case["goal"])
    implications = json.loads(
        (fixtures_dir / "casanova-implications.json").read_text())
    for case in implications:
        premises = [parse_dependency(p) for p in case["premises"]]
        goal = parse_dependency(case["goal"])
        found = derive(premises, goal, depth=6)
        if found is None or not verify_derivation(found, premises):
            problems.append("underived %s" % case["goal"])
        elif not semantic_implies(premises, goal)[0]:
            problems.append("unsound %s" % case["goal"])
    refuted = json.loads(
        (fixtures_dir / "casanova-non-implications.json").read_text())
    for case in refuted:
        premises = [parse_dependency(p) for p in case["premises"]]
        goal = parse_dependency(case["goal"])
        holds, counterexample = semantic_implies(premises, goal)
        if holds or counterexample is None:
            problems.append("unrefuted %s" % case["goal"])
    report(12, not problems,
           "; ".join(problems) or
           "%d derivations, %d implications, %d refutations"
           % (len(cases), len(implications), len(refuted)))
