"""Replay the inclusion/exclusion dependency fixture suites and print a
scoreboard: every implication derived, verified and semantically
validated, every non-implication refuted with a concrete relation.

Usage: python scripts/dependency_calculus_report.py [--show-derivations]

Exits 1, after printing the case, when a derivation fails verification,
a derived goal has a counterexample relation, or a non-implication finds
none; the checks are plain code, so they run under python -O as well.
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from teamlogic.dbdeps import (
    derive, parse_dependency, semantic_implies, verify_derivation,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def fail(reason, premises, goal):
    print("FAILED    %s: %s  =>  %s" %
          (reason, ", ".join(premises) or "(nothing)", goal))
    return 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--show-derivations", action="store_true")
    args = ap.parse_args()

    implications = json.loads(
        (FIXTURES / "casanova-implications.json").read_text())
    rules_used = {}
    for case in implications:
        premises = [parse_dependency(p) for p in case["premises"]]
        goal = parse_dependency(case["goal"])
        found = derive(premises, goal, depth=6)
        status = "derived" if found else "MISSING"
        if found:
            if not verify_derivation(found, premises):
                return fail("derivation does not verify", case["premises"],
                            case["goal"])
            if not semantic_implies(premises, goal)[0]:
                return fail("derived goal has a counterexample",
                            case["premises"], case["goal"])
            rules_used[found.rule] = rules_used.get(found.rule, 0) + 1
        print("%-9s %s  =>  %s" %
              (status, ", ".join(case["premises"]) or "(nothing)", case["goal"]))
        if found and args.show_derivations:
            for line in found.lines():
                print("          %s" % line)
    print()
    print("top-level rules: %s" %
          ", ".join("%s x%d" % kv for kv in sorted(rules_used.items())))
    print()

    refuted = json.loads(
        (FIXTURES / "casanova-non-implications.json").read_text())
    for case in refuted:
        premises = [parse_dependency(p) for p in case["premises"]]
        goal = parse_dependency(case["goal"])
        holds, counterexample = semantic_implies(premises, goal)
        if holds:
            return fail("no counterexample found", case["premises"],
                        case["goal"])
        print("refuted   %s  =/=>  %s" %
              (", ".join(case["premises"]) or "(nothing)", case["goal"]))
        print("          witness relation over %s: %s" %
              (",".join(counterexample.attributes),
               sorted(counterexample.tuples)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
