"""Replay the benchmark's query streams and print every verdict.

    python3 scripts/replay_verdicts.py --seeds 1,2,3 --rounds 20

Run it from the root of a teamlogic checkout: like perfbench/run.py it
imports the package from src/, the reference evaluator from tests/ and
the workloads from perfbench/ of the current directory, so the same
script replays any checkout.  For each workload, seed and round it runs
perfbench/workloads.execute on every query and prints one line:

    workload seed round kind outcome nodes [digest]

nodes is what the query's semantics.Budget counted, for the team
search, eval_eso and the game solver alike (0 for the dependency
queries, which take no budget).  Game, derive and implies queries add a
digest of what the search found, or "-" when it found nothing: the
first 12 hex digits of the SHA-1 of the game's format_strategy text, of
the derivation's Derivation.lines(), or of the refuting relation's
attributes and sorted tuples.  The script reads these by wrapping
semantics.Budget, games.find_uniform_winning, dbdeps.derive and
dbdeps.semantic_implies for the length of the replay, as
perfbench/tracing.py wraps the program's functions.

Two checkouts give the same verdicts, strategies, derivations and
counterexamples with no more search nodes when their outputs differ in
no outcome or digest and in no node count upwards, which one diff
shows.  Set PYTHONHASHSEED to make the node counts repeat exactly: set
iteration order decides how soon some searches stop.

With --totals the script prints one line per workload and query kind
instead, in the order the kinds first occur:

    workload kind queries=N nodes=SUM outcome=COUNT ...

with the outcomes in sorted order; an outcome longer than 40
characters (the dependency violations) is counted under the first 12
hex digits of its SHA-1.  Equal totals show in a short diff that two
checkouts spend the same nodes per kind on the same verdicts.
"""

import argparse
import hashlib
import os
import sys

ROOT = os.getcwd()
WORKLOADS = ("check-lax", "check-strict", "eso-game")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workload names")
    parser.add_argument("--seeds", default="1", help="comma-separated seeds")
    parser.add_argument("--rounds", type=int, default=1,
                        help="rounds per workload and seed")
    parser.add_argument("--totals", action="store_true",
                        help="print the query count, outcome counts and "
                             "node sum per workload and query kind")
    args = parser.parse_args()
    sys.path[:0] = [os.path.join(ROOT, d) for d in ("perfbench", "src", "tests")]
    import workloads
    from teamlogic import dbdeps, games, semantics

    budgets, found = [], []

    class Budget(semantics.Budget):
        def __post_init__(self):
            super().__post_init__()
            budgets.append(self)

    solve = games.find_uniform_winning
    derive = dbdeps.derive
    implies = dbdeps.semantic_implies

    def find_uniform_winning(arena, *args, **kwargs):
        tau = solve(arena, *args, **kwargs)
        found.append(None if tau is None
                     else games.format_strategy(arena, tau))
        return tau

    def derive_noted(*args, **kwargs):
        derivation = derive(*args, **kwargs)
        found.append(None if derivation is None
                     else "\n".join(derivation.lines()))
        return derivation

    def implies_noted(*args, **kwargs):
        holds, relation = implies(*args, **kwargs)
        found.append(None if relation is None
                     else repr((relation.attributes, sorted(relation.tuples))))
        return holds, relation

    semantics.Budget = Budget
    games.find_uniform_winning = find_uniform_winning
    dbdeps.derive = derive_noted
    dbdeps.semantic_implies = implies_noted
    fixtures = os.path.join(ROOT, "fixtures")
    totals = {}  # (workload, kind) -> [queries, nodes, {outcome: count}]
    for workload in args.workloads.split(","):
        for seed in (int(s) for s in args.seeds.split(",")):
            stream = workloads.Stream(workload, seed, fixtures)
            for index in range(args.rounds):
                for q in stream.round(index):
                    budgets.clear()
                    found.clear()
                    outcome, nodes = workloads.execute(q)
                    fields = [workload, seed, index, q.kind,
                              "".join(repr(outcome).split()),
                              budgets[-1].nodes if budgets else nodes]
                    if args.totals:
                        total = totals.setdefault((workload, q.kind),
                                                  [0, 0, {}])
                        total[0] += 1
                        total[1] += fields[5]
                        text = fields[4]
                        if len(text) > 40:
                            text = _digest(text)
                        total[2][text] = total[2].get(text, 0) + 1
                        continue
                    if q.op in ("game", "derive", "implies") and found:
                        text = found[-1]
                        fields.append("-" if text is None else _digest(text))
                    print(*fields)
    for (workload, kind), (queries, nodes, outcomes) in totals.items():
        print(workload, kind, "queries=%d" % queries, "nodes=%d" % nodes,
              *("%s=%d" % item for item in sorted(outcomes.items())))
    return 0


def _digest(text):
    return hashlib.sha1(text.encode()).hexdigest()[:12]


if __name__ == "__main__":
    sys.exit(main())
