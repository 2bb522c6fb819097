"""Replay the benchmark's query streams and print every verdict.

    python3 scripts/replay_verdicts.py --seeds 1,2,3 --rounds 20

Run it from the root of a teamlogic checkout: like perfbench/run.py it
imports the package from src/, the reference evaluator from tests/ and
the workloads from perfbench/ of the current directory, so the same
script replays any checkout.  For each workload, seed and round it runs
perfbench/workloads.execute on every query and prints one line:

    workload seed round kind outcome nodes_used

Two checkouts give the same verdicts with no more search nodes when
their outputs differ in no outcome and in no node count upwards, which
one diff shows.  Set PYTHONHASHSEED to make the node counts repeat
exactly: set iteration order decides how soon some searches stop.
"""

import argparse
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
    args = parser.parse_args()
    sys.path[:0] = [os.path.join(ROOT, d) for d in ("perfbench", "src", "tests")]
    import workloads

    fixtures = os.path.join(ROOT, "fixtures")
    for workload in args.workloads.split(","):
        for seed in (int(s) for s in args.seeds.split(",")):
            stream = workloads.Stream(workload, seed, fixtures)
            for index in range(args.rounds):
                for q in stream.round(index):
                    outcome, nodes = workloads.execute(q)
                    print(workload, seed, index, q.kind,
                          "".join(repr(outcome).split()), nodes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
