"""The benchmark's runs end their stdout with a well-formed result.

A harness reads only the last stdout line of perfbench/run.py, so a stray
print or a traced name that no longer resolves (its metrics are then left
out) turns a working run into an unreadable one.  The untraced run is the
one whose end-to-end metrics are timed, so it is checked as well.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_ends_with_a_result(workload):
    proc = _run(workload, "1")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert {"correct", "attempted", "failed", "metrics"} <= result.keys()
    assert result["failed"] == 0, proc.stderr
    missing = [m["name"] for m in BENCHMARK["per_layer"]
               if m["name"] not in result["metrics"]]
    assert missing == []
    assert json.loads(lines[-2])["missing_layers"] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = _run(workload, "0")
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    missing = [m["name"] for m in BENCHMARK["end_to_end"]
               if m["name"] not in result["metrics"]]
    assert missing == []


def test_replay_totals_add_up_the_per_query_lines():
    # scripts/replay_verdicts.py --totals folds the per-query lines into
    # one line per workload and query kind.
    def replay(*extra):
        proc = subprocess.run(
            [sys.executable, "scripts/replay_verdicts.py", "--workloads",
             "check-strict", "--seeds", "1", *extra],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return [line.split() for line in proc.stdout.splitlines()]

    want = {}
    for workload, _seed, _round, kind, outcome, nodes in replay():
        queries, total, outcomes = want.setdefault((workload, kind),
                                                   (0, 0, {}))
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        want[workload, kind] = (queries + 1, total + int(nodes), outcomes)
    got = {}
    for workload, kind, queries, nodes, *outcomes in replay("--totals"):
        got[workload, kind] = (
            int(queries.removeprefix("queries=")),
            int(nodes.removeprefix("nodes=")),
            {o: int(n) for o, n in (item.rsplit("=", 1) for item in outcomes)})
    assert got == want and len(got) > 1
