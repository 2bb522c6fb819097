"""The benchmark's traced run ends its stdout with a well-formed result.

A harness reads only the last stdout line of perfbench/run.py, so a stray
print or a traced name that no longer resolves (its metrics are then left
out) turns a working run into an unreadable one.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_ends_with_a_result(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert {"correct", "attempted", "failed", "metrics"} <= result.keys()
    assert result["failed"] == 0, proc.stderr
    missing = [m["name"] for m in BENCHMARK["per_layer"]
               if m["name"] not in result["metrics"]]
    assert missing == []
    assert json.loads(lines[-2])["missing_layers"] == []
