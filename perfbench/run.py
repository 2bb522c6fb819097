"""Verdict-stream benchmark for the teamlogic package.

    python3 perfbench/run.py --workload check-lax --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout: it imports the package from src/
and the reference evaluator from tests/, and installs nothing.  One
client replays a seeded stream of verdict queries in a closed loop (the
next query starts when the previous one returns), each timed from
building its Model and Team through parsing to the engine's verdict.
Every verdict is checked against a known answer computed outside the
timed region.

With --trace 0 it reports the end-to-end metrics; with --trace 1 it
replays a fixed number of rounds once plain and once with wrappers
around each package layer, and reports per-layer counts and self times
(trace.overhead_s is the difference of the two passes' wall times, so
on a noisy machine it can come out below zero).  The seed fixes the
inputs and the interpreter's hash seed, so traced counts repeat exactly.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it describes
the run (per-kind latencies, wrong verdicts, workload properties).
"""

import argparse
import array
import collections
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
FIXTURES = os.path.join(ROOT, "fixtures")

SETUP_PROBES = 15       # fresh processes timed for setup_s
MIN_QUERIES = 100       # so that ten samples lie beyond p90
WALL_LIMIT_S = 150      # stop measuring early rather than overrun
# Rough seconds per round at the baseline, used only to size the fixed
# query set of a traced run to about a third of --seconds.
ROUND_COST_S = {"check-lax": 0.35, "check-strict": 0.5, "eso-game": 0.07}


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("check-lax", "check-strict", "eso-game"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args()


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# Set-up time: process start until the first query is ready


def setup_probe(args):
    import workloads
    workloads.Stream(args.workload, args.seed, FIXTURES).round(0)
    print("ready", flush=True)


def time_setup(args):
    """Wall time of one fresh process from its start to its first query."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or line.strip() != "ready":
        raise RuntimeError("set-up probe failed")
    return elapsed


# ---------------------------------------------------------------------------
# The closed loop


class Tally:
    """Outcomes and latencies of the queries run so far.

    Only a latency array and per-kind totals grow with the query count,
    so that peak_rss_mb measures the program rather than this record.
    """

    def __init__(self):
        self.latencies = array.array("d")
        self.by_kind = {}       # kind -> [count, total seconds, max seconds]
        self.undecided = collections.Counter()
        self.wrong = []
        self.raised = []
        self.nodes = 0

    @property
    def count(self):
        return len(self.latencies)

    def add(self, workloads, q, outcome, nodes, elapsed):
        self.latencies.append(elapsed)
        kind = self.by_kind.setdefault(q.kind, [0, 0.0, 0.0])
        kind[0] += 1
        kind[1] += elapsed
        kind[2] = max(kind[2], elapsed)
        self.nodes += nodes
        if isinstance(outcome, Exception):
            self.raised.append("%s: %r" % (q.kind, outcome))
        elif outcome == workloads.UNDECIDED:
            self.undecided[q.kind] += 1
        elif not workloads.judge(q, outcome):
            self.wrong.append("%s %r on %r: got %r, want %r"
                              % (q.kind, q.text, q.rows, outcome, q.expect))


def run_queries(workloads, queries, tally, tracer=None):
    """Run queries back to back; returns the wall time they took."""
    start = time.perf_counter()
    for index, q in enumerate(queries):
        span = tracer.begin_query() if tracer else None
        t0 = time.perf_counter()
        try:
            outcome, nodes = workloads.execute(q)
        except Exception as exc:  # a raising query is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            outcome, nodes = exc, 0
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.end_query(span, index, q.kind, repr(outcome)[:40])
        if tally is not None:
            tally.add(workloads, q, outcome, nodes, elapsed)
    return time.perf_counter() - start


def prepare(workloads, stream, index):
    queries = stream.round(index)
    for q in queries:
        q.expect = workloads.known_answer(q)
    return queries


class Properties:
    """Input properties a later optimisation may exploit, folded in one
    round at a time so that this record does not grow with the query
    count."""

    def __init__(self):
        self.queries = self.repeats = self.lax = self.closed = 0
        self.seen = set()       # small: the inputs come from fixed pools
        self.closed_by_text = {}
        self.domains = collections.Counter()
        self.rows = collections.Counter()

    def add(self, queries):
        for q in queries:
            self.queries += 1
            self.repeats += q.text in self.seen
            self.seen.add(q.text)
            if q.domain:
                self.domains[len(q.domain)] += 1
            if q.variables and q.op != "violation":
                self.rows[len(q.rows)] += 1
            if q.mode == "lax" and q.op in ("team", "sentence", "eso", "game"):
                self.lax += 1
                if q.text not in self.closed_by_text:
                    self.closed_by_text[q.text] = q.union_closed
                self.closed += self.closed_by_text[q.text]

    def summary(self):
        return {"queries": self.queries,
                "repeated_text_share": self.repeats / self.queries,
                "domain_sizes": dict(sorted(self.domains.items())),
                "team_rows": dict(sorted(self.rows.items())),
                "union_closed_share_of_lax":
                    self.closed / self.lax if self.lax else 0.0}


def describe(args, tally, extra):
    kinds = {}
    for kind, (n, total, longest) in sorted(tally.by_kind.items()):
        kinds[kind] = {"n": n, "total_s": total, "mean_ms": 1000 * total / n,
                       "max_ms": 1000 * longest,
                       "undecided": tally.undecided[kind]}
    info = {"workload": args.workload, "seed": args.seed,
            "samples": tally.count, "wrong_verdicts": len(tally.wrong),
            "raised": len(tally.raised), "kinds": kinds}
    info.update(extra)
    return info


def finish(tally, metrics, info):
    for line in (tally.wrong + tally.raised)[:20]:
        print("FAILED " + line, file=sys.stderr)
    failed = len(tally.wrong) + len(tally.raised)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": tally.count,
                      "failed": failed, "metrics": metrics}))


def end_to_end(args):
    import workloads
    stream = workloads.Stream(args.workload, args.seed, FIXTURES)
    run_queries(workloads, prepare(workloads, stream, 0), None)  # warm-up

    tally = Tally()
    props = Properties()
    setups = []
    measured = 0.0
    began = time.perf_counter()
    index = 1
    # Whole pairs of rounds, since some inputs alternate between rounds.
    # The set-up probes run between rounds, spread evenly over the
    # measured time, so that they see the same machine as the queries.
    while (measured < args.seconds or tally.count < MIN_QUERIES
           or index % 2 == 0) \
            and time.perf_counter() - began < WALL_LIMIT_S:
        queries = prepare(workloads, stream, index)
        measured += run_queries(workloads, queries, tally)
        props.add(queries)
        index += 1
        if len(setups) < min(SETUP_PROBES,
                             measured / args.seconds * SETUP_PROBES):
            setups.append(time_setup(args))
    while len(setups) < SETUP_PROBES:
        setups.append(time_setup(args))
    setup_s = statistics.median(setups)

    lat = tally.latencies
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "verdicts_per_s": metric(tally.count / measured, "1/s"),
        "verdict_p50_ms": metric(1000 * statistics.median(lat), "ms"),
        "verdict_p90_ms": metric(1000 * statistics.quantiles(lat, n=10)[8], "ms"),
        "undecided_share": metric(sum(tally.undecided.values()) / tally.count,
                                  "ratio"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = describe(args, tally, {"rounds": index - 1,
                                  "measured_s": measured,
                                  "properties": props.summary()})
    finish(tally, metrics, info)


# ---------------------------------------------------------------------------
# Traced run


CLI_RUNS = 2


def measure_cli(workloads):
    """Median wall time of sequential `python -m teamlogic.cli` runs."""
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    team_path = os.path.join(out_dir, "cli-team.json")
    with open(team_path, "w") as handle:
        json.dump({"vars": ["x", "y"], "rows": [["0", "1"], ["1", "0"],
                                                ["1", "1"]]}, handle)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    check = "incl(x ; y) \\/ excl(x ; y)"
    commands = [
        (["check", "--domain", "0,1", "--team", team_path, check],
         workloads.Query("cli", "team", check, ("0", "1"), ("x", "y"),
                         (("0", "1"), ("1", "0"), ("1", "1")), "lax", 0, check)),
        (["game", "--domain", "0,1", "--team", team_path, "--deterministic",
          check],
         workloads.Query("cli", "team", check, ("0", "1"), ("x", "y"),
                         (("0", "1"), ("1", "0"), ("1", "1")), "strict", 0,
                         check)),
        (["derive", "incl(A ; C)", "-p", "incl(A ; B)", "-p", "incl(B ; C)"],
         None),
    ]
    times = []
    for argv, oracle_query in commands:
        want = 0 if oracle_query is None or \
            workloads.known_answer(oracle_query) == "sat" else 1
        for _ in range(CLI_RUNS):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "teamlogic.cli"] + argv,
                                  cwd=ROOT, env=env, capture_output=True,
                                  timeout=60)
            times.append(time.perf_counter() - start)
            if proc.returncode != want:
                raise RuntimeError("cli %s exited %d, want %d"
                                   % (argv[0], proc.returncode, want))
    return 1000 * statistics.median(times)


def traced(args):
    import tracing
    import workloads
    stream = workloads.Stream(args.workload, args.seed, FIXTURES)
    rounds = max(2, round(args.seconds / 3 / ROUND_COST_S[args.workload]))
    queries = []
    for index in range(1, rounds + 1):
        queries.extend(prepare(workloads, stream, index))
    props = Properties()
    props.add(queries)
    run_queries(workloads, prepare(workloads, stream, 0), None)  # warm-up

    plain_s = run_queries(workloads, queries, None)
    tracer = tracing.Tracer()
    tally = Tally()
    tracer.install()
    try:
        traced_s = run_queries(workloads, queries, tally, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["semantics.nodes"] = metric(tally.nodes, "count")
    metrics["trace.overhead_s"] = metric(traced_s - plain_s, "s")
    metrics["cli.process_ms"] = metric(measure_cli(workloads), "ms")

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "trace-%s-%d.json" % (args.workload, args.seed))
    with open(path, "w") as handle:
        json.dump({"calls": tracer.calls, "self_s": tracer.self_s,
                   "result_sums": tracer.result_sum,
                   "missing": tracer.missing, "spans": tracer.spans},
                  handle, indent=1, sort_keys=True)
    info = describe(args, tally, {"rounds": rounds, "plain_s": plain_s,
                                  "traced_s": traced_s,
                                  "missing_layers": tracer.missing,
                                  "properties": props.summary()})
    finish(tally, metrics, info)


def main():
    args = parse_args()
    # The seed also fixes the interpreter's hash seed: set iteration order
    # decides how soon some all()/any() loops over a team stop, so without
    # it call counts differ slightly between processes.
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.environ["PYTHONHASHSEED"] = hash_seed
        os.execv(sys.executable, [sys.executable] + sys.argv)
    if not (os.path.isfile(os.path.join(SRC, "teamlogic", "__init__.py"))
            and os.path.isfile(os.path.join(TESTS, "oracles.py"))
            and os.path.isdir(FIXTURES)):
        print("error: run from the root of a teamlogic checkout "
              "(src/teamlogic, tests/oracles.py and fixtures/ not found)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC, TESTS]
    if args.setup_probe:
        setup_probe(args)
    elif args.trace:
        traced(args)
    else:
        end_to_end(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
