#!/usr/bin/env python3
"""PowerLog repository benchmark.

    python3 perfbench/run.py --workload rank|serve|reach --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (which compiles the
library from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, runs one workload and prints a metric table
followed, on the last line, by one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones; the traced run also
writes its spans as Chrome trace JSON next to the build.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

SRC = os.path.join(os.path.dirname(HERE), "src")
RUN_TIMEOUT_S = 170
# A percentile that lands on a failed operation prints as this many ms:
# the operation missed every latency limit.
MISSED_MS = 1e9

# End-to-end metrics: (name, unit). On `rank` both are percentiles of the
# job time: p50 and p90 of >= 100 jobs. On `serve` the median is that of
# /lookup, three quarters of all requests, and the tail is p99 of every
# request, which falls among the pagerank /mutates. A pooled median would
# sit on the knee between reads and writes and move with every run.
END_TO_END = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
]

# Per-layer metrics: (name, unit). A name ending in _pNN is that percentile
# of the series named by the rest; other names are scalars from the run or
# derived below. Layers a workload does not exercise read 0.
PER_LAYER = [
    ("failed_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("job_s_p50", "s"),
    ("graph.build_s", "s"),
    ("graph.csr_mb", "MB"),
    ("graph.patch_ms_p50", "ms"),
    ("datalog.compile_ms", "ms"),
    ("checker.check_ms", "ms"),
    ("runtime.engine_s_p50", "s"),
    ("runtime.outside_engine_ms_p50", "ms"),
    ("runtime.supersteps_p50", "count"),
    ("runtime.work_ratio", "ratio"),
    ("runtime.updates_per_edge", "ratio"),
    ("runtime.updates_per_message", "ratio"),
    ("runtime.frontier_skip_ratio", "ratio"),
    ("runtime.steal_attempts", "count"),
    ("runtime.barrier_wait_share", "ratio"),
    ("runtime.inbox_drain_share", "ratio"),
    ("runtime.stall_share", "ratio"),
    ("runtime.job_1w_s_p50", "s"),
    ("runtime.scaling_4w", "ratio"),
    ("core.edges_per_s", "1/s"),
    ("core.vector_share", "ratio"),
    ("core.vm_share", "ratio"),
    ("eval.mra_s", "s"),
    ("serving.lookup_us_p50", "us"),
    ("serving.topk_us_p50", "us"),
    ("serving.run_ms_p50", "ms"),
    ("serving.apply_min_ms_p50", "ms"),
    ("serving.apply_sum_ms_p50", "ms"),
    ("serving.apply_engine_share", "ratio"),
    ("serving.mutate_vs_cold_sum", "ratio"),
    ("serving.path_delta", "count"),
    ("serving.path_rederive", "count"),
    ("serving.path_recompute", "count"),
    ("serving.admission_rejects", "count"),
    ("serving.timeouts", "count"),
    ("reconverge.plan_ms_p50", "ms"),
    ("lookup_ms_p50", "ms"),
    ("lookup_ms_p99", "ms"),
    ("topk_ms_p50", "ms"),
    ("topk_ms_p90", "ms"),
    ("run_ms_p50", "ms"),
    ("run_ms_p90", "ms"),
    ("mutate_min_ms_p50", "ms"),
    ("mutate_min_ms_p90", "ms"),
    ("mutate_sum_ms_p50", "ms"),
    ("http.overhead_ms_p50", "ms"),
    ("http.connect_ms_p99", "ms"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.offered_rps", "1/s"),
    ("loadgen.completed_rps", "1/s"),
    ("trace.overhead_ratio", "ratio"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build(out_dir):
    """Configures once, then builds incrementally; output goes to stderr."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out_dir, "powerlog_perfbench")


class Metrics:
    """Collects printed metrics and the notes on how each was measured."""

    def __init__(self):
        self.values = {}
        self.notes = {}

    def set(self, name, value, note=""):
        self.values[name] = float(value)
        self.notes[name] = note

    def percentile(self, name, samples, q):
        value, n, beyond = stats.percentile(samples, q)
        value = MISSED_MS if math.isinf(value) else value
        self.set(name, value, "n=%d, %d beyond" % (n, beyond))


def request_rows(raw):
    """Open-loop rows (due, sent, connected, done, ok) keyed by route."""
    routes = raw["routes"]
    rows = {r: [] for r in routes}
    for route, due, sent, connected, done, ok in raw["requests"]:
        rows[routes[route]].append((due, sent, connected, done, ok))
    return rows


def latencies(rows):
    latency, _ = stats.open_loop(
        (due, sent, done, ok) for due, sent, _, done, ok in rows)
    return latency


def end_to_end(workload, raw):
    m = Metrics()
    series = raw["series"]
    m.set("setup_s", statistics.median(series["setup_s"]),
          "median of %d set-ups" % len(series["setup_s"]))
    if workload == "serve":
        rows = request_rows(raw)
        m.percentile("op_ms_p50", latencies(rows["lookup"]), 0.5)
        m.percentile("op_ms_tail",
                     latencies(r for rs in rows.values() for r in rs), 0.99)
    else:
        jobs = [math.inf if v is None else v for v in series["op_ms"]]
        m.percentile("op_ms_p50", jobs, 0.5)
        m.percentile("op_ms_tail", jobs, 0.9)
    return m


def per_layer(workload, raw):
    m = Metrics()
    series = raw["series"]
    scalars = raw["scalars"]
    m.set("failed_ratio", stats.failed_ratio(raw["attempted"], raw["failed"]))
    for name, _ in PER_LAYER:
        if name in scalars:
            m.set(name, scalars[name])
            continue
        base, _, q = name.rpartition("_p")
        if q.isdigit() and base in series:
            m.percentile(name, series[base], int(q) / 100.0)
        elif name in series:
            m.set(name, statistics.median(series[name]),
                  "median of %d" % len(series[name]))
    if "serving.mutate_vs_cold_sum_x" in series:
        ratios = series["serving.mutate_vs_cold_sum_x"]
        m.set("serving.mutate_vs_cold_sum", statistics.median(ratios),
              "median of %d" % len(ratios))
    if workload == "serve":
        rows = request_rows(raw)
        for route, qs in (("lookup", (50, 99)), ("topk", (50, 90)),
                          ("run", (50, 90)), ("mutate_min", (50, 90)),
                          ("mutate_sum", (50,))):
            latency = latencies(rows[route])
            for q in qs:
                m.percentile("%s_ms_p%d" % (route, q), latency, q / 100.0)
        m.set("http.overhead_ms_p50",
              m.values["lookup_ms_p50"]
              - m.values.get("serving.lookup_us_p50", 0.0) / 1e3,
              "/lookup p50 minus the direct Lookup p50")
        every = [r for rs in rows.values() for r in rs]
        connect = [c - s for _, s, c, _, ok in every if c >= 0]
        m.percentile("http.connect_ms_p99", connect, 0.99)
        _, lateness = stats.open_loop(
            (due, sent, done, ok) for due, sent, _, done, ok in every)
        m.percentile("loadgen.late_ms_p99", lateness, 0.99)
        m.set("loadgen.offered_rps",
              len(every) / scalars["loadgen.nominal_window_s"])
        m.set("loadgen.completed_rps",
              sum(1 for r in every if r[4]) / scalars["loadgen.last_done_s"])
    for name, _ in PER_LAYER:
        if name not in m.values:
            m.set(name, 0.0, "not exercised by %s" % workload)
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["rank", "reach", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(SRC, "CMakeLists.txt")):
        log("run.py: PowerLog sources not found at %s" % SRC)
        return 2
    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        log("run.py: build failed: %s" % err)
        return 2

    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    raw_path = os.path.join(results, stem + ".json")
    trace_path = os.path.join(results, stem + ".trace.json")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", raw_path]
    if args.trace:
        command += ["--trace-out", trace_path]
    try:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: %s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
        return 1
    if done.returncode != 0:
        log("run.py: %s exited with %d" % (args.workload, done.returncode))
        return 1
    with open(raw_path) as f:
        raw = json.load(f)

    try:
        m = (per_layer if args.trace else end_to_end)(args.workload, raw)
    except stats.InsufficientSamples as err:
        log("run.py: %s" % err)
        return 1
    units = dict(PER_LAYER if args.trace else END_TO_END)

    for key, value in sorted(raw["facts"].items()):
        print("%-32s %s" % (key, value))
    for failure in raw["failures"]:
        print("FAILED: %s" % failure)
    for name, unit in (PER_LAYER if args.trace else END_TO_END):
        print("%-32s %14.6g %-6s %s" % (name, m.values[name], unit,
                                        m.notes[name]))
    if args.trace:
        print("%-32s %s" % ("trace.file", trace_path))
    result = {
        "correct": raw["failed"] == 0 and raw["attempted"] > 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": m.values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
