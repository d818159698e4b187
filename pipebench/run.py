#!/usr/bin/env python3
"""Pipeline benchmark of faultroute: the real scenario pipeline, timed.

Each workload is one scenario spec, run whole through
scenario::run_scenario by the pipebench harness (pipebench.cpp, built here
from ../src on first use). See README.md for the workloads, the metrics and
the layer each metric belongs to.

  python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 pipebench/run.py --self-test
  python3 pipebench/run.py --record        # re-pin expected.json

--trace 0 prints the end-to-end metrics of BENCHMARK.json, from untraced
runs; --trace 1 prints the per-layer metrics, from traced runs alternated
with untraced ones. The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics. Every run checks every cell; a
failed check makes the exit code 1.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
BENCHMARK = ROOT / "BENCHMARK.json"

# Scenario specs in the grammar of docs/SCENARIOS.md. Only default backends:
# no adjacency, frontier or engine keys. The seed is appended per run.
WORKLOADS = {
    "gnp-probe": {
        "topology": "complete:1024", "p": "0.01,0.02,0.04",
        "router": "gnp-local,gnp-oracle", "workload": "random-pairs",
        "messages": 256, "trials": 2, "threads": 1,
    },
    "search-sweep": {
        "topology": "hypercube:13,de_bruijn:13", "p": "0.2,0.28,0.4",
        "router": "landmark,bidirectional,greedy", "workload": "random-pairs",
        "messages": 512, "trials": 2, "budget": 100000, "threads": 4,
    },
    "bulk-traffic": {
        "topology": "hypercube:16", "p": "0.95", "router": "greedy",
        "workload": "permutation,poisson:256",
        "messages": 65536, "trials": 1, "threads": 1,
    },
    "implicit-torus": {
        "topology": "torus:3:102", "p": "0.8", "router": "landmark",
        "workload": "random-pairs", "messages": 2048, "trials": 1,
        "budget": 5000, "threads": 1,
    },
}

MIN_REPS = 3            # untraced run_scenario calls per --trace 0 run, at least
MIN_TRACED_PAIRS = 2    # untraced + traced pairs per --trace 1 run, at least
SETUP_SECONDS = 0.1     # set-up sampling after each untraced call of --trace 0
JOB_TIMEOUT_S = 60      # one call takes seconds; a hung call must not outlast the run
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]+$")
MASK64 = (1 << 64) - 1


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def spec_text(name, settings, seed):
    parts = [f"name={name}"] + [f"{k}={v}" for k, v in settings.items()]
    return "; ".join(parts + [f"seed={seed}"])


def splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def rep_seed(seed, rep):
    """Seed of the rep-th run_scenario call of a run: the run's own seed
    first, then independent seeds derived from it."""
    return seed if rep == 0 else splitmix64(seed ^ (rep * 0xD1B54A32D192ED03 & MASK64))


# ------------------------------------------------------------------ build

def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "pipebench"


def build():
    """Configures and builds the harness (incremental after the first run)."""
    if not (ROOT / "src" / "scenario" / "runner.hpp").is_file():
        raise BenchError(f"no faultroute sources under {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log, "w") as sink:
        for step in steps:
            if subprocess.run(step, stdout=sink, stderr=subprocess.STDOUT, timeout=840).returncode:
                tail = log.read_text().splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return out / "pipebench"


def job(binary, *args):
    proc = subprocess.run([str(binary), *map(str, args)], capture_output=True, text=True,
                          timeout=JOB_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"pipebench {args[0]} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------- checking

def load_expected():
    return json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {"seed": None,
                                                                       "workloads": {}}


PINNED_TOTALS = ("distinct_probes", "transmissions", "sim_steps", "messages", "delivered")
PINNED_COUNTERS = ("traffic.routing.probe_calls", "traffic.routing.bfs_expansions",
                   "traffic.routing.distinct_probes", "traffic.delivery.transmissions",
                   "traffic.delivery.sim_steps")


def check_rep(rep, pins, problems):
    """Returns the set of failed cell indices of one run_scenario call.

    Cells fail on the harness's per-cell identity checks at any seed, and,
    when `pins` is given (the recorded seed), on a report line or a work
    counter that differs from the pinned value."""
    failed = set(rep["failed_cells"])
    problems.extend(rep["failures"])
    if pins is None:
        return failed
    expected_hashes = pins["cell_hashes"]
    if len(expected_hashes) != len(rep["cell_hashes"]):
        problems.append("cell count differs from the pinned report")
        return set(range(rep["cells"]))
    for cell, (got, want) in enumerate(zip(rep["cell_hashes"], expected_hashes)):
        if got != want:
            problems.append(f"cell {cell}: report line differs from the pinned digest")
            failed.add(cell)
    drift = [k for k in PINNED_TOTALS if rep["report_totals"].get(k) != pins["totals"][k]]
    if "counters" in rep:
        drift += [k for k in PINNED_COUNTERS if rep["counters"].get(k, 0) != pins["counters"][k]]
    if rep["frame_hash"] != pins["frame_hash"]:
        drift.append("report header/footer")
    if drift:
        problems.append("pinned values differ: " + ", ".join(drift))
        failed.update(range(rep["cells"]))
    return failed


def check_pair(untraced, traced, problems):
    """A traced run must reproduce its untraced twin bit for bit."""
    failed = set()
    for cell, (a, b) in enumerate(zip(untraced["cell_hashes"], traced["cell_hashes"])):
        if a != b:
            problems.append(f"cell {cell}: traced report differs from the untraced one")
            failed.add(cell)
    if untraced["frame_hash"] != traced["frame_hash"]:
        problems.append("traced report frame differs from the untraced one")
        failed.update(range(untraced["cells"]))
    return failed


# ---------------------------------------------------------------- metrics

def end_to_end(reps):
    return {
        "messages_per_s": statistics.median([r["messages"] / r["wall_s"] for r in reps]),
        "setup_s": statistics.median([s for r in reps for s in r["setup_s"]]),
        "cpu_s": statistics.median([r["cpu_s"] for r in reps]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in reps]),
    }


def ratio(num, den):
    return num / den if den else 0.0


def per_layer_of(traced, untraced_wall_s, threads):
    """Per-layer metrics of one traced run_scenario call."""
    c = traced["counters"]
    total = traced["rollup"]["total_s"]
    self_s = traced["rollup"]["self_s"]
    setup = traced["setup"]
    span = lambda name: total.get(name, 0.0)
    route_s = span("route")
    probe_calls = c.get("traffic.routing.probe_calls", 0)
    distinct = c.get("traffic.routing.distinct_probes", 0)
    expansions = c.get("traffic.routing.bfs_expansions", 0)
    messages = c.get("traffic.routing.messages", 0)
    transmissions = c.get("traffic.delivery.transmissions", 0)
    cells_ms = traced["rollup"]["cell_ms"]
    wall = traced["wall_s"]
    workers = max(1, min(threads or os.cpu_count() or 1, traced["cells"]))
    return {
        "graph.build_s": setup["build_s"],
        "graph.channel_index_s": setup["channel_index_s"],
        "graph.csr_s": setup["csr_s"],
        "graph.csr_mb": setup["csr_bytes"] / (1 << 20),
        "graph.oracle_columns_built": c.get("graph.distance_oracle.columns_built", 0),
        "workload.generate_s": traced["generate_s"],
        "routing.prepare_s": self_s.get("routing", 0.0) + span("oracle-prewarm"),
        "routing.route_s": route_s,
        "routing.validate_s": span("validate"),
        "routing.messages": messages,
        "routing.probe_calls": probe_calls,
        "routing.distinct_probes": distinct,
        "routing.bfs_expansions": expansions,
        "routing.ns_per_probe": ratio(route_s * 1e9, probe_calls),
        "routing.ns_per_expansion": ratio(route_s * 1e9, expansions),
        "routing.us_per_message": ratio(route_s * 1e6, messages),
        "routing.memo_hit_ratio": 1.0 - ratio(distinct, probe_calls),
        "routing.cache_hit_ratio": ratio(c.get("traffic.cache.hits", 0), distinct),
        "routing.batched_share": ratio(c.get("traffic.routing.frontier.batched_messages", 0),
                                       messages),
        "delivery.compile_s": span("compile"),
        "delivery.deliver_s": span("delivery"),
        "delivery.aggregate_s": span("aggregate"),
        "delivery.transmissions": transmissions,
        "delivery.sim_steps": c.get("traffic.delivery.sim_steps", 0),
        "delivery.ns_per_transmission": ratio(span("delivery") * 1e9, transmissions),
        "scenario.cells": traced["cells"],
        "scenario.cell_p50_ms": statistics.median(cells_ms),
        "scenario.cell_max_ms": max(cells_ms),
        "scenario.worker_busy_share": ratio(span("cell"), workers * wall),
        "scenario.report_s": span("report"),
        "obs.traced_wall_s": wall,
        "obs.untraced_wall_s": untraced_wall_s,
    }


def accounting_lines(traced):
    """The traced call's self time per layer, plus `other`, against the
    window × tracks it must add up to."""
    rollup = traced["rollup"]
    budget = rollup["window_s"] * rollup["tracks"]
    lines = [f"# self time per layer over {rollup['tracks']} track(s) x "
             f"{rollup['window_s']:.6f} s = {budget:.6f} s"]
    for layer, seconds in sorted(rollup["self_s"].items(), key=lambda kv: -kv[1]):
        lines.append(f"#   {layer:<16} {seconds:12.6f} s  {ratio(seconds, budget):7.2%}")
    lines.append(f"#   {'other':<16} {rollup['other_s']:12.6f} s  "
                 f"{ratio(rollup['other_s'], budget):7.2%}")
    accounted = sum(rollup["self_s"].values()) + rollup["other_s"]
    return lines, abs(accounted - budget) <= 1e-6 * max(1.0, budget) + 1e-6


# -------------------------------------------------------------------- run

def declared_metrics():
    bench = json.loads(BENCHMARK.read_text())
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def run_workload(binary, name, settings, seed, seconds, trace, pins=None, corrupt=None,
                 artifacts=None):
    """One benchmark run. Returns (record, metrics, problems)."""
    problems = []
    attempted = 0
    failed = 0
    threads = int(settings.get("threads", 0))
    extra = ["--corrupt-cell", corrupt] if corrupt is not None else []

    def run_rep(rep, trace_path=None, twin=None):
        nonlocal attempted, failed
        args = ["run", "--spec", spec_text(name, settings, rep_seed(seed, rep)), *extra]
        if trace_path is not None:
            args += ["--trace", trace_path]
        elif not trace:
            args += ["--setup-seconds", SETUP_SECONDS]
        result = job(binary, *args)
        attempted += result["cells"]
        failed_cells = check_rep(result, pins if rep == 0 else None, problems)
        if twin is not None:
            failed_cells |= check_pair(twin, result, problems)
        failed += len(failed_cells)
        return result

    start = time.monotonic()
    if not trace:
        reps = []
        while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
            reps.append(run_rep(len(reps)))
        metrics = end_to_end(reps)
        record = {"reps": reps}
    else:
        pairs = []
        scratch = build_dir() / "traces" / f".{name}.scratch.trace.json"
        scratch.parent.mkdir(parents=True, exist_ok=True)
        while len(pairs) < MIN_TRACED_PAIRS or time.monotonic() - start < seconds:
            rep = len(pairs)
            path = (artifacts / f"{name}.trace.json") if (rep == 0 and artifacts) else scratch
            # Alternate which twin runs first, so neither gains from going second.
            order = (None, path) if rep % 2 == 0 else (path, None)
            first = run_rep(rep, order[0])
            second = run_rep(rep, order[1], twin=first)
            pairs.append((first, second) if rep % 2 == 0 else (second, first))
        scratch.unlink(missing_ok=True)
        untraced_wall = statistics.median([u["wall_s"] for u, _ in pairs])
        layers = [per_layer_of(t, untraced_wall, threads) for _, t in pairs]
        # median_low keeps counts whole when the number of traced calls is even
        metrics = {key: statistics.median_low([m[key] for m in layers]) for key in layers[0]}
        metrics["obs.trace_overhead"] = ratio(metrics["obs.traced_wall_s"], untraced_wall) - 1.0
        lines, balanced = accounting_lines(pairs[0][1])
        if not balanced:
            problems.append("self times plus other do not add up to the traced wall")
            failed += 1
        record = {"pairs": [{"untraced": u, "traced": t} for u, t in pairs],
                  "accounting": lines}
    record.update(attempted=attempted, failed=failed, problems=problems)
    return record, metrics, problems


def emit(name, seed, trace, record, metrics, declared, provenance, threads):
    units = declared[1] if trace else declared[0]
    missing = [m for m in units if m not in metrics]
    if missing:
        raise BenchError("metrics not computed: " + ", ".join(missing))
    out = {m: {"value": metrics[m], "unit": units[m]} for m in units}
    attempted, failed = record["attempted"], record["failed"]
    print(f"# pipebench workload={name} seed={seed} trace={trace} threads={threads} "
          f"nproc={provenance['nproc']} provenance={json.dumps(provenance['provenance'])}")
    for line in record.get("accounting", []):
        print(line)
    for problem in record["problems"][:20]:
        print(f"# FAILED CHECK: {problem}")
    for metric, entry in out.items():
        print(f"{metric} {entry['value']:.9g} {entry['unit']}")
    print(f"error_rate {ratio(failed, attempted):.9g} ratio ({failed} of {attempted} cells)")
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps({
        "workload": name, "seed": seed, "trace": trace, "threads": threads,
        "nproc": provenance["nproc"], "provenance": provenance["provenance"],
        "spec": spec_text(name, WORKLOADS[name], seed), "metrics": out,
        "error_rate": ratio(failed, attempted), "record": record}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return failed == 0


def checked_provenance(binary):
    info = job(binary, "info")
    build_type = info["provenance"]["build_type"]
    if build_type != "Release":
        raise BenchError(f"refusing to time a {build_type or 'unspecified'} build; "
                         "pipebench measures Release builds only")
    return info


# ------------------------------------------------------ self-test, record

def shrunk(settings):
    small = dict(settings)
    small["messages"] = max(16, int(settings["messages"]) // 32)
    small["trials"] = 1
    return small


def require(condition, message):
    if not condition:
        raise BenchError("self-test: " + message)


def self_test(binary):
    declared = declared_metrics()
    for metric, unit in {**declared[0], **declared[1]}.items():
        require(NAME_RE.match(metric), f"bad metric name {metric!r}")
        require(unit and UNIT_RE.match(unit), f"bad unit on {metric}")
    for name, settings in WORKLOADS.items():
        small = shrunk(settings)
        for trace in (0, 1):
            record, metrics, problems = run_workload(binary, name, small, 7, 0, trace)
            require(record["failed"] == 0, f"{name}: clean run failed: {problems}")
            absent = [m for m in declared[trace]
                      if not isinstance(metrics.get(m), (int, float))]
            require(not absent, f"{name}: metrics not emitted: {absent}")
        record, _, _ = run_workload(binary, name, small, 7, 0, 0, corrupt=0)
        require(record["failed"] > 0, f"{name}: a corrupted report line went unnoticed")
        rate = record["failed"] / record["attempted"]
        print(f"self-test {name}: clean runs pass; corrupted line -> error_rate {rate:.3f}")
    print("self-test passed")


def record_pins(binary, seed):
    """Pins the report digests and work counters of every workload at `seed`,
    after checking that two runs reproduce them exactly."""
    pins = {"seed": seed, "workloads": {}}
    trace_dir = build_dir() / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    for name, settings in WORKLOADS.items():
        spec = spec_text(name, settings, seed)
        runs = [job(binary, "run", "--spec", spec, "--trace", trace_dir / f".{name}.pin.json")
                for _ in range(2)]
        (trace_dir / f".{name}.pin.json").unlink(missing_ok=True)
        a, b = runs
        for key in ("cell_hashes", "frame_hash", "report_totals", "failed_cells"):
            if a[key] != b[key]:
                raise BenchError(f"{name}: {key} not reproducible")
        if a["failed_cells"]:
            raise BenchError(f"{name}: cells fail their checks: {a['failures']}")
        unstable = [k for k in PINNED_COUNTERS if a["counters"].get(k) != b["counters"].get(k)]
        if unstable:
            raise BenchError(f"{name}: counters not reproducible: {unstable}")
        pins["workloads"][name] = {
            "frame_hash": a["frame_hash"], "cell_hashes": a["cell_hashes"],
            "totals": {k: a["report_totals"][k] for k in PINNED_TOTALS},
            "counters": {k: a["counters"].get(k, 0) for k in PINNED_COUNTERS}}
        print(f"pinned {name}: {len(a['cell_hashes'])} cells")
    EXPECTED.write_text(json.dumps(pins, indent=1) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    try:
        binary = build()
        provenance = checked_provenance(binary)
        if args.self_test:
            self_test(binary)
            return 0
        expected = load_expected()
        if args.record:
            record_pins(binary, expected["seed"] if expected["seed"] is not None else 2005)
            return 0
        if args.workload is None or args.seed is None or args.seconds is None:
            parser.error("--workload, --seed and --seconds are required")
        if not 0 <= args.seed <= MASK64:
            parser.error("--seed must be in [0, 2^64)")
        settings = WORKLOADS[args.workload]
        pins = expected["workloads"].get(args.workload) if args.seed == expected["seed"] else None
        artifacts = build_dir() / "traces"
        artifacts.mkdir(parents=True, exist_ok=True)
        record, metrics, _ = run_workload(binary, args.workload, settings, args.seed,
                                          args.seconds, args.trace, pins=pins,
                                          artifacts=artifacts)
        if args.trace:
            (artifacts / f"{args.workload}.rollup.json").write_text(json.dumps(
                {"seed": args.seed, "metrics": metrics,
                 "accounting": record["accounting"]}, indent=1))
        ok = emit(args.workload, args.seed, args.trace, record, metrics, declared_metrics(),
                  provenance, settings.get("threads", 0))
        return 0 if ok else 1
    except (BenchError, subprocess.TimeoutExpired) as error:
        print(f"pipebench: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
