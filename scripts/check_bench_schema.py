#!/usr/bin/env python3
"""Validates a bench --json report against its expected schema.

Usage: check_bench_schema.py REPORT.json

Understands every schema the bench suite and the CLI emit — the report's
"schema" field selects the rule set:

  * faultroute.bench.snapshot.v1  (bench_snapshot: mmap warm start vs cold build)
  * faultroute.metrics.v1         (any subcommand's --metrics report)
  * faultroute.analyze.v1         (faultroute_analyze --json contract report)

Run by CI after `bench_snapshot --quick --json` so the committed record
(BENCH_snapshot.json) and the per-PR CI artifact stay parseable and
complete, after `faultroute ... --metrics` in the observability job, and
on the analyzer's --json report.
Exits non-zero with a message on the first violation.
"""

import json
import sys

SNAPSHOT_SCHEMA = "faultroute.bench.snapshot.v1"
METRICS_SCHEMA = "faultroute.metrics.v1"
ANALYZE_SCHEMA = "faultroute.analyze.v1"
SCHEMA_VERSION = 1

# Build provenance (git hash / compiler / build type). Mandatory in
# faultroute.metrics.v1; optional-if-present in the bench schema.
PROVENANCE_FIELDS = {
    "git_hash": str,
    "compiler": str,
    "build_type": str,
    "generated_by": str,
}

SNAPSHOT_TOP_LEVEL = {
    "schema": str,
    "schema_version": int,
    "quick": bool,
    "benchmarks": list,
}

SNAPSHOT_BENCHMARK_FIELDS = {
    "name": str,
    "vertices": int,
    "channels": int,
    "payload_bytes": int,
    "build_ms": (int, float),
    "write_ms": (int, float),
    "open_ms": (int, float),
    "speedup": (int, float),
    "identical": bool,
}

METRICS_TOP_LEVEL = {
    "schema": str,
    "schema_version": int,
    "command": str,
    "provenance": dict,
    "counters": dict,
    "phases": list,
    "tracks": list,
}

METRICS_PHASE_FIELDS = {
    "path": str,
    "count": int,
    "total_ms": (int, float),
}

METRICS_TRACK_FIELDS = {
    "id": int,
    "name": str,
}

ANALYZE_TOP_LEVEL = {
    "schema": str,
    "schema_version": int,
    "frontend": str,
    "tus": int,
    "files": int,
    "functions": int,
    "rule_counts": dict,
    "findings": list,
    "suppressed": list,
}

ANALYZE_FINDING_FIELDS = {
    "rule": str,
    "file": str,
    "line": int,
    "function": str,
    "message": str,
}

ANALYZE_SUPPRESSED_FIELDS = {
    "rule": str,
    "file": str,
    "line": int,
    "function": str,
    "reason": str,
}

# The analyzer's four contract families plus its meta rule; rule_counts must
# cover exactly this set so a renamed rule cannot slip past report consumers.
ANALYZE_RULES = {
    "hot-alloc", "determinism", "lock-discipline", "throw-safety", "annotation",
}


def fail(message: str) -> None:
    print(f"check_bench_schema: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_fields(obj: dict, fields: dict, where: str) -> None:
    for key, expected in fields.items():
        if key not in obj:
            fail(f"{where}: missing field '{key}'")
        value = obj[key]
        # bool is an int subclass in Python; don't let booleans pass as ints.
        if isinstance(value, bool) and expected is not bool:
            fail(f"{where}: field '{key}' is a bool, expected {expected}")
        if not isinstance(value, expected):
            fail(f"{where}: field '{key}' has type {type(value).__name__}")


def check_provenance(report: dict, required: bool) -> None:
    if "provenance" not in report:
        if required:
            fail("top level: missing field 'provenance'")
        return
    prov = report["provenance"]
    if not isinstance(prov, dict):
        fail("provenance: not an object")
    check_fields(prov, PROVENANCE_FIELDS, "provenance")
    for key in PROVENANCE_FIELDS:
        if not prov[key]:
            fail(f"provenance: field '{key}' is empty")


def check_common_top_level(report: dict, top_level: dict) -> None:
    check_fields(report, top_level, "top level")
    if report["schema_version"] != SCHEMA_VERSION:
        fail(f"schema_version is {report['schema_version']}, expected {SCHEMA_VERSION}")
    check_provenance(report, required=False)
    if not report["benchmarks"]:
        fail("benchmarks list is empty")
    for i, bench in enumerate(report["benchmarks"]):
        if not isinstance(bench, dict):
            fail(f"benchmarks[{i}]: not an object")


def check_snapshot(report: dict) -> None:
    check_common_top_level(report, SNAPSHOT_TOP_LEVEL)
    for i, bench in enumerate(report["benchmarks"]):
        where = f"benchmarks[{i}]"
        check_fields(bench, SNAPSHOT_BENCHMARK_FIELDS, where)
        if not bench["identical"]:
            fail(f"{where} ('{bench['name']}'): mapped view disagrees with the "
                 "owning build (identical=false)")
        if bench["vertices"] <= 0 or bench["channels"] <= 0:
            fail(f"{where}: empty topology (vertices/channels must be positive)")
        if bench["payload_bytes"] <= 0:
            fail(f"{where}: payload_bytes must be positive")
        if bench["build_ms"] < 0 or bench["write_ms"] < 0 or bench["open_ms"] < 0:
            fail(f"{where}: negative time")


def check_metrics(report: dict) -> None:
    check_fields(report, METRICS_TOP_LEVEL, "top level")
    if report["schema_version"] != SCHEMA_VERSION:
        fail(f"schema_version is {report['schema_version']}, expected {SCHEMA_VERSION}")
    if not report["command"]:
        fail("command is empty")
    check_provenance(report, required=True)

    for name, value in report["counters"].items():
        if not name:
            fail("counters: empty counter name")
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            fail(f"counters['{name}']: expected a non-negative integer, got {value!r}")

    for i, phase in enumerate(report["phases"]):
        where = f"phases[{i}]"
        if not isinstance(phase, dict):
            fail(f"{where}: not an object")
        check_fields(phase, METRICS_PHASE_FIELDS, where)
        if phase["count"] <= 0:
            fail(f"{where} ('{phase['path']}'): count must be positive")
        if phase["total_ms"] < 0:
            fail(f"{where} ('{phase['path']}'): negative duration")

    track_ids = set()
    for i, track in enumerate(report["tracks"]):
        where = f"tracks[{i}]"
        if not isinstance(track, dict):
            fail(f"{where}: not an object")
        check_fields(track, METRICS_TRACK_FIELDS, where)
        if track["id"] < 0:
            fail(f"{where}: negative track id")
        if track["id"] in track_ids:
            fail(f"{where}: duplicate track id {track['id']}")
        track_ids.add(track["id"])


def check_analyze(report: dict) -> None:
    check_fields(report, ANALYZE_TOP_LEVEL, "top level")
    if report["schema_version"] != SCHEMA_VERSION:
        fail(f"schema_version is {report['schema_version']}, expected {SCHEMA_VERSION}")
    if report["frontend"] not in ("libclang", "internal"):
        fail(f"frontend is '{report['frontend']}', expected 'libclang' or 'internal'")
    for key in ("tus", "files", "functions"):
        if isinstance(report[key], bool) or report[key] < 0:
            fail(f"{key}: expected a non-negative integer, got {report[key]!r}")

    counts = report["rule_counts"]
    if set(counts) != ANALYZE_RULES:
        fail(f"rule_counts keys {sorted(counts)} != expected {sorted(ANALYZE_RULES)}")
    for rule, count in counts.items():
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            fail(f"rule_counts['{rule}']: expected a non-negative integer, got {count!r}")
    if sum(counts.values()) != len(report["findings"]):
        fail(f"rule_counts sum to {sum(counts.values())} but there are "
             f"{len(report['findings'])} findings")

    for label, fields in (("findings", ANALYZE_FINDING_FIELDS),
                          ("suppressed", ANALYZE_SUPPRESSED_FIELDS)):
        for i, entry in enumerate(report[label]):
            where = f"{label}[{i}]"
            if not isinstance(entry, dict):
                fail(f"{where}: not an object")
            check_fields(entry, fields, where)
            if entry["rule"] not in ANALYZE_RULES:
                fail(f"{where}: unknown rule '{entry['rule']}'")
            if isinstance(entry["line"], bool) or entry["line"] < 0:
                fail(f"{where}: negative line {entry['line']!r}")
            text_field = "message" if label == "findings" else "reason"
            if not entry["file"]:
                fail(f"{where}: empty file")
            if not entry[text_field]:
                fail(f"{where}: empty {text_field}")


def summarize_bench(report: dict) -> str:
    names = [bench["name"] for bench in report["benchmarks"]]
    return f"{len(names)} benchmarks ({', '.join(names)}), quick={report['quick']}"


def summarize_analyze(report: dict) -> str:
    return (
        f"frontend={report['frontend']}, {report['tus']} TUs, "
        f"{len(report['findings'])} findings, "
        f"{len(report['suppressed'])} suppressed"
    )


def summarize_metrics(report: dict) -> str:
    return (
        f"command={report['command']}, {len(report['counters'])} counters, "
        f"{len(report['phases'])} phases, {len(report['tracks'])} tracks"
    )


CHECKERS = {
    SNAPSHOT_SCHEMA: (check_snapshot, summarize_bench),
    METRICS_SCHEMA: (check_metrics, summarize_metrics),
    ANALYZE_SCHEMA: (check_analyze, summarize_analyze),
}


def main() -> None:
    if len(sys.argv) != 2:
        fail("usage: check_bench_schema.py REPORT.json")
    try:
        with open(sys.argv[1], encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"cannot parse {sys.argv[1]}: {error}")

    if not isinstance(report, dict) or "schema" not in report:
        fail("report is not an object with a 'schema' field")
    entry = CHECKERS.get(report["schema"])
    if entry is None:
        fail(f"schema is '{report['schema']}', expected one of {sorted(CHECKERS)}")
    checker, summarize = entry
    checker(report)
    print(f"check_bench_schema: OK [{report['schema']}]: {summarize(report)}")


if __name__ == "__main__":
    main()
