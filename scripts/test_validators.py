#!/usr/bin/env python3
"""Smoke tests for the CI validator scripts themselves.

Usage: python3 scripts/test_validators.py  (or via unittest discovery)

The validators (check_bench_schema.py, check_trace.py, check_docs_links.py,
check_golden_reports.py)
are the last line of defence for the machine-readable CI surfaces, so they
get the same treatment as the linter: every one is fed a known-good input
(must accept) and a set of seeded-invalid inputs (must reject with a
diagnostic). A validator that silently accepts garbage is worse than no
validator — CI runs this file before trusting any of them.

The semantic analyzer (tools/analyze/faultroute_analyze.py) gets the same
subprocess treatment: its --self-test must pass, a clean fixture tree must
exit 0, a seeded violation must be reported with exit 1, a reason-less
annotation must itself be rejected, and its --json report must satisfy the
faultroute.analyze.v1 checker in check_bench_schema.py.

No third-party dependencies; stdlib unittest + subprocess only.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import textwrap
import unittest

SCRIPTS = pathlib.Path(__file__).resolve().parent
ANALYZER = SCRIPTS.parent / "tools" / "analyze" / "faultroute_analyze.py"
PYTHON = sys.executable or "python3"


def run_script(script, *argv):
    """Runs scripts/<script> with argv; returns CompletedProcess."""
    return subprocess.run(
        [PYTHON, str(SCRIPTS / script), *[str(a) for a in argv]],
        capture_output=True, text=True, check=False)


def valid_snapshot_report():
    return {
        "schema": "faultroute.bench.snapshot.v1",
        "schema_version": 1,
        "quick": True,
        "benchmarks": [{
            "name": "hypercube:13",
            "vertices": 8192,
            "channels": 106496,
            "payload_bytes": 2195464,
            "build_ms": 7.1,
            "write_ms": 2.1,
            "open_ms": 0.6,
            "speedup": 11.8,
            "identical": True,
        }],
    }


def valid_metrics_report():
    return {
        "schema": "faultroute.metrics.v1",
        "schema_version": 1,
        "command": "route",
        "provenance": {
            "git_hash": "deadbeef",
            "compiler": "g++ 12",
            "build_type": "Release",
            "generated_by": "faultroute",
        },
        "counters": {"traffic.routing.messages": 64},
        "phases": [{"path": "route", "count": 1, "total_ms": 1.5}],
        "tracks": [{"id": 0, "name": "main"}],
    }


def valid_trace():
    return {
        "traceEvents": [
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": 0,
             "args": {"name": "main"}},
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1,
             "args": {"name": "worker-0"}},
            {"ph": "X", "name": "routing", "ts": 0, "dur": 120,
             "pid": 1, "tid": 1},
            {"ph": "X", "name": "delivery", "ts": 120, "dur": 80,
             "pid": 1, "tid": 0},
        ],
    }


def valid_analyze_report():
    return {
        "schema": "faultroute.analyze.v1",
        "schema_version": 1,
        "frontend": "internal",
        "tus": 3,
        "files": 5,
        "functions": 40,
        "rule_counts": {"hot-alloc": 1, "determinism": 0,
                        "lock-discipline": 0, "throw-safety": 0,
                        "annotation": 0},
        "findings": [{
            "rule": "hot-alloc",
            "file": "src/hot.cpp",
            "line": 12,
            "function": "helper",
            "message": "growing container call .push_back() on a hot path",
        }],
        "suppressed": [{
            "rule": "throw-safety",
            "file": "src/par.cpp",
            "line": 7,
            "function": "validate_cell",
            "reason": "argument validation, surfaced via first_error",
        }],
    }


class ValidatorCase(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="faultroute-validators-")
        self.tmp = pathlib.Path(self._tmp.name)
        self.addCleanup(self._tmp.cleanup)

    def write_json(self, name, payload):
        path = self.tmp / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def assert_accepts(self, script, path):
        proc = run_script(script, path)
        self.assertEqual(
            proc.returncode, 0,
            f"{script} rejected a valid input:\n{proc.stdout}{proc.stderr}")

    def assert_rejects(self, script, path, needle):
        proc = run_script(script, path)
        self.assertNotEqual(
            proc.returncode, 0,
            f"{script} accepted a seeded-invalid input ({needle})")
        self.assertIn(needle, proc.stdout + proc.stderr)


class BenchSchemaValidator(ValidatorCase):
    SCRIPT = "check_bench_schema.py"

    def test_accepts_valid_metrics_report(self):
        self.assert_accepts(self.SCRIPT, self.write_json("m.json", valid_metrics_report()))

    def test_accepts_valid_snapshot_report(self):
        self.assert_accepts(self.SCRIPT, self.write_json("s.json", valid_snapshot_report()))

    def test_rejects_snapshot_view_disagreement(self):
        report = valid_snapshot_report()
        report["benchmarks"][0]["identical"] = False
        self.assert_rejects(self.SCRIPT, self.write_json("s.json", report),
                            "identical")

    def test_rejects_snapshot_empty_payload(self):
        report = valid_snapshot_report()
        report["benchmarks"][0]["payload_bytes"] = 0
        self.assert_rejects(self.SCRIPT, self.write_json("s.json", report),
                            "payload_bytes")

    def test_rejects_snapshot_negative_open_time(self):
        report = valid_snapshot_report()
        report["benchmarks"][0]["open_ms"] = -0.5
        self.assert_rejects(self.SCRIPT, self.write_json("s.json", report),
                            "negative time")

    def test_rejects_missing_field(self):
        report = valid_snapshot_report()
        del report["benchmarks"][0]["build_ms"]
        self.assert_rejects(self.SCRIPT, self.write_json("s.json", report), "build_ms")

    def test_rejects_wrong_schema_version(self):
        report = valid_snapshot_report()
        report["schema_version"] = 2
        self.assert_rejects(self.SCRIPT, self.write_json("s.json", report),
                            "schema_version")

    def test_rejects_bool_masquerading_as_int(self):
        report = valid_snapshot_report()
        report["benchmarks"][0]["vertices"] = True
        self.assert_rejects(self.SCRIPT, self.write_json("s.json", report), "vertices")

    def test_rejects_retired_bench_schema(self):
        report = valid_snapshot_report()
        report["schema"] = "faultroute.bench.frontier.v1"
        self.assert_rejects(self.SCRIPT, self.write_json("s.json", report),
                            "expected one of")

    def test_rejects_metrics_without_provenance(self):
        report = valid_metrics_report()
        del report["provenance"]
        self.assert_rejects(self.SCRIPT, self.write_json("m.json", report), "provenance")

    def test_rejects_negative_counter(self):
        report = valid_metrics_report()
        report["counters"]["traffic.routing.messages"] = -1
        self.assert_rejects(self.SCRIPT, self.write_json("m.json", report),
                            "traffic.routing.messages")

    def test_rejects_unparseable_file(self):
        path = self.tmp / "garbage.json"
        path.write_text("{not json", encoding="utf-8")
        self.assert_rejects(self.SCRIPT, path, "cannot parse")

    def test_accepts_valid_analyze_report(self):
        self.assert_accepts(self.SCRIPT, self.write_json("a.json", valid_analyze_report()))

    def test_rejects_analyze_rule_count_mismatch(self):
        report = valid_analyze_report()
        report["rule_counts"]["hot-alloc"] = 2  # findings list still has 1
        self.assert_rejects(self.SCRIPT, self.write_json("a.json", report),
                            "rule_counts")

    def test_rejects_analyze_unknown_rule(self):
        report = valid_analyze_report()
        report["findings"][0]["rule"] = "vibes"
        self.assert_rejects(self.SCRIPT, self.write_json("a.json", report), "rule")

    def test_rejects_analyze_unknown_frontend(self):
        report = valid_analyze_report()
        report["frontend"] = "psychic"
        self.assert_rejects(self.SCRIPT, self.write_json("a.json", report),
                            "frontend")

    def test_rejects_analyze_suppression_without_reason(self):
        report = valid_analyze_report()
        report["suppressed"][0]["reason"] = ""
        self.assert_rejects(self.SCRIPT, self.write_json("a.json", report),
                            "reason")


class TraceValidator(ValidatorCase):
    SCRIPT = "check_trace.py"

    def test_accepts_valid_trace(self):
        self.assert_accepts(self.SCRIPT, self.write_json("t.json", valid_trace()))

    def test_rejects_trace_without_spans(self):
        trace = valid_trace()
        trace["traceEvents"] = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        self.assert_rejects(self.SCRIPT, self.write_json("t.json", trace),
                            "no complete ('X') events")

    def test_rejects_span_on_unlabelled_track(self):
        trace = valid_trace()
        trace["traceEvents"][2]["tid"] = 99
        self.assert_rejects(self.SCRIPT, self.write_json("t.json", trace),
                            "unlabelled")

    def test_rejects_negative_duration(self):
        trace = valid_trace()
        trace["traceEvents"][2]["dur"] = -1
        self.assert_rejects(self.SCRIPT, self.write_json("t.json", trace),
                            "negative")

    def test_rejects_unknown_event_phase(self):
        trace = valid_trace()
        trace["traceEvents"].append({"ph": "B", "name": "begin", "ts": 0})
        self.assert_rejects(self.SCRIPT, self.write_json("t.json", trace),
                            "unexpected event phase")


ANALYZE_FIXTURE_PRELUDE = """\
namespace std {
template <class T> struct vector {
  vector();
  void push_back(T x);
  unsigned long size() const;
};
}  // namespace std
"""

# Every required hot/det root gets an annotated stub so the analyzer's
# missing-root enforcement (which has no CLI opt-out, by design) is satisfied
# and the tests exercise exactly one variable: the seeded violation.
ANALYZE_FIXTURE_ROOTS = """\
namespace faultroute {

struct DistanceOracle { void bfs_block(); };
struct Topology { unsigned long distance(); };
struct JsonLinesReporter { void report(); };
struct CsvReporter { void report(); };

void helper(std::vector<int>& out);

// analyze:hot-root(smoke fixture root)
void route_all(std::vector<int>& out) { helper(out); }
// analyze:hot-root(smoke fixture root)
void run_traffic() {}
// analyze:hot-root(smoke fixture root)
void DistanceOracle::bfs_block() {}
// analyze:hot-root(smoke fixture root)
unsigned long Topology::distance() { return 0; }
// analyze:det-root(smoke fixture root)
void JsonLinesReporter::report() {}
// analyze:det-root(smoke fixture root)
void CsvReporter::report() {}
"""

ANALYZE_HELPER_CLEAN = """\
void helper(std::vector<int>& out) { (void)out.size(); }

}  // namespace faultroute
"""

ANALYZE_HELPER_HOT_BUG = """\
void helper(std::vector<int>& out) { out.push_back(1); }

}  // namespace faultroute
"""

ANALYZE_HELPER_BAD_TAG = """\
void helper(std::vector<int>& out) { out.push_back(1); }  // analyze:allow-hot-alloc()

}  // namespace faultroute
"""


class AnalyzerSmoke(ValidatorCase):
    """Subprocess smoke tests for tools/analyze/faultroute_analyze.py.

    The fixtures are self-contained single-TU trees with annotated stubs for
    all required hot/det roots, so findings (or their absence) come only from
    the seeded helper body.
    """

    def run_analyzer(self, *argv):
        return subprocess.run(
            [PYTHON, str(ANALYZER), *[str(a) for a in argv]],
            capture_output=True, text=True, check=False)

    def fixture_tree(self, helper_tail):
        (self.tmp / "src").mkdir(exist_ok=True)
        (self.tmp / "build").mkdir(exist_ok=True)
        source = self.tmp / "src" / "fixture.cpp"
        source.write_text(
            ANALYZE_FIXTURE_PRELUDE + ANALYZE_FIXTURE_ROOTS + helper_tail,
            encoding="utf-8")
        db = [{"directory": str(self.tmp),
               "command": "c++ -std=c++20 -c src/fixture.cpp",
               "file": str(source)}]
        (self.tmp / "build" / "compile_commands.json").write_text(
            json.dumps(db), encoding="utf-8")

    def analyze_args(self, *extra):
        return ["--root", self.tmp, "-p", self.tmp / "build", *extra]

    def test_self_test_passes(self):
        proc = self.run_analyzer("--self-test")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("self-test passed", proc.stdout)
        self.assertNotIn("FAIL", proc.stdout)

    def test_clean_tree_exits_zero(self):
        self.fixture_tree(ANALYZE_HELPER_CLEAN)
        proc = self.run_analyzer(*self.analyze_args())
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("clean", proc.stdout)

    def test_seeded_hot_alloc_is_reported(self):
        self.fixture_tree(ANALYZE_HELPER_HOT_BUG)
        proc = self.run_analyzer(*self.analyze_args())
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("[hot-alloc]", proc.stdout)
        self.assertIn("route_all -> helper", proc.stdout)

    def test_annotation_without_reason_is_rejected(self):
        self.fixture_tree(ANALYZE_HELPER_BAD_TAG)
        proc = self.run_analyzer(*self.analyze_args())
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("[annotation]", proc.stdout)
        self.assertIn("requires a real reason", proc.stdout)

    def test_json_report_is_schema_valid(self):
        self.fixture_tree(ANALYZE_HELPER_HOT_BUG)
        report = self.tmp / "analyze.json"
        proc = self.run_analyzer(*self.analyze_args("--json", report))
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assert_accepts("check_bench_schema.py", report)
        payload = json.loads(report.read_text(encoding="utf-8"))
        self.assertEqual(payload["schema"], "faultroute.analyze.v1")
        self.assertEqual(payload["rule_counts"]["hot-alloc"], 1)

    def test_missing_compile_db_is_a_setup_error(self):
        self.fixture_tree(ANALYZE_HELPER_CLEAN)
        (self.tmp / "build" / "compile_commands.json").unlink()
        proc = self.run_analyzer(*self.analyze_args())
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("compile_commands.json", proc.stderr)


class DocsLinksValidator(ValidatorCase):
    """check_docs_links.py anchors itself at <script>/../.., so the tests run
    a copy of it from inside a synthetic repo tree."""

    def fake_repo(self, readme, docs=None):
        (self.tmp / "scripts").mkdir()
        script = self.tmp / "scripts" / "check_docs_links.py"
        shutil.copyfile(SCRIPTS / "check_docs_links.py", script)
        (self.tmp / "README.md").write_text(readme, encoding="utf-8")
        (self.tmp / "docs").mkdir()
        for name, text in (docs or {}).items():
            (self.tmp / "docs" / name).write_text(text, encoding="utf-8")
        return script

    def run_fake(self, script):
        return subprocess.run([PYTHON, str(script)], capture_output=True,
                              text=True, check=False)

    def test_accepts_live_links(self):
        script = self.fake_repo(
            "See [the guide](docs/GUIDE.md) and [section](docs/GUIDE.md#part).\n"
            "External [site](https://example.com) is skipped.\n",
            docs={"GUIDE.md": "Back to [README](../README.md).\n"})
        proc = self.run_fake(script)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_rejects_dead_link(self):
        script = self.fake_repo("See [missing](docs/NOPE.md).\n")
        proc = self.run_fake(script)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("DEAD LINK", proc.stdout)
        self.assertIn("NOPE.md", proc.stdout)

    def test_ignores_links_inside_code_fences(self):
        script = self.fake_repo(
            "Example output:\n\n```\n[not a link](docs/NOPE.md)\n```\n")
        proc = self.run_fake(script)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


class GoldenReportsCheck(ValidatorCase):
    """check_golden_reports.py anchors itself at <script>/../.., so the tests
    run a copy of it inside a synthetic repo with one scenario and a fake
    faultroute that writes a fixed report (provenance and cell line taken
    from the environment)."""

    FAKE_CLI = textwrap.dedent("""\
        import json, os, sys
        out = sys.argv[sys.argv.index("--out") + 1]
        header = {"type": "header", "name": "s",
                  "provenance": {"git_hash": os.environ.get("FAKE_PROVENANCE", "a")}}
        cell = {"type": "cell", "routed": int(os.environ.get("FAKE_CELL", "1"))}
        with open(out, "w") as f:
            f.write(json.dumps(header, separators=(",", ":")) + "\\n" +
                    json.dumps(cell, separators=(",", ":")) + "\\n")
        """)

    def setUp(self):
        super().setUp()
        (self.tmp / "scripts").mkdir()
        self.script = self.tmp / "scripts" / "check_golden_reports.py"
        shutil.copyfile(SCRIPTS / "check_golden_reports.py", self.script)
        (self.tmp / "scenarios").mkdir()
        (self.tmp / "scenarios" / "s.scn").write_text("name=s\n", encoding="utf-8")
        cli = self.tmp / "fake_cli.py"
        cli.write_text(self.FAKE_CLI, encoding="utf-8")
        self.launcher = self.tmp / "faultroute"
        self.launcher.write_text(f"#!/bin/sh\nexec {PYTHON} {cli} \"$@\"\n", encoding="utf-8")
        self.launcher.chmod(0o755)

    def run_check(self, *argv, **env):
        return subprocess.run(
            [PYTHON, str(self.script), "--binary", str(self.launcher), *argv],
            capture_output=True, text=True, check=False,
            env={**os.environ, **env})

    def test_update_then_check_passes_and_ignores_provenance(self):
        self.assertEqual(self.run_check("--update").returncode, 0)
        proc = self.run_check(FAKE_PROVENANCE="b")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_rejects_a_changed_cell(self):
        self.assertEqual(self.run_check("--update").returncode, 0)
        proc = self.run_check(FAKE_CELL="2")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("s.scn: report digest", proc.stderr)

    def test_rejects_a_scenario_without_a_digest(self):
        proc = self.run_check()
        self.assertEqual(proc.returncode, 1)
        self.assertIn("no digest", proc.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
