#pragma once

namespace faultroute::obs::schemas {

/// The single definition point for every `faultroute.*.vN` schema
/// identifier the project emits. Downstream tooling (check_bench_schema.py,
/// report diffing across PRs) dispatches on these strings, so they are part
/// of the public contract: bump a version whenever a field of the
/// corresponding report is added, removed, renamed, or its meaning/units
/// change.
///
/// tools/lint/faultroute_lint.py enforces that no other C++ file spells a
/// schema string out as a literal — emitters and validators must reference
/// these constants, so a schema bump is one edit and grep finds every user.

/// Scenario sweep reports (JSONL/CSV), emitted by scenario::Reporter.
inline constexpr const char* kScenario = "faultroute.scenario.v3";
inline constexpr int kScenarioVersion = 3;

/// --metrics runtime-observability reports, emitted by obs::RunMetrics.
inline constexpr const char* kMetrics = "faultroute.metrics.v1";
inline constexpr int kMetricsVersion = 1;

/// Bench records (committed as BENCH_*.json at the repo root).
inline constexpr const char* kBenchSnapshot = "faultroute.bench.snapshot.v1";
inline constexpr int kBenchVersion = 1;

/// Scenario checkpoint journals (scenario/checkpoint.hpp): the header line
/// of every --checkpoint file names this schema, then one line per
/// completed cell. Versioned like the reports because resume parses it.
inline constexpr const char* kCheckpoint = "faultroute.checkpoint.v2";
inline constexpr int kCheckpointVersion = 2;

}  // namespace faultroute::obs::schemas
