#pragma once

#include <ostream>
#include <string_view>

#include "obs/counter_registry.hpp"
#include "obs/phase_profiler.hpp"
#include "obs/schemas.hpp"

namespace faultroute::obs {

/// Schema identifier of the --metrics JSON report. Defined in
/// obs/schemas.hpp with the rest of the schema registry (same contract as
/// the scenario and bench schemas; validated by scripts/check_bench_schema.py).
inline constexpr int kMetricsSchemaVersion = schemas::kMetricsVersion;
inline constexpr const char* kMetricsSchemaName = schemas::kMetrics;

/// One run's observability state: a CounterRegistry and a PhaseProfiler,
/// bundled so the engine threads a single nullable pointer
/// (TrafficConfig::metrics, scenario::RunOptions::metrics).
///
/// Lifecycle: the CLI constructs one RunMetrics when --metrics or --trace is
/// given, hands it to the command, and serializes it afterwards —
/// write_metrics_json for the faultroute.metrics.v1 report,
/// write_chrome_trace for a chrome://tracing / Perfetto trace. When neither
/// flag is given no RunMetrics exists and every instrumentation site costs
/// exactly one null check; with it attached, no simulation result changes by
/// a bit (pinned by tests/test_observability.cpp).
///
/// This is also the substrate a future `faultroute serve` daemon snapshots
/// for its /counters endpoint: counters() is concurrency-safe by design.
class RunMetrics {
 public:
  RunMetrics() = default;
  RunMetrics(const RunMetrics&) = delete;
  RunMetrics& operator=(const RunMetrics&) = delete;

  [[nodiscard]] CounterRegistry& counters() { return counters_; }
  [[nodiscard]] const CounterRegistry& counters() const { return counters_; }
  [[nodiscard]] PhaseProfiler& profiler() { return profiler_; }
  [[nodiscard]] const PhaseProfiler& profiler() const { return profiler_; }

  /// Writes the faultroute.metrics.v1 report: schema header, build
  /// provenance, this run's counters merged with the process-global registry
  /// (graph.* counters), aggregated phase timings and profiler tracks.
  void write_metrics_json(std::ostream& out, std::string_view command) const;

  /// Writes a Chrome trace-event JSON object ({"traceEvents":[...]}) —
  /// loadable in chrome://tracing and Perfetto — with one complete ("X")
  /// event per recorded span and one thread_name metadata event per track,
  /// so every parallel_index_loop worker renders as its own lane.
  void write_chrome_trace(std::ostream& out) const;

 private:
  CounterRegistry counters_;
  PhaseProfiler profiler_;
};

}  // namespace faultroute::obs
