#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <ostream>
#include <string>

#include "obs/schemas.hpp"
#include "scenario/spec.hpp"

namespace faultroute::scenario {

/// Schema identifier stamped into every report so downstream tooling can
/// diff result sets across PRs. Defined in obs/schemas.hpp with the rest of
/// the schema registry; bump the version whenever a field is added, removed,
/// renamed, or its meaning/units change.
inline constexpr int kSchemaVersion = obs::schemas::kScenarioVersion;
inline constexpr const char* kSchemaName = obs::schemas::kScenario;

/// Spellings of the three field types the cell table below uses.
namespace cell_field {
using u64 = std::uint64_t;
using f64 = double;
using str = std::string;
}  // namespace cell_field

/// The fields of one scenario cell, in report column order: one line per
/// field, and the only place a field is named. The table generates the
/// CellResult members, the runner's fill-in (runner.cpp), the JSON-lines
/// keys and the CSV columns (reporter.cpp), and the checkpoint journal codec
/// (checkpoint.cpp), so adding a metric takes one METRIC line plus a schema
/// version bump. Each entry is (type, name, source):
///   - KEY fields identify the cell. The runner evaluates each source before
///     the cell runs, from the resolved `spec`, the flat cell `index`, its
///     decoded axis `coords`, and the built `topology`. Strings are registry
///     specs verbatim; `cell` is the row-major index (see runner.hpp).
///   - METRIC fields are read from the cell's TrafficResult `traffic`; their
///     meanings and units are TrafficResult's (times in discrete simulation
///     steps, loads in message traversals).
#define FAULTROUTE_CELL_KEYS(KEY)                                \
  KEY(u64, cell, index)                                          \
  KEY(str, topology, spec.topologies[coords.topology])           \
  KEY(str, topology_name, topology.name())                       \
  KEY(u64, vertices, topology.num_vertices())                    \
  KEY(f64, p, spec.p_values[coords.p])                           \
  KEY(str, router, spec.routers[coords.router])                  \
  KEY(str, workload, spec.workloads[coords.workload])            \
  KEY(u64, trial, coords.trial)                                  \
  KEY(u64, env_seed, derive_seed(spec.seed, 2 * index))          \
  KEY(u64, workload_seed, derive_seed(spec.seed, 2 * index + 1))

#define FAULTROUTE_CELL_METRICS(METRIC)                             \
  METRIC(u64, messages, traffic.messages)                           \
  METRIC(u64, routed, traffic.routed)                               \
  METRIC(u64, failed_routing, traffic.failed_routing)               \
  METRIC(u64, censored, traffic.censored)                           \
  METRIC(u64, invalid_paths, traffic.invalid_paths)                 \
  METRIC(u64, delivered, traffic.delivered)                         \
  METRIC(u64, stranded, traffic.stranded)                           \
  METRIC(u64, total_distinct_probes, traffic.total_distinct_probes) \
  METRIC(u64, unique_edges_probed, traffic.unique_edges_probed)     \
  METRIC(u64, cache_hits, traffic.cache_hits)                       \
  METRIC(u64, cache_misses, traffic.cache_misses)                   \
  METRIC(f64, probe_amortization, traffic.probe_amortization())     \
  METRIC(u64, max_edge_load, traffic.max_edge_load)                 \
  METRIC(f64, mean_edge_load, traffic.mean_edge_load)               \
  METRIC(u64, edges_used, traffic.edges_used)                       \
  METRIC(u64, makespan, traffic.makespan)                           \
  METRIC(f64, mean_queueing_delay, traffic.mean_queueing_delay)     \
  METRIC(u64, max_queueing_delay, traffic.max_queueing_delay)       \
  METRIC(f64, mean_path_edges, traffic.mean_path_edges)             \
  METRIC(f64, throughput, traffic.throughput())                     \
  METRIC(u64, sim_steps, traffic.sim_steps)                         \
  METRIC(u64, admission_events, traffic.admission_events)           \
  METRIC(u64, transmissions, traffic.transmissions)                 \
  METRIC(u64, peak_active_channels, traffic.peak_active_channels)   \
  METRIC(u64, channels, traffic.channels)

#define FAULTROUTE_CELL_FIELDS(FIELD) \
  FAULTROUTE_CELL_KEYS(FIELD)         \
  FAULTROUTE_CELL_METRICS(FIELD)

/// One cell of a scenario's cross-product: the aggregate traffic metrics of
/// one (topology, p, router, workload, trial) combination, one member per
/// table entry above.
struct CellResult {
#define FAULTROUTE_CELL_MEMBER(type, name, source) cell_field::type name{};
  FAULTROUTE_CELL_FIELDS(FAULTROUTE_CELL_MEMBER)
#undef FAULTROUTE_CELL_MEMBER

  bool operator==(const CellResult&) const = default;
};

/// The table's field names, in order.
inline constexpr const char* kCellFieldNames[] = {
#define FAULTROUTE_CELL_NAME(type, name, source) #name,
    FAULTROUTE_CELL_FIELDS(FAULTROUTE_CELL_NAME)
#undef FAULTROUTE_CELL_NAME
};
inline constexpr std::size_t kCellFieldCount = std::size(kCellFieldNames);

/// Calls `visit(name, member)` for every field of `cell`, in table order;
/// `Cell` is CellResult or const CellResult.
template <class Cell, class Visit>
void for_each_cell_field(Cell& cell, Visit&& visit) {
#define FAULTROUTE_CELL_VISIT(type, name, source) visit(#name, cell.name);
  FAULTROUTE_CELL_FIELDS(FAULTROUTE_CELL_VISIT)
#undef FAULTROUTE_CELL_VISIT
}

/// Sink for scenario results. The runner guarantees the call order
/// begin → report (once per cell, in ascending cell order) → end, from a
/// single thread, regardless of how many worker threads computed the cells —
/// implementations need no locking. Every emitted byte is a deterministic
/// function of the spec, so identical runs produce identical reports.
class Reporter {
 public:
  virtual ~Reporter() = default;
  virtual void begin(const ScenarioSpec& spec) = 0;
  virtual void report(const CellResult& cell) = 0;
  virtual void end() = 0;
};

/// JSON-lines: one header object (schema + the resolved spec), then one
/// object per cell. Machine-diffable and append-friendly.
class JsonLinesReporter final : public Reporter {
 public:
  /// `out` must outlive the reporter; nothing is written before begin().
  explicit JsonLinesReporter(std::ostream& out) : out_(out) {}
  void begin(const ScenarioSpec& spec) override;
  void report(const CellResult& cell) override;
  void end() override;

 private:
  std::ostream& out_;
  std::uint64_t cells_reported_ = 0;
};

/// RFC-4180-style CSV with a fixed column set; the schema name rides in the
/// first column of every row so a bare .csv file remains self-describing.
class CsvReporter final : public Reporter {
 public:
  explicit CsvReporter(std::ostream& out) : out_(out) {}
  void begin(const ScenarioSpec& spec) override;
  void report(const CellResult& cell) override;
  void end() override;

 private:
  std::ostream& out_;
  std::string scenario_name_;
};

/// Factory for the CLI: `format` is "jsonl" or "csv".
[[nodiscard]] std::unique_ptr<Reporter> make_reporter(const std::string& format,
                                                      std::ostream& out);

}  // namespace faultroute::scenario
