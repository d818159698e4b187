#pragma once

#include <cstdint>

#include "scenario/reporter.hpp"
#include "scenario/spec.hpp"

namespace faultroute::obs {
class RunMetrics;
}

namespace faultroute::scenario {

/// Run totals, for the CLI's human-readable closing line (the machine
/// record is whatever the Reporter wrote).
struct RunSummary {
  std::uint64_t cells = 0;
  std::uint64_t messages = 0;
  std::uint64_t delivered = 0;
};

/// Observability knobs of a scenario run. Defaults are all-off, which is
/// the zero-overhead path (one null check per instrumentation site).
struct RunOptions {
  /// When non-null, the run records per-cell phase spans (one "cell-<i>"
  /// scope per cell on its worker's track, with the traffic engine's phases
  /// nested inside) and harvests traffic counters across all cells into the
  /// registry. Shared by every worker; the pointee must outlive the call.
  /// Never changes results or report bytes.
  obs::RunMetrics* metrics = nullptr;
  /// When non-empty, journal every completed cell to this path and, on a
  /// rerun against the same journal, skip cells already recorded — the
  /// resumed run's report is byte-identical to an uninterrupted one. See
  /// checkpoint.hpp for the format and the fingerprint that guards misuse.
  std::string checkpoint_path;
  /// Shard k of n (CLI `--shard k/n`): this process computes and reports
  /// only the cells with index % shard_count == shard_index - 1, in
  /// ascending order, under the unchanged spec-wide seeding contract.
  /// `faultroute merge` stitches the n shard reports back into the exact
  /// single-process report. Defaults (1/1) mean "the whole sweep". A
  /// checkpoint journal used with sharding only records/replays the
  /// shard's own cells, so each shard needs its own journal path.
  unsigned shard_index = 1;
  unsigned shard_count = 1;
};

/// Executes every cell of the scenario's cross-product and streams the
/// results through `reporter`.
///
/// Ordering: cells are indexed row-major over (topology, p, router,
/// workload, trial) with trial fastest, and reported in ascending index
/// order from the calling thread.
///
/// Seeding contract (the basis of reproducibility — see
/// docs/ARCHITECTURE.md): cell i draws its percolation-environment seed as
/// derive_seed(spec.seed, 2*i) and its workload seed as
/// derive_seed(spec.seed, 2*i + 1). Seeds therefore depend only on
/// (spec.seed, cell index): rerunning a spec reproduces every cell exactly,
/// and editing one sweep axis leaves the *meaning* of seed streams of other
/// cells well-defined (they shift with the index, not with wall clock or
/// thread schedule).
///
/// Parallelism: cells are distributed over `spec.threads` workers
/// (0 = hardware concurrency) via core/parallel's index loop; each cell's
/// traffic simulation runs single-threaded inside its worker, unless exactly
/// one cell is pending, whose routing phase then takes `spec.threads`
/// (`faultroute traffic` is such a run). Results and report bytes are
/// identical for every thread count.
///
/// Fail-fast: all topology specs are constructed, all router names
/// instantiated against each topology, and all workload specs parsed
/// *before* the first cell runs, so a typo anywhere in the spec throws
/// std::invalid_argument before any output is produced.
RunSummary run_scenario(const ScenarioSpec& spec, Reporter& reporter);
RunSummary run_scenario(const ScenarioSpec& spec, Reporter& reporter,
                        const RunOptions& options);

}  // namespace faultroute::scenario
