#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/router.hpp"
#include "graph/topology.hpp"

namespace faultroute {

/// One routing trial on a freshly sampled percolation environment.
struct TrialOutcome {
  std::uint64_t seed = 0;          // the accepted environment seed
  std::uint64_t rejected = 0;      // environments rejected because u !~ v
  bool routed = false;             // router returned a path
  bool censored = false;           // probe budget exhausted
  bool path_valid = false;         // returned path verified open
  std::uint64_t distinct_probes = 0;
  std::uint64_t total_probes = 0;
  std::uint64_t path_edges = 0;
};

/// Configuration of a routing-complexity measurement (Definition 2 of the
/// paper: probes to route, conditioned on {u ~ v}).
struct ExperimentConfig {
  int trials = 100;
  std::uint64_t base_seed = 0xfa117ULL;
  /// Probe budget per trial; exceeding it records a censored trial.
  std::optional<std::uint64_t> probe_budget;
  /// Rejection-sampling cap while conditioning on {u ~ v}.
  int max_resample_attempts = 10000;
  /// Cap on BFS vertices in the ground-truth connectivity check
  /// (0 = unbounded). A capped, inconclusive check counts as a rejection.
  std::uint64_t connectivity_cap = 0;
  /// When false, skip conditioning entirely (u !~ v trials then measure the
  /// cost of discovering disconnection).
  bool require_connected = true;
  /// Verify every returned path against the environment.
  bool verify_paths = true;
};

/// Aggregate view over a batch of trials.
struct ExperimentSummary {
  int trials = 0;
  int routed = 0;
  int censored = 0;
  int invalid_paths = 0;       // returned paths that failed verification
  int unexpected_failures = 0; // nullopt despite conditioning on {u ~ v}
  double mean_distinct = 0.0;
  double median_distinct = 0.0;
  double max_distinct = 0.0;
  double mean_path_edges = 0.0;
  double rejection_rate = 0.0;  // rejected / (rejected + accepted) environments
};

/// Runs `config.trials` independent routing trials of `router` between u and
/// v on `graph` percolated at probability p. Each trial resamples the
/// environment until {u ~ v} holds (ground-truth BFS, never the router).
/// Censored trials (budget exhausted) still appear in the outcome list.
/// The trials share one ProbeArena (one per worker in the parallel
/// variant), so a trial costs O(its probes) on top of one O(edges) arena
/// per worker on graphs within kDenseProbeBudgetEdges.
[[nodiscard]] std::vector<TrialOutcome> run_routing_trials(const Topology& graph, double p,
                                                           Router& router, VertexId u,
                                                           VertexId v,
                                                           const ExperimentConfig& config);

/// Aggregates trial outcomes. Censored trials contribute their (truncated)
/// probe counts to the mean/median, so in exponential regimes read
/// `censored` first: a high censored fraction *is* the result.
[[nodiscard]] ExperimentSummary summarize_trials(const std::vector<TrialOutcome>& outcomes);

/// Convenience: run + aggregate.
[[nodiscard]] ExperimentSummary measure_routing(const Topology& graph, double p,
                                                Router& router, VertexId u, VertexId v,
                                                const ExperimentConfig& config);

/// Builds a fresh router per worker thread (routers are not required to be
/// thread-safe; topologies and samplers are immutable and shared).
using RouterFactory = std::function<std::unique_ptr<Router>()>;

/// Multi-threaded variant of run_routing_trials: trials are deterministic
/// per (base_seed, trial index), so the outcome vector is identical to the
/// sequential run regardless of thread count. `threads` = 0 picks
/// hardware_concurrency.
[[nodiscard]] std::vector<TrialOutcome> run_routing_trials_parallel(
    const Topology& graph, double p, const RouterFactory& make_router, VertexId u,
    VertexId v, const ExperimentConfig& config, unsigned threads = 0);

}  // namespace faultroute
