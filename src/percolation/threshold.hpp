#pragma once

#include <cstdint>
#include <functional>

#include "graph/flat_adjacency.hpp"
#include "graph/topology.hpp"

namespace faultroute {

/// Configuration for the critical-probability estimator.
struct ThresholdConfig {
  /// The order parameter crosses `target_fraction` at the estimated point
  /// (e.g. 0.2 of all vertices in the largest cluster).
  double target_fraction = 0.2;
  /// Monte-Carlo repetitions per probed p.
  int trials_per_point = 8;
  /// Bisection stops when the bracket is narrower than this.
  double tolerance = 1e-3;
  /// Base seed; trial i at probe j uses a seed derived from (seed, j, i).
  std::uint64_t seed = 0x5eedULL;
};

/// Order parameter: given (p, seed), returns the largest-cluster fraction
/// (or any monotone-in-p indicator in [0, 1]).
using OrderParameter = std::function<double(double p, std::uint64_t seed)>;

/// Estimates the percolation threshold of a monotone order parameter by
/// bisection on p in [lo, hi]: the returned p* is where the averaged order
/// parameter crosses `target_fraction`.
///
/// Used for E7: recovering p_c(2) ~ 0.5 and p_c(3) ~ 0.2488 on finite
/// meshes, and the giant-component threshold p ~ 1/n of the hypercube.
[[nodiscard]] double estimate_threshold(const OrderParameter& order, double lo, double hi,
                                        const ThresholdConfig& config = {});

/// The standard order parameter for graph percolation: (p, seed) -> the
/// largest-cluster fraction of `graph` percolated by HashEdgeSampler(p,
/// seed). Every trial of a bisection re-sweeps all edges of the graph, so
/// the backend matters: the default budget runs the component sweep over
/// the cached CSR snapshot (graph/flat_adjacency.hpp) whenever the graph
/// fits, falling back to the implicit interface beyond it. The returned
/// callable borrows `graph`, which must outlive it.
[[nodiscard]] OrderParameter largest_cluster_order(
    const Topology& graph, std::uint64_t flat_budget_vertices = kDefaultFlatBudgetVertices);

}  // namespace faultroute
