#include "percolation/threshold.hpp"

#include <stdexcept>

#include "percolation/cluster_analysis.hpp"
#include "percolation/edge_sampler.hpp"
#include "random/rng.hpp"

namespace faultroute {

double estimate_threshold(const OrderParameter& order, double lo, double hi,
                          const ThresholdConfig& config) {
  if (!(lo < hi)) throw std::invalid_argument("estimate_threshold: need lo < hi");
  if (config.trials_per_point < 1) {
    throw std::invalid_argument("estimate_threshold: trials_per_point must be >= 1");
  }
  std::uint64_t probe_index = 0;
  const auto averaged = [&](double p) {
    double total = 0.0;
    for (int t = 0; t < config.trials_per_point; ++t) {
      total += order(p, derive_seed(config.seed,
                                    probe_index * 1000003ULL + static_cast<std::uint64_t>(t)));
    }
    ++probe_index;
    return total / config.trials_per_point;
  };

  while (hi - lo > config.tolerance) {
    const double mid = 0.5 * (lo + hi);
    if (averaged(mid) >= config.target_fraction) {
      hi = mid;  // supercritical at mid: threshold is below
    } else {
      lo = mid;
    }
  }
  return 0.5 * (lo + hi);
}

OrderParameter largest_cluster_order(const Topology& graph,
                                     std::uint64_t flat_budget_vertices) {
  return [&graph, flat_budget_vertices](double p, std::uint64_t seed) {
    return analyze_components(graph, HashEdgeSampler(p, seed), flat_budget_vertices)
        .largest_fraction();
  };
}

}  // namespace faultroute
