// Integration tests: miniature versions of the paper's connectivity and
// threshold experiments with loose statistical assertions. These tie the whole stack
// together — topology, lazy percolation, probe accounting, routers,
// conditioning — and would catch any regression that silently breaks an
// experiment's *shape* even when unit tests stay green. The routing
// scaling laws themselves are gated at full size in test_paper_claims.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/stats.hpp"
#include "analysis/theory.hpp"
#include "core/experiment.hpp"
#include "core/probe_context.hpp"
#include "core/routers/double_tree_routers.hpp"
#include "core/routers/landmark_router.hpp"
#include "graph/complete.hpp"
#include "graph/double_tree.hpp"
#include "graph/hypercube.hpp"
#include "percolation/cluster_analysis.hpp"
#include "percolation/edge_sampler.hpp"
#include "percolation/galton_watson.hpp"
#include "random/rng.hpp"

namespace faultroute {
namespace {

TEST(Integration, DoubleTreeConnectivityThresholdLocation) {
  // Lemma 6 in miniature: connection probability is tiny at p = 0.6 and
  // substantial at p = 0.85 (threshold 0.707 in between).
  const DoubleBinaryTree tree(10);
  int low = 0;
  int high = 0;
  const int trials = 120;
  for (int t = 0; t < trials; ++t) {
    const HashEdgeSampler below(0.60, derive_seed(1, static_cast<std::uint64_t>(t)));
    const HashEdgeSampler above(0.85, derive_seed(2, static_cast<std::uint64_t>(t)));
    low += *open_connected(tree, below, tree.root1(), tree.root2()) ? 1 : 0;
    high += *open_connected(tree, above, tree.root1(), tree.root2()) ? 1 : 0;
  }
  EXPECT_LT(low, trials / 10);
  EXPECT_GT(high, trials / 2);
}

TEST(Integration, GnpGiantFractionMatchesTheory) {
  // The percolation substrate reproduces the classical G(n, c/n) giant
  // fraction beta(c) — ties sampler + cluster analysis + theory together.
  const std::uint64_t n = 3000;
  const CompleteGraph g(n);
  const double c = 2.0;
  Summary fraction;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const HashEdgeSampler sampler(c / static_cast<double>(n), seed);
    fraction.add(analyze_components(g, sampler).largest_fraction());
  }
  EXPECT_NEAR(fraction.mean(), theory::gnp_giant_fraction(c), 0.03);
}

TEST(Integration, GaltonWatsonPredictsDoubleTreeMirroredBranches) {
  // The GW recursion q_n(p^2) must match the empirical probability that the
  // paired-oracle router succeeds (a doubly-open root-to-leaf branch).
  const int depth = 9;
  const DoubleBinaryTree tree(depth);
  DoubleTreePairedOracleRouter router(tree);
  const double p = 0.8;
  int successes = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    const HashEdgeSampler sampler(p, derive_seed(17, static_cast<std::uint64_t>(t)));
    ProbeArena arena(tree);
    ProbeContext ctx(arena, sampler, tree.root1(), RoutingMode::kOracle);
    successes += router.route(ctx, tree.root1(), tree.root2()).has_value() ? 1 : 0;
  }
  const BinaryGaltonWatson gw(p * p);
  const Interval ci = wilson_interval(static_cast<std::uint64_t>(successes),
                                      static_cast<std::uint64_t>(trials), 4.0);
  EXPECT_TRUE(ci.contains(gw.reach_probability(depth)))
      << "measured " << static_cast<double>(successes) / trials << " vs GW "
      << gw.reach_probability(depth);
}

TEST(Integration, ThresholdOrderingOnTheHypercube) {
  // The paper's central qualitative picture at n = 12: at p just above the
  // giant threshold the graph has a giant component but routing is brutal;
  // at p above the routing threshold it is easy.
  const int n = 12;
  const Hypercube cube(n);
  const double p_giant = 2.5 / n;                       // giant exists
  const double p_routable = 1.8 / std::sqrt(static_cast<double>(n));  // above n^{-1/2}

  EXPECT_GT(analyze_components(cube, HashEdgeSampler(p_giant, 1)).largest_fraction(),
            0.05);

  LandmarkRouter router;
  ExperimentConfig config;
  config.trials = 8;
  config.base_seed = 21;
  const auto hard =
      measure_routing(cube, p_giant, router, 0, cube.num_vertices() - 1, config);
  const auto easy =
      measure_routing(cube, p_routable, router, 0, cube.num_vertices() - 1, config);
  EXPECT_GT(hard.median_distinct, 5.0 * easy.median_distinct);
}

}  // namespace
}  // namespace faultroute
