// Empirical verification of Lemma 5 — the paper's lower-bound machinery —
// against actual routers. The lemma states: if S is a vertex set containing
// v, every cut edge e of (S, S^c) satisfies Pr[(v ~ e) in S] <= eta, and X is
// the probe count of ANY local router from u to v, then
//
//   Pr[X < t] <= (t * eta + Pr[(u ~ v) in S]) / Pr[u ~ v].
//
// We instantiate it on the double binary tree exactly as Section 2.1 does
// (S = the second tree), measure every probability on the right-hand side by
// Monte Carlo, measure Pr[X < t] for our local routers, and assert the
// inequality holds with statistical slack. This is as close as an experiment
// can get to "testing a theorem": if any of the machinery (samplers, probe
// accounting, locality enforcement, the routers) were broken in a way that
// made routing too easy, this suite would fail.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/stats.hpp"
#include "analysis/theory.hpp"
#include "core/probe_context.hpp"
#include "core/routers/double_tree_routers.hpp"
#include "core/routers/flood_router.hpp"
#include "graph/double_tree.hpp"
#include "percolation/cluster_analysis.hpp"
#include "percolation/edge_sampler.hpp"
#include "random/rng.hpp"

namespace faultroute {
namespace {

using Side = DoubleBinaryTree::Side;

struct LemmaIngredients {
  double eta = 0.0;           // max over cut edges of Pr[(v ~ e) in S]
  double pr_uv = 0.0;         // Pr[u ~ v]
  double pr_uv_in_s = 0.0;    // Pr[(u ~ v) in S] — 0 here since u is outside S
};

/// Measures the lemma's ingredients for TT_n with S = tree 2 (plus the
/// leaves, the cut being the tree-1 leaf edges). For the roots u = x, v = y:
/// the event "(v ~ e) in S" for a cut edge at leaf w is "the tree-2 branch
/// from w up to y is fully open", whose exact probability is p^n; we still
/// *measure* it to exercise the machinery.
LemmaIngredients measure_ingredients(const DoubleBinaryTree& tree, double p,
                                     int trials, std::uint64_t seed) {
  LemmaIngredients out;
  std::uint64_t climbs_open = 0;
  std::uint64_t connected = 0;
  Rng rng(seed);
  for (int t = 0; t < trials; ++t) {
    const HashEdgeSampler sampler(p, derive_seed(seed, static_cast<std::uint64_t>(t)));
    // Pick a random leaf's cut edge and test its in-S connection to v = y.
    const VertexId leaf = uniform_below(rng, tree.num_leaves());
    bool open_climb = true;
    for (std::uint64_t c = tree.num_leaves() + leaf; c >= 2 && open_climb; c >>= 1) {
      open_climb = sampler.is_open(tree.tree_edge_key(Side::kTree2, c));
    }
    climbs_open += open_climb ? 1 : 0;
    connected +=
        *open_connected(tree, sampler, tree.root1(), tree.root2()) ? 1 : 0;
  }
  // Upper-confidence values so the final assertion is conservative.
  out.eta = wilson_interval(climbs_open, static_cast<std::uint64_t>(trials)).high;
  out.pr_uv =
      std::max(1e-9, wilson_interval(connected, static_cast<std::uint64_t>(trials)).low);
  out.pr_uv_in_s = 0.0;  // u = root1 is not in S = tree 2
  return out;
}

class Lemma5Test : public ::testing::TestWithParam<double> {};

TEST_P(Lemma5Test, LocalRoutersRespectTheBoundOnTheDoubleTree) {
  const double p = GetParam();
  const int n = 9;
  const DoubleBinaryTree tree(n);
  const int trials = 300;

  const LemmaIngredients lemma = measure_ingredients(tree, p, 1200, 101);
  // The measured eta must agree with the exact p^n (sanity of the measure).
  EXPECT_NEAR(lemma.eta, std::pow(p, n), 0.03) << "eta measurement drifted";

  // Run the paper's local router conditioned on {u ~ v}; empirical CDF of X.
  DoubleTreeLocalRouter router(tree);
  std::vector<double> probes;
  for (std::uint64_t t = 0; probes.size() < static_cast<std::size_t>(trials) && t < 20000;
       ++t) {
    const HashEdgeSampler sampler(p, derive_seed(707, t));
    if (!*open_connected(tree, sampler, tree.root1(), tree.root2())) continue;
    ProbeArena arena(tree);
    ProbeContext ctx(arena, sampler, tree.root1(), RoutingMode::kLocal);
    ASSERT_TRUE(router.route(ctx, tree.root1(), tree.root2()).has_value());
    probes.push_back(static_cast<double>(ctx.distinct_probes()));
  }
  ASSERT_GE(probes.size(), 100u) << "not enough connected environments";

  // Check Pr[X < t] <= lemma bound (with CI slack folded into eta, pr_uv)
  // at several thresholds t.
  for (const double t : {10.0, 25.0, 50.0, 100.0}) {
    std::size_t below = 0;
    for (const double x : probes) {
      if (x < t) ++below;
    }
    const double empirical =
        static_cast<double>(below) / static_cast<double>(probes.size());
    const double bound = theory::lemma5_bound(t, lemma.eta, lemma.pr_uv_in_s, lemma.pr_uv);
    // Allow binomial noise on the empirical side.
    const double noise =
        4.0 * std::sqrt(empirical * (1 - empirical) / static_cast<double>(probes.size()));
    EXPECT_LE(empirical, bound + noise + 0.02)
        << "Lemma 5 violated at t = " << t << " (p = " << p << "): empirical "
        << empirical << " > bound " << bound;
  }
}

INSTANTIATE_TEST_SUITE_P(PSweep, Lemma5Test, ::testing::Values(0.75, 0.8, 0.85));

TEST(Lemma5, TheoremSevenScalePrediction) {
  // Theorem 7's form of the bound: any local router needs >= a * p^{-n}
  // probes with probability >= 1 - a/c(p). Instantiate with a = 0.2 and
  // check our router's CDF at t = a * p^{-n}.
  const int n = 10;
  const double p = 0.78;
  const DoubleBinaryTree tree(n);
  DoubleTreeLocalRouter router(tree);
  const double t = 0.2 * theory::double_tree_local_lower_bound(p, n);
  int below = 0;
  int total = 0;
  for (std::uint64_t s = 0; total < 200 && s < 20000; ++s) {
    const HashEdgeSampler sampler(p, derive_seed(7070, s));
    if (!*open_connected(tree, sampler, tree.root1(), tree.root2())) continue;
    ++total;
    ProbeArena arena(tree);
    ProbeContext ctx(arena, sampler, tree.root1(), RoutingMode::kLocal);
    ASSERT_TRUE(router.route(ctx, tree.root1(), tree.root2()).has_value());
    if (static_cast<double>(ctx.distinct_probes()) < t) ++below;
  }
  ASSERT_EQ(total, 200);
  // The bound says Pr[X < 0.2 p^{-n}] is small; our router should be deep in
  // the allowed region (well under 1/2).
  EXPECT_LT(static_cast<double>(below) / total, 0.5);
}

TEST(Lemma5, FloodRouterAlsoRespectsTheBound) {
  // The lemma quantifies over all local algorithms; flooding is a very
  // different strategy from DFS+climb, so check it independently.
  const int n = 8;
  const double p = 0.8;
  const DoubleBinaryTree tree(n);
  const LemmaIngredients lemma = measure_ingredients(tree, p, 1200, 202);
  FloodRouter router;
  std::vector<double> probes;
  for (std::uint64_t t = 0; probes.size() < 150 && t < 20000; ++t) {
    const HashEdgeSampler sampler(p, derive_seed(909, t));
    if (!*open_connected(tree, sampler, tree.root1(), tree.root2())) continue;
    ProbeArena arena(tree);
    ProbeContext ctx(arena, sampler, tree.root1(), RoutingMode::kLocal);
    ASSERT_TRUE(router.route(ctx, tree.root1(), tree.root2()).has_value());
    probes.push_back(static_cast<double>(ctx.distinct_probes()));
  }
  ASSERT_GE(probes.size(), 100u);
  for (const double t : {10.0, 30.0, 80.0}) {
    std::size_t below = 0;
    for (const double x : probes) {
      if (x < t) ++below;
    }
    const double empirical =
        static_cast<double>(below) / static_cast<double>(probes.size());
    const double bound = theory::lemma5_bound(t, lemma.eta, 0.0, lemma.pr_uv);
    const double noise =
        4.0 * std::sqrt(empirical * (1 - empirical) / static_cast<double>(probes.size()));
    EXPECT_LE(empirical, bound + noise + 0.02) << "t = " << t;
  }
}

}  // namespace
}  // namespace faultroute
