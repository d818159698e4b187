// The paper's scaling laws, each as one fixed-seed gate.
//
// Every test reruns one experiment at full size, prints its tables, and
// asserts its fit against a band:
//   E1   Theorem 3       hypercube: routing blows up across alpha = 1/2
//   E3   Theorem 4       mesh above p_c: O(n) probes
//   E4b  Theorem 7       double tree, local router: >= p^{-n} probes
//   E5   Theorem 9       double tree, paired-edge oracle: O(n) probes
//   E6   Theorems 10+11  G(n, c/n): n^2 local, n^{3/2} oracle
// (E4a, Lemma 6's connectivity threshold, is gated in test_integration.)
//
// Each band's comment gives the paper's value, the value at kSeed, and the
// spread measured once over kSeed and seeds 1-5 (six runs). A fit that
// leaves its band is a regression in a router, the sampler, the probe
// accounting or the conditioning, not seed noise. All trials run through
// run_routing_trials_parallel, whose outcomes do not depend on the thread
// count, so every printed number is reproducible.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "core/experiment.hpp"
#include "core/routers/double_tree_routers.hpp"
#include "core/routers/gnp_routers.hpp"
#include "core/routers/landmark_router.hpp"
#include "graph/complete.hpp"
#include "graph/double_tree.hpp"
#include "graph/hypercube.hpp"
#include "graph/mesh.hpp"
#include "percolation/galton_watson.hpp"
#include "random/rng.hpp"
#include "sim/sweep.hpp"

namespace faultroute {
namespace {

constexpr std::uint64_t kSeed = 20050701;

/// `trials` routing trials between u and v at probability p, one router per
/// worker, seeded by (kSeed, stream). Conditioned on {u ~ v} unless
/// `conditioned` is false.
std::vector<TrialOutcome> run_trials(const Topology& graph, double p,
                                     const RouterFactory& make_router, VertexId u, VertexId v,
                                     int trials, std::uint64_t stream,
                                     std::optional<std::uint64_t> budget = std::nullopt,
                                     bool conditioned = true) {
  ExperimentConfig config;
  config.trials = trials;
  config.base_seed = derive_seed(kSeed, stream);
  config.probe_budget = budget;
  config.require_connected = conditioned;
  return run_routing_trials_parallel(graph, p, make_router, u, v, config);
}

/// Conditioned trials, summarized. Every uncensored trial must route along
/// a verified open path: the routers are complete on {u ~ v}.
ExperimentSummary measure(const Topology& graph, double p, const RouterFactory& make_router,
                          VertexId u, VertexId v, int trials, std::uint64_t stream,
                          std::optional<std::uint64_t> budget = std::nullopt) {
  const ExperimentSummary s =
      summarize_trials(run_trials(graph, p, make_router, u, v, trials, stream, budget));
  EXPECT_EQ(s.unexpected_failures, 0) << graph.name() << " p=" << p;
  EXPECT_EQ(s.invalid_paths, 0) << graph.name() << " p=" << p;
  return s;
}

RouterFactory landmark() {
  return [] { return std::make_unique<LandmarkRouter>(); };
}

// --------------------------------------------------------------------- E1

TEST(PaperClaims, E1HypercubeBlowUpAcrossAlphaHalfSharpensWithN) {
  // Theorem 3: with p = n^-alpha, landmark routing between antipodes is
  // polynomial in n for alpha < 1/2 and needs 2^{Omega(n^beta)} probes for
  // alpha > 1/2. At fixed n the median explodes across alpha = 1/2, and the
  // explosion sharpens as n grows.
  const std::vector<int> dims = {10, 12, 14};
  const std::vector<double> alphas = {0.25, 0.35, 0.45, 0.55, 0.65, 0.75};
  constexpr double kBelow = 0.45;
  constexpr double kAbove = 0.65;
  Table table({"n", "alpha", "p", "median_probes", "mean_probes", "censored",
               "mean_path_len", "reject_rate"});
  Table verdict({"n", "median@a=0.45", "median@a=0.65", "blowup_factor"});
  std::vector<double> blowup;
  for (const int n : dims) {
    const Hypercube cube(n);
    double below = 0.0;
    double above = 0.0;
    for (const double alpha : alphas) {
      const double p = sim::p_for_alpha(n, alpha);
      const ExperimentSummary s =
          measure(cube, p, landmark(), 0, cube.num_vertices() - 1, 20,
                  static_cast<std::uint64_t>(n * 100) + static_cast<std::uint64_t>(alpha * 100),
                  200000);
      table.add_row({Table::fmt(n), Table::fmt(alpha, 2), Table::fmt(p, 4),
                     Table::fmt(s.median_distinct, 0), Table::fmt(s.mean_distinct, 0),
                     Table::fmt(static_cast<double>(s.censored) / s.trials, 2),
                     Table::fmt(s.mean_path_edges, 1), Table::fmt(s.rejection_rate, 2)});
      if (alpha == kBelow) below = s.median_distinct;
      if (alpha == kAbove) above = s.median_distinct;
    }
    blowup.push_back(above / std::max(1.0, below));
    verdict.add_row({Table::fmt(n), Table::fmt(below, 0), Table::fmt(above, 0),
                     Table::fmt(blowup.back(), 1)});
  }
  table.print("E1: hypercube routing complexity vs alpha (p = n^-alpha), landmark router");
  verdict.print("E1 verdict: probe blow-up across alpha = 1/2 (paper: transition at 1/2)");

  // Band: the blow-up rises strictly with n. Paper: the transition
  // sharpens with n. kSeed: 2.4, 3.6, 4.1 at n = 10, 12, 14. Spread:
  // 1.5-2.4, 2.3-3.6, 4.0-6.6, rising on all six seeds.
  EXPECT_LT(blowup[0], blowup[1]);
  EXPECT_LT(blowup[1], blowup[2]);
  // Band: blow-up >= 3 at n = 14. Paper: unbounded as n grows. kSeed: 4.1.
  // Spread: 4.0-6.6.
  EXPECT_GE(blowup[2], 3.0);
}

// --------------------------------------------------------------------- E3

TEST(PaperClaims, E3MeshRoutingIsLinearInDistanceAbovePc) {
  // Theorem 4: on the d-dimensional mesh, for every fixed p > p_c(d), local
  // routing between vertices at distance n costs O(n) probes. Fit median
  // probes ~ n^exponent at each p (medians: robust to near-critical
  // excursions). p_c(2) = 1/2, p_c(3) ~ 0.2488.
  struct Setting {
    int dim;
    std::vector<double> ps;
    std::vector<std::int64_t> distances;
    std::int64_t margin;  // the cube extends this far around the segment
  };
  const std::vector<Setting> settings = {
      {2, {0.55, 0.60, 0.70, 0.85}, {16, 32, 64, 128}, 24},
      {3, {0.30, 0.35, 0.45}, {8, 16, 32}, 10},
  };
  Table table({"d", "p", "n", "mean_probes", "median_probes", "probes_per_n",
               "mean_path_len", "reject_rate"});
  Table fits({"d", "p", "loglog_exponent", "probes_per_step", "r2"});
  struct Row {
    int dim;
    double p;
    double exponent;
  };
  std::vector<Row> rows;
  for (const Setting& setting : settings) {
    for (const double p : setting.ps) {
      std::vector<double> xs;
      std::vector<double> ys;
      for (const std::int64_t n : setting.distances) {
        const Mesh mesh(setting.dim, n + 2 * setting.margin);
        Mesh::Coords cu{};
        for (int a = 0; a < setting.dim; ++a) cu[static_cast<std::size_t>(a)] = setting.margin;
        Mesh::Coords cv = cu;
        cv[0] += n;  // d(u, v) = n along axis 0
        const ExperimentSummary s = measure(
            mesh, p, landmark(), mesh.vertex_at(cu), mesh.vertex_at(cv), 30,
            static_cast<std::uint64_t>(setting.dim) * 1000000 +
                static_cast<std::uint64_t>(p * 1000) * 512 + static_cast<std::uint64_t>(n));
        table.add_row({Table::fmt(setting.dim), Table::fmt(p, 3),
                       Table::fmt(static_cast<std::uint64_t>(n)),
                       Table::fmt(s.mean_distinct, 0), Table::fmt(s.median_distinct, 0),
                       Table::fmt(s.mean_distinct / static_cast<double>(n), 1),
                       Table::fmt(s.mean_path_edges, 1), Table::fmt(s.rejection_rate, 2)});
        xs.push_back(static_cast<double>(n));
        ys.push_back(s.median_distinct);
      }
      const LinearFit loglog = log_log_fit(xs, ys);
      fits.add_row({Table::fmt(setting.dim), Table::fmt(p, 3), Table::fmt(loglog.slope, 2),
                    Table::fmt(linear_fit(xs, ys).slope, 1), Table::fmt(loglog.r_squared, 3)});
      rows.push_back({setting.dim, p, loglog.slope});
    }
  }
  table.print("E3: mesh local routing complexity vs distance n (landmark router)");
  fits.print("E3 fits: probes ~ n^exponent (paper: exponent = 1, i.e. O(n) for all p > p_c)");

  for (const Row& row : rows) {
    if (row.dim == 2 && row.p >= 0.6) {
      // Band [0.75, 1.3]. Paper: 1. kSeed: 0.98-1.05. Spread: 0.90-1.13.
      EXPECT_GE(row.exponent, 0.75) << "d=" << row.dim << " p=" << row.p;
      EXPECT_LE(row.exponent, 1.3) << "d=" << row.dim << " p=" << row.p;
    } else {
      // Near-critical d = 2 and all of d = 3, where finite-size effects
      // are largest. Band [0.5, 1.6]: 1.6 still rules out exploring the
      // whole ball, which costs n^d. Paper: 1. kSeed: 0.89-1.33. Spread:
      // 0.70-1.45.
      EXPECT_GE(row.exponent, 0.5) << "d=" << row.dim << " p=" << row.p;
      EXPECT_LE(row.exponent, 1.6) << "d=" << row.dim << " p=" << row.p;
    }
  }
}

// -------------------------------------------------------------------- E4b

TEST(PaperClaims, E4bDoubleTreeLocalRoutingIsExponentialInDepth) {
  // Theorem 7: on the double binary tree TT_n every local router pays
  // ~ p^{-n} probes to connect the roots. Fit mean probes of the DFS+climb
  // local router ~ growth^n (means, not medians: the p^{-n} cost lives in
  // the heavy upper tail of failed leaf climbs).
  const std::vector<double> ps = {0.75, 0.80, 0.88};
  const std::vector<int> depths = {6, 8, 10, 12, 14, 16};
  Table table({"p", "n", "median_probes", "mean_probes", "q90_probes"});
  Table fits({"p", "growth_rate_per_level", "paper 1/p", "paper 2p", "r2"});
  std::vector<double> growth;
  for (const double p : ps) {
    std::vector<double> xs;
    std::vector<double> ys;
    for (const int n : depths) {
      const DoubleBinaryTree tree(n);
      const std::vector<TrialOutcome> outcomes = run_trials(
          tree, p, [&tree] { return std::make_unique<DoubleTreeLocalRouter>(tree); },
          tree.root1(), tree.root2(), 80,
          7000000 + static_cast<std::uint64_t>(p * 1000) * 4096 +
              static_cast<std::uint64_t>(n) * 100000);
      Summary probes;
      for (const TrialOutcome& o : outcomes) {
        EXPECT_TRUE(o.routed && o.path_valid) << "p=" << p << " n=" << n;
        probes.add(static_cast<double>(o.distinct_probes));
      }
      table.add_row({Table::fmt(p, 2), Table::fmt(n), Table::fmt(probes.median(), 0),
                     Table::fmt(probes.mean(), 0), Table::fmt(probes.quantile(0.9), 0)});
      xs.push_back(static_cast<double>(n));
      ys.push_back(probes.mean());
    }
    const LinearFit fit = semilog_fit(xs, ys);
    growth.push_back(std::exp(fit.slope));
    fits.add_row({Table::fmt(p, 2), Table::fmt(growth.back(), 3), Table::fmt(1.0 / p, 3),
                  Table::fmt(2.0 * p, 3), Table::fmt(fit.r_squared, 3)});
  }
  table.print("E4b: TT_n local routing complexity (Theorem 7: exponential in n)");
  fits.print(
      "E4b fits: per-level growth of mean probes (paper lower bound: >= 1/p per "
      "level; reachable-leaf heuristic suggests ~ 2p)");

  for (std::size_t i = 0; i < ps.size(); ++i) {
    // Band [1/p, 2]. Paper: >= 1/p (Theorem 7); a level has only twice the
    // vertices of the one above, so nothing grows faster than 2. kSeed:
    // 1.46, 1.58, 1.66 at p = 0.75, 0.80, 0.88 (1/p = 1.33, 1.25, 1.14).
    // Spread: 1.46-1.49, 1.53-1.59, 1.63-1.70.
    EXPECT_GE(growth[i], 1.0 / ps[i]) << "p=" << ps[i];
    EXPECT_LE(growth[i], 2.0) << "p=" << ps[i];
  }
}

// --------------------------------------------------------------------- E5

TEST(PaperClaims, E5DoubleTreePairedOracleIsLinearInDepth) {
  // Theorem 9: the paired-edge oracle router connects the roots of TT_n in
  // expected O(n) probes at p > 1/sqrt(2). Unconditioned: at depth 28 a
  // ground-truth BFS over 3 * 2^28 vertices is what the oracle router
  // avoids. The success rate is compared with the Galton-Watson survival
  // of mirrored branches, and probes are averaged over successes (Theorem
  // 9 conditions on success).
  const std::vector<int> depths = {8, 12, 16, 20, 24, 28};
  constexpr double kP = 0.80;
  constexpr int kTrials = 200;
  Table table({"n", "success_rate", "GW survival(p^2)", "mean_probes", "probes_per_n"});
  std::vector<double> xs;
  std::vector<double> ys;
  for (const int n : depths) {
    const DoubleBinaryTree tree(n);
    const std::vector<TrialOutcome> outcomes = run_trials(
        tree, kP, [&tree] { return std::make_unique<DoubleTreePairedOracleRouter>(tree); },
        tree.root1(), tree.root2(), kTrials, 9000000 + static_cast<std::uint64_t>(n) * 100000,
        std::nullopt, /*conditioned=*/false);
    Summary probes;
    for (const TrialOutcome& o : outcomes) {
      if (!o.routed) continue;
      EXPECT_TRUE(o.path_valid) << "n=" << n;
      probes.add(static_cast<double>(o.distinct_probes));
    }
    const double mean = probes.mean();
    table.add_row({Table::fmt(n),
                   Table::fmt(static_cast<double>(probes.count()) / kTrials, 3),
                   Table::fmt(BinaryGaltonWatson(kP * kP).survival_probability(), 3),
                   Table::fmt(mean, 1), Table::fmt(mean / static_cast<double>(n), 2)});
    xs.push_back(static_cast<double>(n));
    ys.push_back(mean);
  }
  table.print(
      "E5: TT_n paired-edge oracle router at p = 0.8 (Theorem 9: O(n) probes; "
      "probes_per_n should be ~ constant)");
  const LinearFit fit = log_log_fit(xs, ys);
  Table fitrow({"loglog_exponent (paper: 1.0)", "r2"});
  fitrow.add_row({Table::fmt(fit.slope, 2), Table::fmt(fit.r_squared, 3)});
  fitrow.print("E5 fit");

  // Band [0.9, 1.3]. Paper: 1. kSeed: 1.13. Spread: 1.06-1.13.
  EXPECT_GE(fit.slope, 0.9);
  EXPECT_LE(fit.slope, 1.3);
}

// --------------------------------------------------------------------- E6

TEST(PaperClaims, E6GnpLocalIsQuadraticAndOracleIsThreeHalves) {
  // Theorems 10 and 11, G(n, p) with p = c/n: local routing costs
  // Theta(n^2) probes (realised by the target-first flood router), the
  // bidirectional oracle router Theta(n^{3/2}), so the oracle beats local
  // by sqrt(n). Fit mean probes ~ n^exponent for each router.
  constexpr double kC = 3.0;  // mean degree, supercritical
  const std::vector<std::uint64_t> local_sizes = {500, 1000, 2000, 4000};
  const std::vector<std::uint64_t> oracle_sizes = {500, 1000, 2000, 4000, 8000};
  Table table({"router", "n", "mean_probes", "median_probes", "probes/n^2", "probes/n^1.5"});
  const auto sweep = [&](const std::string& name, const RouterFactory& make_router,
                         std::uint64_t stream_offset, const std::vector<std::uint64_t>& sizes,
                         std::vector<double>& ys) {
    for (const std::uint64_t n : sizes) {
      const CompleteGraph g(n);
      const ExperimentSummary s = measure(g, kC / static_cast<double>(n), make_router, 0,
                                          n - 1, 12, n * 31 + stream_offset);
      const double dn = static_cast<double>(n);
      table.add_row({name, Table::fmt(n), Table::fmt(s.mean_distinct, 0),
                     Table::fmt(s.median_distinct, 0),
                     Table::fmt(s.mean_distinct / (dn * dn), 4),
                     Table::fmt(s.mean_distinct / std::pow(dn, 1.5), 3)});
      ys.push_back(s.mean_distinct);
    }
  };
  std::vector<double> local_ys;
  std::vector<double> oracle_ys;
  sweep("local", [] { return std::make_unique<GnpLocalRouter>(); }, 0, local_sizes, local_ys);
  sweep("oracle", [] { return std::make_unique<GnpOracleRouter>(); }, 1, oracle_sizes,
        oracle_ys);
  table.print("E6: G_{n,c/n} routing complexity, c = 3 (local vs oracle)");

  const auto as_doubles = [](const std::vector<std::uint64_t>& v) {
    return std::vector<double>(v.begin(), v.end());
  };
  const LinearFit local_fit = log_log_fit(as_doubles(local_sizes), local_ys);
  const LinearFit oracle_fit = log_log_fit(as_doubles(oracle_sizes), oracle_ys);
  Table fits({"router", "loglog_exponent", "paper", "r2"});
  fits.add_row({"local", Table::fmt(local_fit.slope, 2), "2.0 (Thm 10)",
                Table::fmt(local_fit.r_squared, 3)});
  fits.add_row({"oracle", Table::fmt(oracle_fit.slope, 2), "1.5 (Thm 11)",
                Table::fmt(oracle_fit.r_squared, 3)});
  fits.print("E6 fits: complexity exponents");

  // local_sizes is a prefix of oracle_sizes, so row i pairs equal n.
  Table gap({"n", "local_mean", "oracle_mean", "gap", "sqrt(n)"});
  for (std::size_t i = 0; i < local_sizes.size(); ++i) {
    const double n = static_cast<double>(local_sizes[i]);
    gap.add_row({Table::fmt(n, 0), Table::fmt(local_ys[i], 0), Table::fmt(oracle_ys[i], 0),
                 Table::fmt(local_ys[i] / oracle_ys[i], 1), Table::fmt(std::sqrt(n), 1)});
  }
  gap.print("E6 gap: local/oracle ratio vs sqrt(n) (paper: gap = Theta(sqrt n))");

  // The two bands do not overlap, so swapping the routers fails both.
  // Local band [1.75, 2.6]. Paper: 2.0. kSeed: 2.09. Spread: 1.85-2.35.
  EXPECT_GE(local_fit.slope, 1.75);
  EXPECT_LE(local_fit.slope, 2.6);
  // Oracle band [1.25, 1.73]. Paper: 1.5. kSeed: 1.43. Spread: 1.43-1.62.
  EXPECT_GE(oracle_fit.slope, 1.25);
  EXPECT_LE(oracle_fit.slope, 1.73);
}

}  // namespace
}  // namespace faultroute
