// The paper's results and the lemmas behind them, each as one fixed-seed
// gate.
//
// Every test reruns one experiment at full size, prints its tables, and
// asserts its result against a band:
//   E1   Theorem 3       hypercube: routing blows up across alpha = 1/2
//   E2   Lemma 5         hypercube ball: a fixed boundary vertex connects
//                        to the centre no more often than l! p^l
//   E3   Theorem 4       mesh above p_c: O(n) probes
//   E4b  Theorem 7       double tree, local router: >= p^{-n} probes
//   E5   Theorem 9       double tree, paired-edge oracle: O(n) probes
//   E6   Theorems 10+11  G(n, c/n): n^2 local, n^{3/2} oracle
//   E7a  AKS             hypercube giant component appears at p = 1/n
//   E9   Lemma 8         torus chemical distance: bounded stretch above p_c
//   E10  [3], Theorem 3  hypercube distortion: O(1) below alpha = 1/2
//   E11  Section 6       hypercube oracle routing: still exponential in n
// (E4a, Lemma 6's connectivity threshold, and E7b, the hypercube's giant
// and routing thresholds in order, are gated in test_integration; E7c,
// the mesh p_c, in test_percolation.)
//
// Each band's comment gives the paper's value, the value at kSeed, and the
// spread measured once over kSeed and seeds 1-5 (six runs). A result that
// leaves its band is a regression in a router, the sampler, the probe
// accounting, the percolation analyses or the conditioning, not seed noise.
// All routing trials run through run_routing_trials_parallel, whose
// outcomes do not depend on the thread count, so every printed number is
// reproducible.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "core/experiment.hpp"
#include "core/routers/bidirectional_router.hpp"
#include "core/routers/double_tree_routers.hpp"
#include "core/routers/gnp_routers.hpp"
#include "core/routers/landmark_router.hpp"
#include "graph/complete.hpp"
#include "graph/double_tree.hpp"
#include "graph/hypercube.hpp"
#include "graph/mesh.hpp"
#include "graph/vertex_marks.hpp"
#include "percolation/chemical_distance.hpp"
#include "percolation/cluster_analysis.hpp"
#include "percolation/edge_sampler.hpp"
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

// --------------------------------------------------------------------- E2

/// Whether `target` joins `centre` by an open path inside the Hamming ball
/// of radius `radius` around `centre`: BFS from the centre over open
/// in-ball edges, not expanded outwards from the boundary sphere. The
/// visited marks and the FIFO are pooled across calls.
bool connects_inside_ball(const Hypercube& cube, const EdgeSampler& sampler, VertexId centre,
                          VertexId target, int radius) {
  static thread_local VertexMarks seen;
  static thread_local std::vector<VertexId> queue;
  seen.begin(cube.num_vertices());
  seen.emplace(centre, centre);
  queue.assign(1, centre);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const VertexId x = queue[head];
    if (static_cast<int>(cube.distance(centre, x)) == radius) continue;
    for (int i = 0; i < cube.degree(x); ++i) {
      const VertexId y = cube.neighbor(x, i);
      if (static_cast<int>(cube.distance(centre, y)) > radius) continue;
      if (seen.contains(y) || !sampler.is_open(cube.edge_key(x, i))) continue;
      if (y == target) return true;
      seen.emplace(y, x);
      queue.push_back(y);
    }
  }
  return false;
}

/// Whether v ^ (2^l - 1) joins v by an open geodesic, a path that flips
/// each of the low l bits once: a walk up the 2^l subsets of flipped bits.
bool connects_along_a_geodesic(const Hypercube& cube, const EdgeSampler& sampler, VertexId v,
                               int l) {
  std::vector<char> reached(std::size_t{1} << l, 0);
  reached[0] = 1;
  for (std::size_t s = 1; s < reached.size(); ++s) {
    for (int b = 0; b < l && reached[s] == 0; ++b) {
      const std::size_t from = s & ~(std::size_t{1} << b);
      if (from != s && reached[from] != 0 && sampler.is_open(cube.edge_key(v ^ from, b))) {
        reached[s] = 1;
      }
    }
  }
  return reached.back() != 0;
}

TEST(PaperClaims, E2BallBoundaryVertexConnectsAtMostAsLemma5Allows) {
  // Lemma 5, the mechanism of Theorem 3(i): with S the ball of radius l
  // around the target v, the chance eta that a fixed vertex x at distance
  // l connects to v inside S is at most l! p^l / (1 - n l^2 p^2). The
  // leading term is the union bound over the l! geodesics from v to x;
  // the denominator sums the longer in-ball paths. For p = n^-alpha,
  // alpha > 1/2, eta decays super-polynomially in l, which forces a local
  // router to try ~ 1/eta boundary edges.
  const std::vector<int> dims = {12, 16, 20};
  const std::vector<double> alphas = {0.6, 0.7, 0.8};
  const std::vector<int> radii = {2, 3, 4};
  constexpr int kTrials = 3000;
  // 27 one-sided checks: at z = 3.5 each false alarm has chance < 2.4e-4.
  constexpr double kZ = 3.5;
  Table table({"n", "alpha", "l", "eta", "eta_geodesic", "geodesic_CI_low", "l!p^l",
               "full_bound"});
  int finite_rows = 0;
  for (const int n : dims) {
    const Hypercube cube(n);
    for (const double alpha : alphas) {
      const double p = sim::p_for_alpha(n, alpha);
      for (const int l : radii) {
        std::uint64_t hits = 0;
        std::uint64_t geodesic_hits = 0;
        for (int t = 0; t < kTrials; ++t) {
          const std::uint64_t seed =
              derive_seed(kSeed, static_cast<std::uint64_t>(n) * 1000000 +
                                     static_cast<std::uint64_t>(alpha * 1000) * 100 +
                                     static_cast<std::uint64_t>(l) * 10000 +
                                     static_cast<std::uint64_t>(t));
          const HashEdgeSampler sampler(p, seed);
          // A random centre and a fixed boundary vertex: flip the low l bits.
          Rng rng(seed);
          const VertexId v = uniform_below(rng, cube.num_vertices());
          hits += connects_inside_ball(cube, sampler, v, v ^ ((VertexId{1} << l) - 1), l) ? 1 : 0;
          geodesic_hits += connects_along_a_geodesic(cube, sampler, v, l) ? 1 : 0;
        }
        const double eta = static_cast<double>(hits) / kTrials;
        const Interval geodesic_ci = wilson_interval(geodesic_hits, kTrials, kZ);
        const double leading = std::tgamma(l + 1.0) * std::pow(p, l);
        // Positive only once n^{1-2 alpha} l^2 < 1: on 3 of the 27 rows.
        const double denom = 1.0 - static_cast<double>(n) * l * l * p * p;
        const double bound =
            denom > 0 ? leading / denom : std::numeric_limits<double>::infinity();
        table.add_row({Table::fmt(n), Table::fmt(alpha, 2), Table::fmt(l), Table::fmt(eta, 5),
                       Table::fmt(static_cast<double>(geodesic_hits) / kTrials, 5),
                       Table::fmt(geodesic_ci.low, 5), Table::fmt(leading, 5),
                       Table::fmt(bound, 5)});
        // A geodesic is an in-ball path.
        EXPECT_GE(hits, geodesic_hits) << "n=" << n << " alpha=" << alpha << " l=" << l;
        // Band: the geodesic share's Wilson lower limit (z = 3.5) <= l! p^l
        // on every row; the lower limit is the side that fails when the
        // sampler over-connects. Paper: the union bound over the l!
        // geodesics, valid at every n. kSeed: lower limit / l! p^l at most
        // 0.83 (n = 12, alpha = 0.6, l = 2). Spread: largest 0.83-0.89.
        // eta itself is not gated against l! p^l: it exceeds it on 17 of
        // 27 rows at kSeed (0.233 vs 0.062 at n = 12, alpha = 0.6, l = 4),
        // because paths longer than l count where n l^2 p^2 >= 1.
        EXPECT_LE(geodesic_ci.low, leading) << "n=" << n << " alpha=" << alpha << " l=" << l;
        // Band: eta <= the full bound where it is finite. Paper: Lemma 5.
        // kSeed: 0.036 <= 0.378, 0.024 <= 0.098, 0.016 <= 0.049 (alpha =
        // 0.8, l = 2 at n = 12, 16, 20). Spread: 0.034-0.040, 0.020-0.030,
        // 0.014-0.019.
        if (denom > 0) {
          ++finite_rows;
          EXPECT_LE(eta, bound) << "n=" << n << " alpha=" << alpha << " l=" << l;
        }
      }
    }
  }
  table.print(
      "E2: Pr[a fixed radius-l boundary vertex connects to v inside the ball], and "
      "along a geodesic (Lemma 5: eta <= l! p^l / (1 - n l^2 p^2))");
  EXPECT_EQ(finite_rows, 3);
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

// -------------------------------------------------------------------- E7a

TEST(PaperClaims, E7aHypercubeGiantComponentAppearsAtPOneOverN) {
  // Ajtai-Komlos-Szemeredi, the connectivity baseline the paper builds on:
  // at p = (1 + eps)/n the hypercube's percolation has a giant, Theta(2^n),
  // component for eps > 0 and only o(2^n) components for eps < 0. Mean
  // largest-cluster fraction over 8 environments per point.
  const std::vector<int> dims = {10, 12, 14};
  const std::vector<double> epsilons = {-0.5, -0.2, 0.0, 0.2, 0.5, 1.0, 2.0};
  constexpr int kTrials = 8;
  Table table({"n", "eps", "p=(1+eps)/n", "giant_fraction"});
  std::vector<std::vector<double>> giant(epsilons.size());  // [eps][n]
  for (const int n : dims) {
    const Hypercube cube(n);
    for (std::size_t e = 0; e < epsilons.size(); ++e) {
      const double eps = epsilons[e];
      const double p = (1.0 + eps) / static_cast<double>(n);
      Summary fraction;
      for (int t = 0; t < kTrials; ++t) {
        const std::uint64_t seed =
            derive_seed(kSeed, static_cast<std::uint64_t>(n) * 1000 +
                                   static_cast<std::uint64_t>((eps + 1.0) * 100) * 64 +
                                   static_cast<std::uint64_t>(t));
        fraction.add(analyze_components(cube, HashEdgeSampler(p, seed)).largest_fraction());
      }
      giant[e].push_back(fraction.mean());
      table.add_row({Table::fmt(n), Table::fmt(eps, 1), Table::fmt(p, 4),
                     Table::fmt(fraction.mean(), 4)});
    }
  }
  table.print("E7a: hypercube largest-cluster fraction at p = (1+eps)/n (AKS: giant iff eps > 0)");

  for (std::size_t e = 0; e < epsilons.size(); ++e) {
    if (epsilons[e] < 0) {
      // Band: the fraction falls strictly in n. Paper: o(1). kSeed: 0.0095,
      // 0.0037, 0.0010 at eps = -0.5 and 0.023, 0.010, 0.003 at eps = -0.2.
      // Spread: falling on all six seeds.
      EXPECT_GT(giant[e][0], giant[e][1]) << "eps=" << epsilons[e];
      EXPECT_GT(giant[e][1], giant[e][2]) << "eps=" << epsilons[e];
    } else if (epsilons[e] >= 0.5) {
      // Band: >= 0.4 at every n. Paper: Theta(1). kSeed: 0.51, 0.55, 0.56
      // at eps = 0.5; 0.81 and 0.96 at eps = 1 and 2. Spread: 0.51-0.57 at
      // eps = 0.5.
      for (std::size_t i = 0; i < dims.size(); ++i) {
        EXPECT_GE(giant[e][i], 0.4) << "eps=" << epsilons[e] << " n=" << dims[i];
      }
    }
  }
}

// --------------------------------------------------------------------- E9

TEST(PaperClaims, E9TorusChemicalDistanceStretchIsBoundedAbovePc) {
  // Lemma 8 (Antal-Pisztora): above p_c the chemical distance D(x, y) of
  // the percolated mesh is at most rho(p) d(x, y) outside an exponentially
  // unlikely event. On the 2D torus (p_c = 1/2), for pairs at distance n
  // conditioned on {x ~ y}, the stretch D/d should not grow with n, should
  // shrink towards 1 as p -> 1, and should have a thin upper tail.
  const Mesh torus(2, 128, /*wrap=*/true);
  const std::vector<double> ps = {0.55, 0.60, 0.70, 0.90};
  const std::vector<std::int64_t> distances = {16, 32, 48};
  constexpr int kTrials = 30;
  Table table({"p", "n", "mean_stretch", "median_stretch", "q95_stretch", "max_stretch",
               "reject_rate"});
  std::vector<std::vector<double>> mean(ps.size());  // [p][n]
  std::vector<std::vector<double>> tail(ps.size());  // q95 / median, [p][n]
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const double p = ps[i];
    for (const std::int64_t n : distances) {
      const VertexId u = torus.vertex_at({0, 0});
      const VertexId v = torus.vertex_at({n, 0});
      Summary stretch;
      std::uint64_t rejected = 0;
      for (std::uint64_t t = 0; stretch.count() < kTrials && t < 5000; ++t) {
        const std::uint64_t seed =
            derive_seed(kSeed, static_cast<std::uint64_t>(p * 1000) * 100000 +
                                   static_cast<std::uint64_t>(n) * 1000 + t);
        const std::optional<std::uint64_t> d =
            chemical_distance(torus, HashEdgeSampler(p, seed), u, v);
        if (!d.has_value()) {
          ++rejected;
          continue;
        }
        stretch.add(static_cast<double>(*d) / static_cast<double>(n));
      }
      ASSERT_EQ(stretch.count(), static_cast<std::size_t>(kTrials)) << "p=" << p << " n=" << n;
      mean[i].push_back(stretch.mean());
      tail[i].push_back(stretch.quantile(0.95) / stretch.median());
      table.add_row({Table::fmt(p, 2), Table::fmt(static_cast<std::uint64_t>(n)),
                     Table::fmt(stretch.mean(), 3), Table::fmt(stretch.median(), 3),
                     Table::fmt(stretch.quantile(0.95), 3), Table::fmt(stretch.max(), 3),
                     Table::fmt(static_cast<double>(rejected) /
                                    static_cast<double>(rejected + kTrials),
                                2)});
    }
  }
  table.print(
      "E9: chemical-distance stretch D(x,y)/d(x,y) on the 2D torus "
      "(Lemma 8: bounded stretch rho(p) with thin tails for all p > 1/2)");

  for (std::size_t i = 0; i < ps.size(); ++i) {
    if (ps[i] >= 0.6) {
      // Band: the mean stretch rises by at most 3% from n = 16 to 48.
      // Paper: rho(p), independent of n. kSeed: 1.84/1.64/1.56 at p = 0.6,
      // 1.40/1.33/1.30 at 0.7, 1.13/1.09/1.09 at 0.9 (ratio n = 48 over
      // n = 16: 0.85, 0.93, 0.96). Spread: ratio 0.82-0.92, 0.92-0.96,
      // 0.96-1.005; near p = 1 the stretch is flat up to noise.
      EXPECT_LE(mean[i].back(), 1.03 * mean[i].front()) << "p=" << ps[i];
      // Band: q95/median <= 2.1 at every n. Paper: exponentially thin tail.
      // kSeed: largest 2.08 (p = 0.6, n = 16). Spread: largest 1.46-2.08.
      for (std::size_t j = 0; j < distances.size(); ++j) {
        EXPECT_LE(tail[i][j], 2.1) << "p=" << ps[i] << " n=" << distances[j];
      }
    } else {
      // Near p_c the correlation length exceeds n = 16, so only a loose
      // band. Band: mean stretch <= 4 at every n. Paper: rho(0.55) is finite
      // but large. kSeed: 2.99, 2.23, 1.88. Spread: largest 2.20-2.99.
      for (std::size_t j = 0; j < distances.size(); ++j) {
        EXPECT_LE(mean[i][j], 4.0) << "p=" << ps[i] << " n=" << distances[j];
      }
    }
  }
  // Band: mean stretch <= 1.2 at p = 0.9, every n. Paper: rho(p) -> 1 as
  // p -> 1. kSeed: 1.13, 1.09, 1.09. Spread: largest 1.10-1.14.
  for (std::size_t j = 0; j < distances.size(); ++j) {
    EXPECT_LE(mean.back()[j], 1.2) << "p=" << ps.back() << " n=" << distances[j];
  }
  // Band: at n = 48 the mean stretch falls strictly in p. Paper: rho(p)
  // decreases to 1 as p -> 1. kSeed: 1.88, 1.56, 1.30, 1.09. Spread:
  // falling on all six seeds, smallest step 0.20 (p = 0.7 to 0.9).
  for (std::size_t i = 1; i < ps.size(); ++i) {
    EXPECT_LT(mean[i].back(), mean[i - 1].back()) << "p=" << ps[i];
  }
}

// -------------------------------------------------------------------- E10

TEST(PaperClaims, E10HypercubeDistortionIsConstantBelowAlphaHalf) {
  // The Angel-Benjamini distortion picture behind Theorem 3 ([3]): for
  // p = n^-alpha with alpha < 1/2 the hypercube embeds in its percolation
  // with constant distortion, for alpha > 1/2 it does not. Percolation
  // distance stretch D(u, v)/d(u, v) for random pairs at Hamming distance
  // >= n/2, over the pairs that connect.
  constexpr int kN = 14;
  const Hypercube cube(kN);
  const std::vector<double> alphas = {0.30, 0.45, 0.55, 0.70};
  constexpr int kTrials = 40;
  Table table({"alpha", "p", "mean_stretch", "median_stretch", "q90_stretch",
               "disconnected_frac"});
  std::vector<double> mean;
  for (const double alpha : alphas) {
    const double p = sim::p_for_alpha(kN, alpha);
    Summary stretch;
    int disconnected = 0;
    for (int t = 0; t < kTrials; ++t) {
      const std::uint64_t seed =
          derive_seed(kSeed, static_cast<std::uint64_t>(alpha * 1000) * 10000 +
                                 static_cast<std::uint64_t>(t));
      Rng rng(seed ^ 0xabcdefULL);
      const VertexId u = uniform_below(rng, cube.num_vertices());
      VertexId v = u;
      while (cube.distance(u, v) < kN / 2) v = uniform_below(rng, cube.num_vertices());
      const std::optional<std::uint64_t> d =
          chemical_distance(cube, HashEdgeSampler(p, seed), u, v);
      if (!d.has_value()) {
        ++disconnected;
        continue;
      }
      stretch.add(static_cast<double>(*d) / static_cast<double>(cube.distance(u, v)));
    }
    mean.push_back(stretch.mean());
    table.add_row({Table::fmt(alpha, 2), Table::fmt(p, 4), Table::fmt(stretch.mean(), 2),
                   Table::fmt(stretch.median(), 2), Table::fmt(stretch.quantile(0.9), 2),
                   Table::fmt(static_cast<double>(disconnected) / kTrials, 2)});
  }
  table.print(
      "E10: hypercube percolation-distance stretch vs alpha, n = 14 "
      "([3]: constant distortion for alpha < 1/2, unbounded above)");

  // Band: mean stretch <= 1.1 at alpha = 0.3. Paper: O(1), and geodesics
  // survive almost intact far below alpha = 1/2. kSeed: 1.02. Spread:
  // 1.00-1.02.
  EXPECT_LE(mean[0], 1.1);
  // Band: the mean stretch rises strictly in alpha. Paper: bounded below
  // 1/2, unbounded above. kSeed: 1.02, 1.10, 1.21, 1.79. Spread: rising
  // on all six seeds, smallest step 0.07 (alpha = 0.3 to 0.45).
  for (std::size_t i = 1; i < alphas.size(); ++i) {
    EXPECT_GT(mean[i], mean[i - 1]) << "alpha=" << alphas[i];
  }
}

// -------------------------------------------------------------------- E11

TEST(PaperClaims, E11HypercubeOracleRoutingStillGrowsExponentially) {
  // Section 6 conjectures that for 1/n < p < n^{-1/2} even oracle routing
  // on the hypercube is exponential in n. The best generic oracle router
  // here, bidirectional BFS (meet in the middle), against the local
  // landmark router between antipodes, on the same environments. The paper
  // gives no value, so this gates only the sign of each effect.
  const std::vector<int> dims = {10, 12, 14};
  const std::vector<double> alphas = {0.60, 0.70};
  Table table({"n", "alpha", "router", "median_probes", "censored", "growth_vs_prev_n"});
  for (const double alpha : alphas) {
    double prev_oracle = 0;
    for (const int n : dims) {
      const Hypercube cube(n);
      const double p = sim::p_for_alpha(n, alpha);
      const std::uint64_t stream =
          static_cast<std::uint64_t>(n) * 100 + static_cast<std::uint64_t>(alpha * 100);
      const ExperimentSummary local =
          measure(cube, p, landmark(), 0, cube.num_vertices() - 1, 15, stream, 200000);
      const ExperimentSummary oracle =
          measure(cube, p, [] { return std::make_unique<BidirectionalBfsRouter>(); }, 0,
                  cube.num_vertices() - 1, 15, stream, 200000);
      const double growth = prev_oracle > 0 ? oracle.median_distinct / prev_oracle : 0.0;
      const auto censored = [](const ExperimentSummary& s) {
        return Table::fmt(static_cast<double>(s.censored) / s.trials, 2);
      };
      table.add_row({Table::fmt(n), Table::fmt(alpha, 2), "local-landmark",
                     Table::fmt(local.median_distinct, 0), censored(local), "-"});
      table.add_row({Table::fmt(n), Table::fmt(alpha, 2), "oracle-bidirectional",
                     Table::fmt(oracle.median_distinct, 0), censored(oracle),
                     prev_oracle > 0 ? Table::fmt(growth, 2) : "-"});
      // Band: the oracle's median stays below the local router's on every
      // row. kSeed: oracle/local 0.22, 0.28, 0.36 at alpha = 0.6 and 0.22,
      // 0.17, 0.10 at 0.7. Spread: largest ratio 0.34-0.39.
      EXPECT_LT(oracle.median_distinct, local.median_distinct)
          << "n=" << n << " alpha=" << alpha;
      // Band: the oracle's median grows >= 2x per n += 2. Conjecture:
      // exponential in n. kSeed: 3.04, 4.11 at alpha = 0.6 and 3.19, 2.80
      // at 0.7. Spread: 2.03-4.11 (smallest: seed 5, alpha = 0.7, n = 14).
      if (prev_oracle > 0) {
        EXPECT_GE(growth, 2.0) << "n=" << n << " alpha=" << alpha;
      }
      prev_oracle = oracle.median_distinct;
    }
  }
  table.print(
      "E11: oracle (bidirectional BFS) vs local (landmark) routing between antipodes, "
      "1/2 < alpha < 1 (Section 6: oracle routing conjectured exponential too)");
}

}  // namespace
}  // namespace faultroute
