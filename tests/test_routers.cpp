#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/routers/bidirectional_router.hpp"
#include "core/routers/double_tree_routers.hpp"
#include "core/routers/flood_router.hpp"
#include "core/routers/gnp_routers.hpp"
#include "core/routers/greedy_router.hpp"
#include "core/routers/hybrid_router.hpp"
#include "core/routers/landmark_router.hpp"
#include "graph/complete.hpp"
#include "graph/de_bruijn.hpp"
#include "graph/distance_oracle.hpp"
#include "graph/double_tree.hpp"
#include "graph/hypercube.hpp"
#include "graph/mesh.hpp"
#include "helpers/reference_metric_routers.hpp"
#include "percolation/cluster_analysis.hpp"
#include "percolation/edge_sampler.hpp"
#include "percolation/shared_probe_cache.hpp"
#include "random/rng.hpp"

namespace faultroute {
namespace {

/// Routes u -> v and, when a path comes back, verifies it is a valid open
/// path. Returns the path.
std::optional<Path> route_and_check(Router& router, const Topology& g,
                                    const EdgeSampler& s, VertexId u, VertexId v) {
  ProbeArena arena(g);
  ProbeContext ctx(arena, s, u, router.required_mode());
  const auto path = router.route(ctx, u, v);
  if (path) {
    EXPECT_TRUE(is_valid_open_path(g, s, *path, u, v))
        << router.name() << " returned an invalid path on " << g.name();
  }
  return path;
}

// -------------------------------------------------- generic router contract

struct RouterCase {
  std::string label;
  std::shared_ptr<Router> router;
};

/// Routers that work on any topology, exercised on hypercube + mesh.
std::vector<RouterCase> generic_routers() {
  return {
      {"flood", std::make_shared<FloodRouter>()},
      {"flood-target-first", std::make_shared<FloodRouter>(true)},
      {"landmark", std::make_shared<LandmarkRouter>()},
      {"best-first", std::make_shared<BestFirstRouter>()},
      {"bidirectional", std::make_shared<BidirectionalBfsRouter>()},
  };
}

class GenericRouterTest : public ::testing::TestWithParam<RouterCase> {};

TEST_P(GenericRouterTest, FaultFreeHypercubeRoutes) {
  const Hypercube g(6);
  const HashEdgeSampler s(1.0, 1);
  Router& r = *GetParam().router;
  const auto path = route_and_check(r, g, s, 0, 63);
  ASSERT_TRUE(path.has_value());
  EXPECT_GE(path->size(), 7u);  // at least distance + 1 vertices
}

TEST_P(GenericRouterTest, FaultFreeMeshRoutes) {
  const Mesh g(2, 8);
  const HashEdgeSampler s(1.0, 2);
  Router& r = *GetParam().router;
  ASSERT_TRUE(route_and_check(r, g, s, 0, g.num_vertices() - 1).has_value());
}

TEST_P(GenericRouterTest, TrivialRouteToSelf) {
  const Hypercube g(4);
  const HashEdgeSampler s(0.5, 3);
  Router& r = *GetParam().router;
  const auto path = route_and_check(r, g, s, 9, 9);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, Path{9});
}

TEST_P(GenericRouterTest, DisconnectedReturnsNullopt) {
  const Hypercube g(4);
  ExplicitEdgeSampler s(false);  // every edge closed
  Router& r = *GetParam().router;
  EXPECT_FALSE(route_and_check(r, g, s, 0, 15).has_value());
}

TEST_P(GenericRouterTest, PercolatedMeshConnectedPairsAlwaysRouted) {
  // Completeness: whenever ground truth says u ~ v, the router finds a path.
  const Mesh g(2, 10);
  Router& r = *GetParam().router;
  if (r.name() == "greedy-descent") GTEST_SKIP();
  int connected_cases = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const HashEdgeSampler s(0.6, seed);
    const bool connected = *open_connected(g, s, 0, 99);
    const auto path = route_and_check(r, g, s, 0, 99);
    EXPECT_EQ(path.has_value(), connected) << "seed " << seed;
    connected_cases += connected ? 1 : 0;
  }
  EXPECT_GT(connected_cases, 0) << "test vacuous: no connected seeds";
}

TEST_P(GenericRouterTest, LocalRoutersSurviveEnforcement) {
  // Running under kLocal must not throw for local routers; oracle routers
  // declare themselves oracle.
  Router& r = *GetParam().router;
  const Hypercube g(7);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const HashEdgeSampler s(0.4, seed);
    ProbeArena arena(g);
    ProbeContext ctx(arena, s, 0, r.required_mode());
    EXPECT_NO_THROW(r.route(ctx, 0, 127)) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AllGeneric, GenericRouterTest,
                         ::testing::ValuesIn(generic_routers()),
                         [](const auto& param_info) {
                           std::string n = param_info.param.label;
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// -------------------------------------------------------------- FloodRouter

TEST(FloodRouter, FindsShortestPathWhenFullyOpen) {
  const Mesh g(2, 6);
  const HashEdgeSampler s(1.0, 1);
  FloodRouter r;
  const auto path = route_and_check(r, g, s, 0, g.num_vertices() - 1);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size() - 1, g.distance(0, g.num_vertices() - 1));  // BFS is shortest
}

TEST(FloodRouter, ExhaustsComponentWhenTargetIsBlocked) {
  // Target isolated: flood discovers every other vertex (one open probe per
  // discovery) and probes each of the target's closed edges before giving
  // up. Edges between two already-discovered vertices are skipped, so the
  // distinct count is exactly (V - 2) spanning probes + deg(target).
  const Hypercube g(4);
  ExplicitEdgeSampler s(true);
  for (int i = 0; i < g.degree(15); ++i) s.set(g.edge_key(15, i), false);
  FloodRouter r;
  ProbeArena arena(g);
  ProbeContext ctx(arena, s, 0, RoutingMode::kLocal);
  EXPECT_FALSE(r.route(ctx, 0, 15).has_value());
  EXPECT_EQ(ctx.distinct_probes(), (g.num_vertices() - 2) + 4);
}

// ----------------------------------------------------------- LandmarkRouter

TEST(LandmarkRouter, FollowsDetoursAroundFaults) {
  const Mesh g(2, 5);
  ExplicitEdgeSampler s(true);
  // Close the entire straight corridor from (0,0) towards (4,0).
  for (int x = 0; x < 4; ++x) {
    const VertexId a = g.vertex_at({x, 0});
    const VertexId b = g.vertex_at({x + 1, 0});
    s.set(g.edge_key(a, edge_index_of(g, a, b)), false);
  }
  LandmarkRouter r;
  const auto path = route_and_check(r, g, s, g.vertex_at({0, 0}), g.vertex_at({4, 0}));
  ASSERT_TRUE(path.has_value());
  EXPECT_GT(path->size() - 1, 4u);  // must have detoured
}

TEST(LandmarkRouter, CheapOnFaultFreeGraph) {
  // With no faults each landmark BFS terminates after probing around one
  // vertex: complexity O(distance * degree).
  const Hypercube g(10);
  const HashEdgeSampler s(1.0, 1);
  LandmarkRouter r;
  ProbeArena arena(g);
  ProbeContext ctx(arena, s, 0, RoutingMode::kLocal);
  const auto path = r.route(ctx, 0, (1ULL << 10) - 1);
  ASSERT_TRUE(path.has_value());
  EXPECT_LE(ctx.distinct_probes(), 10u * 10u);
}

TEST(LandmarkRouter, SkipsLandmarksWhenBfsOvershoots) {
  // The BFS may hit a landmark beyond the next one; the router must accept
  // it (the paper notes u_j "might be skipped over").
  const Mesh g(1, 8);  // a path graph: landmarks are all vertices
  ExplicitEdgeSampler s(true);
  LandmarkRouter r;
  const auto path = route_and_check(r, g, s, 0, 7);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 8u);
}

// ------------------------------------------------------------ Greedy family

TEST(GreedyDescent, RoutesFaultFreeHypercubeAlongShortestPath) {
  const Hypercube g(8);
  const HashEdgeSampler s(1.0, 1);
  GreedyDescentRouter r;
  ProbeArena arena(g);
  ProbeContext ctx(arena, s, 0, RoutingMode::kLocal);
  const auto path = r.route(ctx, 0, 255);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size() - 1, 8u);                 // exactly the Hamming distance
  EXPECT_EQ(ctx.distinct_probes(), 8u);            // one probe per step
}

TEST(GreedyDescent, GivesUpWhenStuck) {
  const Hypercube g(3);
  ExplicitEdgeSampler s(true);
  // Close every improving edge of the source: 0 -> {1,2,4} all closed.
  for (int i = 0; i < 3; ++i) s.set(g.edge_key(0, i), false);
  GreedyDescentRouter r;
  ProbeArena arena(g);
  ProbeContext ctx(arena, s, 0, RoutingMode::kLocal);
  EXPECT_FALSE(r.route(ctx, 0, 7).has_value());
}

TEST(BestFirst, BacktracksWhereGreedyFails) {
  const Hypercube g(3);
  ExplicitEdgeSampler s(true);
  // Kill the direct edge 0-1 towards target 1; best-first must go around.
  s.set(g.edge_key(0, 0), false);
  BestFirstRouter r;
  const auto path = route_and_check(r, g, s, 0, 1);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size() - 1, 3u);  // e.g. 0 -> 2 -> 3 -> 1
}

// ------------------------------------- metric routers vs the naive ranking

/// Passes queries to `base` and records each key asked for, in order: the
/// fresh probes of a context whose arena memoises repeats.
class LoggingSampler final : public EdgeSampler {
 public:
  explicit LoggingSampler(const EdgeSampler& base) : base_(base) {}
  [[nodiscard]] bool is_open(EdgeKey key) const override {
    keys_.push_back(key);
    return base_.is_open(key);
  }
  [[nodiscard]] double survival_probability() const override {
    return base_.survival_probability();
  }
  [[nodiscard]] const std::vector<EdgeKey>& keys() const { return keys_; }

 private:
  const EdgeSampler& base_;
  mutable std::vector<EdgeKey> keys_;
};

struct LoggedRoute {
  std::optional<Path> path;
  std::vector<EdgeKey> probes;  // distinct probes, in probe order
  std::uint64_t total_probes = 0;
  std::uint64_t expansions = 0;
};

using RouteFn = std::function<std::optional<Path>(ProbeContext&, VertexId, VertexId)>;

/// Routes u -> v in `env` on a fresh arena: a single-pair arena (implicit
/// adjacency, no distance oracle) or, with `csr`, a batch arena over the
/// CSR snapshot with v's oracle column attached.
LoggedRoute route_logged(const Topology& g, const EdgeSampler& env, bool csr,
                         const RouteFn& route, VertexId u, VertexId v) {
  const LoggingSampler log(env);
  LoggedRoute out;
  const auto run = [&](ProbeContext& ctx) {
    out.path = route(ctx, u, v);
    out.total_probes = ctx.total_probes();
    out.expansions = ctx.expansions();
  };
  if (csr) {
    const SharedProbeCache cache(log, g);
    ProbeArena arena(cache);
    const FlatAdjacency& flat = g.flat_adjacency();
    const DistanceOracle& oracle = flat.distance_oracle();
    oracle.ensure_targets({v});
    ProbeContext ctx(arena, u, RoutingMode::kLocal, std::nullopt, &flat, &oracle);
    EXPECT_NE(ctx.target_distances(v), nullptr) << g.name();
    run(ctx);
  } else {
    ProbeArena arena(g);
    ProbeContext ctx(arena, log, u, RoutingMode::kLocal);
    run(ctx);
  }
  out.probes = log.keys();
  return out;
}

TEST(MetricRouters, ProbeInTheOrderOfTheNaiveSortedRanking) {
  struct GraphCase {
    std::shared_ptr<Topology> graph;
    bool csr;
  };
  const auto debruijn = std::make_shared<DeBruijn>(6);
  const std::vector<GraphCase> graphs = {
      {std::make_shared<Hypercube>(8), false},
      {std::make_shared<Mesh>(2, 7, /*wrap=*/true), false},  // odd side: level neighbors
      {std::make_shared<Mesh>(2, 8), false},
      {debruijn, true},   // rows from the oracle column
      {debruijn, false},  // rows from the default neighbor_distances
  };
  GreedyDescentRouter greedy;
  BestFirstRouter best_first;
  HybridGreedyRouter hybrid;
  struct MetricRouterCase {
    Router& router;  // pooled across every pair, as in a traffic worker
    RouteFn reference;
  };
  const std::vector<MetricRouterCase> routers = {{greedy, reference::greedy_descent},
                                           {best_first, reference::best_first},
                                           {hybrid, reference::hybrid_greedy}};
  std::uint64_t routed = 0;
  for (const GraphCase& c : graphs) {
    const Topology& g = *c.graph;
    for (const double p : {0.45, 0.7}) {
      Rng rng(derive_seed(19, static_cast<std::uint64_t>(p * 100)));
      for (int pair = 0; pair < 25; ++pair) {
        const VertexId u = uniform_below(rng, g.num_vertices());
        const VertexId v = uniform_below(rng, g.num_vertices());
        const HashEdgeSampler env(p, derive_seed(23, static_cast<std::uint64_t>(pair)));
        for (const MetricRouterCase& r : routers) {
          SCOPED_TRACE(r.router.name() + " on " + g.name() + (c.csr ? " (CSR)" : " (implicit)") +
                       " p=" + std::to_string(p) + " " + std::to_string(u) + "->" +
                       std::to_string(v));
          const RouteFn library = [&r](ProbeContext& ctx, VertexId a, VertexId b) {
            return r.router.route(ctx, a, b);
          };
          const LoggedRoute got = route_logged(g, env, c.csr, library, u, v);
          const LoggedRoute want = route_logged(g, env, c.csr, r.reference, u, v);
          ASSERT_EQ(got.probes, want.probes);
          EXPECT_EQ(got.path, want.path);
          EXPECT_EQ(got.total_probes, want.total_probes);
          EXPECT_EQ(got.expansions, want.expansions);
          if (got.path) ++routed;
        }
      }
    }
  }
  EXPECT_GT(routed, 100u);  // not vacuous: many pairs routed, not all stuck
}

/// The path 0 - 1 - 2 - 3 with a neighbor_distances that breaks the graph
/// metric: every neighbor reads 3 further from the target than it is.
class SkewedRowPath final : public Topology {
 public:
  [[nodiscard]] std::uint64_t num_vertices() const override { return 4; }
  [[nodiscard]] std::uint64_t num_edges() const override { return 3; }
  [[nodiscard]] int degree(VertexId v) const override { return v == 0 || v == 3 ? 1 : 2; }
  [[nodiscard]] VertexId neighbor(VertexId v, int i) const override {
    return v == 0 || (v != 3 && i == 1) ? v + 1 : v - 1;
  }
  [[nodiscard]] EdgeKey edge_key(VertexId v, int i) const override {
    return std::min(v, neighbor(v, i));
  }
  [[nodiscard]] EdgeEndpoints endpoints(EdgeKey key) const override { return {key, key + 1}; }
  [[nodiscard]] std::string name() const override { return "skewed-row-path"; }
  void neighbor_distances(VertexId x, VertexId target, std::uint64_t* out) const override {
    Topology::neighbor_distances(x, target, out);
    for (int i = 0; i < degree(x); ++i) out[i] += 3;
  }
};

TEST(MetricRouters, RejectARowThatBreaksTheGraphMetric) {
  const SkewedRowPath g;
  const HashEdgeSampler s(1.0, 1);
  GreedyDescentRouter greedy;
  BestFirstRouter best_first;
  HybridGreedyRouter hybrid;
  for (Router* r : std::initializer_list<Router*>{&greedy, &best_first, &hybrid}) {
    ProbeArena arena(g);
    ProbeContext ctx(arena, s, 0, r->required_mode());
    try {
      (void)r->route(ctx, 0, 3);
      ADD_FAILURE() << r->name() << " accepted a row outside d +- 1";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("skewed-row-path"), std::string::npos) << e.what();
    }
  }
}

// ------------------------------------------------------- DoubleTree routers

TEST(DoubleTreeLocal, RequiresRootPair) {
  const DoubleBinaryTree g(3);
  const HashEdgeSampler s(1.0, 1);
  DoubleTreeLocalRouter r(g);
  ProbeArena arena(g);
  ProbeContext ctx(arena, s, 0, RoutingMode::kLocal);
  EXPECT_THROW(r.route(ctx, 0, 1), std::invalid_argument);
}

TEST(DoubleTreeLocal, FaultFreeRouteHasLengthTwoN) {
  const DoubleBinaryTree g(4);
  const HashEdgeSampler s(1.0, 1);
  DoubleTreeLocalRouter r(g);
  const auto path = route_and_check(r, g, s, g.root1(), g.root2());
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size() - 1, 8u);
}

TEST(DoubleTreeLocal, CompleteOnRootPairs) {
  const DoubleBinaryTree g(5);
  DoubleTreeLocalRouter r(g);
  int connected_cases = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const HashEdgeSampler s(0.8, seed);
    const bool connected = *open_connected(g, s, g.root1(), g.root2());
    ProbeArena arena(g);
    ProbeContext ctx(arena, s, g.root1(), RoutingMode::kLocal);
    const auto path = r.route(ctx, g.root1(), g.root2());
    EXPECT_EQ(path.has_value(), connected) << "seed " << seed;
    if (path) {
      EXPECT_TRUE(is_valid_open_path(g, s, *path, g.root1(), g.root2()));
    }
    connected_cases += connected ? 1 : 0;
  }
  EXPECT_GT(connected_cases, 5);
}

TEST(DoubleTreePairedOracle, FaultFreeRoute) {
  const DoubleBinaryTree g(5);
  const HashEdgeSampler s(1.0, 1);
  DoubleTreePairedOracleRouter r(g);
  const auto path = route_and_check(r, g, s, g.root1(), g.root2());
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size() - 1, 10u);
}

TEST(DoubleTreePairedOracle, FindsOnlyDoublyOpenBranches) {
  // Pin a single doubly-open branch; all other tree-1 edges closed. The
  // oracle router must find exactly that branch.
  const DoubleBinaryTree g(3);
  using Side = DoubleBinaryTree::Side;
  ExplicitEdgeSampler s(false);
  // Branch to leaf heap 8+3=11: heap chain 11 -> 5 -> 2 -> 1.
  for (std::uint64_t c = 11; c >= 2; c >>= 1) {
    s.set(g.tree_edge_key(Side::kTree1, c), true);
    s.set(g.tree_edge_key(Side::kTree2, c), true);
  }
  DoubleTreePairedOracleRouter r(g);
  const auto path = route_and_check(r, g, s, g.root1(), g.root2());
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size() - 1, 6u);
  EXPECT_EQ((*path)[3], g.vertex_of_heap(11, Side::kTree1));  // through leaf 3
}

TEST(DoubleTreePairedOracle, MissesSinglyOpenPaths) {
  // A branch open in tree 1 but closed in tree 2 is invisible to the paired
  // router even though a cleverer oracle could detect disconnection faster;
  // pairing trades completeness *guarantees* only when p(tree2) is open —
  // here no doubly-open branch exists, so the router reports failure.
  const DoubleBinaryTree g(3);
  using Side = DoubleBinaryTree::Side;
  ExplicitEdgeSampler s(false);
  for (std::uint64_t c = 11; c >= 2; c >>= 1) {
    s.set(g.tree_edge_key(Side::kTree1, c), true);  // tree 2 stays closed
  }
  DoubleTreePairedOracleRouter r(g);
  ProbeArena arena(g);
  ProbeContext ctx(arena, s, g.root1(), RoutingMode::kOracle);
  EXPECT_FALSE(r.route(ctx, g.root1(), g.root2()).has_value());
}

TEST(DoubleTreePairedOracle, AgreesWithGroundTruthStatistically) {
  // On random environments the paired router succeeds iff a doubly-open
  // branch exists, which (leaf identification aside) is exactly {x ~ y}
  // through mirrored branches. Compare success rate against ground truth.
  const DoubleBinaryTree g(6);
  DoubleTreePairedOracleRouter r(g);
  int router_hits = 0;
  int truth_hits = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const HashEdgeSampler s(0.85, seed);
    ProbeArena arena(g);
    ProbeContext ctx(arena, s, g.root1(), RoutingMode::kOracle);
    if (r.route(ctx, g.root1(), g.root2()).has_value()) ++router_hits;
    if (*open_connected(g, s, g.root1(), g.root2())) ++truth_hits;
  }
  // The mirrored-branch event implies connectivity but not conversely.
  EXPECT_LE(router_hits, truth_hits);
  EXPECT_GT(router_hits, 0);
}

// -------------------------------------------------------------- Gnp routers

TEST(GnpOracle, RequiresCompleteGraph) {
  const Hypercube g(3);
  const HashEdgeSampler s(1.0, 1);
  GnpOracleRouter r;
  ProbeArena arena(g);
  ProbeContext ctx(arena, s, 0, RoutingMode::kOracle);
  EXPECT_THROW(r.route(ctx, 0, 7), std::invalid_argument);
}

TEST(GnpOracle, RoutesFaultFreeClique) {
  const CompleteGraph g(12);
  const HashEdgeSampler s(1.0, 1);
  GnpOracleRouter r;
  const auto path = route_and_check(r, g, s, 3, 9);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 2u);  // the direct edge is a cross pair immediately
}

TEST(GnpOracle, CompleteOnSparseGnp) {
  const CompleteGraph g(60);
  GnpOracleRouter r;
  int connected_cases = 0;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const HashEdgeSampler s(3.0 / 60.0, seed);  // c = 3
    const bool connected = *open_connected(g, s, 0, 59);
    const auto path = route_and_check(r, g, s, 0, 59);
    EXPECT_EQ(path.has_value(), connected) << "seed " << seed;
    connected_cases += connected ? 1 : 0;
  }
  EXPECT_GT(connected_cases, 3);
}

TEST(GnpOracle, PooledStateMatchesAFreshRouterAcrossMessagesAndCliqueSizes) {
  // One router keeps its search state across messages; a fresh router per
  // message must route every pair identically, also when the clique size
  // changes between messages, the messages fail, or the budget cuts them.
  GnpOracleRouter pooled;
  int censored = 0;
  for (const std::uint64_t n : {64u, 24u, 64u}) {
    const CompleteGraph g(n);
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
      const HashEdgeSampler s(2.5 / static_cast<double>(n), seed);
      const auto u = static_cast<VertexId>(seed % n);
      const auto v = static_cast<VertexId>((seed * 7 + n / 2) % n);
      const std::optional<std::uint64_t> budget =
          seed % 4 == 3 ? std::optional<std::uint64_t>(40) : std::nullopt;
      const auto run = [&](Router& router, std::optional<Path>& path) {
        ProbeArena arena(g);
        ProbeContext ctx(arena, s, u, RoutingMode::kOracle, budget);
        try {
          path = router.route(ctx, u, v);
        } catch (const ProbeBudgetExceeded&) {
          path = Path{};  // censored: distinct from nullopt (disconnected)
        }
        return ctx.distinct_probes();
      };
      GnpOracleRouter fresh;
      std::optional<Path> pooled_path;
      std::optional<Path> fresh_path;
      const std::uint64_t pooled_probes = run(pooled, pooled_path);
      EXPECT_EQ(pooled_probes, run(fresh, fresh_path)) << "n " << n << " seed " << seed;
      EXPECT_EQ(pooled_path, fresh_path) << "n " << n << " seed " << seed;
      censored += pooled_path && pooled_path->empty() ? 1 : 0;
    }
  }
  EXPECT_GT(censored, 0);
}

TEST(GnpLocal, CompleteOnSparseGnp) {
  const CompleteGraph g(60);
  GnpLocalRouter r;
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const HashEdgeSampler s(3.0 / 60.0, seed);
    const bool connected = *open_connected(g, s, 0, 59);
    const auto path = route_and_check(r, g, s, 0, 59);
    EXPECT_EQ(path.has_value(), connected) << "seed " << seed;
  }
}

TEST(GnpOracleVsLocal, OracleProbesFewerOnAverage) {
  // The Theorem 10/11 gap, in miniature: oracle ~ n^1.5 beats local ~ n^2.
  const std::uint64_t n = 400;
  const CompleteGraph g(n);
  GnpLocalRouter local;
  GnpOracleRouter oracle;
  double local_total = 0;
  double oracle_total = 0;
  int cases = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const HashEdgeSampler s(3.0 / static_cast<double>(n), seed);
    if (!*open_connected(g, s, 0, n - 1)) continue;
    ProbeArena lctx_arena(g);
    ProbeContext lctx(lctx_arena, s, 0, RoutingMode::kLocal);
    ASSERT_TRUE(local.route(lctx, 0, n - 1).has_value());
    local_total += static_cast<double>(lctx.distinct_probes());
    ProbeArena octx_arena(g);
    ProbeContext octx(octx_arena, s, 0, RoutingMode::kOracle);
    ASSERT_TRUE(oracle.route(octx, 0, n - 1).has_value());
    oracle_total += static_cast<double>(octx.distinct_probes());
    ++cases;
  }
  ASSERT_GT(cases, 5);
  EXPECT_LT(oracle_total, local_total / 2.0);
}

}  // namespace
}  // namespace faultroute
