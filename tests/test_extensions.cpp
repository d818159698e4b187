#include <gtest/gtest.h>

#include <memory>

#include "core/experiment.hpp"
#include "core/probe_context.hpp"
#include "core/routers/hybrid_router.hpp"
#include "core/routers/landmark_router.hpp"
#include "graph/cube_connected_cycles.hpp"
#include "graph/double_tree.hpp"
#include "graph/hypercube.hpp"
#include "graph/mesh.hpp"
#include "helpers/topology_checks.hpp"
#include "percolation/cluster_analysis.hpp"
#include "percolation/edge_sampler.hpp"
#include "random/rng.hpp"
#include "sim/registry.hpp"
#include "sim/sweep.hpp"

namespace faultroute {
namespace {

// -------------------------------------------------- CubeConnectedCycles

TEST(CubeConnectedCycles, RejectsBadOrder) {
  EXPECT_THROW(CubeConnectedCycles(2), std::invalid_argument);
  EXPECT_THROW(CubeConnectedCycles(27), std::invalid_argument);
}

TEST(CubeConnectedCycles, CountsAreExact) {
  const CubeConnectedCycles g(3);
  EXPECT_EQ(g.num_vertices(), 3u * 8u);
  EXPECT_EQ(g.num_edges(), 3u * 8u + 3u * 4u);
  for (VertexId v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(g.degree(v), 3);
}

TEST(CubeConnectedCycles, RungFlipsCursorBit) {
  const CubeConnectedCycles g(4);
  const VertexId v = g.vertex_at(2, 0b0011);
  EXPECT_EQ(g.neighbor(v, 2), g.vertex_at(2, 0b0111));
  EXPECT_EQ(g.neighbor(g.neighbor(v, 2), 2), v);  // rung is an involution
}

TEST(CubeConnectedCycles, CycleEdgesStayInRow) {
  const CubeConnectedCycles g(5);
  for (VertexId v = 0; v < g.num_vertices(); v += 7) {
    EXPECT_EQ(g.row_of(g.neighbor(v, 0)), g.row_of(v));
    EXPECT_EQ(g.row_of(g.neighbor(v, 1)), g.row_of(v));
  }
}

TEST(CubeConnectedCycles, StructuralInvariants) {
  for (const int k : {3, 4, 5}) {
    SCOPED_TRACE(k);
    faultroute::testing::check_topology_invariants(CubeConnectedCycles(k));
  }
}

TEST(CubeConnectedCycles, NeighborDistancesFollowTheRowContract) {
  const CubeConnectedCycles g(4);
  faultroute::testing::check_neighbor_distances(
      g, faultroute::testing::random_vertex_pairs(g, 200, 13));
}

TEST(CubeConnectedCycles, DiameterIsLogarithmic) {
  const CubeConnectedCycles g(5);  // 160 vertices
  std::uint64_t max_dist = 0;
  for (VertexId v = 0; v < g.num_vertices(); v += 13) {
    max_dist = std::max(max_dist, g.distance(0, v));
  }
  // Known diameter of CCC(k) is ~ 2.5k; allow slack.
  EXPECT_LE(max_dist, 16u);
  EXPECT_GE(max_dist, 5u);
}

// ---------------------------------------------------------- HybridRouter

TEST(HybridRouter, FaultFreeEqualsGreedy) {
  const Hypercube g(8);
  const HashEdgeSampler s(1.0, 1);
  HybridGreedyRouter r;
  ProbeArena arena(g);
  ProbeContext ctx(arena, s, 0, RoutingMode::kLocal);
  const auto path = r.route(ctx, 0, 255);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size() - 1, 8u);
  EXPECT_EQ(ctx.distinct_probes(), 8u);  // never entered the repair phase
}

TEST(HybridRouter, CompleteUnderFaults) {
  const Mesh g(2, 10);
  HybridGreedyRouter r;
  int connected_cases = 0;
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const HashEdgeSampler s(0.6, seed);
    const bool connected = *open_connected(g, s, 0, 99);
    ProbeArena arena(g);
    ProbeContext ctx(arena, s, 0, RoutingMode::kLocal);
    const auto path = r.route(ctx, 0, 99);
    EXPECT_EQ(path.has_value(), connected) << seed;
    if (path) {
      EXPECT_TRUE(is_valid_open_path(g, s, *path, 0, 99));
    }
    connected_cases += connected ? 1 : 0;
  }
  EXPECT_GT(connected_cases, 5);
}

TEST(HybridRouter, NeverViolatesLocality) {
  const Hypercube g(9);
  HybridGreedyRouter r;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const HashEdgeSampler s(0.35, seed);
    ProbeArena arena(g);
    ProbeContext ctx(arena, s, 0, RoutingMode::kLocal);
    EXPECT_NO_THROW(r.route(ctx, 0, g.num_vertices() - 1));
  }
}

TEST(HybridRouter, CheaperThanLandmarkWhenFaultsAreLight) {
  const Hypercube g(12);
  HybridGreedyRouter hybrid;
  LandmarkRouter landmark;
  double hybrid_total = 0;
  double landmark_total = 0;
  int cases = 0;
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const HashEdgeSampler s(0.7, seed);  // light faults
    if (!*open_connected(g, s, 0, g.num_vertices() - 1)) continue;
    ++cases;
    ProbeArena hc_arena(g);
    ProbeContext hc(hc_arena, s, 0, RoutingMode::kLocal);
    ASSERT_TRUE(hybrid.route(hc, 0, g.num_vertices() - 1).has_value());
    hybrid_total += static_cast<double>(hc.distinct_probes());
    ProbeArena lc_arena(g);
    ProbeContext lc(lc_arena, s, 0, RoutingMode::kLocal);
    ASSERT_TRUE(landmark.route(lc, 0, g.num_vertices() - 1).has_value());
    landmark_total += static_cast<double>(lc.distinct_probes());
  }
  ASSERT_GT(cases, 5);
  EXPECT_LT(hybrid_total, landmark_total);

  // Section 3.2 remarks that greedy early stages should cut the cost. On
  // H_{14,p} at p = 14^-alpha the hybrid's median stays below landmark's
  // on both sides of alpha = 1/2 (hybrid/landmark 0.25, 0.30, 0.60, 0.62).
  const Hypercube h14(14);
  const VertexId antipode = h14.num_vertices() - 1;
  for (const double alpha : {0.25, 0.40, 0.55, 0.70}) {
    const double p = sim::p_for_alpha(14, alpha);
    ExperimentConfig config;
    config.trials = 15;
    config.probe_budget = 200000;
    config.base_seed = derive_seed(20050701, static_cast<std::uint64_t>(alpha * 1000));
    const ExperimentSummary hs = summarize_trials(run_routing_trials_parallel(
        h14, p, [] { return std::make_unique<HybridGreedyRouter>(); }, 0, antipode, config));
    const ExperimentSummary ls = summarize_trials(run_routing_trials_parallel(
        h14, p, [] { return std::make_unique<LandmarkRouter>(); }, 0, antipode, config));
    EXPECT_LT(hs.median_distinct, ls.median_distinct) << "alpha=" << alpha;
  }
}

// ------------------------------------------------------ Parallel trials

TEST(ParallelTrials, MatchesSequentialExactly) {
  const Mesh g(2, 8);
  LandmarkRouter router;
  ExperimentConfig config;
  config.trials = 16;
  config.base_seed = 42;
  const auto sequential = run_routing_trials(g, 0.6, router, 0, 63, config);
  const auto parallel = run_routing_trials_parallel(
      g, 0.6, [] { return std::make_unique<LandmarkRouter>(); }, 0, 63, config, 4);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].seed, parallel[i].seed);
    EXPECT_EQ(sequential[i].distinct_probes, parallel[i].distinct_probes);
    EXPECT_EQ(sequential[i].path_edges, parallel[i].path_edges);
  }
}

TEST(ParallelTrials, PropagatesErrors) {
  const Mesh g(2, 6);
  ExperimentConfig config;
  config.trials = 4;
  config.max_resample_attempts = 3;
  EXPECT_THROW(run_routing_trials_parallel(
                   g, 0.0, [] { return std::make_unique<LandmarkRouter>(); }, 0, 35,
                   config, 2),
               std::runtime_error);
}

// ------------------------------------------------------------- Registry

TEST(Registry, BuildsEveryAdvertisedTopology) {
  for (const auto& spec : sim::topology_spec_examples()) {
    SCOPED_TRACE(spec);
    const auto graph = sim::make_topology(spec);
    ASSERT_NE(graph, nullptr);
    EXPECT_GT(graph->num_vertices(), 0u);
    EXPECT_GT(graph->num_edges(), 0u);
  }
}

TEST(Registry, BuildsEveryAdvertisedRouter) {
  const auto tree = sim::make_topology("double_tree:4");
  const auto clique = sim::make_topology("complete:16");
  for (const auto& name : sim::router_names()) {
    SCOPED_TRACE(name);
    const Topology& host = name.rfind("double-tree", 0) == 0 ? *tree : *clique;
    const auto router = sim::make_router(name, host);
    ASSERT_NE(router, nullptr);
    EXPECT_EQ(router->name().empty(), false);
  }
}

TEST(Registry, RejectsMalformedSpecs) {
  EXPECT_THROW(sim::make_topology(""), std::invalid_argument);
  EXPECT_THROW(sim::make_topology("hypercube"), std::invalid_argument);
  EXPECT_THROW(sim::make_topology("hypercube:abc"), std::invalid_argument);
  EXPECT_THROW(sim::make_topology("klein_bottle:4"), std::invalid_argument);
  EXPECT_THROW(sim::make_topology("mesh:2"), std::invalid_argument);
}

TEST(Registry, RejectsRouterTopologyMismatch) {
  const auto cube = sim::make_topology("hypercube:4");
  EXPECT_THROW(sim::make_router("double-tree-local", *cube), std::invalid_argument);
  EXPECT_THROW(sim::make_router("warp-drive", *cube), std::invalid_argument);
}

TEST(Registry, SpecsRoundTripThroughNames) {
  const auto g = sim::make_topology("torus:2:5");
  EXPECT_EQ(g->name(), "torus(d=2,side=5)");
  const auto h = sim::make_topology("ccc:4");
  EXPECT_EQ(h->name(), "ccc(k=4)");
}

}  // namespace
}  // namespace faultroute
