#include <gtest/gtest.h>

#include "analysis/stats.hpp"
#include "core/probe_context.hpp"
#include "core/routers/flood_router.hpp"
#include "graph/hypercube.hpp"
#include "graph/mesh.hpp"
#include "percolation/cluster_analysis.hpp"
#include "percolation/node_fault_sampler.hpp"

namespace faultroute {
namespace {

TEST(NodeFaults, RejectsBadProbability) {
  const Hypercube g(4);
  EXPECT_THROW(NodeFaultSampler(g, -0.1, 0.5, 1), std::invalid_argument);
  EXPECT_THROW(NodeFaultSampler(g, 1.5, 0.5, 1), std::invalid_argument);
}

TEST(NodeFaults, AllAliveReducesToEdgePercolation) {
  const Hypercube g(6);
  const NodeFaultSampler node_sampler(g, 1.0, 0.5, 77);
  const HashEdgeSampler edge_only(0.5, 0);
  // Same marginal probability; exact equality is not expected (different
  // seeds), but every vertex must be alive.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(node_sampler.vertex_alive(v));
  }
  EXPECT_DOUBLE_EQ(node_sampler.survival_probability(), 0.5);
}

TEST(NodeFaults, DeadEndpointClosesAllIncidentEdges) {
  const Hypercube g(6);
  const NodeFaultSampler sampler(g, 0.5, 1.0, 123);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (sampler.vertex_alive(v)) continue;
    for (int i = 0; i < g.degree(v); ++i) {
      EXPECT_FALSE(sampler.is_open(g.edge_key(v, i)))
          << "edge at dead vertex " << v << " must be closed";
    }
  }
}

TEST(NodeFaults, EdgeOpenImpliesBothEndpointsAlive) {
  const Mesh g(2, 10);
  const NodeFaultSampler sampler(g, 0.7, 0.8, 5);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (int i = 0; i < g.degree(v); ++i) {
      if (!sampler.is_open(g.edge_key(v, i))) continue;
      EXPECT_TRUE(sampler.vertex_alive(v));
      EXPECT_TRUE(sampler.vertex_alive(g.neighbor(v, i)));
    }
  }
}

TEST(NodeFaults, MarginalRateMatchesProduct) {
  const Hypercube g(12);
  const double node_p = 0.8;
  const double edge_p = 0.6;
  const NodeFaultSampler sampler(g, node_p, edge_p, 99);
  // Sample pairwise vertex-disjoint edges (the dimension-0 perfect
  // matching), so the Bernoulli samples are genuinely independent and the
  // Wilson interval is valid — edges sharing an endpoint are correlated by
  // construction under node faults.
  std::uint64_t open = 0;
  std::uint64_t total = 0;
  for (VertexId v = 0; v < g.num_vertices(); v += 2) {
    ++total;
    open += sampler.is_open(g.edge_key(v, 0)) ? 1 : 0;
  }
  const Interval ci = wilson_interval(open, total, 4.0);
  EXPECT_TRUE(ci.contains(node_p * node_p * edge_p))
      << "rate " << static_cast<double>(open) / static_cast<double>(total);
}

TEST(NodeFaults, StatesAreCorrelatedThroughSharedEndpoints) {
  // Two edges sharing an endpoint are both closed whenever that endpoint is
  // dead: Pr[both open] > Pr[open]^2 (positive correlation). Estimate both.
  const Hypercube g(14);
  const NodeFaultSampler sampler(g, 0.6, 1.0, 3);
  std::uint64_t both = 0;
  std::uint64_t first = 0;
  std::uint64_t total = 0;
  for (VertexId v = 0; v < g.num_vertices(); v += 5) {
    ++total;
    const bool e0 = sampler.is_open(g.edge_key(v, 0));
    const bool e1 = sampler.is_open(g.edge_key(v, 1));
    first += e0 ? 1 : 0;
    both += (e0 && e1) ? 1 : 0;
  }
  const double p_one = static_cast<double>(first) / static_cast<double>(total);
  const double p_both = static_cast<double>(both) / static_cast<double>(total);
  EXPECT_GT(p_both, p_one * p_one * 1.2);  // clearly super-multiplicative
}

TEST(NodeFaults, DeterministicPerSeed) {
  const Mesh g(2, 8);
  const NodeFaultSampler a(g, 0.7, 0.7, 11);
  const NodeFaultSampler b(g, 0.7, 0.7, 11);
  const NodeFaultSampler c(g, 0.7, 0.7, 12);
  int diffs = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (int i = 0; i < g.degree(v); ++i) {
      const EdgeKey k = g.edge_key(v, i);
      EXPECT_EQ(a.is_open(k), b.is_open(k));
      if (a.is_open(k) != c.is_open(k)) ++diffs;
    }
  }
  EXPECT_GT(diffs, 0);
}

TEST(NodeFaults, RoutersWorkUnchangedUnderNodeFaults) {
  // The whole probe stack is sampler-agnostic: flood-route a mesh under
  // node faults and verify the returned path only uses live vertices.
  const Mesh g(2, 10);
  FloodRouter router;
  int routed = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const NodeFaultSampler sampler(g, 0.9, 0.9, seed);
    const auto connected = open_connected(g, sampler, 0, g.num_vertices() - 1);
    ProbeArena arena(g);
    ProbeContext ctx(arena, sampler, 0, RoutingMode::kLocal);
    const auto path = router.route(ctx, 0, g.num_vertices() - 1);
    EXPECT_EQ(path.has_value(), *connected);
    if (!path) continue;
    ++routed;
    for (const VertexId v : *path) EXPECT_TRUE(sampler.vertex_alive(v));
  }
  EXPECT_GT(routed, 0);
}

TEST(NodeFaults, ClusterAnalysisSeesNodePercolation) {
  // At node_p = 0.3 on a supercritical-edge mesh the graph shatters even
  // though edge_p = 1.
  const Mesh g(2, 24);
  const NodeFaultSampler heavy(g, 0.3, 1.0, 9);
  const NodeFaultSampler light(g, 0.95, 1.0, 9);
  EXPECT_LT(analyze_components(g, heavy).largest_fraction(), 0.1);
  EXPECT_GT(analyze_components(g, light).largest_fraction(), 0.7);
}

}  // namespace
}  // namespace faultroute
