#include <gtest/gtest.h>

#include <algorithm>

#include "core/probe_context.hpp"
#include "core/routers/landmark_router.hpp"
#include "graph/hypercube.hpp"
#include "graph/mesh.hpp"
#include "percolation/cluster_analysis.hpp"
#include "percolation/edge_sampler.hpp"
#include "percolation/override_sampler.hpp"

namespace faultroute {
namespace {

TEST(OverrideSampler, PassesThroughByDefault) {
  const HashEdgeSampler base(0.5, 1);
  const OverrideSampler sampler(base);
  for (EdgeKey k = 0; k < 500; ++k) EXPECT_EQ(sampler.is_open(k), base.is_open(k));
}

TEST(OverrideSampler, ForcesIndividualEdges) {
  const HashEdgeSampler base(1.0, 1);
  OverrideSampler sampler(base);
  sampler.force(7, false);
  sampler.force(9, true);
  EXPECT_FALSE(sampler.is_open(7));
  EXPECT_TRUE(sampler.is_open(9));
  EXPECT_TRUE(sampler.is_open(8));
  sampler.force(7, true);  // later settings win
  EXPECT_TRUE(sampler.is_open(7));
  EXPECT_EQ(sampler.num_overrides(), 2u);
}

TEST(OverrideSampler, CloseAllBatches) {
  const HashEdgeSampler base(1.0, 1);
  OverrideSampler sampler(base);
  sampler.close_all({1, 2, 3});
  EXPECT_FALSE(sampler.is_open(1));
  EXPECT_FALSE(sampler.is_open(2));
  EXPECT_FALSE(sampler.is_open(3));
  EXPECT_TRUE(sampler.is_open(4));
}

TEST(OverrideSampler, IncidentCutIsolatesAVertex) {
  const Hypercube g(5);
  const HashEdgeSampler base(1.0, 1);
  OverrideSampler sampler(base);
  sampler.close_all(incident_cut(g, 31));
  EXPECT_EQ(sampler.num_overrides(), 5u);
  EXPECT_FALSE(*open_connected(g, sampler, 0, 31));
  EXPECT_TRUE(*open_connected(g, sampler, 0, 30));
}

TEST(OverrideSampler, BallCoversTheRightEdges) {
  const Mesh g(2, 7);
  const VertexId center = g.vertex_at({3, 3});
  const auto keys0 = edges_within_ball(g, center, 0);
  EXPECT_EQ(keys0.size(), 4u);  // just the centre's incident edges
  const auto keys1 = edges_within_ball(g, center, 1);
  // centre 4 edges + each neighbour's 3 other edges = 16 distinct.
  EXPECT_EQ(keys1.size(), 16u);
  for (const EdgeKey k : keys0) {
    EXPECT_NE(std::find(keys1.begin(), keys1.end(), k), keys1.end());
  }
}

TEST(OverrideSampler, RegionalOutageForcesDetour) {
  // Close a radius-1 ball in the middle of a fault-free grid: routing still
  // succeeds but the path must avoid the dead region.
  const Mesh g(2, 9);
  const HashEdgeSampler base(1.0, 1);
  OverrideSampler sampler(base);
  const VertexId center = g.vertex_at({4, 4});
  sampler.close_all(edges_within_ball(g, center, 1));
  LandmarkRouter router;
  ProbeArena arena(g);
  ProbeContext ctx(arena, sampler, 0, RoutingMode::kLocal);
  const auto path = router.route(ctx, 0, g.num_vertices() - 1);
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(is_valid_open_path(g, sampler, *path, 0, g.num_vertices() - 1));
  for (const VertexId v : *path) {
    EXPECT_GT(g.distance(v, center), 1u) << "path entered the outage region";
  }
}

TEST(OverrideSampler, AdversaryOnTopOfRandomFaults) {
  // Worst-case + random combined: the override layer composes with the
  // percolation environment.
  const Mesh g(2, 9);
  const HashEdgeSampler base(0.8, 5);
  OverrideSampler sampler(base);
  sampler.close_all(edges_within_ball(g, g.vertex_at({4, 4}), 1));
  int open_forced = 0;
  for (const EdgeKey k : edges_within_ball(g, g.vertex_at({4, 4}), 1)) {
    open_forced += sampler.is_open(k) ? 1 : 0;
  }
  EXPECT_EQ(open_forced, 0);
  EXPECT_DOUBLE_EQ(sampler.survival_probability(), 0.8);
}

}  // namespace
}  // namespace faultroute
