#include <gtest/gtest.h>

#include "graph/mesh.hpp"
#include "helpers/topology_checks.hpp"

namespace faultroute {
namespace {

TEST(Mesh, RejectsBadParameters) {
  EXPECT_THROW(Mesh(0, 4), std::invalid_argument);
  EXPECT_THROW(Mesh(9, 4), std::invalid_argument);
  EXPECT_THROW(Mesh(2, 1), std::invalid_argument);
  EXPECT_THROW(Mesh(2, 2, /*wrap=*/true), std::invalid_argument);  // parallel edges
  EXPECT_NO_THROW(Mesh(2, 2, /*wrap=*/false));
  EXPECT_NO_THROW(Mesh(3, 3, /*wrap=*/true));
}

TEST(Mesh, SlotsOutsideTheRowAreRefused) {
  // The torus resolves a virtual slot from its index alone, the mesh by
  // decoding the axes up to the slot's; both refuse a slot the row does not
  // have.
  const Mesh torus(3, 4, /*wrap=*/true);
  const Mesh mesh(3, 4);
  for (const int slot : {-1, 6}) {
    EXPECT_THROW((void)torus.neighbor(5, slot), std::out_of_range) << slot;
    EXPECT_THROW((void)torus.edge_key(5, slot), std::out_of_range) << slot;
  }
  EXPECT_THROW((void)mesh.neighbor(0, 3), std::out_of_range);  // a corner has 3 slots
  EXPECT_THROW((void)mesh.edge_key(0, 3), std::out_of_range);
  const VertexId interior = mesh.vertex_at({1, 2, 1});  // 6 slots
  for (const int slot : {-1, 6}) {
    EXPECT_THROW((void)mesh.neighbor(interior, slot), std::out_of_range) << slot;
    EXPECT_THROW((void)mesh.edge_key(interior, slot), std::out_of_range) << slot;
  }
}

TEST(Mesh, CountsAreExact) {
  const Mesh g(2, 4);
  EXPECT_EQ(g.num_vertices(), 16u);
  EXPECT_EQ(g.num_edges(), 2u * 4u * 3u);  // 2 axes * 4 lines * 3 edges each
  const Mesh t(2, 4, /*wrap=*/true);
  EXPECT_EQ(t.num_edges(), 2u * 4u * 4u);
}

TEST(Mesh, CoordinateRoundTrip) {
  const Mesh g(3, 5);
  for (VertexId v = 0; v < g.num_vertices(); v += 11) {
    EXPECT_EQ(g.vertex_at(g.coords_of(v)), v);
  }
}

TEST(Mesh, CornerAndInteriorDegrees) {
  const Mesh g(2, 4);
  EXPECT_EQ(g.degree(g.vertex_at({0, 0})), 2);    // corner
  EXPECT_EQ(g.degree(g.vertex_at({1, 0})), 3);    // boundary
  EXPECT_EQ(g.degree(g.vertex_at({1, 1})), 4);    // interior
  const Mesh t(2, 4, /*wrap=*/true);
  for (VertexId v = 0; v < t.num_vertices(); ++v) EXPECT_EQ(t.degree(v), 4);
}

TEST(Mesh, DistanceIsL1) {
  const Mesh g(2, 10);
  EXPECT_EQ(g.distance(g.vertex_at({0, 0}), g.vertex_at({3, 4})), 7u);
  EXPECT_EQ(g.distance(g.vertex_at({9, 9}), g.vertex_at({9, 9})), 0u);
}

TEST(Mesh, TorusDistanceWraps) {
  const Mesh t(1, 10, /*wrap=*/true);
  EXPECT_EQ(t.distance(0, 9), 1u);
  EXPECT_EQ(t.distance(0, 5), 5u);
  const Mesh t2(2, 8, /*wrap=*/true);
  EXPECT_EQ(t2.distance(t2.vertex_at({0, 0}), t2.vertex_at({7, 7})), 2u);
}

TEST(Mesh, StructuralInvariants) {
  faultroute::testing::check_topology_invariants(Mesh(1, 6));
  faultroute::testing::check_topology_invariants(Mesh(2, 5));
  faultroute::testing::check_topology_invariants(Mesh(3, 3));
  faultroute::testing::check_topology_invariants(Mesh(2, 5, /*wrap=*/true));
  faultroute::testing::check_topology_invariants(Mesh(3, 3, /*wrap=*/true));
  faultroute::testing::check_topology_invariants(Mesh(4, 3));
}

TEST(Mesh, NeighborDistancesFollowTheRowContract) {
  // Every vertex of the small meshes as x, so corners and edges are all
  // covered; tori with odd sides (level neighbors) and even ones.
  const std::vector<Mesh> graphs = {Mesh(1, 6),       Mesh(2, 5),       Mesh(3, 4),
                                    Mesh(2, 2),       Mesh(2, 5, true), Mesh(2, 6, true),
                                    Mesh(3, 3, true), Mesh(3, 4, true), Mesh(1, 7, true)};
  for (const Mesh& g : graphs) {
    SCOPED_TRACE(g.name());
    auto pairs = faultroute::testing::random_vertex_pairs(g, 100, 7);
    for (VertexId x = 0; x < g.num_vertices(); ++x) {
      pairs.emplace_back(x, (x * 7 + 3) % g.num_vertices());
      pairs.emplace_back(x, x);
    }
    faultroute::testing::check_neighbor_distances(g, pairs);
  }
}

TEST(Mesh, DistanceAgreesWithBfs) {
  const Mesh g(2, 6);
  faultroute::testing::check_distance_against_bfs(
      g, {{0, 35}, {0, 0}, {7, 28}, {5, 30}});
  const Mesh t(2, 5, /*wrap=*/true);
  faultroute::testing::check_distance_against_bfs(t, {{0, 24}, {0, 12}, {3, 20}});
}

TEST(Mesh, ShortestPathsAreValid) {
  const Mesh g(3, 4);
  faultroute::testing::check_shortest_path(g, {{0, 63}, {5, 5}, {1, 62}});
  const Mesh t(2, 7, /*wrap=*/true);
  faultroute::testing::check_shortest_path(t, {{0, 48}, {0, 6}, {10, 40}});
}

TEST(Mesh, LabelsShowCoordinates) {
  const Mesh g(2, 4);
  EXPECT_EQ(g.vertex_label(g.vertex_at({3, 1})), "(3,1)");
}

TEST(Mesh, HugeMeshIsImplicit) {
  // 2^60-ish vertices, still O(1) adjacency.
  const Mesh g(4, 32768);
  const VertexId v = g.vertex_at({5, 7, 11, 13});
  EXPECT_EQ(g.coords_of(v)[2], 11);
  EXPECT_EQ(g.distance(0, v), 5u + 7u + 11u + 13u);
}

struct MeshCase {
  int dim;
  std::int64_t side;
  bool wrap;
};

class MeshPropertyTest : public ::testing::TestWithParam<MeshCase> {};

TEST_P(MeshPropertyTest, Invariants) {
  const auto& c = GetParam();
  const Mesh g(c.dim, c.side, c.wrap);
  faultroute::testing::check_topology_invariants(g);
}

TEST_P(MeshPropertyTest, PathBetweenOppositeCorners) {
  const auto& c = GetParam();
  const Mesh g(c.dim, c.side, c.wrap);
  faultroute::testing::check_shortest_path(g, {{0, g.num_vertices() - 1}});
}

INSTANTIATE_TEST_SUITE_P(Shapes, MeshPropertyTest,
                         ::testing::Values(MeshCase{1, 9, false}, MeshCase{1, 9, true},
                                           MeshCase{2, 3, false}, MeshCase{2, 3, true},
                                           MeshCase{2, 8, false}, MeshCase{3, 4, false},
                                           MeshCase{3, 4, true}, MeshCase{4, 3, true}));

}  // namespace
}  // namespace faultroute
