#include <gtest/gtest.h>

#include <bit>

#include "graph/hypercube.hpp"
#include "helpers/topology_checks.hpp"

namespace faultroute {
namespace {

TEST(Hypercube, RejectsBadDimension) {
  EXPECT_THROW(Hypercube(0), std::invalid_argument);
  EXPECT_THROW(Hypercube(41), std::invalid_argument);
  EXPECT_NO_THROW(Hypercube(1));
  EXPECT_NO_THROW(Hypercube(40));
}

TEST(Hypercube, CountsAreExact) {
  const Hypercube g(5);
  EXPECT_EQ(g.num_vertices(), 32u);
  EXPECT_EQ(g.num_edges(), 5u * 16u);
  EXPECT_EQ(g.degree(0), 5);
  EXPECT_EQ(g.dimension(), 5);
}

TEST(Hypercube, NeighborsFlipOneBit) {
  const Hypercube g(6);
  for (VertexId v = 0; v < g.num_vertices(); v += 7) {
    for (int i = 0; i < 6; ++i) {
      const VertexId w = g.neighbor(v, i);
      EXPECT_EQ(std::popcount(v ^ w), 1);
      EXPECT_EQ(v ^ w, 1ULL << i);
    }
  }
}

TEST(Hypercube, DistanceIsHamming) {
  const Hypercube g(8);
  EXPECT_EQ(g.distance(0, 0), 0u);
  EXPECT_EQ(g.distance(0, 255), 8u);
  EXPECT_EQ(g.distance(0b10110000, 0b10100001), 2u);
  EXPECT_EQ(g.distance(5, 5), 0u);
}

TEST(Hypercube, StructuralInvariants) {
  for (const int n : {1, 2, 3, 5, 8}) {
    SCOPED_TRACE(n);
    const Hypercube g(n);
    faultroute::testing::check_topology_invariants(g);
  }
}

TEST(Hypercube, NeighborDistancesFollowTheRowContract) {
  for (const int n : {1, 3, 8, 40}) {
    SCOPED_TRACE(n);
    const Hypercube g(n);
    auto pairs = faultroute::testing::random_vertex_pairs(g, 200, 11);
    pairs.emplace_back(0, 0);
    pairs.emplace_back(0, g.num_vertices() - 1);
    faultroute::testing::check_neighbor_distances(g, pairs);
  }
}

TEST(Hypercube, DistanceAgreesWithBfs) {
  const Hypercube g(6);
  faultroute::testing::check_distance_against_bfs(
      g, {{0, 63}, {0, 0}, {5, 40}, {17, 17}, {1, 62}});
}

TEST(Hypercube, ShortestPathsAreValid) {
  const Hypercube g(7);
  faultroute::testing::check_shortest_path(g, {{0, 127}, {3, 96}, {12, 12}, {1, 2}});
}

TEST(Hypercube, ShortestPathFlipsAscendingBits) {
  const Hypercube g(4);
  const auto path = g.shortest_path(0b0000, 0b1010);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], 0b0000u);
  EXPECT_EQ(path[1], 0b0010u);  // bit 1 flips before bit 3
  EXPECT_EQ(path[2], 0b1010u);
}

TEST(Hypercube, EdgeKeysAreCompact) {
  // Keys live in [0, n * 2^n): lower-vertex * n + bit.
  const Hypercube g(4);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (int i = 0; i < 4; ++i) {
      EXPECT_LT(g.edge_key(v, i), g.num_vertices() * 4);
    }
  }
}

TEST(Hypercube, ImplicitWorksAtHugeDimensions) {
  // No materialisation: adjacency of a 2^40-vertex graph is still O(1).
  const Hypercube g(40);
  const VertexId v = (1ULL << 39) | 12345;
  EXPECT_EQ(g.neighbor(v, 39), v ^ (1ULL << 39));
  EXPECT_EQ(g.distance(0, (1ULL << 40) - 1), 40u);
  EXPECT_EQ(g.edge_key(v, 0), (v ^ 1ULL) < v ? (v ^ 1ULL) * 40 : v * 40);
}

class HypercubeDimensionTest : public ::testing::TestWithParam<int> {};

TEST_P(HypercubeDimensionTest, HandshakeAndSymmetry) {
  const Hypercube g(GetParam());
  faultroute::testing::check_topology_invariants(g);
}

TEST_P(HypercubeDimensionTest, AntipodalDistanceIsN) {
  const int n = GetParam();
  const Hypercube g(n);
  EXPECT_EQ(g.distance(0, g.num_vertices() - 1), static_cast<std::uint64_t>(n));
}

INSTANTIATE_TEST_SUITE_P(SmallDims, HypercubeDimensionTest, ::testing::Values(1, 2, 3, 4, 6, 9));

}  // namespace
}  // namespace faultroute
