#include <gtest/gtest.h>

#include "graph/double_tree.hpp"
#include "helpers/topology_checks.hpp"

namespace faultroute {
namespace {

using Side = DoubleBinaryTree::Side;

TEST(DoubleTree, RejectsBadDepth) {
  EXPECT_THROW(DoubleBinaryTree(0), std::invalid_argument);
  EXPECT_THROW(DoubleBinaryTree(31), std::invalid_argument);
  EXPECT_NO_THROW(DoubleBinaryTree(1));
}

TEST(DoubleTree, CountsAreExact) {
  // TT_n has 2^n leaves and 2 * (2^n - 1) internal nodes.
  const DoubleBinaryTree g(3);
  EXPECT_EQ(g.num_leaves(), 8u);
  EXPECT_EQ(g.num_vertices(), 3u * 8u - 2u);
  EXPECT_EQ(g.num_edges(), 2u * 14u);  // each tree has 2^{n+1} - 2 edges
}

TEST(DoubleTree, TinyInstance) {
  // n = 1: two leaves, two roots; each root adjacent to both leaves.
  const DoubleBinaryTree g(1);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(g.root1()), 2);
  EXPECT_EQ(g.degree(g.root2()), 2);
  EXPECT_EQ(g.degree(0), 2);
}

TEST(DoubleTree, RootsAndDegrees) {
  const DoubleBinaryTree g(4);
  EXPECT_EQ(g.degree(g.root1()), 2);
  EXPECT_EQ(g.degree(g.root2()), 2);
  for (VertexId leaf = 0; leaf < g.num_leaves(); ++leaf) EXPECT_EQ(g.degree(leaf), 2);
  // A non-root internal vertex has parent + two children.
  const VertexId internal = g.vertex_of_heap(2, Side::kTree1);
  EXPECT_EQ(g.degree(internal), 3);
}

TEST(DoubleTree, HeapRoundTrip) {
  const DoubleBinaryTree g(4);
  for (std::uint64_t h = 1; h < 2 * g.num_leaves(); ++h) {
    for (const Side side : {Side::kTree1, Side::kTree2}) {
      const VertexId v = g.vertex_of_heap(h, side);
      EXPECT_EQ(g.heap_index(v, side), h);
    }
  }
}

TEST(DoubleTree, LeavesAreSharedBetweenTrees) {
  const DoubleBinaryTree g(3);
  for (std::uint64_t h = g.num_leaves(); h < 2 * g.num_leaves(); ++h) {
    EXPECT_EQ(g.vertex_of_heap(h, Side::kTree1), g.vertex_of_heap(h, Side::kTree2));
  }
}

TEST(DoubleTree, LeafParentsAreMirrorNodes) {
  const DoubleBinaryTree g(3);
  for (VertexId leaf = 0; leaf < g.num_leaves(); ++leaf) {
    const VertexId p1 = g.neighbor(leaf, 0);
    const VertexId p2 = g.neighbor(leaf, 1);
    EXPECT_TRUE(g.is_internal(p1, Side::kTree1));
    EXPECT_TRUE(g.is_internal(p2, Side::kTree2));
    EXPECT_EQ(g.heap_index(p1, Side::kTree1), g.heap_index(p2, Side::kTree2));
  }
}

TEST(DoubleTree, MirrorEdgeKeysPairUp) {
  const DoubleBinaryTree g(4);
  for (std::uint64_t c = 2; c < 2 * g.num_leaves(); ++c) {
    const EdgeKey k1 = g.tree_edge_key(Side::kTree1, c);
    const EdgeKey k2 = g.tree_edge_key(Side::kTree2, c);
    EXPECT_NE(k1, k2);
    EXPECT_EQ(g.mirror_edge_key(k1), k2);
    EXPECT_EQ(g.mirror_edge_key(k2), k1);
  }
}

TEST(DoubleTree, RootToRootDistanceIsTwiceDepth) {
  for (const int n : {1, 2, 3, 4, 5}) {
    const DoubleBinaryTree g(n);
    EXPECT_EQ(g.distance(g.root1(), g.root2()), static_cast<std::uint64_t>(2 * n));
  }
}

TEST(DoubleTree, StructuralInvariants) {
  for (const int n : {1, 2, 3, 4, 6}) {
    SCOPED_TRACE(n);
    faultroute::testing::check_topology_invariants(DoubleBinaryTree(n));
  }
}

TEST(DoubleTree, NeighborDistancesFollowTheRowContract) {
  const DoubleBinaryTree g(4);
  auto pairs = faultroute::testing::random_vertex_pairs(g, 200, 17);
  pairs.emplace_back(g.root1(), g.root2());
  faultroute::testing::check_neighbor_distances(g, pairs);
}

TEST(DoubleTree, ShortestPathRootToRoot) {
  const DoubleBinaryTree g(4);
  faultroute::testing::check_shortest_path(g, {{g.root1(), g.root2()}});
}

class DoubleTreeDepthTest : public ::testing::TestWithParam<int> {};

TEST_P(DoubleTreeDepthTest, VertexLabelsDistinguishTrees) {
  const DoubleBinaryTree g(GetParam());
  EXPECT_EQ(g.vertex_label(g.root1()), "t1:h1");
  EXPECT_EQ(g.vertex_label(g.root2()), "t2:h1");
  EXPECT_EQ(g.vertex_label(0), "leaf:0");
}

TEST_P(DoubleTreeDepthTest, EveryLeafReachesBothRootsInDepthSteps) {
  const int n = GetParam();
  const DoubleBinaryTree g(n);
  for (VertexId leaf = 0; leaf < g.num_leaves(); leaf += 3) {
    EXPECT_EQ(g.distance(leaf, g.root1()), static_cast<std::uint64_t>(n));
    EXPECT_EQ(g.distance(leaf, g.root2()), static_cast<std::uint64_t>(n));
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, DoubleTreeDepthTest, ::testing::Values(1, 2, 3, 5));

}  // namespace
}  // namespace faultroute
