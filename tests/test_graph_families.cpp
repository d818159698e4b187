#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/butterfly.hpp"
#include "graph/channel_index.hpp"
#include "graph/complete.hpp"
#include "graph/cycle_matching.hpp"
#include "graph/de_bruijn.hpp"
#include "graph/explicit_graph.hpp"
#include "graph/hypercube.hpp"
#include "graph/shuffle_exchange.hpp"
#include "helpers/reference_edge_ids.hpp"
#include "helpers/topology_checks.hpp"
#include "obs/counter_registry.hpp"
#include "sim/registry.hpp"

namespace faultroute {
namespace {

// ---------------------------------------------------------------- Complete

TEST(CompleteGraph, CountsAndDegrees) {
  const CompleteGraph g(6);
  EXPECT_EQ(g.num_vertices(), 6u);
  EXPECT_EQ(g.num_edges(), 15u);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 5);
}

TEST(CompleteGraph, NeighborEnumerationSkipsSelf) {
  const CompleteGraph g(5);
  EXPECT_EQ(g.neighbor(2, 0), 0u);
  EXPECT_EQ(g.neighbor(2, 1), 1u);
  EXPECT_EQ(g.neighbor(2, 2), 3u);
  EXPECT_EQ(g.neighbor(2, 3), 4u);
}

TEST(CompleteGraph, IndexOfIsInverseOfNeighbor) {
  const CompleteGraph g(9);
  for (VertexId v = 0; v < 9; ++v) {
    for (int i = 0; i < g.degree(v); ++i) {
      EXPECT_EQ(g.index_of(v, g.neighbor(v, i)), i);
    }
  }
}

TEST(CompleteGraph, StructuralInvariants) {
  faultroute::testing::check_topology_invariants(CompleteGraph(2));
  faultroute::testing::check_topology_invariants(CompleteGraph(7));
}

TEST(CompleteGraph, NeighborDistancesFollowTheRowContract) {
  for (const std::uint64_t n : {2ULL, 7ULL, 64ULL}) {
    const CompleteGraph g(n);
    auto pairs = faultroute::testing::random_vertex_pairs(g, 100, 3);
    pairs.emplace_back(0, 0);
    pairs.emplace_back(0, n - 1);
    pairs.emplace_back(n - 1, 0);
    faultroute::testing::check_neighbor_distances(g, pairs);
  }
}

TEST(CompleteGraph, DistanceIsZeroOrOne) {
  const CompleteGraph g(4);
  EXPECT_EQ(g.distance(1, 1), 0u);
  EXPECT_EQ(g.distance(1, 3), 1u);
  faultroute::testing::check_shortest_path(g, {{0, 3}, {2, 2}});
}

// ---------------------------------------------------------------- De Bruijn

TEST(DeBruijn, DegreesAreAtMostFour) {
  const DeBruijn g(4);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_GE(g.degree(v), 1);
    EXPECT_LE(g.degree(v), 4);
  }
}

TEST(DeBruijn, ShiftNeighborsArePresent) {
  const DeBruijn g(4);  // 16 vertices
  // 5 = 0101 -> shifts 1010 (=10) and 1011 (=11); back-shifts 0010, 1010.
  const VertexId v = 5;
  bool has10 = false;
  bool has2 = false;
  for (int i = 0; i < g.degree(v); ++i) {
    if (g.neighbor(v, i) == 10) has10 = true;
    if (g.neighbor(v, i) == 2) has2 = true;
  }
  EXPECT_TRUE(has10);
  EXPECT_TRUE(has2);
}

TEST(DeBruijn, StructuralInvariants) {
  for (const int k : {2, 3, 4, 6}) {
    SCOPED_TRACE(k);
    faultroute::testing::check_topology_invariants(DeBruijn(k));
  }
}

TEST(DeBruijn, DiameterIsAtMostOrder) {
  // In the directed DB graph any vertex is reachable in k shifts; the
  // undirected version can only be shorter.
  const DeBruijn g(5);
  EXPECT_LE(g.distance(0, g.num_vertices() - 1), 5u);
  EXPECT_LE(g.distance(7, 21), 5u);
}

// ---------------------------------------------------------- ShuffleExchange

TEST(ShuffleExchange, DegreesAreAtMostThree) {
  const ShuffleExchange g(4);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_GE(g.degree(v), 1);
    EXPECT_LE(g.degree(v), 3);
  }
}

TEST(ShuffleExchange, RotationsAreInverse) {
  const ShuffleExchange g(5);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(g.rotate_right(g.rotate_left(v)), v);
    EXPECT_EQ(g.rotate_left(g.rotate_right(v)), v);
  }
}

TEST(ShuffleExchange, ExchangeNeighborPresent) {
  const ShuffleExchange g(4);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_GE(edge_index_of(g, v, v ^ 1ULL), 0);
  }
}

TEST(ShuffleExchange, StructuralInvariants) {
  for (const int k : {2, 3, 4, 6}) {
    SCOPED_TRACE(k);
    faultroute::testing::check_topology_invariants(ShuffleExchange(k));
  }
}

// ----------------------------------------------------------------- Butterfly

TEST(Butterfly, CountsAreExact) {
  const Butterfly g(3);
  EXPECT_EQ(g.num_vertices(), 3u * 8u);
  EXPECT_EQ(g.num_edges(), 2u * 3u * 8u);
  for (VertexId v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(g.degree(v), 4);
}

TEST(Butterfly, LevelRowRoundTrip) {
  const Butterfly g(4);
  for (int level = 0; level < 4; ++level) {
    for (std::uint64_t row = 0; row < g.rows(); row += 5) {
      const VertexId v = g.vertex_at(level, row);
      EXPECT_EQ(g.level_of(v), level);
      EXPECT_EQ(g.row_of(v), row);
    }
  }
}

TEST(Butterfly, UpEdgesFlipTheLevelBit) {
  const Butterfly g(3);
  const VertexId v = g.vertex_at(1, 0b010);
  EXPECT_EQ(g.neighbor(v, 0), g.vertex_at(2, 0b010));          // straight
  EXPECT_EQ(g.neighbor(v, 1), g.vertex_at(2, 0b010 ^ 0b010));  // cross flips bit 1
}

TEST(Butterfly, StructuralInvariants) {
  // k = 2 is a multigraph (wrap-around parallel edges) and must still
  // satisfy the pairing invariants; k >= 3 is simple.
  for (const int k : {2, 3, 4}) {
    SCOPED_TRACE(k);
    faultroute::testing::check_topology_invariants(Butterfly(k));
  }
}

TEST(Butterfly, WrapAroundConnectsTopToBottom) {
  const Butterfly g(3);
  const VertexId top = g.vertex_at(2, 5);
  const VertexId bottom = g.vertex_at(0, 5);
  EXPECT_GE(edge_index_of(g, top, bottom), 0);
}

// ----------------------------------------------------------- CycleMatching

TEST(CycleMatching, RejectsBadSizes) {
  EXPECT_THROW(CycleWithMatching(3, 1), std::invalid_argument);
  EXPECT_THROW(CycleWithMatching(2, 1), std::invalid_argument);
  EXPECT_NO_THROW(CycleWithMatching(4, 1));
}

TEST(CycleMatching, MatchingIsAnInvolutionWithoutFixedPoints) {
  const CycleWithMatching g(64, 7);
  for (VertexId v = 0; v < 64; ++v) {
    EXPECT_NE(g.partner(v), v);
    EXPECT_EQ(g.partner(g.partner(v)), v);
  }
}

TEST(CycleMatching, DeterministicPerSeed) {
  const CycleWithMatching a(32, 11);
  const CycleWithMatching b(32, 11);
  const CycleWithMatching c(32, 12);
  int diffs = 0;
  for (VertexId v = 0; v < 32; ++v) {
    EXPECT_EQ(a.partner(v), b.partner(v));
    if (a.partner(v) != c.partner(v)) ++diffs;
  }
  EXPECT_GT(diffs, 0);
}

TEST(CycleMatching, StructuralInvariants) {
  for (const std::uint64_t n : {4ULL, 10ULL, 64ULL}) {
    SCOPED_TRACE(n);
    faultroute::testing::check_topology_invariants(CycleWithMatching(n, 3));
  }
}

TEST(CycleMatching, DiameterIsLogarithmic) {
  // Bollobas-Chung: diameter ~ log2 n. Allow a generous constant.
  const CycleWithMatching g(1024, 5);
  std::uint64_t max_dist = 0;
  for (VertexId v = 0; v < 1024; v += 97) {
    max_dist = std::max(max_dist, g.distance(0, v));
  }
  EXPECT_LE(max_dist, 30u);
}

// ----------------------------------------------------------- ExplicitGraph

TEST(ExplicitGraph, BuildsFromEdgeList) {
  const ExplicitGraph g(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.distance(0, 2), 2u);
}

TEST(ExplicitGraph, RejectsBadEdges) {
  EXPECT_THROW(ExplicitGraph(2, {{0, 2}}), std::invalid_argument);
  EXPECT_THROW(ExplicitGraph(2, {{1, 1}}), std::invalid_argument);
}

TEST(ExplicitGraph, SupportsParallelEdges) {
  const ExplicitGraph g(2, {{0, 1}, {0, 1}});
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_NE(g.edge_key(0, 0), g.edge_key(0, 1));
  faultroute::testing::check_topology_invariants(g);
}

TEST(ExplicitGraph, NeighborDistancesFollowTheRowContract) {
  // Parallel edges, and a disconnected pair whose whole row is the
  // unreachable sentinel.
  const ExplicitGraph g(7, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {0, 2}, {4, 5}, {5, 6}});
  auto pairs = faultroute::testing::random_vertex_pairs(g, 100, 5);
  pairs.emplace_back(0, 5);
  faultroute::testing::check_neighbor_distances(g, pairs);
}

TEST(ExplicitGraph, StructuralInvariants) {
  const ExplicitGraph g(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}});
  faultroute::testing::check_topology_invariants(g);
  faultroute::testing::check_shortest_path(g, {{0, 3}, {1, 4}});
}

// ------------------------------------------------- Polymorphic family sweep

std::vector<std::shared_ptr<Topology>> small_family() {
  return {
      std::make_shared<CompleteGraph>(6),
      std::make_shared<DeBruijn>(4),
      std::make_shared<ShuffleExchange>(4),
      std::make_shared<Butterfly>(3),
      std::make_shared<CycleWithMatching>(16, 9),
  };
}

class FamilyInvariantTest
    : public ::testing::TestWithParam<std::shared_ptr<Topology>> {};

TEST_P(FamilyInvariantTest, AdjacencyAndKeys) {
  faultroute::testing::check_topology_invariants(*GetParam());
}

TEST_P(FamilyInvariantTest, DefaultDistanceIsSymmetric) {
  const Topology& g = *GetParam();
  const VertexId a = 0;
  const VertexId b = g.num_vertices() / 2;
  EXPECT_EQ(g.distance(a, b), g.distance(b, a));
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, FamilyInvariantTest,
                         ::testing::ValuesIn(small_family()));

TEST(FamilySweep, NeighborDistancesFollowTheRowContract) {
  // The BFS-metric families through the default row, plus the k = 2
  // butterfly's parallel edges.
  auto families = small_family();
  families.push_back(std::make_shared<Butterfly>(2));
  for (const auto& entry : families) {
    const Topology& g = *entry;
    SCOPED_TRACE(g.name());
    faultroute::testing::check_neighbor_distances(
        g, faultroute::testing::random_vertex_pairs(g, 200, 9));
  }
}

// ------------------------------------------------------------ ChannelIndex

TEST(ChannelIndex, DenseContiguousAndInvertibleAcrossFamilies) {
  for (const auto& entry : small_family()) {
    const Topology& g = *entry;
    const ChannelIndex& index = g.channel_index();
    std::uint64_t degree_sum = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      degree_sum += static_cast<std::uint64_t>(g.degree(v));
    }
    EXPECT_EQ(index.num_channels(), degree_sum) << g.name();

    std::uint32_t expected = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (int i = 0; i < g.degree(v); ++i) {
        const std::uint32_t channel = index.channel_of(v, i);
        EXPECT_EQ(channel, expected) << g.name();  // contiguous, slot order
        ++expected;
        EXPECT_EQ(index.tail(channel), v) << g.name();
        EXPECT_EQ(index.slot(channel), i) << g.name();
        EXPECT_EQ(index.head(channel), g.neighbor(v, i)) << g.name();
        EXPECT_EQ(index.edge_of(channel), g.edge_key(v, i)) << g.name();
      }
    }
  }
}

TEST(ChannelIndex, ReverseIsAnInvolutionOntoTheSameEdge) {
  // Includes the k=2 wrapped butterfly, whose parallel edges make the
  // reverse depend on the edge-key match (the naive lowest-slot lookup would
  // pair the two parallel edges with each other). The paired edge ids must
  // agree: a channel and its reverse share one id.
  auto families = small_family();
  families.push_back(std::make_shared<Butterfly>(2));
  for (const auto& entry : families) {
    const Topology& g = *entry;
    const ChannelIndex& index = g.channel_index();
    for (std::uint32_t c = 0; c < index.num_channels(); ++c) {
      const std::uint32_t r = reference::reverse_channel(g, index, c);
      EXPECT_EQ(reference::reverse_channel(g, index, r), c) << g.name() << " channel " << c;
      EXPECT_EQ(index.edge_of(r), index.edge_of(c)) << g.name();
      EXPECT_EQ(index.head(r), index.tail(c)) << g.name();
      EXPECT_EQ(index.tail(r), index.head(c)) << g.name();
      EXPECT_EQ(index.edge_id_of(r), index.edge_id_of(c)) << g.name() << " channel " << c;
    }
  }
}

TEST(ChannelIndex, CachedInstanceIsSharedAndButterflyHasParallelChannels) {
  const Butterfly g(2);  // the parallel-edge stress case
  const ChannelIndex& a = g.channel_index();
  const ChannelIndex& b = g.channel_index();
  EXPECT_EQ(&a, &b);  // lazily built once, then cached
  EXPECT_EQ(a.num_channels(), 2 * g.num_edges());
}

TEST(ChannelIndex, EdgeIdsAreDenseSharedByDirectionsAndDistinctPerKey) {
  // edge_id_of is the index space of the dense probe-state engine: both
  // directions of an edge share one id, distinct keys (including the
  // butterfly's parallel edges) get distinct ids, and the id range is
  // exactly [0, num_edges).
  for (const auto& entry : small_family()) {
    const Topology& g = *entry;
    const ChannelIndex& index = g.channel_index();
    ASSERT_EQ(index.num_edge_ids(), g.num_edges()) << g.name();
    std::vector<bool> seen(index.num_edge_ids(), false);
    std::unordered_map<EdgeKey, std::uint32_t> id_of_key;
    for (std::uint32_t c = 0; c < index.num_channels(); ++c) {
      const std::uint32_t id = index.edge_id_of(c);
      ASSERT_LT(id, index.num_edge_ids()) << g.name();
      seen[id] = true;
      // One id per key, one key per id — a bijection onto the edge set.
      const auto [it, inserted] = id_of_key.emplace(index.edge_of(c), id);
      EXPECT_EQ(it->second, id) << g.name() << " channel " << c;
      EXPECT_EQ(index.edge_id_of(reference::reverse_channel(g, index, c)), id)
          << g.name() << " channel " << c;
    }
    EXPECT_EQ(id_of_key.size(), index.num_edge_ids()) << g.name();
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool s) { return s; }))
        << g.name() << ": edge ids are not contiguous";
  }
}

TEST(ChannelIndex, PairedEdgeIdsEqualTheNaiveFirstAppearanceNumbering) {
  // The pairing pass must reproduce a key -> id hash map's numbering
  // exactly: snapshot files store these ids. butterfly:2 has parallel
  // edges; the explicit graph has parallel edges (1-2 and 4-6, twice each)
  // and isolated vertices (0, 3 and 7).
  std::vector<std::shared_ptr<Topology>> graphs;
  for (const char* spec :
       {"hypercube:5", "mesh:2:6", "torus:2:6", "torus:3:5", "double_tree:4", "complete:24",
        "de_bruijn:6", "shuffle_exchange:6", "butterfly:4", "butterfly:2", "ccc:4",
        "cycle_matching:64:7"}) {
    graphs.push_back(sim::make_topology(spec));
  }
  graphs.push_back(std::make_shared<ExplicitGraph>(
      8, ExplicitGraph::EdgeList{{5, 1}, {1, 2}, {2, 1}, {4, 6}, {6, 5}, {6, 4}, {2, 6}}));
  for (const auto& g : graphs) {
    const ChannelIndex& index = g->channel_index();
    const std::vector<std::uint32_t> expected = reference::first_appearance_edge_ids(*g);
    ASSERT_EQ(expected.size(), index.num_channels()) << g->name();
    const std::vector<std::uint32_t> actual(index.edge_ids_data(),
                                            index.edge_ids_data() + index.num_channels());
    EXPECT_EQ(actual, expected) << g->name();
    EXPECT_EQ(index.num_edge_ids(), g->num_edges()) << g->name();
  }
}

std::uint64_t edge_id_tables_built() {
  for (const auto& entry : obs::global_registry().snapshot()) {
    if (entry.name == "graph.channel_index.edge_id_tables") return entry.value;
  }
  return 0;
}

TEST(ChannelIndex, ClosedFormEdgeIdsEqualTheNaiveFirstAppearanceNumbering) {
  // Side 2, dimension 1, the smallest torus, the smallest clique and the
  // depth-1 double tree (every edge a leaf edge) are the corners of the
  // closed forms. Each slot's closed form must equal the
  // key -> id map's numbering with no table built, and the closed-form
  // table fill must equal it channel for channel.
  for (const char* spec :
       {"hypercube:1", "hypercube:2", "hypercube:3", "hypercube:4", "hypercube:5",
        "hypercube:6", "mesh:1:2", "mesh:1:7", "mesh:2:2", "mesh:3:4", "torus:1:3",
        "torus:2:3", "torus:3:5", "torus:4:3", "complete:2", "complete:3", "complete:24",
        "double_tree:1", "double_tree:2", "double_tree:3", "double_tree:6"}) {
    const auto g = sim::make_topology(spec);
    ASSERT_TRUE(g->has_closed_form_edge_ids()) << spec;
    const std::vector<std::uint32_t> expected = reference::first_appearance_edge_ids(*g);
    const std::uint64_t tables_before = edge_id_tables_built();
    const ChannelIndex& index = g->channel_index();
    ASSERT_EQ(expected.size(), index.num_channels()) << spec;
    EXPECT_EQ(index.num_edge_ids(), g->num_edges()) << spec;
    for (VertexId v = 0; v < g->num_vertices(); ++v) {
      for (int i = 0; i < g->degree(v); ++i) {
        ASSERT_EQ(index.edge_id(v, i), expected[index.channel_of(v, i)])
            << spec << " v=" << v << " i=" << i;
      }
    }
    EXPECT_EQ(edge_id_tables_built(), tables_before) << spec << ": the closed form built a table";
    const std::vector<std::uint32_t> filled(index.edge_ids_data(),
                                            index.edge_ids_data() + index.num_channels());
    EXPECT_EQ(filled, expected) << spec;
    EXPECT_EQ(edge_id_tables_built(), tables_before + 1) << spec;
  }
}

TEST(ChannelIndex, RegularFamiliesLayOutTheOffsetsOfTheirDegrees) {
  // regular_degree() is either 0 or every vertex's degree, and the offsets
  // it lays out arithmetically are the prefix sums of the degrees.
  for (const char* spec :
       {"hypercube:1", "hypercube:5", "mesh:2:4", "torus:1:3", "torus:3:4", "complete:2",
        "complete:9", "butterfly:3", "ccc:3", "cycle_matching:16:9", "de_bruijn:4",
        "shuffle_exchange:4", "double_tree:3"}) {
    const auto g = sim::make_topology(spec);
    const ChannelIndex& index = g->channel_index();
    std::uint64_t offset = 0;
    for (VertexId v = 0; v < g->num_vertices(); ++v) {
      if (g->regular_degree() != 0) {
        ASSERT_EQ(g->degree(v), g->regular_degree()) << spec;
      }
      ASSERT_EQ(index.channel_of(v, 0), offset) << spec << " v=" << v;
      offset += static_cast<std::uint64_t>(g->degree(v));
    }
    EXPECT_EQ(index.num_channels(), offset) << spec;
  }
  EXPECT_NE(sim::make_topology("torus:2:5")->regular_degree(), 0);
  EXPECT_EQ(sim::make_topology("mesh:2:5")->regular_degree(), 0);
}

TEST(ChannelIndex, FamiliesWithoutAClosedFormReadTheTable) {
  for (const char* spec : {"de_bruijn:6", "shuffle_exchange:6", "butterfly:4",
                           "ccc:4", "cycle_matching:64:7"}) {
    const auto g = sim::make_topology(spec);
    EXPECT_FALSE(g->has_closed_form_edge_ids()) << spec;
    EXPECT_THROW((void)g->edge_id(0, 0), std::logic_error) << spec;
    // ChannelIndex::edge_id reads the table instead.
    const ChannelIndex& index = g->channel_index();
    EXPECT_EQ(index.edge_id(0, 0), index.edge_id_of(index.channel_of(0, 0))) << spec;
  }
}

/// A toy topology given by explicit (neighbor, edge key) slot lists, free to
/// break the symmetry contract the pairing pass relies on. Slot reads are
/// bounds-checked (std::out_of_range, whose message does not name the
/// topology), so a pass that reads past a vertex's slots fails the test.
class SlotListTopology final : public Topology {
 public:
  using Slots = std::vector<std::vector<std::pair<VertexId, EdgeKey>>>;
  explicit SlotListTopology(Slots slots) : slots_(std::move(slots)) {}

  [[nodiscard]] std::uint64_t num_vertices() const override { return slots_.size(); }
  [[nodiscard]] std::uint64_t num_edges() const override { return 0; }
  [[nodiscard]] int degree(VertexId v) const override {
    return static_cast<int>(slots_.at(v).size());
  }
  [[nodiscard]] VertexId neighbor(VertexId v, int i) const override {
    return slots_.at(v).at(static_cast<std::size_t>(i)).first;
  }
  [[nodiscard]] EdgeKey edge_key(VertexId v, int i) const override {
    return slots_.at(v).at(static_cast<std::size_t>(i)).second;
  }
  [[nodiscard]] EdgeEndpoints endpoints(EdgeKey /*key*/) const override { return {}; }
  [[nodiscard]] std::string name() const override { return "asymmetric-toy"; }

 private:
  Slots slots_;
};

TEST(ChannelIndex, RefusesMoreThan32BitChannelsBeforeAllocating) {
  // 40 * 2^40 directed channels. The refusal must come from num_edges()
  // alone: the 2^40-entry offset table it would otherwise allocate first
  // cannot fit in memory.
  EXPECT_THROW((void)ChannelIndex(Hypercube(40)), std::length_error);
  try {
    (void)ChannelIndex(Hypercube(40));
  } catch (const std::length_error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "hypercube(n=40) has 43980465111040 directed channels; ids are 32-bit"),
              std::string::npos)
        << e.what();
  }
}

TEST(ChannelIndex, PairingRejectsAChannelWithoutATwin) {
  struct Case {
    const char* what;
    SlotListTopology::Slots slots;
    const char* channel;  // the channel the message must name
  };
  const std::vector<Case> cases = {
      // 0 -> 1 has nowhere to be filed: vertex 1 has no slots at all.
      {"head without slots", {{{1, 0}}, {}}, "channel 0 "},
      // 1 -> 5 points past the last vertex.
      {"head out of range", {{}, {{5, 0}}}, "channel 0 "},
      // 2 -> 1 finds nothing filed from 1 (1 never lists 2).
      {"missing forward channel", {{{2, 0}}, {}, {{0, 0}, {1, 1}}}, "channel 2 "},
      // 0 -> 1 is filed under 1, but 1 only lists 2.
      {"unclaimed forward channel", {{{1, 0}}, {{2, 1}}, {{1, 1}}}, "channel 0 "},
      // 1 lists 0 twice, 0 lists 1 once: the second claim finds it taken.
      {"twin claimed twice", {{{1, 0}}, {{0, 0}, {0, 0}}}, "channel 2 "},
      // A self-loop has no twin in this model.
      {"self-loop", {{{0, 0}}}, "channel 0 "},
      // Parallel 0-2 edges with keys {5, 6} seen from 0 but {5, 7} from 2.
      // The only key-7 channel filed under 2 is 1 -> 2, right after the 0
      // run: the key search must stop at the run's end, not read on.
      {"parallel key mismatch",
       {{{2, 5}, {2, 6}}, {{2, 7}}, {{0, 5}, {0, 7}, {1, 7}}},
       "channel 4 "},
  };
  for (const Case& c : cases) {
    const SlotListTopology g(c.slots);
    try {
      (void)g.channel_index().num_edge_ids();
      ADD_FAILURE() << c.what << ": no exception";
    } catch (const std::logic_error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("asymmetric-toy"), std::string::npos) << c.what << ": " << message;
      EXPECT_NE(message.find(c.channel), std::string::npos) << c.what << ": " << message;
    }
  }
}

}  // namespace
}  // namespace faultroute
