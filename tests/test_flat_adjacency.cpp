// Adjacency backend suite: the flat CSR snapshot and the row accessors.
//
// The snapshot (graph/flat_adjacency.hpp) and the closed-form accessors of
// the hypercube and the mesh/torus are pure representation changes: every
// slot of every row must agree with the implicit virtual interface, and
// every pipeline that can run over them — probing, routing, traffic,
// percolation analyses — must produce bit-identical results with the CSR
// forced (vertex budget UINT64_MAX) and with it refused (budget 0). This
// suite pins both: property tests across every registered topology family
// (including the k=2 wrapped butterfly's parallel edges) and every
// closed-form accessor, and differential runs of the percolation analyses.
// The traffic engine's backends are held to the naive reference in
// test_traffic_differential.cpp.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "core/probe_context.hpp"
#include "graph/channel_index.hpp"
#include "graph/explicit_graph.hpp"
#include "graph/flat_adjacency.hpp"
#include "graph/hypercube.hpp"
#include "graph/mesh.hpp"
#include "helpers/probe_arena_test_peer.hpp"
#include "helpers/topology_checks.hpp"
#include "obs/counter_registry.hpp"
#include "percolation/chemical_distance.hpp"
#include "percolation/cluster_analysis.hpp"
#include "percolation/edge_sampler.hpp"
#include "percolation/shared_probe_cache.hpp"
#include "percolation/threshold.hpp"
#include "random/rng.hpp"
#include "scenario/spec.hpp"
#include "sim/registry.hpp"

namespace faultroute {
namespace {

/// Vertex budgets that force either adjacency backend (resolve_adjacency).
constexpr std::uint64_t kForceFlat = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kForceImplicit = 0;

/// Every registered topology family at unit-test scale; butterfly:2 is the
/// parallel-edge stress case (distinct edges between the same endpoints).
const std::vector<std::string> kFamilies = {
    "hypercube:5",  "mesh:2:6",           "torus:2:6", "double_tree:4",
    "complete:24",  "de_bruijn:6",        "shuffle_exchange:6",
    "butterfly:4",  "butterfly:2",        "ccc:4",     "cycle_matching:64:7",
};

TEST(FlatAdjacency, AgreesRowForRowWithVirtualInterfaceAcrossFamilies) {
  for (const std::string& spec : kFamilies) {
    const auto graph = sim::make_topology(spec);
    const ChannelIndex& index = graph->channel_index();
    const FlatAdjacency& flat = graph->flat_adjacency();

    EXPECT_EQ(flat.num_vertices(), graph->num_vertices()) << spec;
    EXPECT_EQ(flat.num_channels(), index.num_channels()) << spec;
    EXPECT_EQ(flat.num_edge_ids(), index.num_edge_ids()) << spec;
    EXPECT_EQ(flat.edge_ids_data(), index.edge_ids_data()) << spec;  // borrowed, not copied
    EXPECT_EQ(&flat.graph(), graph.get()) << spec;

    for (VertexId v = 0; v < graph->num_vertices(); ++v) {
      const int deg = graph->degree(v);
      ASSERT_EQ(flat.degree(v), deg) << spec << " v=" << v;
      ASSERT_EQ(flat.row_end(v) - flat.row_begin(v), static_cast<std::uint64_t>(deg))
          << spec << " v=" << v;
      for (int i = 0; i < deg; ++i) {
        const VertexId w = graph->neighbor(v, i);
        const EdgeKey key = graph->edge_key(v, i);
        ASSERT_EQ(flat.neighbor(v, i), w) << spec << " v=" << v << " i=" << i;
        ASSERT_EQ(flat.edge_key(v, i), key) << spec << " v=" << v << " i=" << i;
        const std::uint32_t channel = index.channel_of(v, i);
        ASSERT_EQ(flat.channel_of(v, i), channel) << spec << " v=" << v << " i=" << i;
        ASSERT_EQ(flat.edge_id(v, i), index.edge_id_of(channel))
            << spec << " v=" << v << " i=" << i;
        // Row-position accessors address the same slot as (v, i).
        const std::uint64_t pos = flat.row_begin(v) + static_cast<std::uint64_t>(i);
        ASSERT_EQ(flat.neighbor_at(pos), w) << spec;
        ASSERT_EQ(flat.edge_key_at(pos), key) << spec;
        ASSERT_EQ(flat.edge_id_at(pos), flat.edge_id(v, i)) << spec;
        // The invertible-key contract round-trips through the snapshot.
        const EdgeEndpoints ends = graph->endpoints(key);
        const std::set<VertexId> expected{v, w};
        const std::set<VertexId> actual{ends.a, ends.b};
        ASSERT_EQ(actual, expected) << spec << " key=" << key;
      }
    }
    testing::check_rows_match_virtual(FlatRows{&flat}, *graph, spec + " csr");
    testing::check_rows_match_virtual(VirtualRows{graph.get()}, *graph, spec + " virtual");
  }
}

TEST(AdjacencyRows, ClosedFormRowsAgreeSlotForSlotWithTheVirtualInterface) {
  for (int n = 1; n <= 12; ++n) {
    const Hypercube cube(n);
    testing::check_rows_match_virtual(ClosedFormRows<Hypercube>{&cube}, cube, cube.name());
  }
  for (int dim = 1; dim <= 4; ++dim) {
    for (const std::int64_t side : {2, 3, 5}) {
      const Mesh mesh(dim, side, /*wrap=*/false);
      Mesh::Decoded last;
      testing::check_rows_match_virtual(ClosedFormRows<Mesh>{&mesh, &last}, mesh, mesh.name());
    }
    for (const std::int64_t side : {3, 4, 5}) {
      const Mesh torus(dim, side, /*wrap=*/true);
      Mesh::Decoded last;
      testing::check_rows_match_virtual(ClosedFormRows<Mesh>{&torus, &last}, torus,
                                        torus.name());
    }
  }
}

TEST(AdjacencyRows, HypercubeEdgeIdsPastSixteenDimensionsMatchAPerBitCount) {
  // Past n = 16 the closed form sums popcounts a byte at a time, a path the
  // exhaustive check above does not reach. Hold sampled slots to the
  // first-appearance id counted bit by bit: Σ_{u<a} popcount(u) counts, per
  // bit k, the u < a with bit k set.
  for (const int n : {17, 20, 27}) {
    const Hypercube cube(n);
    const auto ones_below = [](std::uint64_t a) {
      std::uint64_t total = 0;
      for (int k = 0; k < 40; ++k) {
        const std::uint64_t block = std::uint64_t{1} << (k + 1);
        const std::uint64_t half = std::uint64_t{1} << k;
        const std::uint64_t rest = a % block;
        total += (a / block) * half + (rest > half ? rest - half : 0);
      }
      return total;
    };
    Rng rng(static_cast<std::uint64_t>(n));
    for (int trial = 0; trial < 2000; ++trial) {
      const VertexId v = uniform_below(rng, cube.num_vertices());
      const int i = static_cast<int>(uniform_below(rng, static_cast<std::uint64_t>(n)));
      const VertexId a = v & ~(VertexId{1} << i);
      std::uint64_t rank = 0;  // a's clear bits below i
      for (int b = 0; b < i; ++b) rank += ((a >> b) & 1) == 0 ? 1 : 0;
      const std::uint64_t expected = static_cast<std::uint64_t>(n) * a - ones_below(a) + rank;
      ASSERT_EQ(ClosedFormRows<Hypercube>{&cube}.edge_id(v, i), expected)
          << cube.name() << " v=" << v << " i=" << i;
    }
  }
}

/// The accessor type an AdjacencyView hands its visitor, as a name.
std::string accessor_of(const AdjacencyView& view) {
  return view.visit([](const auto& rows) -> std::string {
    using Rows = std::decay_t<decltype(rows)>;
    if constexpr (std::is_same_v<Rows, FlatRows>) return "csr";
    if constexpr (std::is_same_v<Rows, ClosedFormRows<Hypercube>>) return "hypercube";
    if constexpr (std::is_same_v<Rows, ClosedFormRows<Mesh>>) return "mesh";
    return "virtual";
  });
}

TEST(AdjacencyRows, ViewPicksTheCsrThenTheFamilyThenVirtualDispatch) {
  for (const std::string spec : {"hypercube:5", "mesh:2:6", "torus:3:4", "complete:24",
                                 "de_bruijn:6", "double_tree:4"}) {
    const auto graph = sim::make_topology(spec);
    const std::string family = spec.starts_with("hypercube") ? "hypercube"
                               : spec.starts_with("mesh") || spec.starts_with("torus")
                                   ? "mesh"
                                   : "virtual";
    EXPECT_EQ(accessor_of(AdjacencyView(*graph, nullptr)), family) << spec;
    EXPECT_EQ(accessor_of(AdjacencyView(*graph, &graph->flat_adjacency())), "csr") << spec;
  }
}

TEST(FlatAdjacency, SnapshotIsCachedOnTheTopology) {
  const Hypercube cube(5);
  const FlatAdjacency& first = cube.flat_adjacency();
  const FlatAdjacency& second = cube.flat_adjacency();
  EXPECT_EQ(&first, &second);
}

TEST(FlatAdjacency, EdgeIndexOfMatchesTopologyOverload) {
  for (const std::string spec : {"hypercube:5", "butterfly:2", "cycle_matching:64:7"}) {
    const auto graph = sim::make_topology(spec);
    const FlatAdjacency& flat = graph->flat_adjacency();
    Rng rng(11);
    for (int trial = 0; trial < 200; ++trial) {
      const VertexId u = uniform_below(rng, graph->num_vertices());
      const VertexId v = uniform_below(rng, graph->num_vertices());
      EXPECT_EQ(edge_index_of(flat, u, v), edge_index_of(*graph, u, v))
          << spec << " u=" << u << " v=" << v;
    }
    // Every actual neighbor resolves, through both the free function and
    // the view.
    const AdjacencyView view(*graph, &flat);
    for (VertexId u = 0; u < graph->num_vertices(); ++u) {
      for (int i = 0; i < graph->degree(u); ++i) {
        const VertexId w = graph->neighbor(u, i);
        EXPECT_GE(edge_index_of(flat, u, w), 0) << spec;
        EXPECT_EQ(view.visit([&](const auto& rows) { return rows.edge_index_of(u, w); }),
                  edge_index_of(*graph, u, w))
            << spec;
      }
    }
  }
}

/// Naive fault-free BFS over the virtual interface (std::queue, parent
/// vector, row scan in slot order, first discoverer wins): the reference the
/// default Topology::shortest_path and the CSR BFS must both reproduce.
std::vector<VertexId> reference_bfs_path(const Topology& g, VertexId u, VertexId v) {
  if (u == v) return {u};
  std::vector<VertexId> parent(g.num_vertices(), g.num_vertices());
  std::queue<VertexId> queue;
  parent[u] = u;
  queue.push(u);
  while (!queue.empty()) {
    const VertexId x = queue.front();
    queue.pop();
    for (int i = 0; i < g.degree(x); ++i) {
      const VertexId y = g.neighbor(x, i);
      if (parent[y] != g.num_vertices()) continue;
      parent[y] = x;
      if (y == v) {
        std::vector<VertexId> path{v};
        while (path.back() != u) path.push_back(parent[path.back()]);
        return {path.rbegin(), path.rend()};
      }
      queue.push(y);
    }
  }
  return {};
}

/// Holds shortest_path over the CSR view and over the implicit view to
/// Topology::shortest_path vertex for vertex, and — for families without a
/// closed form — all three to the naive reference BFS.
void expect_same_base_paths(const Topology& g,
                            const std::vector<std::pair<VertexId, VertexId>>& pairs,
                            const std::string& label) {
  const AdjacencyView csr(g, &g.flat_adjacency());
  const AdjacencyView implicit(g, nullptr);
  std::vector<VertexId> via_csr{999};  // stale contents must be overwritten
  std::vector<VertexId> via_implicit;
  for (const auto& [u, v] : pairs) {
    const std::vector<VertexId> expected = g.shortest_path(u, v);
    shortest_path(csr, u, v, via_csr);
    shortest_path(implicit, u, v, via_implicit);
    ASSERT_EQ(via_csr, expected) << label << " u=" << u << " v=" << v;
    ASSERT_EQ(via_implicit, expected) << label << " u=" << u << " v=" << v;
    if (!g.has_closed_form_metric()) {
      ASSERT_EQ(expected, reference_bfs_path(g, u, v)) << label << " u=" << u << " v=" << v;
    }
    // Every family's distance() — closed form or not — is the BFS length.
    if (!expected.empty()) {
      ASSERT_EQ(g.distance(u, v), expected.size() - 1) << label << " u=" << u << " v=" << v;
    }
  }
}

TEST(FlatAdjacency, CsrShortestPathMatchesTopologyAcrossFamilies) {
  for (const std::string& spec : kFamilies) {
    const auto graph = sim::make_topology(spec);
    const VertexId n = graph->num_vertices();
    std::vector<std::pair<VertexId, VertexId>> pairs = {{0, 0}, {0, n - 1}, {n - 1, 0}};
    Rng rng(2005);
    for (int trial = 0; trial < 40; ++trial) {
      pairs.emplace_back(uniform_below(rng, n), uniform_below(rng, n));
    }
    expect_same_base_paths(*graph, pairs, spec);
  }
}

TEST(FlatAdjacency, CsrShortestPathHandlesUnreachableTargets) {
  // Two equal-length routes 0-1-3 and 0-2-3 (the slot order picks one), a
  // parallel edge, a tail 3-4-5, and vertex 6 isolated: every ordered pair,
  // so u == v and the unreachable case (empty path) are both covered.
  const ExplicitGraph graph(7, {{0, 2}, {0, 1}, {1, 3}, {2, 3}, {3, 4}, {3, 4}, {4, 5}, {1, 2}});
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (VertexId u = 0; u < 7; ++u) {
    for (VertexId v = 0; v < 7; ++v) pairs.emplace_back(u, v);
  }
  expect_same_base_paths(graph, pairs, "explicit");
  EXPECT_TRUE(graph.shortest_path(0, 6).empty());
  EXPECT_EQ(graph.shortest_path(0, 3), (std::vector<VertexId>{0, 2, 3}));
}

TEST(FlatAdjacency, ClosedFormMetricFlagNamesTheOverridingFamilies) {
  // has_closed_form_metric() is true exactly for the families that override
  // distance() and shortest_path(); the CSR BFS relies on it to hand those
  // to their override.
  for (const std::string& spec : kFamilies) {
    const bool closed = spec.starts_with("hypercube") || spec.starts_with("mesh") ||
                        spec.starts_with("torus") || spec.starts_with("complete");
    EXPECT_EQ(sim::make_topology(spec)->has_closed_form_metric(), closed) << spec;
  }
}

TEST(FlatAdjacency, ResolveAdjacencyHonoursTheVertexBudget) {
  const auto graph = sim::make_topology("de_bruijn:5");  // 32 vertices
  EXPECT_EQ(resolve_adjacency(*graph, kForceFlat), &graph->flat_adjacency());
  EXPECT_EQ(resolve_adjacency(*graph, kForceImplicit), nullptr);
  EXPECT_EQ(resolve_adjacency(*graph, 32), &graph->flat_adjacency());
  EXPECT_EQ(resolve_adjacency(*graph, 31), nullptr);
}

TEST(FlatAdjacency, ResolveAdjacencyLeavesClosedFormsOffTheCsr) {
  // The hypercube routes on its own accessor at every budget; the
  // mesh/torus takes the CSR within the budget and its own accessor past
  // it. Taking the closed form is no fall-back.
  const auto read = [](const std::string& name) -> std::uint64_t {
    for (const auto& entry : obs::global_registry().snapshot()) {
      if (entry.name == name) return entry.value;
    }
    return 0;
  };
  const auto graph = sim::make_topology("hypercube:5");
  const std::uint64_t built = read("graph.flat_adjacency.materializations");
  const std::uint64_t fallbacks = read("graph.flat_adjacency.auto_fallbacks");
  for (const std::uint64_t budget : {kForceFlat, kForceImplicit, kDefaultFlatBudgetVertices}) {
    EXPECT_TRUE(routes_on_closed_form(*graph, budget)) << budget;
    EXPECT_EQ(resolve_adjacency(*graph, budget), nullptr) << budget;
  }
  EXPECT_EQ(read("graph.flat_adjacency.materializations"), built);
  for (const std::string spec : {"mesh:2:6", "torus:2:6"}) {  // 36 vertices
    const auto mesh = sim::make_topology(spec);
    for (const std::uint64_t budget : {kForceImplicit, std::uint64_t{35}}) {
      EXPECT_TRUE(routes_on_closed_form(*mesh, budget)) << spec << " budget=" << budget;
      EXPECT_EQ(resolve_adjacency(*mesh, budget), nullptr) << spec << " budget=" << budget;
    }
    for (const std::uint64_t budget : {std::uint64_t{36}, kDefaultFlatBudgetVertices}) {
      EXPECT_FALSE(routes_on_closed_form(*mesh, budget)) << spec << " budget=" << budget;
      EXPECT_EQ(resolve_adjacency(*mesh, budget), &mesh->flat_adjacency())
          << spec << " budget=" << budget;
    }
  }
  EXPECT_EQ(read("graph.flat_adjacency.auto_fallbacks"), fallbacks);
  EXPECT_FALSE(routes_on_closed_form(*sim::make_topology("de_bruijn:5"), kForceImplicit));
}

// ---------------------------------------------------------------- probing

TEST(FlatAdjacency, ProbeContextFlatPathMatchesImplicitOnBothBackends) {
  const auto graph = sim::make_topology("butterfly:3");
  const FlatAdjacency& flat = graph->flat_adjacency();
  const HashEdgeSampler env(0.6, 99);
  // Drive an identical probe sequence through the arena's sparse side
  // (implicit adjacency) and a batch's dense side on both adjacencies, and
  // hold every answer and counter equal.
  const auto drive = [&](bool dense, const FlatAdjacency* snapshot) {
    const SharedProbeCache cache(env, *graph);
    ProbeArena arena(cache);
    const auto sparse_arena = ProbeArenaTestPeer::make(*graph, /*dense=*/false);
    std::optional<ProbeContext> sparse_ctx;
    std::optional<ProbeContext> dense_ctx;
    if (dense) {
      dense_ctx.emplace(arena, 0, RoutingMode::kOracle, std::nullopt, snapshot);
    } else {
      sparse_ctx.emplace(*sparse_arena, env, 0, RoutingMode::kOracle);
    }
    ProbeContext& ctx = dense ? *dense_ctx : *sparse_ctx;
    std::vector<bool> answers;
    for (VertexId v = 0; v < graph->num_vertices(); ++v) {
      for (int i = 0; i < graph->degree(v); ++i) {
        answers.push_back(ctx.probe(v, i));
        answers.push_back(ctx.probe(v, i));  // memo hit
      }
    }
    answers.push_back(ctx.probe_between(0, graph->neighbor(0, 0)));
    // Every slot probed twice, plus the probe_between; distinct counts each
    // undirected edge once however many slots address it.
    EXPECT_EQ(ctx.total_probes(),
              2ull * graph->channel_index().num_channels() + 1);
    EXPECT_EQ(ctx.distinct_probes(), graph->channel_index().num_edge_ids());
    if (dense) {
      // The memo let exactly one lookup per edge through to the cache.
      EXPECT_EQ(arena.tally().misses, graph->channel_index().num_edge_ids());
      EXPECT_EQ(arena.tally().hits, 0u);
    }
    return std::make_pair(answers, ctx.distinct_probes());
  };
  const auto implicit_sparse = drive(false, nullptr);
  const auto implicit_dense = drive(true, nullptr);
  const auto flat_dense = drive(true, &flat);
  EXPECT_EQ(implicit_sparse, implicit_dense);
  EXPECT_EQ(implicit_sparse, flat_dense);
  EXPECT_EQ(flat.graph().num_vertices(), graph->num_vertices());
}

// ------------------------------------------------------------- percolation

TEST(FlatAdjacencyPercolation, ClusterAnalysesMatchAcrossBackends) {
  for (const std::string& spec : kFamilies) {
    for (const double p : {0.3, 0.6}) {
      const auto graph = sim::make_topology(spec);
      const HashEdgeSampler env(p, 4242);

      const ComponentSummary flat = analyze_components(*graph, env, kForceFlat);
      const ComponentSummary implicit =
          analyze_components(*graph, env, kForceImplicit);
      EXPECT_EQ(flat.num_vertices, implicit.num_vertices) << spec;
      EXPECT_EQ(flat.num_open_edges, implicit.num_open_edges) << spec;
      EXPECT_EQ(flat.num_components, implicit.num_components) << spec;
      EXPECT_EQ(flat.largest, implicit.largest) << spec;
      EXPECT_EQ(flat.second_largest, implicit.second_largest) << spec;

      // BFS visit order, connectivity verdicts, and shortest open paths are
      // equal query-for-query.
      const VertexId far = graph->num_vertices() - 1;
      EXPECT_EQ(open_cluster_of(*graph, env, 0, 0, kForceFlat),
                open_cluster_of(*graph, env, 0, 0, kForceImplicit))
          << spec;
      EXPECT_EQ(open_cluster_of(*graph, env, 0, 5, kForceFlat),
                open_cluster_of(*graph, env, 0, 5, kForceImplicit))
          << spec;
      EXPECT_EQ(open_connected(*graph, env, 0, far, 0, kForceFlat),
                open_connected(*graph, env, 0, far, 0, kForceImplicit))
          << spec;
      EXPECT_EQ(open_connected(*graph, env, 0, far, 4, kForceFlat),
                open_connected(*graph, env, 0, far, 4, kForceImplicit))
          << spec;
      const ChemicalPathResult flat_path =
          chemical_path(*graph, env, 0, far, 0, kForceFlat);
      const ChemicalPathResult implicit_path =
          chemical_path(*graph, env, 0, far, 0, kForceImplicit);
      EXPECT_EQ(flat_path.distance, implicit_path.distance) << spec;
      EXPECT_EQ(flat_path.path, implicit_path.path) << spec;
    }
  }
}

/// `graph` seen through the virtual interface alone: every call forwards,
/// but the wrapper is neither a Hypercube nor a Mesh, so it takes the CSR
/// or VirtualRows, never the family's closed-form accessor.
class Forwarding final : public Topology {
 public:
  explicit Forwarding(const Topology& graph) : graph_(graph) {}
  std::uint64_t num_vertices() const override { return graph_.num_vertices(); }
  std::uint64_t num_edges() const override { return graph_.num_edges(); }
  int degree(VertexId v) const override { return graph_.degree(v); }
  VertexId neighbor(VertexId v, int i) const override { return graph_.neighbor(v, i); }
  EdgeKey edge_key(VertexId v, int i) const override { return graph_.edge_key(v, i); }
  EdgeEndpoints endpoints(EdgeKey key) const override { return graph_.endpoints(key); }
  std::string name() const override { return graph_.name(); }

 private:
  const Topology& graph_;
};

TEST(FlatAdjacencyPercolation, ClosedFormRowsMatchTheCsrAndVirtualRuns) {
  // Under a budget of 0 the hypercube and the mesh/torus run every
  // analysis on their closed-form accessor; the same graph behind
  // Forwarding runs it on the CSR and on the virtual interface.
  for (const std::string spec : {"hypercube:6", "mesh:2:7", "torus:2:6", "torus:3:4"}) {
    const auto graph = sim::make_topology(spec);
    const Forwarding plain(*graph);
    const HashEdgeSampler env(0.55, 4243);
    const VertexId far = graph->num_vertices() - 1;
    for (const std::uint64_t budget : {kForceFlat, kForceImplicit}) {
      const std::string label = spec + " budget=" + std::to_string(budget);
      const ComponentSummary closed = analyze_components(*graph, env, kForceImplicit);
      const ComponentSummary other = analyze_components(plain, env, budget);
      EXPECT_EQ(closed.num_open_edges, other.num_open_edges) << label;
      EXPECT_EQ(closed.num_components, other.num_components) << label;
      EXPECT_EQ(closed.largest, other.largest) << label;
      EXPECT_EQ(closed.second_largest, other.second_largest) << label;
      EXPECT_EQ(open_cluster_of(*graph, env, 0, 0, kForceImplicit),
                open_cluster_of(plain, env, 0, 0, budget))
          << label;
      EXPECT_EQ(open_connected(*graph, env, 0, far, 0, kForceImplicit),
                open_connected(plain, env, 0, far, 0, budget))
          << label;
      const ChemicalPathResult a = chemical_path(*graph, env, 0, far, 0, kForceImplicit);
      const ChemicalPathResult b = chemical_path(plain, env, 0, far, 0, budget);
      EXPECT_EQ(a.distance, b.distance) << label;
      EXPECT_EQ(a.path, b.path) << label;
    }
  }
}

TEST(FlatAdjacencyPercolation, LargestClusterOrderMatchesAcrossBackends) {
  const auto graph = sim::make_topology("torus:2:8");
  const auto flat_order = largest_cluster_order(*graph, kForceFlat);
  const auto implicit_order = largest_cluster_order(*graph, kForceImplicit);
  for (const double p : {0.2, 0.5, 0.8}) {
    EXPECT_EQ(flat_order(p, 9), implicit_order(p, 9)) << p;
  }
}

// ---------------------------------------------------------------- scenario

TEST(ScenarioAdjacencyKey, RetiredKeyIsRefusedByName) {
  // The backend follows from the vertex count alone; a spec that still asks
  // for one must fail loudly rather than silently run on the default.
  try {
    (void)scenario::parse_scenario("topology = hypercube:5; adjacency = implicit");
    FAIL() << "the retired adjacency key was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown key 'adjacency'"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace faultroute
