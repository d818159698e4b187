// Cached distance-oracle suite.
//
// The oracle (graph/distance_oracle.hpp) memoises exact per-target BFS
// columns over the flat CSR snapshot plus ALT landmark lower bounds. It is
// a pure accelerator: a column entry must equal Topology::distance verbatim
// (same values, same unreachable sentinel), the landmark bound must be
// admissible and symmetric, and budget denials must degrade to the exact
// fallback rather than to wrong answers. This suite pins all of that across
// every topology family — including the butterfly's parallel edges — and
// carries the BFS-scratch regression tests for Topology::distance /
// shortest_path (u == v, the unreachable sentinel, parallel edges, and
// agreement with a naive reference BFS).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/distance_oracle.hpp"
#include "graph/explicit_graph.hpp"
#include "graph/flat_adjacency.hpp"
#include "graph/topology.hpp"
#include "random/rng.hpp"
#include "sim/registry.hpp"

namespace faultroute {
namespace {

/// Naive hash-map BFS over the virtual Topology interface — the shape the
/// pre-dense-tier Topology::distance used. The dense epoch-stamped tier and
/// the oracle's batched bitset sweep must both agree with it exactly.
std::unordered_map<VertexId, std::uint64_t> reference_bfs(const Topology& graph,
                                                          VertexId source) {
  std::unordered_map<VertexId, std::uint64_t> dist;
  std::queue<VertexId> queue;
  dist[source] = 0;
  queue.push(source);
  while (!queue.empty()) {
    const VertexId x = queue.front();
    queue.pop();
    for (int i = 0; i < graph.degree(x); ++i) {
      const VertexId y = graph.neighbor(x, i);
      if (dist.emplace(y, dist[x] + 1).second) queue.push(y);
    }
  }
  return dist;
}

/// True iff u and v share an edge (any parallel copy).
bool adjacent(const Topology& graph, VertexId u, VertexId v) {
  for (int i = 0; i < graph.degree(u); ++i) {
    if (graph.neighbor(u, i) == v) return true;
  }
  return false;
}

/// Asserts `path` is a valid shortest u->v walk of the claimed length.
void expect_valid_shortest_path(const Topology& graph, VertexId u, VertexId v) {
  const auto path = graph.shortest_path(u, v);
  const std::uint64_t d = graph.distance(u, v);
  if (d == graph.num_vertices()) {
    EXPECT_TRUE(path.empty()) << "unreachable pair must yield an empty path";
    return;
  }
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), u);
  EXPECT_EQ(path.back(), v);
  ASSERT_EQ(path.size(), d + 1) << "path length must equal the distance";
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_TRUE(adjacent(graph, path[i], path[i + 1]))
        << "non-edge " << path[i] << " -> " << path[i + 1];
  }
}

/// One small instance per registered topology family. Closed-form families
/// (hypercube, mesh/torus, complete) are included on purpose: the oracle
/// must agree with the closed form, not just with the BFS default.
const std::vector<std::string> kFamilies = {
    "hypercube:6",        "mesh:2:5",   "torus:2:5", "double_tree:4",
    "complete:32",        "de_bruijn:6", "shuffle_exchange:6",
    "butterfly:3",        "ccc:4",      "cycle_matching:64",
};

/// Deterministic sample of `count` target vertices (whole vertex set when
/// the graph is small enough to check exhaustively).
std::vector<VertexId> sample_targets(const Topology& graph, std::uint64_t salt,
                                     std::size_t count) {
  const std::uint64_t n = graph.num_vertices();
  std::vector<VertexId> targets;
  if (n <= 64) {
    for (VertexId v = 0; v < n; ++v) targets.push_back(v);
    return targets;
  }
  Rng rng(derive_seed(2005, salt));
  for (std::size_t i = 0; i < count; ++i) targets.push_back(uniform_below(rng, n));
  return targets;
}

TEST(DistanceOracle, ExactColumnsMatchTopologyDistanceAcrossFamilies) {
  for (std::size_t f = 0; f < kFamilies.size(); ++f) {
    SCOPED_TRACE(kFamilies[f]);
    const auto graph = sim::make_topology(kFamilies[f]);
    const DistanceOracle& oracle = graph->flat_adjacency().distance_oracle();
    const auto targets = sample_targets(*graph, f, 8);
    oracle.ensure_targets(targets);
    EXPECT_EQ(oracle.unreachable(), graph->num_vertices());
    for (const VertexId t : targets) {
      const std::uint32_t* column = oracle.distances_to(t);
      ASSERT_NE(column, nullptr);
      for (VertexId x = 0; x < graph->num_vertices(); ++x) {
        ASSERT_EQ(column[x], graph->distance(x, t))
            << "column disagrees at x=" << x << " t=" << t;
      }
    }
  }
}

TEST(DistanceOracle, LowerBoundIsAdmissibleAndSymmetric) {
  for (std::size_t f = 0; f < kFamilies.size(); ++f) {
    SCOPED_TRACE(kFamilies[f]);
    const auto graph = sim::make_topology(kFamilies[f]);
    const DistanceOracle& oracle = graph->flat_adjacency().distance_oracle();
    EXPECT_GE(oracle.num_landmarks(), 1u);
    EXPECT_LE(oracle.num_landmarks(), DistanceOracle::kDefaultLandmarks);
    for (std::size_t j = 0; j < oracle.num_landmarks(); ++j) {
      EXPECT_LT(oracle.landmark(j), graph->num_vertices());
    }
    Rng rng(derive_seed(2005, 100 + f));
    for (int i = 0; i < 64; ++i) {
      const VertexId u = uniform_below(rng, graph->num_vertices());
      const VertexId v = uniform_below(rng, graph->num_vertices());
      const std::uint64_t bound = oracle.lower_bound(u, v);
      EXPECT_LE(bound, graph->distance(u, v)) << "inadmissible at u=" << u << " v=" << v;
      EXPECT_EQ(bound, oracle.lower_bound(v, u)) << "asymmetric at u=" << u << " v=" << v;
      EXPECT_EQ(oracle.lower_bound(u, u), 0u);
    }
  }
}

TEST(DistanceOracle, ButterflyParallelEdgesAreCountedOnce) {
  // The k=2 wrapped butterfly has genuine parallel edges between adjacent
  // levels; a BFS that double-walked them would still get distances right,
  // but a CSR mis-indexing would not. Pin the whole all-pairs table.
  const auto graph = sim::make_topology("butterfly:3");
  const DistanceOracle& oracle = graph->flat_adjacency().distance_oracle();
  std::vector<VertexId> all(graph->num_vertices());
  for (VertexId v = 0; v < graph->num_vertices(); ++v) all[v] = v;
  oracle.ensure_targets(all);
  for (const VertexId t : all) {
    const std::uint32_t* column = oracle.distances_to(t);
    ASSERT_NE(column, nullptr);
    const auto reference = reference_bfs(*graph, t);
    for (VertexId x = 0; x < graph->num_vertices(); ++x) {
      ASSERT_EQ(column[x], reference.at(x)) << "x=" << x << " t=" << t;
    }
  }
}

TEST(DistanceOracle, UnreachableSentinelMatchesTopologyDistance) {
  // Two components: {0,1,2} path and {3,4,5} path. Every cross-component
  // query must hit the sentinel in the oracle column, in Topology::distance,
  // and in the landmark bound (disconnection is provable from any landmark).
  const ExplicitGraph graph(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  const DistanceOracle& oracle = graph.flat_adjacency().distance_oracle();
  oracle.ensure_targets({0, 3});
  EXPECT_EQ(oracle.unreachable(), 6u);
  const std::uint32_t* to0 = oracle.distances_to(0);
  const std::uint32_t* to3 = oracle.distances_to(3);
  ASSERT_NE(to0, nullptr);
  ASSERT_NE(to3, nullptr);
  for (VertexId x = 0; x < 3; ++x) {
    EXPECT_EQ(to0[x], graph.distance(x, 0));
    EXPECT_EQ(to3[x], 6u);
    EXPECT_EQ(graph.distance(x, 3), 6u);
    EXPECT_EQ(oracle.lower_bound(x, 3), 6u) << "landmarks must prove disconnection";
    EXPECT_TRUE(graph.shortest_path(x, 3).empty());
  }
  for (VertexId x = 3; x < 6; ++x) {
    EXPECT_EQ(to3[x], graph.distance(x, 3));
    EXPECT_EQ(to0[x], 6u);
  }
  EXPECT_EQ(to0[2], 2u);
  EXPECT_EQ(to3[5], 2u);
}

TEST(DistanceOracle, DenseScratchDistanceRegressions) {
  // Regressions for the BFS inside Topology::distance / shortest_path, here
  // on the dense side of its VertexMarks scratch.
  for (const std::string& spec : {std::string("de_bruijn:5"), std::string("butterfly:3"),
                                  std::string("ccc:3")}) {
    SCOPED_TRACE(spec);
    const auto graph = sim::make_topology(spec);
    const std::uint64_t n = graph->num_vertices();
    for (VertexId u = 0; u < n; ++u) {
      // u == v short-circuits before touching any scratch.
      EXPECT_EQ(graph->distance(u, u), 0u);
      const auto self = graph->shortest_path(u, u);
      ASSERT_EQ(self.size(), 1u);
      EXPECT_EQ(self[0], u);
      const auto reference = reference_bfs(*graph, u);
      for (VertexId v = 0; v < n; ++v) {
        ASSERT_EQ(graph->distance(u, v), reference.at(v)) << "u=" << u << " v=" << v;
      }
    }
    // Interleaved distance / shortest_path calls must not corrupt the
    // shared scratch (each call opens its own epoch).
    Rng rng(derive_seed(2005, 4242));
    for (int i = 0; i < 32; ++i) {
      const VertexId u = uniform_below(rng, n);
      const VertexId v = uniform_below(rng, n);
      expect_valid_shortest_path(*graph, u, v);
      EXPECT_EQ(graph->distance(u, v), graph->distance(v, u));
    }
  }
}

TEST(DistanceOracle, ParallelEdgeExplicitGraphRegressions) {
  // Parallel edges and the metric BFS: distances see the multigraph as its
  // simple projection; shortest_path stays valid.
  const ExplicitGraph graph(4, {{0, 1}, {0, 1}, {1, 2}, {2, 3}, {2, 3}});
  EXPECT_EQ(graph.distance(0, 1), 1u);
  EXPECT_EQ(graph.distance(0, 3), 3u);
  EXPECT_EQ(graph.distance(3, 0), 3u);
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = 0; v < 4; ++v) expect_valid_shortest_path(graph, u, v);
  }
  const DistanceOracle oracle(graph.flat_adjacency());
  oracle.ensure_targets({0, 3});
  const std::uint32_t* to3 = oracle.distances_to(3);
  ASSERT_NE(to3, nullptr);
  EXPECT_EQ(to3[0], 3u);
  EXPECT_EQ(to3[2], 1u);
}

TEST(DistanceOracle, BudgetDenialFallsBackToExactDistance) {
  // 64-vertex graph: one column costs 256 bytes. A 600-byte budget admits
  // exactly two columns; the third request is denied and must fall back via
  // metric_distance to the identical Topology::distance value.
  const auto graph = sim::make_topology("de_bruijn:6");
  const FlatAdjacency& flat = graph->flat_adjacency();
  const DistanceOracle oracle(flat, 4, 600);
  oracle.ensure_targets({1, 2, 3});
  EXPECT_EQ(oracle.num_columns(), 2u);
  EXPECT_NE(oracle.distances_to(1), nullptr);
  EXPECT_NE(oracle.distances_to(2), nullptr);
  const std::uint32_t* denied = oracle.distances_to(3);
  EXPECT_EQ(denied, nullptr);
  for (VertexId x = 0; x < graph->num_vertices(); ++x) {
    EXPECT_EQ(metric_distance(*graph, denied, x, 3), graph->distance(x, 3));
    EXPECT_EQ(metric_distance(*graph, oracle.distances_to(1), x, 1), graph->distance(x, 1));
  }
  // Never-ensured and out-of-range targets answer nullptr, not UB.
  EXPECT_EQ(oracle.distances_to(17), nullptr);
  EXPECT_EQ(oracle.distances_to(graph->num_vertices() + 5), nullptr);
}

TEST(DistanceOracle, CachedOnSnapshotAndIdempotent) {
  const auto graph = sim::make_topology("shuffle_exchange:5");
  const FlatAdjacency& flat = graph->flat_adjacency();
  const DistanceOracle& first = flat.distance_oracle();
  const DistanceOracle& second = flat.distance_oracle();
  EXPECT_EQ(&first, &second) << "one oracle per snapshot";
  first.ensure_targets({7, 9});
  const std::size_t built = first.num_columns();
  const std::uint32_t* before = first.distances_to(7);
  ASSERT_NE(before, nullptr);
  first.ensure_targets({7, 9, 7});
  EXPECT_EQ(first.num_columns(), built) << "re-ensuring must not rebuild";
  EXPECT_EQ(first.distances_to(7), before) << "column pointers are stable";
}

}  // namespace
}  // namespace faultroute
