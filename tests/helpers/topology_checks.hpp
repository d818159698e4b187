#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/channel_index.hpp"
#include "graph/topology.hpp"
#include "helpers/reference_edge_ids.hpp"
#include "random/rng.hpp"

namespace faultroute::testing {

/// Structural invariants every Topology must satisfy. These are exhaustive
/// over the graph, so call them on small instances only.

/// neighbor() is symmetric and edge keys agree across the two endpoints:
/// for every incident edge (v, i) there is a matching (w, j) with the same
/// canonical key, and the match is a bijection (parallel edges pair up).
inline void check_adjacency_symmetry(const Topology& g) {
  const std::uint64_t n = g.num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    const int deg = g.degree(v);
    for (int i = 0; i < deg; ++i) {
      const VertexId w = g.neighbor(v, i);
      ASSERT_LT(w, n) << g.name() << ": neighbor out of range at (" << v << "," << i << ")";
      ASSERT_NE(w, v) << g.name() << ": self-loop at " << v;
      const EdgeKey key = g.edge_key(v, i);
      // Exactly one incident slot of w must carry the same key back to v.
      int matches = 0;
      const int deg_w = g.degree(w);
      for (int j = 0; j < deg_w; ++j) {
        if (g.neighbor(w, j) == v && g.edge_key(w, j) == key) ++matches;
      }
      ASSERT_EQ(matches, 1) << g.name() << ": edge (" << v << "," << w
                            << ") key mismatch or multiplicity error";
      // The canonical key must decode back to this endpoint pair.
      const EdgeEndpoints ends = g.endpoints(key);
      const bool forward = ends.a == v && ends.b == w;
      const bool backward = ends.a == w && ends.b == v;
      ASSERT_TRUE(forward || backward)
          << g.name() << ": endpoints(" << key << ") != {" << v << "," << w << "}";
    }
  }
}

/// Every canonical key appears from exactly two (vertex, slot) pairs, the
/// number of distinct keys equals num_edges(), and the degree sum is twice
/// the edge count.
inline void check_edge_key_census(const Topology& g) {
  const std::uint64_t n = g.num_vertices();
  std::map<EdgeKey, int> key_count;
  std::uint64_t degree_sum = 0;
  for (VertexId v = 0; v < n; ++v) {
    const int deg = g.degree(v);
    degree_sum += static_cast<std::uint64_t>(deg);
    for (int i = 0; i < deg; ++i) ++key_count[g.edge_key(v, i)];
  }
  for (const auto& [key, count] : key_count) {
    ASSERT_EQ(count, 2) << g.name() << ": key " << key << " seen " << count << " times";
  }
  ASSERT_EQ(key_count.size(), g.num_edges()) << g.name() << ": num_edges mismatch";
  ASSERT_EQ(degree_sum, 2 * g.num_edges()) << g.name() << ": handshake lemma violated";
}

/// distance() agrees with a BFS on the implicit graph for the given pairs.
inline void check_distance_against_bfs(const Topology& g,
                                       const std::vector<std::pair<VertexId, VertexId>>& pairs) {
  for (const auto& [u, v] : pairs) {
    // The base-class implementation *is* a BFS; invoke it explicitly so
    // overrides are compared against it.
    const std::uint64_t bfs = g.Topology::distance(u, v);
    ASSERT_EQ(g.distance(u, v), bfs)
        << g.name() << ": distance(" << u << "," << v << ") disagrees with BFS";
  }
}

/// shortest_path() endpoints, adjacency of consecutive vertices, and length
/// == distance, for the given pairs.
inline void check_shortest_path(const Topology& g,
                                const std::vector<std::pair<VertexId, VertexId>>& pairs) {
  for (const auto& [u, v] : pairs) {
    const auto path = g.shortest_path(u, v);
    ASSERT_FALSE(path.empty()) << g.name() << ": no path " << u << " -> " << v;
    ASSERT_EQ(path.front(), u);
    ASSERT_EQ(path.back(), v);
    ASSERT_EQ(path.size() - 1, g.distance(u, v))
        << g.name() << ": path is not shortest for (" << u << "," << v << ")";
    for (std::size_t s = 0; s + 1 < path.size(); ++s) {
      ASSERT_GE(edge_index_of(g, path[s], path[s + 1]), 0)
          << g.name() << ": path step " << s << " not an edge";
    }
    // A shortest path never repeats vertices.
    const std::set<VertexId> unique(path.begin(), path.end());
    ASSERT_EQ(unique.size(), path.size()) << g.name() << ": path repeats a vertex";
  }
}

/// neighbor_distances() row contract at the given (x, target) pairs: entry i
/// is distance(neighbor(x, i), target), within one of distance(x, target)
/// (the metric routers' bucket order depends on both), and nothing past
/// degree(x) is written.
inline void check_neighbor_distances(const Topology& g,
                                     const std::vector<std::pair<VertexId, VertexId>>& pairs) {
  constexpr std::uint64_t kUnwritten = ~std::uint64_t{0};
  std::vector<std::uint64_t> row;
  for (const auto& [x, t] : pairs) {
    const auto deg = static_cast<std::size_t>(g.degree(x));
    row.assign(deg + 1, kUnwritten);
    g.neighbor_distances(x, t, row.data());
    const std::uint64_t d = g.distance(x, t);
    for (std::size_t i = 0; i < deg; ++i) {
      ASSERT_EQ(row[i], g.distance(g.neighbor(x, static_cast<int>(i)), t))
          << g.name() << ": neighbor_distances(" << x << "," << t << ")[" << i << "]";
      ASSERT_LE(row[i], d + 1) << g.name() << ": (" << x << "," << t << ") slot " << i;
      ASSERT_LE(d, row[i] + 1) << g.name() << ": (" << x << "," << t << ") slot " << i;
    }
    ASSERT_EQ(row[deg], kUnwritten) << g.name() << ": row of " << x << " overruns its degree";
  }
}

/// `count` uniformly random (x, target) pairs of g, reproducible per seed.
inline std::vector<std::pair<VertexId, VertexId>> random_vertex_pairs(const Topology& g,
                                                                      int count,
                                                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (int k = 0; k < count; ++k) {
    const VertexId x = uniform_below(rng, g.num_vertices());
    pairs.emplace_back(x, uniform_below(rng, g.num_vertices()));
  }
  return pairs;
}

/// Holds a row accessor of graph/flat_adjacency.hpp (the CSR's FlatRows, a
/// family's ClosedFormRows, VirtualRows) to the virtual interface slot for
/// slot: degree, neighbor and edge key; the edge id against the
/// first-appearance numbering of reference::first_appearance_edge_ids; and
/// edge_index_of against the Topology overload, from every vertex to each
/// of its neighbors and to 64 random vertices.
template <typename Rows>
inline void check_rows_match_virtual(const Rows& rows, const Topology& g,
                                     const std::string& label) {
  const ChannelIndex& index = g.channel_index();
  const std::vector<std::uint32_t> ids = reference::first_appearance_edge_ids(g);
  const std::uint64_t n = g.num_vertices();
  ASSERT_EQ(&rows.graph(), &g) << label;
  for (VertexId v = 0; v < n; ++v) {
    const int deg = g.degree(v);
    ASSERT_EQ(rows.degree(v), deg) << label << " v=" << v;
    for (int i = 0; i < deg; ++i) {
      const VertexId w = g.neighbor(v, i);
      ASSERT_EQ(rows.neighbor(v, i), w) << label << " v=" << v << " i=" << i;
      ASSERT_EQ(rows.edge_key(v, i), g.edge_key(v, i)) << label << " v=" << v << " i=" << i;
      ASSERT_EQ(rows.edge_id(v, i), ids[index.channel_of(v, i)])
          << label << " v=" << v << " i=" << i;
      ASSERT_EQ(rows.edge_index_of(v, w), edge_index_of(g, v, w))
          << label << " v=" << v << " w=" << w;
      if constexpr (requires { rows.row(v); }) {
        const auto row = rows.row(v);
        ASSERT_EQ(row.neighbor(v, i), w) << label << " row v=" << v << " i=" << i;
        ASSERT_EQ(row.edge_key(v, i), g.edge_key(v, i)) << label << " row v=" << v << " i=" << i;
        ASSERT_EQ(row.edge_id(v, i), ids[index.channel_of(v, i)])
            << label << " row v=" << v << " i=" << i;
      }
    }
  }
  Rng rng(n);
  for (int k = 0; k < 64; ++k) {
    const VertexId u = uniform_below(rng, n);
    const VertexId w = uniform_below(rng, n);
    ASSERT_EQ(rows.edge_index_of(u, w), edge_index_of(g, u, w))
        << label << " u=" << u << " w=" << w;
  }
}

/// Runs every structural check on a small topology.
inline void check_topology_invariants(const Topology& g) {
  check_adjacency_symmetry(g);
  check_edge_key_census(g);
}

}  // namespace faultroute::testing
