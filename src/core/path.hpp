#pragma once

#include <cstddef>
#include <vector>

#include "graph/flat_adjacency.hpp"
#include "graph/topology.hpp"
#include "percolation/edge_sampler.hpp"
#include "percolation/open_edges.hpp"

namespace faultroute {

/// A walk in a topology, as the sequence of visited vertices.
using Path = std::vector<VertexId>;

/// True iff `path` is a walk from `from` to `to` along edges of `graph` all
/// of which are open under `sampler`. An empty path is never valid; a
/// single-vertex path is valid iff from == to == path[0].
[[nodiscard]] bool is_valid_open_path(const Topology& graph, const EdgeSampler& sampler,
                                      const Path& path, VertexId from, VertexId to);

/// is_valid_open_path's verdict through one row accessor of
/// graph/flat_adjacency.hpp (the CSR, a family's closed form or the virtual
/// interface), for callers that validate a batch under one
/// AdjacencyView::visit. Each hop a -> b of a valid path is handed to
/// `on_hop(a, b, slot)` in path order, with the lowest slot of a that leads
/// to b (edge_index_of's, even where that parallel copy is closed and a
/// later one is open), so a caller needs no second lookup per hop. On an
/// invalid path, on_hop may already have seen a prefix of its hops.
template <typename Rows, typename OnHop>
[[nodiscard]] bool visit_open_path(const Rows& rows, const EdgeSampler& sampler, const Path& path,
                                   VertexId from, VertexId to, OnHop&& on_hop) {
  if (path.empty()) return false;
  if (path.front() != from || path.back() != to) return false;
  for (std::size_t step = 0; step + 1 < path.size(); ++step) {
    const VertexId a = path[step];
    const VertexId b = path[step + 1];
    const int first = rows.edge_index_of(a, b);
    if (first < 0) return false;
    // Accept the edge if *any* parallel copy of {a, b} is open: past a
    // closed copy, look for the next slot of a that leads to b.
    const int deg = rows.degree(a);
    for (int i = first; !detail::slot_open(rows, sampler, a, i);) {
      do {
        ++i;
      } while (i < deg && rows.neighbor(a, i) != b);
      if (i == deg) return false;
    }
    on_hop(a, b, first);
  }
  return true;
}

/// Removes loops from a walk: whenever a vertex repeats, the portion between
/// the repeats is cut. The result is a simple path with the same endpoints.
/// The walk is compacted in place and returned, so a moved-in walk costs no
/// allocation; the position table behind it is pooled per thread.
[[nodiscard]] Path simplify_walk(Path walk);

/// Number of edges of the path (0 for empty or single-vertex paths).
[[nodiscard]] std::size_t path_length(const Path& path);

}  // namespace faultroute
