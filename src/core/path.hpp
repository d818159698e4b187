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

/// The same verdict through one row accessor of graph/flat_adjacency.hpp
/// (the CSR, a family's closed form or the virtual interface), for callers
/// that validate a batch under one AdjacencyView::visit.
template <typename Rows>
[[nodiscard]] bool is_valid_open_path_on(const Rows& rows, const EdgeSampler& sampler,
                                         const Path& path, VertexId from, VertexId to) {
  if (path.empty()) return false;
  if (path.front() != from || path.back() != to) return false;
  for (std::size_t step = 0; step + 1 < path.size(); ++step) {
    const VertexId a = path[step];
    const VertexId b = path[step + 1];
    int i = rows.edge_index_of(a, b);
    if (i < 0) return false;
    // Accept the edge if *any* parallel copy of {a, b} is open: past a
    // closed copy, look for the next slot of a that leads to b.
    const int deg = rows.degree(a);
    while (!detail::slot_open(rows, sampler, a, i)) {
      do {
        ++i;
      } while (i < deg && rows.neighbor(a, i) != b);
      if (i == deg) return false;
    }
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
