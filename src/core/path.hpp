#pragma once

#include <vector>

#include "graph/flat_adjacency.hpp"
#include "graph/topology.hpp"
#include "percolation/edge_sampler.hpp"

namespace faultroute {

/// A walk in a topology, as the sequence of visited vertices.
using Path = std::vector<VertexId>;

/// True iff `path` is a walk from `from` to `to` along edges of `graph` all
/// of which are open under `sampler`. An empty path is never valid; a
/// single-vertex path is valid iff from == to == path[0].
[[nodiscard]] bool is_valid_open_path(const Topology& graph, const EdgeSampler& sampler,
                                      const Path& path, VertexId from, VertexId to);

/// Identical verdict through an adjacency view: CSR row scans (and indexed
/// sampler queries) when the view holds a snapshot, the virtual interface
/// otherwise. The Topology overload above is this one with no snapshot.
[[nodiscard]] bool is_valid_open_path(const AdjacencyView& adj, const EdgeSampler& sampler,
                                      const Path& path, VertexId from, VertexId to);

/// Removes loops from a walk: whenever a vertex repeats, the portion between
/// the repeats is cut. The result is a simple path with the same endpoints.
/// The walk is compacted in place and returned, so a moved-in walk costs no
/// allocation; the position table behind it is pooled per thread.
[[nodiscard]] Path simplify_walk(Path walk);

/// Number of edges of the path (0 for empty or single-vertex paths).
[[nodiscard]] std::size_t path_length(const Path& path);

}  // namespace faultroute
