#pragma once

#include <cstdint>

#include "graph/flat_adjacency.hpp"
#include "graph/topology.hpp"
#include "percolation/edge_sampler.hpp"

namespace faultroute::detail {

/// Open-edge access over one adjacency backend, so each percolation sweep
/// and BFS is written once as a template over it. Vertex v's incident slots
/// occupy the positions [row_begin(v), row_end(v)); neighbor() and is_open()
/// take the vertex together with a position. Both backends enumerate the
/// same slots in the same order with the same verdicts.

/// CSR rows, queried through the sampler's indexed entry point.
struct FlatOpenEdges {
  const FlatAdjacency& flat;
  const EdgeSampler& sampler;

  [[nodiscard]] std::uint64_t num_vertices() const { return flat.num_vertices(); }
  [[nodiscard]] std::uint64_t row_begin(VertexId v) const { return flat.row_begin(v); }
  [[nodiscard]] std::uint64_t row_end(VertexId v) const { return flat.row_end(v); }
  [[nodiscard]] VertexId neighbor(VertexId /*v*/, std::uint64_t pos) const {
    return flat.neighbor_at(pos);
  }
  [[nodiscard]] bool is_open(VertexId /*v*/, std::uint64_t pos) const {
    return sampler.is_open_indexed(flat.edge_id_at(pos), flat.edge_key_at(pos));
  }
};

/// The virtual Topology interface; a position is the slot index.
struct ImplicitOpenEdges {
  const Topology& graph;
  const EdgeSampler& sampler;

  [[nodiscard]] std::uint64_t num_vertices() const { return graph.num_vertices(); }
  [[nodiscard]] std::uint64_t row_begin(VertexId /*v*/) const { return 0; }
  [[nodiscard]] std::uint64_t row_end(VertexId v) const {
    return static_cast<std::uint64_t>(graph.degree(v));
  }
  [[nodiscard]] VertexId neighbor(VertexId v, std::uint64_t i) const {
    return graph.neighbor(v, static_cast<int>(i));
  }
  [[nodiscard]] bool is_open(VertexId v, std::uint64_t i) const {
    return sampler.is_open(graph.edge_key(v, static_cast<int>(i)));
  }
};

/// Returns fn(edges) for the backend resolve_adjacency picks on `graph`
/// under `flat_budget_vertices`: FlatOpenEdges over the snapshot,
/// ImplicitOpenEdges otherwise.
template <typename Fn>
auto with_open_edges(const Topology& graph, const EdgeSampler& sampler,
                     std::uint64_t flat_budget_vertices, Fn&& fn) {
  if (const FlatAdjacency* flat = resolve_adjacency(graph, flat_budget_vertices)) {
    return fn(FlatOpenEdges{*flat, sampler});
  }
  return fn(ImplicitOpenEdges{graph, sampler});
}

}  // namespace faultroute::detail
