#pragma once

#include <cstdint>
#include <type_traits>

#include "graph/flat_adjacency.hpp"
#include "graph/topology.hpp"
#include "percolation/edge_sampler.hpp"

namespace faultroute::detail {

/// The sampler's verdict on slot i of v, through a row accessor of
/// graph/flat_adjacency.hpp. On the CSR the edge id is one load, so the
/// query goes through the sampler's indexed entry point; elsewhere the key
/// alone is asked, since pure samplers ignore the id. The answer is the
/// same either way.
template <typename Rows>
[[nodiscard]] bool slot_open(const Rows& rows, const EdgeSampler& sampler, VertexId v, int i) {
  if constexpr (std::is_same_v<Rows, FlatRows>) {
    return sampler.is_open_indexed(rows.edge_id(v, i), rows.edge_key(v, i));
  } else {
    return sampler.is_open(rows.edge_key(v, i));
  }
}

/// Open-edge access over one adjacency backend, so each percolation sweep
/// and BFS is written once as a template over it. Vertex v's incident slots
/// occupy the positions [row_begin(v), row_end(v)); neighbor() and is_open()
/// take the vertex together with a position. Every backend enumerates the
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

/// A graph without a CSR, through its closed-form or virtual row accessor;
/// a position is the slot index.
template <typename Rows>
struct ImplicitOpenEdges {
  Rows rows;
  const EdgeSampler& sampler;

  [[nodiscard]] std::uint64_t num_vertices() const { return rows.graph().num_vertices(); }
  [[nodiscard]] std::uint64_t row_begin(VertexId /*v*/) const { return 0; }
  [[nodiscard]] std::uint64_t row_end(VertexId v) const {
    return static_cast<std::uint64_t>(rows.degree(v));
  }
  [[nodiscard]] VertexId neighbor(VertexId v, std::uint64_t i) const {
    return rows.neighbor(v, static_cast<int>(i));
  }
  [[nodiscard]] bool is_open(VertexId v, std::uint64_t i) const {
    return slot_open(rows, sampler, v, static_cast<int>(i));
  }
};

/// Returns fn(edges) for the backend resolve_adjacency picks on `graph`
/// under `flat_budget_vertices`: FlatOpenEdges over the snapshot, else
/// ImplicitOpenEdges over the family's closed form or the virtual
/// interface.
template <typename Fn>
auto with_open_edges(const Topology& graph, const EdgeSampler& sampler,
                     std::uint64_t flat_budget_vertices, Fn&& fn) {
  const FlatAdjacency* flat = resolve_adjacency(graph, flat_budget_vertices);
  if (flat != nullptr) return fn(FlatOpenEdges{*flat, sampler});
  return AdjacencyView(graph, nullptr).visit([&](const auto& rows) {
    return fn(ImplicitOpenEdges<std::decay_t<decltype(rows)>>{rows, sampler});
  });
}

}  // namespace faultroute::detail
