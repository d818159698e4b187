#include "graph/flat_adjacency.hpp"

#include <new>

#include "graph/bfs_scratch.hpp"
#include "graph/distance_oracle.hpp"
#include "obs/counter_registry.hpp"

namespace faultroute {

FlatAdjacency::FlatAdjacency(const Topology& graph)
    : graph_(&graph), offsets_(nullptr) {
  // Global counter (not per-run): snapshots are often materialized by
  // library callers with no RunMetrics in scope, and a surprise count here
  // is exactly what --metrics should surface (e.g. an accidental rebuild
  // per cell instead of one per topology). Mapped-snapshot views (the
  // constructor in snapshot.cpp) deliberately do not count — nothing is
  // materialized there, which is what CI's warm-start check pins.
  obs::global_count("graph.flat_adjacency.materializations");
  const ChannelIndex& index = graph.channel_index();
  offsets_ = index.offsets_data();
  num_vertices_ = graph.num_vertices();

  num_channels_ = index.num_channels();
  try {
    owned_.resize(2 * std::uint64_t{num_channels_});
  } catch (const std::bad_alloc&) {
    throw_allocation_failure(graph, "CSR adjacency",
                             std::uint64_t{num_channels_} * (sizeof(VertexId) + sizeof(EdgeKey)));
  }
  VertexId* const neighbors = owned_.data();
  EdgeKey* const keys = owned_.data() + num_channels_;
  // One pass in channel order: slot i of v lands at flat position
  // channel_of(v, i) by construction.
  std::uint32_t channel = 0;
  for (VertexId v = 0; v < num_vertices_; ++v) {
    const int deg = graph.degree(v);
    for (int i = 0; i < deg; ++i, ++channel) {
      neighbors[channel] = graph.neighbor(v, i);
      keys[channel] = graph.edge_key(v, i);
    }
  }
  num_edge_ids_ = index.num_edge_ids();
  neighbors_ = neighbors;
  keys_ = keys;
  edge_ids_ = index.edge_ids_data();
}

FlatAdjacency::~FlatAdjacency() = default;

const DistanceOracle& FlatAdjacency::distance_oracle() const {
  std::call_once(oracle_once_,
                 [this] { oracle_ = std::make_unique<DistanceOracle>(*this); });
  return *oracle_;
}

namespace {

bool fits_budget(const Topology& graph, std::uint64_t flat_budget_vertices) {
  return flat_budget_vertices != 0 && graph.num_vertices() <= flat_budget_vertices;
}

}  // namespace

bool routes_on_closed_form(const Topology& graph, std::uint64_t flat_budget_vertices) {
  const ClosedFormFamily family = closed_form_family(graph);
  return family.hypercube != nullptr ||
         (family.mesh != nullptr && !fits_budget(graph, flat_budget_vertices));
}

const FlatAdjacency* resolve_adjacency(const Topology& graph,
                                       std::uint64_t flat_budget_vertices) {
  if (routes_on_closed_form(graph, flat_budget_vertices)) return nullptr;  // not a fall-back
  if (fits_budget(graph, flat_budget_vertices)) return &graph.flat_adjacency();
  // Falling back to virtual dispatch above budget is correct but slow;
  // count it globally so large-graph perf regressions are visible in
  // --metrics reports rather than only in wall clock.
  obs::global_count("graph.flat_adjacency.auto_fallbacks");
  return nullptr;
}

int edge_index_of(const FlatAdjacency& flat, VertexId u, VertexId v) {
  const std::uint64_t begin = flat.row_begin(u);
  const std::uint64_t end = flat.row_end(u);
  for (std::uint64_t pos = begin; pos < end; ++pos) {
    if (flat.neighbor_at(pos) == v) return static_cast<int>(pos - begin);
  }
  return -1;
}

void shortest_path(const AdjacencyView& adj, VertexId u, VertexId v,
                   std::vector<VertexId>& path) {
  const FlatAdjacency* flat = adj.flat();
  if (flat == nullptr || adj.graph().has_closed_form_metric()) {
    path = adj.graph().shortest_path(u, v);
    return;
  }
  detail::bfs_shortest_path(*flat, flat->num_vertices(), u, v, path);
}

}  // namespace faultroute
