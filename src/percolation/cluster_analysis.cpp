#include "percolation/cluster_analysis.hpp"

#include "graph/bfs_scratch.hpp"
#include "percolation/open_edges.hpp"

namespace faultroute {

namespace {

/// Applies `fn(v, w)` to every open edge, visiting each undirected edge once
/// (from its lower-id endpoint; parallel edges appear as separate slots of
/// that endpoint, so they stay exact).
template <typename Edges, typename Fn>
void for_each_open_edge(const Edges& edges, Fn&& fn) {
  const std::uint64_t n = edges.num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    const std::uint64_t end = edges.row_end(v);
    for (std::uint64_t pos = edges.row_begin(v); pos < end; ++pos) {
      const VertexId w = edges.neighbor(v, pos);
      if (w <= v) continue;  // visit each edge from its lower endpoint only
      if (edges.is_open(v, pos)) fn(v, w);
    }
  }
}

template <typename Edges>
std::vector<VertexId> open_cluster_bfs(const Edges& edges, VertexId source,
                                       std::uint64_t max_vertices) {
  // The BFS queue *is* the returned visit order (a vertex is enqueued
  // exactly when first visited), so one vector with a head cursor serves as
  // both.
  std::vector<VertexId> order;
  detail::BfsScratch& scratch = detail::bfs_scratch();
  scratch.begin(edges.num_vertices());
  scratch.marks.emplace(source, source);
  order.push_back(source);
  std::size_t head = 0;
  while (head < order.size()) {
    if (max_vertices != 0 && order.size() >= max_vertices) break;
    const VertexId x = order[head++];
    const std::uint64_t end = edges.row_end(x);
    for (std::uint64_t pos = edges.row_begin(x); pos < end; ++pos) {
      const VertexId y = edges.neighbor(x, pos);
      if (scratch.marks.contains(y)) continue;
      if (!edges.is_open(x, pos)) continue;
      scratch.marks.emplace(y, x);
      order.push_back(y);
      if (max_vertices != 0 && order.size() >= max_vertices) return order;
    }
  }
  return order;
}

template <typename Edges>
std::optional<bool> open_connected_bfs(const Edges& edges, VertexId u, VertexId v,
                                       std::uint64_t max_vertices) {
  detail::BfsScratch& scratch = detail::bfs_scratch();
  scratch.begin(edges.num_vertices());
  scratch.marks.emplace(u, u);
  scratch.queue.push_back(u);
  std::uint64_t count = 1;
  std::size_t head = 0;
  while (head < scratch.queue.size()) {
    const VertexId x = scratch.queue[head++];
    const std::uint64_t end = edges.row_end(x);
    for (std::uint64_t pos = edges.row_begin(x); pos < end; ++pos) {
      const VertexId y = edges.neighbor(x, pos);
      if (scratch.marks.contains(y)) continue;
      if (!edges.is_open(x, pos)) continue;
      if (y == v) return true;
      scratch.marks.emplace(y, x);
      ++count;
      if (max_vertices != 0 && count >= max_vertices) return std::nullopt;
      scratch.queue.push_back(y);
    }
  }
  return false;
}

}  // namespace

ClusterDecomposition::ClusterDecomposition(const Topology& graph, const EdgeSampler& sampler,
                                           std::uint64_t flat_budget_vertices)
    : dsu_(graph.num_vertices()), largest_root_(0) {
  summary_.num_vertices = graph.num_vertices();
  const auto accumulate = [this](VertexId a, VertexId b) {
    ++summary_.num_open_edges;
    dsu_.unite(a, b);
  };
  detail::with_open_edges(graph, sampler, flat_budget_vertices,
                          [&](const auto& open) { for_each_open_edge(open, accumulate); });
  summary_.num_components = dsu_.num_components();
  // Scan roots for the two largest clusters.
  for (VertexId v = 0; v < summary_.num_vertices; ++v) {
    if (dsu_.find(v) != v) continue;
    const std::uint64_t size = dsu_.size_of(v);
    if (size > summary_.largest) {
      summary_.second_largest = summary_.largest;
      summary_.largest = size;
      largest_root_ = v;
    } else if (size > summary_.second_largest) {
      summary_.second_largest = size;
    }
  }
}

bool ClusterDecomposition::in_largest_cluster(VertexId v) {
  return dsu_.find(v) == largest_root_;
}

ComponentSummary analyze_components(const Topology& graph, const EdgeSampler& sampler,
                                    std::uint64_t flat_budget_vertices) {
  return ClusterDecomposition(graph, sampler, flat_budget_vertices).summary();
}

std::vector<VertexId> open_cluster_of(const Topology& graph, const EdgeSampler& sampler,
                                      VertexId source, std::uint64_t max_vertices,
                                      std::uint64_t flat_budget_vertices) {
  return detail::with_open_edges(graph, sampler, flat_budget_vertices, [&](const auto& edges) {
    return open_cluster_bfs(edges, source, max_vertices);
  });
}

std::optional<bool> open_connected(const Topology& graph, const EdgeSampler& sampler,
                                   VertexId u, VertexId v, std::uint64_t max_vertices,
                                   std::uint64_t flat_budget_vertices) {
  if (u == v) return true;
  return detail::with_open_edges(graph, sampler, flat_budget_vertices, [&](const auto& edges) {
    return open_connected_bfs(edges, u, v, max_vertices);
  });
}

ExplicitGraph materialize_open_subgraph(const Topology& graph, const EdgeSampler& sampler,
                                        std::uint64_t flat_budget_vertices) {
  ExplicitGraph::EdgeList edges;
  const auto collect = [&edges](VertexId a, VertexId b) { edges.emplace_back(a, b); };
  detail::with_open_edges(graph, sampler, flat_budget_vertices,
                          [&](const auto& open) { for_each_open_edge(open, collect); });
  return ExplicitGraph(graph.num_vertices(), edges);
}

}  // namespace faultroute
