#include "core/routers/greedy_router.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/distance_oracle.hpp"
#include "graph/flat_adjacency.hpp"

namespace faultroute {

namespace {

using Frontier = std::vector<std::pair<std::uint64_t, VertexId>>;  // (distance-to-target, vertex)

/// Fills `row` with the fault-free distance from each neighbor of x to v —
/// the oracle column's entries when `col` is cached, else one
/// Topology::neighbor_distances call (identical values either way) — and
/// returns x's degree. Neighbor scans go through the adjacency view (CSR
/// row when a snapshot is up). Every entry must lie within one of d =
/// d(x, v), as in any graph metric: the metric routers' (distance, slot)
/// probe order is then slot order within the buckets d - 1, d and d + 1, and
/// needs no sort. An entry outside them throws std::logic_error naming the
/// topology.
int fill_row(const AdjacencyView& adj, const std::uint32_t* col, VertexId x, VertexId v,
             std::uint64_t d, detail::DistanceRow& row) {
  const int deg = adj.degree(x);
  const auto size = static_cast<std::size_t>(deg);
  if (row.size() < size) row.resize(size);  // analyze:allow-hot-alloc(pooled row, grows to the maximum degree once)
  if (col != nullptr) {
    for (int i = 0; i < deg; ++i) row[static_cast<std::size_t>(i)] = col[adj.neighbor(x, i)];
  } else {
    adj.graph().neighbor_distances(x, v, row.data());
  }
  for (std::size_t i = 0; i < size; ++i) {
    if (row[i] + 1 < d || row[i] > d + 1) {
      // analyze:allow-throw-safety(contract violation: a topology whose neighbor distances break the graph metric)
      throw std::logic_error("metric router: " + adj.graph().name() + " puts neighbor " +
                             std::to_string(i) + " of vertex " + std::to_string(x) +
                             " at distance " + std::to_string(row[i]) + " from " +
                             std::to_string(v) + ", more than one away from " +
                             std::to_string(d));
    }
  }
  return deg;
}

/// The best-first search loop. The frontier is a pooled min-heap driven exactly as std::priority_queue drives its
/// container (push_back + push_heap, pop_heap + pop_back), so expansion order
/// matches a priority_queue with std::greater<>.
std::optional<Path> best_first_search(ProbeContext& ctx, const AdjacencyView& adj,
                                      const std::uint32_t* col, VertexId u, VertexId v,
                                      VertexMarks& parent, VertexMarks& expanded,
                                      detail::DistanceRow& row, Frontier& frontier) {
  const Topology& graph = adj.graph();
  const std::uint64_t n = graph.num_vertices();
  parent.begin(n);
  expanded.begin(n);
  frontier.clear();
  parent.emplace(u, u);
  frontier.emplace_back(metric_distance(graph, col, u, v), u);  // analyze:allow-hot-alloc(pooled frontier retains capacity across messages)
  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end(), std::greater<>());
    const auto [d, x] = frontier.back();
    frontier.pop_back();
    if (!expanded.emplace(x, x)) continue;  // already expanded
    ctx.note_expansion();
    const int deg = fill_row(adj, col, x, v, d, row);
    // Slots in (distance, slot) order: the buckets d - 1, d, d + 1, each in
    // slot order (d >= 1, since v is never pushed).
    for (std::uint64_t dy = d - 1; dy <= d + 1; ++dy) {
      for (int i = 0; i < deg; ++i) {
        if (row[static_cast<std::size_t>(i)] != dy) continue;
        const VertexId y = adj.neighbor(x, i);
        if (parent.contains(y)) continue;
        if (!ctx.probe(x, i)) continue;
        parent.emplace(y, x);
        if (y == v) {
          Path path;
          for (VertexId z = v;; z = parent.at(z)) {
            path.push_back(z);  // analyze:allow-hot-alloc(path materialization of the returned route)
            if (z == u) break;
          }
          std::reverse(path.begin(), path.end());
          return path;
        }
        frontier.emplace_back(dy, y);  // analyze:allow-hot-alloc(pooled frontier retains capacity across messages)
        std::push_heap(frontier.begin(), frontier.end(), std::greater<>());
      }
    }
  }
  return std::nullopt;
}

}  // namespace

namespace detail {

bool greedy_step(ProbeContext& ctx, const AdjacencyView& adj, const std::uint32_t* col,
                 VertexId& x, std::uint64_t& d, VertexId v, DistanceRow& row) {
  const int deg = fill_row(adj, col, x, v, d, row);
  for (int i = 0; i < deg; ++i) {
    if (row[static_cast<std::size_t>(i)] + 1 == d && ctx.probe(x, i)) {
      x = adj.neighbor(x, i);
      --d;
      return true;
    }
  }
  return false;
}

}  // namespace detail

std::optional<Path> GreedyDescentRouter::route(ProbeContext& ctx, VertexId u, VertexId v) {
  const AdjacencyView adj(ctx.graph(), ctx.flat_adjacency());
  const std::uint32_t* col = ctx.target_distances(v);
  // Every accepted move lowers the fault-free distance d to v by one, so a
  // reachable target bounds the path at d + 1 vertices.
  std::uint64_t d = metric_distance(ctx.graph(), col, u, v);
  Path path;
  if (d < ctx.graph().num_vertices()) path.reserve(d + 1);  // analyze:allow-hot-alloc(path materialization, reserved once to its bound)
  path.push_back(u);  // analyze:allow-hot-alloc(fills the reservation above)
  VertexId x = u;
  while (x != v) {
    ctx.note_expansion();  // each visited vertex is this router's "frontier pop"
    if (!detail::greedy_step(ctx, adj, col, x, d, v, row_)) {
      return std::nullopt;  // stuck: pure greedy gives up
    }
    path.push_back(x);  // analyze:allow-hot-alloc(path materialization, one vertex per accepted move)
  }
  return path;
}

std::optional<Path> BestFirstRouter::route(ProbeContext& ctx, VertexId u, VertexId v) {
  if (u == v) return Path{u};
  const AdjacencyView adj(ctx.graph(), ctx.flat_adjacency());
  const std::uint32_t* col = ctx.target_distances(v);
  return best_first_search(ctx, adj, col, u, v, parent_, expanded_, row_, frontier_);
}

}  // namespace faultroute
