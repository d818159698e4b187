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
/// returns x's degree. Neighbor scans go through the row accessor `rows`
/// (graph/flat_adjacency.hpp). Every entry must lie within one of d =
/// d(x, v), as in any graph metric: the metric routers' (distance, slot)
/// probe order is then slot order within the buckets d - 1, d and d + 1, and
/// needs no sort. An entry outside them throws std::logic_error naming the
/// topology.
template <typename Rows>
int fill_row(const Rows& rows, const std::uint32_t* col, VertexId x, VertexId v,
             std::uint64_t d, detail::DistanceRow& row) {
  const int deg = rows.degree(x);
  const auto size = static_cast<std::size_t>(deg);
  if (row.size() < size) row.resize(size);  // analyze:allow-hot-alloc(pooled row, grows to the maximum degree once)
  if (col != nullptr) {
    for (int i = 0; i < deg; ++i) row[static_cast<std::size_t>(i)] = col[rows.neighbor(x, i)];
  } else {
    rows.graph().neighbor_distances(x, v, row.data());
  }
  for (std::size_t i = 0; i < size; ++i) {
    if (row[i] + 1 < d || row[i] > d + 1) {
      // analyze:allow-throw-safety(contract violation: a topology whose neighbor distances break the graph metric)
      throw std::logic_error("metric router: " + rows.graph().name() + " puts neighbor " +
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
template <typename Rows>
std::optional<Path> best_first_search(ProbeContext& ctx, const Rows& rows,
                                      const std::uint32_t* col, VertexId u, VertexId v,
                                      VertexMarks& parent, VertexMarks& expanded,
                                      detail::DistanceRow& row, Frontier& frontier) {
  const Topology& graph = rows.graph();
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
    const int deg = fill_row(rows, col, x, v, d, row);
    // Slots in (distance, slot) order: the buckets d - 1, d, d + 1, each in
    // slot order (d >= 1, since v is never pushed).
    for (std::uint64_t dy = d - 1; dy <= d + 1; ++dy) {
      for (int i = 0; i < deg; ++i) {
        if (row[static_cast<std::size_t>(i)] != dy) continue;
        const VertexId y = rows.neighbor(x, i);
        if (parent.contains(y)) continue;
        if (!ctx.probe(rows, x, i)) continue;
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

/// One greedy step from `x` towards `v`: probes x's slots at distance
/// d - 1 in slot order and moves to the neighbor behind the first open one.
/// Returns false, leaving `x` and `d`, if none is open.
template <typename Rows>
bool greedy_step(ProbeContext& ctx, const Rows& rows, const std::uint32_t* col, VertexId& x,
                 std::uint64_t& d, VertexId v, detail::DistanceRow& row) {
  const int deg = fill_row(rows, col, x, v, d, row);
  for (int i = 0; i < deg; ++i) {
    if (row[static_cast<std::size_t>(i)] + 1 == d && ctx.probe(rows, x, i)) {
      x = rows.neighbor(x, i);
      --d;
      return true;
    }
  }
  return false;
}

}  // namespace

namespace detail {

void greedy_descent(ProbeContext& ctx, const std::uint32_t* col, VertexId& x, std::uint64_t& d,
                    VertexId v, DistanceRow& row, Path& walk, bool count_expansions) {
  ctx.adjacency().visit([&](const auto& rows) {
    while (x != v) {
      if (count_expansions) ctx.note_expansion();
      if (!greedy_step(ctx, rows, col, x, d, v, row)) return;
      walk.push_back(x);  // analyze:allow-hot-alloc(walk materialization, one vertex per accepted move)
    }
  });
}

}  // namespace detail

std::optional<Path> GreedyDescentRouter::route(ProbeContext& ctx, VertexId u, VertexId v) {
  const std::uint32_t* col = ctx.target_distances(v);
  // Every accepted move lowers the fault-free distance d to v by one, so a
  // reachable target bounds the path at d + 1 vertices.
  std::uint64_t d = metric_distance(ctx.graph(), col, u, v);
  Path path;
  if (d < ctx.graph().num_vertices()) path.reserve(d + 1);  // analyze:allow-hot-alloc(path materialization, reserved once to its bound)
  path.push_back(u);  // analyze:allow-hot-alloc(fills the reservation above)
  VertexId x = u;
  // Each visited vertex is this router's "frontier pop"; pure greedy gives
  // up where it gets stuck.
  detail::greedy_descent(ctx, col, x, d, v, row_, path, /*count_expansions=*/true);
  if (x != v) return std::nullopt;
  return path;
}

std::optional<Path> BestFirstRouter::route(ProbeContext& ctx, VertexId u, VertexId v) {
  if (u == v) return Path{u};
  const std::uint32_t* col = ctx.target_distances(v);
  return ctx.adjacency().visit([&](const auto& rows) {
    return best_first_search(ctx, rows, col, u, v, parent_, expanded_, row_, frontier_);
  });
}

}  // namespace faultroute
