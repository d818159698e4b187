#include "core/routers/greedy_router.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "graph/distance_oracle.hpp"
#include "graph/flat_adjacency.hpp"

namespace faultroute {

namespace {

using Frontier = std::vector<std::pair<std::uint64_t, VertexId>>;  // (distance-to-target, vertex)

/// Ranks x's slots whose neighbor lies at fault-free distance below `bound`
/// from the target into `ranked`, sorted by (distance, slot) — ties broken
/// by slot for determinism. Neighbor scans go through the adjacency view
/// (CSR row when a snapshot is up); the metric resolves through `col` (a
/// cached oracle column, or nullptr for graph.distance — identical values
/// either way).
void rank_slots(const AdjacencyView& adj, const std::uint32_t* col, VertexId x, VertexId v,
                std::uint64_t bound, detail::RankedSlots& ranked) {
  const Topology& graph = adj.graph();
  ranked.clear();
  const int deg = adj.degree(x);
  for (int i = 0; i < deg; ++i) {
    const std::uint64_t dy = metric_distance(graph, col, adj.neighbor(x, i), v);
    if (dy < bound) ranked.emplace_back(dy, i);  // analyze:allow-hot-alloc(pooled ranking buffer, grows to the maximum degree once)
  }
  std::sort(ranked.begin(), ranked.end());
}

/// The best-first search loop. The frontier is a pooled min-heap driven exactly as std::priority_queue drives its
/// container (push_back + push_heap, pop_heap + pop_back), so expansion order
/// matches a priority_queue with std::greater<>.
std::optional<Path> best_first_search(ProbeContext& ctx, const AdjacencyView& adj,
                                      const std::uint32_t* col, VertexId u, VertexId v,
                                      VertexMarks& parent, VertexMarks& expanded,
                                      detail::RankedSlots& ranked, Frontier& frontier) {
  const Topology& graph = adj.graph();
  const std::uint64_t n = graph.num_vertices();
  parent.begin(n);
  expanded.begin(n);
  frontier.clear();
  parent.emplace(u, u);
  frontier.emplace_back(metric_distance(graph, col, u, v), u);  // analyze:allow-hot-alloc(pooled frontier retains capacity across messages)
  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end(), std::greater<>());
    const VertexId x = frontier.back().second;
    frontier.pop_back();
    if (!expanded.emplace(x, x)) continue;  // already expanded
    ctx.note_expansion();
    rank_slots(adj, col, x, v, std::numeric_limits<std::uint64_t>::max(), ranked);
    for (const auto& [dy, i] : ranked) {
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
  return std::nullopt;
}

}  // namespace

namespace detail {

bool greedy_step(ProbeContext& ctx, const AdjacencyView& adj, const std::uint32_t* col,
                 VertexId& x, VertexId v, RankedSlots& ranked) {
  rank_slots(adj, col, x, v, metric_distance(adj.graph(), col, x, v), ranked);
  for (const auto& [dy, i] : ranked) {
    if (ctx.probe(x, i)) {
      x = adj.neighbor(x, i);
      return true;
    }
  }
  return false;
}

}  // namespace detail

std::optional<Path> GreedyDescentRouter::route(ProbeContext& ctx, VertexId u, VertexId v) {
  const AdjacencyView adj(ctx.graph(), ctx.flat_adjacency());
  const std::uint32_t* col = ctx.target_distances(v);
  // Every accepted move lowers the fault-free distance to v by at least one,
  // so a reachable target bounds the path at that distance + 1 vertices.
  const std::uint64_t d = metric_distance(ctx.graph(), col, u, v);
  Path path;
  if (d < ctx.graph().num_vertices()) path.reserve(d + 1);  // analyze:allow-hot-alloc(path materialization, reserved once to its bound)
  path.push_back(u);  // analyze:allow-hot-alloc(fills the reservation above)
  VertexId x = u;
  while (x != v) {
    ctx.note_expansion();  // each visited vertex is this router's "frontier pop"
    if (!detail::greedy_step(ctx, adj, col, x, v, ranked_)) {
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
  return best_first_search(ctx, adj, col, u, v, parent_, expanded_, ranked_, frontier_);
}

}  // namespace faultroute
