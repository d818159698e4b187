#include "core/routers/flood_router.hpp"

#include <algorithm>

#include "graph/flat_adjacency.hpp"

// analyze:allow-file-hot-alloc(per-message flood BFS: queue and marks are pooled per router, the returned Path allocates per message)
namespace faultroute {

namespace {

/// The flood BFS. The queue is a caller-pooled vector with a head cursor —
/// identical FIFO order to a std::queue, no per-message allocation in
/// steady state.
template <typename Rows>
std::optional<Path> flood_search(ProbeContext& ctx, const Rows& rows, VertexId u, VertexId v,
                                 bool probe_target_first, VertexMarks& parent,
                                 std::vector<VertexId>& queue) {
  parent.begin(rows.graph().num_vertices());
  parent.emplace(u, u);
  queue.clear();
  queue.push_back(u);
  std::size_t head = 0;

  const auto build_path = [&parent, u](VertexId target) {
    Path path;
    for (VertexId x = target;; x = parent.at(x)) {
      path.push_back(x);
      if (x == u) break;
    }
    std::reverse(path.begin(), path.end());
    return path;
  };

  const auto unvisited = [&parent](VertexId y) { return !parent.contains(y); };
  while (head < queue.size()) {
    const VertexId x = queue[head++];
    ctx.note_expansion();
    // Stops the row's scan once the target is reached.
    const auto visit = [&](VertexId y, int /*slot*/) {
      parent.emplace(y, x);
      if (y == v) return true;
      queue.push_back(y);
      return false;
    };
    const int deg = rows.degree(x);
    const int t = probe_target_first ? rows.edge_index_of(x, v) : -1;
    // Target first: its slot, then the rest of the row in slot order.
    const bool found =
        t < 0 ? ctx.probe_row(rows, x, 0, deg, unvisited, visit)
              : ctx.probe_row(rows, x, t, t + 1, unvisited, visit) ||
                    ctx.probe_row(rows, x, 0, t, unvisited, visit) ||
                    ctx.probe_row(rows, x, t + 1, deg, unvisited, visit);
    if (found) return build_path(v);
  }
  return std::nullopt;
}

}  // namespace

std::optional<Path> FloodRouter::route(ProbeContext& ctx, VertexId u, VertexId v) {
  if (u == v) return Path{u};
  return ctx.adjacency().visit([&](const auto& rows) {
    return flood_search(ctx, rows, u, v, probe_target_first_, parent_, queue_);
  });
}

}  // namespace faultroute
