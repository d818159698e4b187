#include "core/routers/flood_router.hpp"

#include <algorithm>

#include "graph/flat_adjacency.hpp"

// analyze:allow-file-hot-alloc(per-message flood BFS: queue and marks are pooled per router, the returned Path allocates per message)
namespace faultroute {

namespace {

/// The flood BFS. The queue is a caller-pooled vector with a head cursor —
/// identical FIFO order to a std::queue, no per-message allocation in
/// steady state.
std::optional<Path> flood_search(ProbeContext& ctx, const AdjacencyView& adj, VertexId u,
                                 VertexId v, bool probe_target_first, VertexMarks& parent,
                                 std::vector<VertexId>& queue) {
  parent.begin(adj.graph().num_vertices());
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

  while (head < queue.size()) {
    const VertexId x = queue[head++];
    ctx.note_expansion();
    const int deg = adj.degree(x);
    int target_index = -1;
    if (probe_target_first) target_index = adj.edge_index_of(x, v);
    for (int step = (target_index >= 0 ? -1 : 0); step < deg; ++step) {
      const int i = (step == -1) ? target_index : step;
      if (step != -1 && i == target_index && target_index >= 0) continue;  // done already
      const VertexId y = adj.neighbor(x, i);
      if (parent.contains(y)) continue;
      if (!ctx.probe(x, i)) continue;
      parent.emplace(y, x);
      if (y == v) return build_path(v);
      queue.push_back(y);
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<Path> FloodRouter::route(ProbeContext& ctx, VertexId u, VertexId v) {
  if (u == v) return Path{u};
  const AdjacencyView adj(ctx.graph(), ctx.flat_adjacency());
  return flood_search(ctx, adj, u, v, probe_target_first_, parent_, queue_);
}

}  // namespace faultroute
