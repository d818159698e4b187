#include "core/routers/hybrid_router.hpp"

#include <utility>

#include "graph/distance_oracle.hpp"
#include "graph/flat_adjacency.hpp"

namespace faultroute {

std::optional<Path> HybridGreedyRouter::route(ProbeContext& ctx, VertexId u, VertexId v) {
  if (u == v) return Path{u};
  const AdjacencyView adj(ctx.graph(), ctx.flat_adjacency());

  // Phase 1: pure greedy descent while it keeps making progress (no
  // expansions counted: only the repair phase's BFS expands).
  const std::uint32_t* col = ctx.target_distances(v);
  std::uint64_t d = metric_distance(ctx.graph(), col, u, v);
  Path walk{u};
  VertexId x = u;
  while (x != v && detail::greedy_step(ctx, adj, col, x, d, v, row_)) {
    walk.push_back(x);  // analyze:allow-hot-alloc(walk materialization, one vertex per accepted move)
  }
  if (x == v) return walk;

  // Phase 2: landmark/BFS repair from the stuck vertex, via the shared
  // landmark walk (core/routers/landmark_walk.hpp) so the two phases share
  // one ProbeContext and the greedy prefix stays on the final path.
  if (!detail::landmark_walk(ctx, adj, x, v, walk, walk_state_)) return std::nullopt;
  return simplify_walk(std::move(walk));
}

}  // namespace faultroute
