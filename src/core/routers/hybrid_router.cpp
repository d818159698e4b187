#include "core/routers/hybrid_router.hpp"

#include <utility>

#include "graph/distance_oracle.hpp"

namespace faultroute {

std::optional<Path> HybridGreedyRouter::route(ProbeContext& ctx, VertexId u, VertexId v) {
  if (u == v) return Path{u};

  // Phase 1: pure greedy descent while it keeps making progress (no
  // expansions counted: only the repair phase's BFS expands).
  const std::uint32_t* col = ctx.target_distances(v);
  std::uint64_t d = metric_distance(ctx.graph(), col, u, v);
  Path walk{u};
  VertexId x = u;
  detail::greedy_descent(ctx, col, x, d, v, row_, walk, /*count_expansions=*/false);
  if (x == v) return walk;

  // Phase 2: landmark/BFS repair from the stuck vertex, via the shared
  // landmark walk (core/routers/landmark_walk.hpp) so the two phases share
  // one ProbeContext and the greedy prefix stays on the final path.
  if (!detail::landmark_walk(ctx, x, v, walk, walk_state_)) return std::nullopt;
  return simplify_walk(std::move(walk));
}

}  // namespace faultroute
