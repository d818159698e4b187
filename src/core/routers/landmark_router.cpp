#include "core/routers/landmark_router.hpp"

#include <utility>

namespace faultroute {

std::optional<Path> LandmarkRouter::route(ProbeContext& ctx, VertexId u, VertexId v) {
  if (u == v) return Path{u};
  const AdjacencyView adj(ctx.graph(), ctx.flat_adjacency());
  Path walk{u};
  if (!detail::landmark_walk(ctx, adj, u, v, walk, walk_state_)) return std::nullopt;
  return simplify_walk(std::move(walk));
}

}  // namespace faultroute
