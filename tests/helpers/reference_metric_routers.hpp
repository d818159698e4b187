#pragma once

// Naive references for the metric routers (greedy descent, best-first and
// the hybrid's greedy phase), for differential tests of their probe order.
//
// They rank a vertex's slots the obvious way: one Topology::distance call
// per slot, then a sort of the (distance to target, slot) pairs, and probe
// in that order; best-first's frontier is a std::priority_queue and its
// marks are std::map. The library routers take the same order from one
// neighbor_distances row read bucket by bucket (d - 1, d, d + 1), so a
// router and its reference must probe the same edges in the same order and
// return the same path on every graph and environment.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "core/path.hpp"
#include "core/probe_context.hpp"
#include "core/routers/landmark_walk.hpp"

namespace faultroute::reference {

/// Incident slots of x, with the fault-free distance from the slot's
/// neighbor to v, sorted by (distance, slot); only distances below `bound`.
inline std::vector<std::pair<std::uint64_t, int>> ranked_slots(const Topology& graph, VertexId x,
                                                               VertexId v, std::uint64_t bound) {
  std::vector<std::pair<std::uint64_t, int>> ranked;
  for (int i = 0; i < graph.degree(x); ++i) {
    const std::uint64_t dy = graph.distance(graph.neighbor(x, i), v);
    if (dy < bound) ranked.emplace_back(dy, i);
  }
  std::sort(ranked.begin(), ranked.end());
  return ranked;
}

/// One greedy step: probe the strictly improving slots in ranked order and
/// move along the first open one. False if none is open.
inline bool greedy_step(ProbeContext& ctx, VertexId& x, VertexId v) {
  const Topology& graph = ctx.graph();
  for (const auto& [dy, i] : ranked_slots(graph, x, v, graph.distance(x, v))) {
    if (ctx.probe(x, i)) {
      x = graph.neighbor(x, i);
      return true;
    }
  }
  return false;
}

/// GreedyDescentRouter::route.
inline std::optional<Path> greedy_descent(ProbeContext& ctx, VertexId u, VertexId v) {
  Path path{u};
  VertexId x = u;
  while (x != v) {
    ctx.note_expansion();
    if (!greedy_step(ctx, x, v)) return std::nullopt;
    path.push_back(x);
  }
  return path;
}

/// BestFirstRouter::route.
inline std::optional<Path> best_first(ProbeContext& ctx, VertexId u, VertexId v) {
  if (u == v) return Path{u};
  const Topology& graph = ctx.graph();
  std::map<VertexId, VertexId> parent{{u, u}};
  std::map<VertexId, bool> expanded;
  std::priority_queue<std::pair<std::uint64_t, VertexId>,
                      std::vector<std::pair<std::uint64_t, VertexId>>, std::greater<>>
      frontier;
  frontier.emplace(graph.distance(u, v), u);
  while (!frontier.empty()) {
    const VertexId x = frontier.top().second;
    frontier.pop();
    if (!expanded.emplace(x, true).second) continue;
    ctx.note_expansion();
    for (const auto& [dy, i] : ranked_slots(graph, x, v, ~std::uint64_t{0})) {
      const VertexId y = graph.neighbor(x, i);
      if (parent.contains(y)) continue;
      if (!ctx.probe(x, i)) continue;
      parent.emplace(y, x);
      if (y == v) {
        Path path;
        for (VertexId z = v;; z = parent.at(z)) {
          path.push_back(z);
          if (z == u) break;
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      frontier.emplace(dy, y);
    }
  }
  return std::nullopt;
}

/// HybridGreedyRouter::route: greedy steps while they succeed, then the
/// library's landmark walk from the stuck vertex.
inline std::optional<Path> hybrid_greedy(ProbeContext& ctx, VertexId u, VertexId v) {
  if (u == v) return Path{u};
  Path walk{u};
  VertexId x = u;
  while (x != v && greedy_step(ctx, x, v)) walk.push_back(x);
  if (x == v) return walk;
  detail::LandmarkWalkState state;
  if (!detail::landmark_walk(ctx, x, v, walk, state)) return std::nullopt;
  return simplify_walk(std::move(walk));
}

}  // namespace faultroute::reference
