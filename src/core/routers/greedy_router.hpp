#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/router.hpp"
#include "graph/vertex_marks.hpp"

namespace faultroute {

class AdjacencyView;

namespace detail {

/// The pooled row of fault-free distances from a vertex's neighbors to the
/// target (Topology::neighbor_distances, or an oracle column's entries).
using DistanceRow = std::vector<std::uint64_t>;

/// One greedy step from `x` towards `v`, shared by GreedyDescentRouter and
/// HybridGreedyRouter's phase 1. `d` is the fault-free distance from x to v
/// under the metric of `col` (see metric_distance). Probes x's improving
/// slots — neighbor at distance d - 1 — in slot order and moves `x` to the
/// neighbor behind the first open one, lowering `d` by one. Returns false,
/// leaving `x` and `d`, if none is open. Counts no expansion; callers that
/// treat a step as one do so themselves. `row` is pooled by the router, so
/// a step allocates nothing once it has grown to the maximum degree.
bool greedy_step(ProbeContext& ctx, const AdjacencyView& adj, const std::uint32_t* col,
                 VertexId& x, std::uint64_t& d, VertexId v, DistanceRow& row);

}  // namespace detail

/// Pure greedy descent (the "natural approach" remarked on in Section 3.2):
/// from the current vertex, probe only edges that strictly reduce the
/// fault-free distance to the target, in order of resulting distance, and
/// move along the first open one. *Incomplete*: fails as soon as it gets
/// stuck, so its success probability is itself a measurement (the remark
/// predicts it works "most of the way" but dies near the target).
class GreedyDescentRouter : public Router {
 public:
  std::optional<Path> route(ProbeContext& ctx, VertexId u, VertexId v) override;

  [[nodiscard]] std::string name() const override { return "greedy-descent"; }

  [[nodiscard]] bool uses_distance_metric() const override { return true; }

 private:
  detail::DistanceRow row_;  // pooled neighbor-distance row
};

/// Best-first (greedy with backtracking): a complete local router that
/// always expands the reached vertex closest to the target in the fault-free
/// metric, probing its edges in order of resulting distance. On a fault-free
/// graph it degenerates to greedy routing along shortest paths; under faults
/// it backtracks instead of failing.
class BestFirstRouter : public Router {
 public:
  std::optional<Path> route(ProbeContext& ctx, VertexId u, VertexId v) override;

  [[nodiscard]] std::string name() const override { return "best-first"; }

  [[nodiscard]] bool uses_distance_metric() const override { return true; }

 private:
  // Search state pooled across a worker's messages: the per-expansion
  // neighbor-distance row, the (distance-to-target, vertex) min-heap
  // frontier, and the parent and expanded marks.
  detail::DistanceRow row_;
  std::vector<std::pair<std::uint64_t, VertexId>> frontier_;
  VertexMarks parent_;
  VertexMarks expanded_;
};

}  // namespace faultroute
