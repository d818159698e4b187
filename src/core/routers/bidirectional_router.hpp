#pragma once

#include <vector>

#include "core/router.hpp"
#include "graph/vertex_marks.hpp"

namespace faultroute {

/// Bidirectional BFS: grows open-edge BFS balls around *both* endpoints,
/// always expanding the smaller frontier, until they meet.
///
/// This is an *oracle* router — probing edges around v violates locality —
/// and is the natural candidate for the paper's Section 6 question of
/// whether oracle routing on the hypercube stays exponential for
/// 1/n < p < n^{-1/2} (experiment E11). Complete.
class BidirectionalBfsRouter : public Router {
 public:
  std::optional<Path> route(ProbeContext& ctx, VertexId u, VertexId v) override;

  [[nodiscard]] std::string name() const override { return "bidirectional-bfs"; }
  [[nodiscard]] RoutingMode required_mode() const override { return RoutingMode::kOracle; }

 private:
  // Per-side search state, pooled across a worker's messages.
  VertexMarks parent_u_;
  VertexMarks parent_v_;
  std::vector<VertexId> queue_u_;
  std::vector<VertexId> queue_v_;
};

}  // namespace faultroute
