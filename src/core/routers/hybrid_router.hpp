#pragma once

#include "core/router.hpp"
#include "core/routers/greedy_router.hpp"
#include "core/routers/landmark_walk.hpp"

namespace faultroute {

/// The Section 3.2 remark, made concrete: "a greedy approach at the early
/// stages of the routing would reduce the exponent in the complexity".
///
/// Phase 1 (greedy): walk towards the target probing only improving edges,
/// as long as progress is easy. Phase 2 (repair): when greedy gets stuck at
/// distance <= `handoff` from the target (or mid-way), fall back to the
/// landmark/BFS algorithm *from the closest vertex reached so far*.
///
/// Complete: phase 2 alone is complete, and phase 1 only ever extends the
/// reached set. `HybridRouter.CheaperThanLandmarkWhenFaultsAreLight`
/// (tests/test_extensions.cpp) checks that it probes less than pure
/// landmark routing on the hypercube, on both sides of alpha = 1/2.
class HybridGreedyRouter : public Router {
 public:
  std::optional<Path> route(ProbeContext& ctx, VertexId u, VertexId v) override;

  [[nodiscard]] std::string name() const override { return "hybrid-greedy"; }

  [[nodiscard]] bool uses_distance_metric() const override { return true; }

 private:
  // Greedy-phase neighbor-distance row and repair-phase walk state, pooled
  // across the messages a worker routes.
  detail::DistanceRow row_;
  detail::LandmarkWalkState walk_state_;
};

}  // namespace faultroute
