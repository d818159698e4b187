#pragma once

#include "core/router.hpp"
#include "core/routers/landmark_walk.hpp"

namespace faultroute {

/// The paper's upper-bound algorithm for the hypercube (Theorem 3(ii)) and
/// the mesh (Theorem 4), stated generically:
///
///   1. Fix u = u_0, u_1, ..., u_m = v, a shortest path in the *fault-free*
///      topology (the landmarks).
///   2. From the furthest landmark reached so far, grow a BFS over open
///      (probed) edges until some landmark u_j with j > i is reached.
///   3. Repeat until v is reached.
///
/// Above the respective routing thresholds, successive landmarks in the giant
/// cluster are within O(1) percolation distance (mesh: Antal-Pisztora;
/// hypercube: "good vertex" pairs at distance <= 3 have percolation distance
/// <= l(alpha)), so each BFS is cheap and the total cost is O(m) for the
/// mesh and poly(n) for the hypercube.
///
/// Complete: conditioned on {u ~ v} the BFS can only exhaust the whole open
/// cluster of u, which contains v.
class LandmarkRouter : public Router {
 public:
  std::optional<Path> route(ProbeContext& ctx, VertexId u, VertexId v) override;

  [[nodiscard]] std::string name() const override { return "landmark"; }

 private:
  // Base path, marks and queue, pooled across the messages a worker routes.
  detail::LandmarkWalkState walk_state_;
};

}  // namespace faultroute
