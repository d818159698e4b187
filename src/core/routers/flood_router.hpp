#pragma once

#include <vector>

#include "core/router.hpp"
#include "graph/vertex_marks.hpp"

namespace faultroute {

/// Local breadth-first flooding: probe every edge incident to every reached
/// vertex until the target is found. This is the paper's trivial upper bound
/// ("tantamount to probing the entire graph") and the baseline every smarter
/// router is compared against. Complete: returns nullopt only when u and v
/// are genuinely disconnected.
///
/// With `probe_target_first` set, each dequeued vertex first probes its edge
/// to the target when one exists — the natural optimisation for G_{n,p}
/// (Theorem 10's setting), where it saves a constant factor but provably not
/// the Omega(n^2) order.
class FloodRouter : public Router {
 public:
  explicit FloodRouter(bool probe_target_first = false)
      : probe_target_first_(probe_target_first) {}

  std::optional<Path> route(ProbeContext& ctx, VertexId u, VertexId v) override;

  [[nodiscard]] std::string name() const override {
    return probe_target_first_ ? "flood(target-first)" : "flood";
  }

 private:
  bool probe_target_first_;
  // Search state pooled across the messages a worker routes.
  VertexMarks parent_;
  std::vector<VertexId> queue_;
};

}  // namespace faultroute
