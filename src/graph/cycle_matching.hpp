#pragma once

#include <cstdint>
#include <vector>

#include "graph/topology.hpp"

namespace faultroute {

/// A cycle on N vertices plus a uniformly random perfect matching
/// (Bollobas-Chung): constant degree 3, diameter Theta(log N). Referenced in
/// the paper's introduction as the classic example where short paths exist
/// but cannot be found quickly; we include it in the extension experiments.
class CycleWithMatching final : public Topology {
 public:
  /// Requires even N >= 4. The matching is drawn deterministically from
  /// `matching_seed` (Fisher-Yates over the vertex set).
  CycleWithMatching(std::uint64_t n, std::uint64_t matching_seed);

  [[nodiscard]] std::uint64_t num_vertices() const override { return n_; }
  [[nodiscard]] std::uint64_t num_edges() const override { return n_ + n_ / 2; }
  [[nodiscard]] int degree(VertexId) const override { return 3; }
  [[nodiscard]] int regular_degree() const override { return 3; }

  /// i == 0: predecessor on the cycle, 1: successor, 2: matching partner.
  [[nodiscard]] VertexId neighbor(VertexId v, int i) const override;
  [[nodiscard]] EdgeKey edge_key(VertexId v, int i) const override;
  [[nodiscard]] EdgeEndpoints endpoints(EdgeKey key) const override {
    if (key < n_) return {key, (key + 1) % n_};
    const VertexId m = key - n_;
    return {m, match_[m]};
  }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] VertexId partner(VertexId v) const { return match_[v]; }

 private:
  std::uint64_t n_;
  std::uint64_t seed_;
  std::vector<VertexId> match_;
};

}  // namespace faultroute
