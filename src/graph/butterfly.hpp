#pragma once

#include <cstdint>

#include "graph/topology.hpp"

namespace faultroute {

/// The wrapped (cyclic) butterfly B_k: k levels times 2^k rows.
///
/// Vertex (level, row) with level in [0, k) and row in [0, 2^k); id =
/// level * 2^k + row. Between level l and level (l+1) mod k there is a
/// *straight* edge (same row) and a *cross* edge (row differing in bit l).
/// Degree 4. For k == 2 a straight edge and its wrap-around twin connect the
/// same vertex pair; we model that honestly as a multigraph (distinct edge
/// keys), so use k >= 3 when a simple graph is needed.
class Butterfly final : public Topology {
 public:
  /// Requires 2 <= k <= 26.
  explicit Butterfly(int k);

  [[nodiscard]] std::uint64_t num_vertices() const override {
    return static_cast<std::uint64_t>(k_) * rows_;
  }
  [[nodiscard]] std::uint64_t num_edges() const override {
    return 2 * static_cast<std::uint64_t>(k_) * rows_;
  }
  [[nodiscard]] int degree(VertexId) const override { return 4; }
  [[nodiscard]] int regular_degree() const override { return 4; }

  /// i == 0: up-straight, 1: up-cross, 2: down-straight, 3: down-cross,
  /// where "up" goes from level l to (l+1) mod k.
  [[nodiscard]] VertexId neighbor(VertexId v, int i) const override;
  [[nodiscard]] EdgeKey edge_key(VertexId v, int i) const override;
  [[nodiscard]] EdgeEndpoints endpoints(EdgeKey key) const override {
    const bool cross = (key & 1ULL) != 0;
    const VertexId owner = key >> 1;
    const int level = level_of(owner);
    const std::uint64_t row = row_of(owner);
    const int up = (level + 1) % k_;
    return {owner, vertex_at(up, cross ? row ^ (1ULL << level) : row)};
  }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string vertex_label(VertexId v) const override;

  [[nodiscard]] int order() const { return k_; }
  [[nodiscard]] std::uint64_t rows() const { return rows_; }
  [[nodiscard]] int level_of(VertexId v) const { return static_cast<int>(v / rows_); }
  [[nodiscard]] std::uint64_t row_of(VertexId v) const { return v % rows_; }
  [[nodiscard]] VertexId vertex_at(int level, std::uint64_t row) const {
    return static_cast<VertexId>(level) * rows_ + row;
  }

 private:
  int k_;
  std::uint64_t rows_;  // 2^k
};

}  // namespace faultroute
