#pragma once

#include <cstdint>

#include "graph/topology.hpp"

namespace faultroute {

/// The cube-connected cycles CCC(k): each hypercube vertex is replaced by a
/// k-cycle whose i-th node owns the dimension-i hypercube edge. Constant
/// degree 3, diameter Theta(k) = Theta(log N), N = k * 2^k — the classic
/// bounded-degree stand-in for the hypercube in parallel computing, and a
/// natural member of the Section 6 family list.
///
/// Vertex (cursor, row): cursor in [0, k), row in [0, 2^k);
/// id = cursor * 2^k + row. Edges:
///   cycle:   (cursor, row) -- (cursor +/- 1 mod k, row)
///   rung:    (cursor, row) -- (cursor, row ^ 2^cursor)
class CubeConnectedCycles final : public Topology {
 public:
  /// Requires 3 <= k <= 26 (k >= 3 keeps the cycles simple).
  explicit CubeConnectedCycles(int k);

  [[nodiscard]] std::uint64_t num_vertices() const override {
    return static_cast<std::uint64_t>(k_) * rows_;
  }
  [[nodiscard]] std::uint64_t num_edges() const override {
    // k * 2^k cycle edges + k * 2^{k-1} rung edges.
    return static_cast<std::uint64_t>(k_) * rows_ +
           static_cast<std::uint64_t>(k_) * (rows_ >> 1);
  }
  [[nodiscard]] int degree(VertexId) const override { return 3; }
  [[nodiscard]] int regular_degree() const override { return 3; }

  /// i == 0: previous on the cycle, 1: next on the cycle, 2: hypercube rung.
  [[nodiscard]] VertexId neighbor(VertexId v, int i) const override;
  [[nodiscard]] EdgeKey edge_key(VertexId v, int i) const override;
  [[nodiscard]] EdgeEndpoints endpoints(EdgeKey key) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string vertex_label(VertexId v) const override;

  [[nodiscard]] int order() const { return k_; }
  [[nodiscard]] std::uint64_t rows() const { return rows_; }
  [[nodiscard]] int cursor_of(VertexId v) const { return static_cast<int>(v / rows_); }
  [[nodiscard]] std::uint64_t row_of(VertexId v) const { return v % rows_; }
  [[nodiscard]] VertexId vertex_at(int cursor, std::uint64_t row) const {
    return static_cast<VertexId>(cursor) * rows_ + row;
  }

 private:
  int k_;
  std::uint64_t rows_;  // 2^k
};

}  // namespace faultroute
