#pragma once

#include <array>
#include <cstdint>

#include "graph/topology.hpp"

namespace faultroute {

/// The d-dimensional mesh M^d with side length M (M^d vertices), optionally
/// with wraparound (torus).
///
/// This is the graph of Theorem 4: for every fixed p above the percolation
/// threshold p_c(d), local routing between vertices at distance n costs
/// expected O(n) probes. Coordinates use mixed-radix encoding:
/// id = sum_a coord[a] * M^a.
class Mesh final : public Topology {
 public:
  static constexpr int kMaxDimension = 8;

  using Coords = std::array<std::int64_t, kMaxDimension>;

  /// Constructs M^d with side `side`. Requires 1 <= dim <= 8, side >= 2
  /// (side >= 3 when wrap is set, to keep edge keys canonical), and
  /// side^dim <= 2^62.
  Mesh(int dim, std::int64_t side, bool wrap = false);

  [[nodiscard]] std::uint64_t num_vertices() const override { return num_vertices_; }
  [[nodiscard]] std::uint64_t num_edges() const override;
  [[nodiscard]] int degree(VertexId v) const override;
  [[nodiscard]] int regular_degree() const override { return wrap_ ? 2 * dim_ : 0; }
  [[nodiscard]] VertexId neighbor(VertexId v, int i) const override;
  [[nodiscard]] EdgeKey edge_key(VertexId v, int i) const override;
  [[nodiscard]] EdgeEndpoints endpoints(EdgeKey key) const override;
  [[nodiscard]] std::string name() const override;

  /// L1 (Manhattan) distance; on the torus, per-axis wrap-around distance.
  [[nodiscard]] std::uint64_t distance(VertexId u, VertexId v) const override;

  /// Axis-by-axis monotone shortest path.
  [[nodiscard]] std::vector<VertexId> shortest_path(VertexId u, VertexId v) const override;

  [[nodiscard]] bool has_closed_form_metric() const override { return true; }

  /// First-appearance id of the edge, counted from its lower endpoint a:
  /// per axis, the vertices u < a with each coordinate value are a
  /// mixed-radix count, which gives the edges first listed before a; the
  /// edge then ranks among a's own slots to larger vertices. O(d).
  [[nodiscard]] bool has_closed_form_edge_ids() const override { return true; }
  [[nodiscard]] std::uint32_t edge_id(VertexId v, int i) const override;

  [[nodiscard]] std::string vertex_label(VertexId v) const override;

  [[nodiscard]] int dimension() const { return dim_; }
  [[nodiscard]] std::int64_t side() const { return side_; }
  [[nodiscard]] bool wraps() const { return wrap_; }

  /// Decodes a vertex id into coordinates (entries beyond dimension() are 0).
  [[nodiscard]] Coords coords_of(VertexId v) const;

  /// Encodes coordinates into a vertex id. Each coord must be in [0, side).
  [[nodiscard]] VertexId vertex_at(const Coords& coords) const;

 private:
  /// Enumerates the i-th valid (axis, direction) move from v.
  /// direction: 0 = decreasing coordinate, 1 = increasing.
  void locate_move(VertexId v, int i, int& axis, int& direction) const;
  /// locate_move on the mesh (no wrap), given v's coordinates.
  void locate_mesh_move(const Coords& c, int i, int& axis, int& direction) const;

  int dim_;
  std::int64_t side_;
  bool wrap_;
  std::uint64_t num_vertices_;
  std::array<std::uint64_t, kMaxDimension> stride_;
};

}  // namespace faultroute
