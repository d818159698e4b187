#pragma once

#include <array>
#include <cstddef>
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

  /// A vertex decoded for resolving its slots: its coordinates and slot ->
  /// move table (decode), which make each slot's neighbor and edge key
  /// O(1), plus the per-row terms that do the same for its edge ids
  /// (decode_edge_ids). ClosedFormRows<Mesh> (graph/flat_adjacency.hpp)
  /// keeps the last vertex it was asked about fully decoded, so a row scan
  /// and the probes of that row decode the vertex once. A
  /// default-constructed one names no vertex.
  struct Decoded {
    VertexId v = ~VertexId{0};
    int degree = 0;
    Coords c;
    /// Slot i's move: axis << 1 | direction (0 = decreasing coordinate).
    std::array<std::uint8_t, 2 * kMaxDimension> move;
    /// Σ_{u<v} up(u): the edge id v's first edge to a larger vertex takes.
    std::uint64_t first;
    /// Per axis k: v mod side^k; Σ_{j>k} e(c_j); Σ_{j<k} up(c_j) (see
    /// edge_id for e and up).
    std::array<std::uint64_t, kMaxDimension> low;
    std::array<std::uint64_t, kMaxDimension> tail;
    std::array<std::uint64_t, kMaxDimension> up_below;
  };

  /// Constructs M^d with side `side`. Requires 1 <= dim <= 8, side >= 2
  /// (side >= 3 when wrap is set, to keep edge keys canonical), and
  /// side^dim <= 2^62.
  Mesh(int dim, std::int64_t side, bool wrap = false);

  // Adjacency is closed form and inline, over a decoded vertex: degree,
  // neighbor, edge_key, edge_id and slot_of are what the hot paths call
  // through ClosedFormRows when the graph has no CSR, without virtual
  // dispatch; the virtual overrides decode what they need and forward.
  // Slots are in locate's order: per axis, the decreasing move, then the
  // increasing one (on the mesh, each only where it stays inside).

  /// Decodes v's coordinates and moves into `x`: O(d), one division by the
  /// side per axis. Enough for neighbor, edge_key and slot_of.
  void decode(VertexId v, Decoded& x) const {
    const auto side = static_cast<std::uint64_t>(side_);
    const std::uint64_t last = side - 1;
    x.v = v;
    x.degree = 0;
    std::uint64_t rest = v;
    for (std::size_t k = 0; k < static_cast<std::size_t>(dim_); ++k) {
      const std::uint64_t c = rest % side;
      rest /= side;
      x.c[k] = static_cast<std::int64_t>(c);
      const auto axis = static_cast<std::uint8_t>(k << 1);
      if (wrap_ || c > 0) x.move[static_cast<std::size_t>(x.degree++)] = axis;
      if (wrap_ || c < last) x.move[static_cast<std::size_t>(x.degree++)] = axis | 1;
    }
  }
  /// Adds the edge-id terms to a decoded `x`: O(d), no division.
  void decode_edge_ids(Decoded& x) const {
    const auto dim = static_cast<std::size_t>(dim_);
    std::uint64_t low = 0;
    std::uint64_t terms = 0;  // Σ_k g(k, c_k) + e(c_k)·low_k
    std::uint64_t ups = 0;
    for (std::size_t k = 0; k < dim; ++k) {
      const auto c = static_cast<std::uint64_t>(x.c[k]);
      x.low[k] = low;
      x.up_below[k] = ups;
      terms += g(k, c) + e(c) * low;
      ups += up(c);
      low += c * stride_[k];
    }
    std::uint64_t tail = 0;
    for (std::size_t k = dim; k-- > 0;) {
      x.tail[k] = tail;
      tail += e(static_cast<std::uint64_t>(x.c[k]));
    }
    x.first = static_cast<std::uint64_t>(dim_) * x.v + terms;
  }

  [[nodiscard]] std::uint64_t num_vertices() const override { return num_vertices_; }
  [[nodiscard]] std::uint64_t num_edges() const override;
  [[nodiscard]] int degree(VertexId v) const override {
    if (wrap_) return 2 * dim_;
    Decoded x;
    decode(v, x);
    return x.degree;
  }
  [[nodiscard]] int regular_degree() const override { return wrap_ ? 2 * dim_ : 0; }
  [[nodiscard]] VertexId neighbor(VertexId v, int i) const override {
    Decoded x;
    decode(v, x);
    return neighbor(x, i);
  }
  [[nodiscard]] VertexId neighbor(const Decoded& x, int i) const {
    const Move move = locate(x, i);
    return step(x.v, move, x.c[static_cast<std::size_t>(move.axis)]);
  }
  [[nodiscard]] EdgeKey edge_key(VertexId v, int i) const override {
    Decoded x;
    decode(v, x);
    return edge_key(x, i);
  }
  [[nodiscard]] EdgeKey edge_key(const Decoded& x, int i) const {
    // The canonical owner of an edge along `axis` is the endpoint from which
    // it increases the coordinate by +1 (mod side on the torus). That
    // endpoint is unique for side >= 3, and for side == 2 only the non-wrap
    // mesh is allowed, where it is the coord-0 endpoint.
    const Move move = locate(x, i);
    const VertexId owner =
        move.direction == 1 ? x.v : step(x.v, move, x.c[static_cast<std::size_t>(move.axis)]);
    return static_cast<EdgeKey>(move.axis) * num_vertices_ + owner;
  }
  [[nodiscard]] EdgeEndpoints endpoints(EdgeKey key) const override;
  [[nodiscard]] std::string name() const override;

  /// L1 (Manhattan) distance; on the torus, per-axis wrap-around distance.
  [[nodiscard]] std::uint64_t distance(VertexId u, VertexId v) const override;

  /// Decodes x and target once; each slot then changes one axis term.
  void neighbor_distances(VertexId x, VertexId target, std::uint64_t* out) const override;

  /// Axis-by-axis monotone shortest path.
  [[nodiscard]] std::vector<VertexId> shortest_path(VertexId u, VertexId v) const override;

  [[nodiscard]] bool has_closed_form_metric() const override { return true; }

  /// First-appearance id of the edge, counted from its lower endpoint a:
  /// per axis, the vertices u < a with each coordinate value are a
  /// mixed-radix count, which gives the edges first listed before a; the
  /// edge then ranks among a's own slots to larger vertices. O(d).
  [[nodiscard]] bool has_closed_form_edge_ids() const override { return true; }
  [[nodiscard]] std::uint32_t edge_id(VertexId v, int i) const override {
    Decoded x;
    decode(v, x);
    decode_edge_ids(x);
    return edge_id(x, i);
  }
  /// A vertex with coordinate c lists, along one axis, up(c) edges to
  /// larger vertices: the increasing one below the last coordinate and, on
  /// the torus, the decreasing wrap at 0. The ids taken before a vertex a's
  /// first slot are F(a) = Σ_{u<a} Σ_k up(u_k). Per axis k write a =
  /// hi·side^(k+1) + c_k·side^k + low_k, low_k < side^k: among u < a each
  /// coordinate value occurs side^k times per unit of hi, side^k times for
  /// each value below c_k, and low_k times for c_k itself. Weighted by up(),
  /// F(a) = d·a + Σ_k g(k, c_k) + e(c_k)·low_k, with g(k, c) = [c>0]·side^k
  /// and e(c) = [c=0] − [c=last] on the torus, and g(k, c) =
  /// −k·c·side^(k−1) and e(c) = −[c=last] on the mesh (Σ_k hi·side^k =
  /// Σ_k k·c_k·side^(k−1)). An edge takes F(a) plus its rank among a's
  /// slots to larger vertices, where a is its lower endpoint: the row's own
  /// vertex x, whose F is Decoded::first, or the neighbor y one step down,
  /// which differs from x on the move's axis alone, so F(y) is F(x)
  /// corrected by that axis's terms in O(1). The arithmetic wraps modulo
  /// 2^64 and the result is below num_edges(), so the wrap cancels. `x`
  /// must carry its edge-id terms (decode_edge_ids).
  [[nodiscard]] std::uint32_t edge_id(const Decoded& x, int i) const {
    const Move move = locate(x, i);
    const auto ax = static_cast<std::size_t>(move.axis);
    const auto c = static_cast<std::uint64_t>(x.c[ax]);
    const auto last = static_cast<std::uint64_t>(side_ - 1);
    // On the torus, a's decreasing wrap slot precedes its increasing one.
    const std::uint64_t rank = x.up_below[ax];
    if (move.direction == 1 && c < last) {
      return static_cast<std::uint32_t>(x.first + rank + static_cast<std::uint64_t>(wrap_ && c == 0));
    }
    if (move.direction == 0 && c == 0) {  // the torus's wrap edge down from coordinate 0
      return static_cast<std::uint32_t>(x.first + rank);
    }
    // The lower endpoint y is a step down: to c − 1, or along the wrap from
    // the last coordinate to 0.
    const bool wraps = move.direction == 1;
    const std::uint64_t y = wraps ? 0 : c - 1;
    const std::uint64_t delta = (y - c) * stride_[ax];  // y − x, modulo 2^64
    const std::uint64_t f = x.first + static_cast<std::uint64_t>(dim_) * delta + g(ax, y) -
                            g(ax, c) + (e(y) - e(c)) * x.low[ax] + delta * x.tail[ax];
    return static_cast<std::uint32_t>(f + rank + static_cast<std::uint64_t>(wrap_ && !wraps && y == 0));
  }

  /// The lowest slot of u whose neighbor is w, or -1 if u and w are not
  /// adjacent: edge_index_of without a slot-by-slot scan.
  [[nodiscard]] int slot_of(const Decoded& u, VertexId w) const {
    for (int i = 0; i < u.degree; ++i) {
      if (neighbor(u, i) == w) return i;
    }
    return -1;
  }

  [[nodiscard]] std::string vertex_label(VertexId v) const override;

  [[nodiscard]] int dimension() const { return dim_; }
  [[nodiscard]] std::int64_t side() const { return side_; }
  [[nodiscard]] bool wraps() const { return wrap_; }

  /// Decodes a vertex id into coordinates (entries beyond dimension() are 0).
  [[nodiscard]] Coords coords_of(VertexId v) const {
    const auto side = static_cast<std::uint64_t>(side_);
    Coords c{};
    for (std::size_t a = 0; a < static_cast<std::size_t>(dim_); ++a, v /= side) {
      c[a] = static_cast<std::int64_t>(v % side);
    }
    return c;
  }

  /// Encodes coordinates into a vertex id. Each coord must be in [0, side).
  [[nodiscard]] VertexId vertex_at(const Coords& coords) const;

 private:
  /// One move out of a vertex: its axis and its direction (0 = decreasing
  /// coordinate, 1 = increasing).
  struct Move {
    int axis;
    int direction;
  };

  /// Slot i's move out of x.
  [[nodiscard]] Move locate(const Decoded& x, int i) const {
    if (i < 0 || i >= x.degree) throw_bad_slot();
    const std::uint8_t move = x.move[static_cast<std::size_t>(i)];
    return {move >> 1, move & 1};
  }
  /// The neighbor `move` leads to from v, whose coordinate on its axis is c.
  [[nodiscard]] VertexId step(VertexId v, const Move& move, std::int64_t c) const {
    const std::uint64_t stride = stride_[static_cast<std::size_t>(move.axis)];
    const auto span = static_cast<std::uint64_t>(side_ - 1);
    if (move.direction == 1) return c == side_ - 1 ? v - span * stride : v + stride;
    return c == 0 ? v + span * stride : v - stride;
  }
  /// edge_id's per-axis terms, modulo 2^64.
  [[nodiscard]] std::uint64_t up(std::uint64_t c) const {
    return static_cast<std::uint64_t>(c + 1 < static_cast<std::uint64_t>(side_)) +
           static_cast<std::uint64_t>(wrap_ && c == 0);
  }
  [[nodiscard]] std::uint64_t e(std::uint64_t c) const {
    const auto at_last = static_cast<std::uint64_t>(c + 1 == static_cast<std::uint64_t>(side_));
    return (wrap_ ? static_cast<std::uint64_t>(c == 0) : 0) - at_last;
  }
  [[nodiscard]] std::uint64_t g(std::size_t k, std::uint64_t c) const {
    if (wrap_) return c > 0 ? stride_[k] : 0;
    return k > 0 ? 0 - static_cast<std::uint64_t>(k) * c * stride_[k - 1] : 0;
  }
  /// Thrown by locate for a slot at or past the degree on the mesh.
  [[noreturn]] static void throw_bad_slot();
  /// The distance term of one axis between coordinates a and b.
  [[nodiscard]] std::uint64_t axis_distance(std::int64_t a, std::int64_t b) const {
    const std::int64_t delta = a > b ? a - b : b - a;
    return static_cast<std::uint64_t>(wrap_ && side_ - delta < delta ? side_ - delta : delta);
  }

  int dim_;
  std::int64_t side_;
  bool wrap_;
  std::uint64_t num_vertices_;
  std::array<std::uint64_t, kMaxDimension> stride_;
};

}  // namespace faultroute
