#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "graph/topology.hpp"

namespace faultroute {

namespace detail {

/// kOnesBelowByte[c] = Σ_{u<c} popcount(u) and kOnesOfByte[c] =
/// popcount(c), for a byte c. Hypercube::edge_id looks a byte's popcount
/// up: a load is cheaper there than popcount64's word arithmetic.
inline constexpr std::array<std::uint16_t, 256> kOnesBelowByte = [] {
  std::array<std::uint16_t, 256> table{};
  for (unsigned c = 1; c < 256; ++c) {
    table[c] = static_cast<std::uint16_t>(table[c - 1] + std::popcount(c - 1));
  }
  return table;
}();
inline constexpr std::array<std::uint8_t, 256> kOnesOfByte = [] {
  std::array<std::uint8_t, 256> table{};
  for (unsigned c = 0; c < 256; ++c) table[c] = static_cast<std::uint8_t>(std::popcount(c));
  return table;
}();

/// Population count in a few inline word operations. The baseline ISA has
/// no popcnt instruction, so std::popcount is a library call there, which
/// costs more than this on a per-probe path.
[[nodiscard]] constexpr int popcount64(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<int>((x * 0x0101010101010101ULL) >> 56);
}

}  // namespace detail

/// The n-dimensional boolean hypercube H_n.
///
/// Vertices are the 2^n bit strings; u and v are adjacent iff they differ in
/// exactly one bit. This is the central object of Theorem 3: the percolated
/// hypercube H_{n,p} has a *routing* phase transition at p = n^{-1/2}, far
/// above its *connectivity* (giant-component) threshold p ~ 1/n.
///
/// Adjacency is closed form and inline: degree, neighbor, edge_key, edge_id
/// and slot_of are what the hot paths call through ClosedFormRows
/// (graph/flat_adjacency.hpp), without virtual dispatch and without a CSR.
class Hypercube final : public Topology {
 public:
  /// Constructs H_n. Requires 1 <= n <= 40 (2^40 vertices is far beyond
  /// anything materialisable, but the implicit interface still works).
  explicit Hypercube(int n);

  [[nodiscard]] std::uint64_t num_vertices() const override { return 1ULL << n_; }
  [[nodiscard]] std::uint64_t num_edges() const override {
    return static_cast<std::uint64_t>(n_) << (n_ - 1);
  }
  [[nodiscard]] int degree(VertexId) const override { return n_; }
  [[nodiscard]] int regular_degree() const override { return n_; }
  [[nodiscard]] VertexId neighbor(VertexId v, int i) const override {
    return v ^ (1ULL << i);
  }

  /// Canonical key: (lower endpoint) * n + flipped-bit index.
  [[nodiscard]] EdgeKey edge_key(VertexId v, int i) const override {
    const VertexId lower = v & ~(1ULL << i);
    return lower * static_cast<std::uint64_t>(n_) + static_cast<std::uint64_t>(i);
  }

  [[nodiscard]] EdgeEndpoints endpoints(EdgeKey key) const override {
    const VertexId lower = key / static_cast<std::uint64_t>(n_);
    const int bit = static_cast<int>(key % static_cast<std::uint64_t>(n_));
    return {lower, lower ^ (1ULL << bit)};
  }

  [[nodiscard]] std::string name() const override;

  /// Hamming distance.
  [[nodiscard]] std::uint64_t distance(VertexId u, VertexId v) const override;

  /// One Hamming distance d for the row: flipping bit i gives d - 1 where
  /// x and target differ and d + 1 where they agree.
  void neighbor_distances(VertexId x, VertexId target, std::uint64_t* out) const override;

  /// Shortest path flipping the differing bits in ascending bit order.
  [[nodiscard]] std::vector<VertexId> shortest_path(VertexId u, VertexId v) const override;

  [[nodiscard]] bool has_closed_form_metric() const override { return true; }

  /// First-appearance id of the edge {a, a | 2^i} with bit i of a clear:
  /// every vertex u < a first lists its n - popcount(u) edges to larger
  /// vertices, so n·a − Σ_{u<a} popcount(u) ids precede a's own, and the
  /// edge ranks among a's clear bits below i. O(n / 8), a byte at a time;
  /// up to n = 16 (every hypercube the scenarios and the benchmark route
  /// on) the two bytes are one straight-line expression, which runs the
  /// hypercube:13 BFS routers ~17% faster than the byte loop does
  /// (search-sweep, 10 of 10 alternating pairs).
  [[nodiscard]] bool has_closed_form_edge_ids() const override { return true; }
  [[nodiscard]] std::uint32_t edge_id(VertexId v, int i) const override {
    const VertexId bit = 1ULL << i;
    const VertexId a = v & ~bit;
    const VertexId below = a & (bit - 1);
    std::uint64_t ones_below;  // Σ_{u<a} popcount(u)
    std::uint64_t rank;        // a's clear bits below i
    if (n_ <= 16) {
      // Two bytes, straight-line: appending byte c0 to the prefix c1 gives
      // S(256·c1 + c0) = 256·(4·c1 + S(c1)) + popcount(c1)·c0 + S(c0).
      const std::uint64_t c0 = a & 0xff;
      const std::uint64_t c1 = a >> 8;
      ones_below = ((4 * c1 + ones_before(c1)) << 8) + byte_ones(c1) * c0 + ones_before(c0);
      rank = static_cast<std::uint64_t>(i) - byte_ones(below & 0xff) - byte_ones(below >> 8);
    } else {
      // A byte of a at a time from the top: appending byte c to a prefix x
      // that has `ones` set bits gives
      // S(256·x + c) = 256·S(x) + 1024·x + ones·c + S(c).
      ones_below = 0;
      std::uint64_t prefix = 0;
      std::uint64_t ones = 0;
      for (int shift = (n_ - 1) & ~7; shift >= 0; shift -= 8) {
        const std::uint64_t c = (a >> shift) & 0xff;
        ones_below = (ones_below << 8) + (prefix << 10) + ones * c + ones_before(c);
        prefix = (prefix << 8) | c;
        ones += byte_ones(c);
      }
      rank = static_cast<std::uint64_t>(i - detail::popcount64(below));
    }
    return static_cast<std::uint32_t>(static_cast<std::uint64_t>(n_) * a - ones_below + rank);
  }

  /// The slot of u whose neighbor is w (the flipped bit), or -1 if u and w
  /// are not adjacent: edge_index_of in O(1).
  [[nodiscard]] int slot_of(VertexId u, VertexId w) const {
    const VertexId diff = u ^ w;
    if (diff == 0 || (diff & (diff - 1)) != 0) return -1;
    return std::countr_zero(diff);
  }

  [[nodiscard]] int dimension() const { return n_; }

 private:
  /// Σ_{u<c} popcount(u) and popcount(c), for a byte c.
  [[nodiscard]] static std::uint64_t ones_before(std::uint64_t c) {
    return detail::kOnesBelowByte[c];
  }
  [[nodiscard]] static std::uint64_t byte_ones(std::uint64_t c) { return detail::kOnesOfByte[c]; }

  int n_;
};

}  // namespace faultroute
