#pragma once

#include <cstdint>

#include "graph/topology.hpp"

namespace faultroute {

/// The n-dimensional boolean hypercube H_n.
///
/// Vertices are the 2^n bit strings; u and v are adjacent iff they differ in
/// exactly one bit. This is the central object of Theorem 3: the percolated
/// hypercube H_{n,p} has a *routing* phase transition at p = n^{-1/2}, far
/// above its *connectivity* (giant-component) threshold p ~ 1/n.
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

  /// Shortest path flipping the differing bits in ascending bit order.
  [[nodiscard]] std::vector<VertexId> shortest_path(VertexId u, VertexId v) const override;

  [[nodiscard]] bool has_closed_form_metric() const override { return true; }

  /// First-appearance id of the edge {a, a | 2^i} with bit i of a clear:
  /// every vertex u < a first lists its n - popcount(u) edges to larger
  /// vertices, so n·a − Σ_{u<a} popcount(u) ids precede a's own, and the
  /// edge ranks among a's clear bits below i. O(n / 8), a byte at a time.
  [[nodiscard]] bool has_closed_form_edge_ids() const override { return true; }
  [[nodiscard]] std::uint32_t edge_id(VertexId v, int i) const override;

  [[nodiscard]] int dimension() const { return n_; }

 private:
  int n_;
};

}  // namespace faultroute
