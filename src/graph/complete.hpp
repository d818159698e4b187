#pragma once

#include <algorithm>
#include <cstdint>

#include "graph/topology.hpp"

namespace faultroute {

/// The complete graph K_n. Percolating K_n with p = c/n yields the
/// Erdos-Renyi random graph G_{n,p} of Theorems 10 and 11: local routing
/// costs Omega(n^2) probes while the bidirectional oracle router achieves
/// Theta(n^{3/2}).
///
/// Its adjacency is closed form, like the hypercube's and the mesh's, and
/// like the mesh's it still routes over the CSR (graph/flat_adjacency.hpp)
/// under the vertex budget. Dropping that CSR raises only the benchmark's
/// peak-RSS reading, and that reading is an artefact: its probe reads
/// ru_maxrss, which a child spawned by vfork + exec inherits from its
/// parent. The CSR goes once that probe reads VmHWM (ROADMAP item 1).
class CompleteGraph final : public Topology {
 public:
  /// Requires 2 <= n <= 2^31 (edge keys use min * n + max).
  explicit CompleteGraph(std::uint64_t n);

  [[nodiscard]] std::uint64_t num_vertices() const override { return n_; }
  [[nodiscard]] std::uint64_t num_edges() const override { return n_ * (n_ - 1) / 2; }
  [[nodiscard]] int degree(VertexId) const override { return static_cast<int>(n_ - 1); }
  [[nodiscard]] int regular_degree() const override { return static_cast<int>(n_ - 1); }

  /// Neighbors of v are all other vertices, in increasing id order.
  [[nodiscard]] VertexId neighbor(VertexId v, int i) const override {
    const auto u = static_cast<VertexId>(i);
    return u < v ? u : u + 1;
  }

  [[nodiscard]] EdgeKey edge_key(VertexId v, int i) const override {
    const VertexId w = neighbor(v, i);
    const VertexId lo = v < w ? v : w;
    const VertexId hi = v < w ? w : v;
    return lo * n_ + hi;
  }

  [[nodiscard]] EdgeEndpoints endpoints(EdgeKey key) const override {
    return {key / n_, key % n_};
  }

  /// Incident-edge index at u of the edge {u, w}; O(1) for the clique.
  [[nodiscard]] int index_of(VertexId u, VertexId w) const {
    return static_cast<int>(w < u ? w : w - 1);
  }

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::uint64_t distance(VertexId u, VertexId v) const override {
    return u == v ? 0 : 1;
  }
  /// 0 at target's slot, 1 at every other.
  void neighbor_distances(VertexId x, VertexId target, std::uint64_t* out) const override {
    std::fill(out, out + (n_ - 1), std::uint64_t{1});
    if (target != x) out[index_of(x, target)] = 0;
  }
  [[nodiscard]] std::vector<VertexId> shortest_path(VertexId u, VertexId v) const override;

  [[nodiscard]] bool has_closed_form_metric() const override { return true; }

  /// The triangular index of {a, b}, a < b: the vertices u < a list their
  /// n − 1 − u edges to larger vertices first, then a lists b − a − 1
  /// before b. O(1).
  [[nodiscard]] bool has_closed_form_edge_ids() const override { return true; }
  [[nodiscard]] std::uint32_t edge_id(VertexId v, int i) const override {
    const VertexId w = neighbor(v, i);
    const VertexId a = v < w ? v : w;
    const VertexId b = v < w ? w : v;
    return static_cast<std::uint32_t>(a * (n_ - 1) - a * (a - 1) / 2 + (b - a - 1));
  }

 private:
  std::uint64_t n_;
};

}  // namespace faultroute
