#pragma once

#include <cstdint>

#include "graph/topology.hpp"

namespace faultroute {

/// The double binary tree TT_n (Section 2.1 of the paper): two complete
/// binary trees of depth n whose leaves are identified pairwise.
///
/// TT_n is the paper's illustrative example for the lower-bound lemma: the
/// two roots are connected with probability bounded away from zero iff
/// p > 1/sqrt(2) (Lemma 6), any *local* router between the roots needs about
/// p^{-n} probes (Theorem 7), yet an *oracle* router that probes mirrored
/// edge pairs routes in expected O(n) probes (Theorem 9).
///
/// Vertex numbering (L = 2^n leaves):
///  * leaves:          ids [0, L), leaf j is shared by both trees;
///  * tree-1 internal: ids [L, 2L - 1), heap index h in [1, L), id = L + h - 1;
///  * tree-2 internal: ids [2L - 1, 3L - 2), id = 2L - 1 + (h - 1).
///
/// Heap indices follow the usual binary-heap convention: root h = 1, children
/// of h are 2h and 2h+1; the "children" of a level-(n-1) internal node with
/// heap index h are the leaves with leaf index 2h - L and 2h + 1 - L.
class DoubleBinaryTree final : public Topology {
 public:
  /// Which of the two trees an edge or internal vertex belongs to.
  enum class Side { kTree1 = 0, kTree2 = 1 };

  /// Constructs TT_n. Requires 1 <= n <= 30.
  explicit DoubleBinaryTree(int n);

  [[nodiscard]] std::uint64_t num_vertices() const override { return 3 * leaves_ - 2; }
  [[nodiscard]] std::uint64_t num_edges() const override { return 2 * (2 * leaves_ - 2); }
  [[nodiscard]] int degree(VertexId v) const override;
  [[nodiscard]] VertexId neighbor(VertexId v, int i) const override;
  [[nodiscard]] EdgeKey edge_key(VertexId v, int i) const override;
  [[nodiscard]] EdgeEndpoints endpoints(EdgeKey key) const override;
  [[nodiscard]] bool has_closed_form_edge_ids() const override { return true; }
  [[nodiscard]] std::uint32_t edge_id(VertexId v, int i) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string vertex_label(VertexId v) const override;

  [[nodiscard]] int depth() const { return n_; }
  [[nodiscard]] std::uint64_t num_leaves() const { return leaves_; }

  /// The root of tree 1 ("x" in the paper) and of tree 2 ("y").
  [[nodiscard]] VertexId root1() const { return leaves_; }
  [[nodiscard]] VertexId root2() const { return 2 * leaves_ - 1; }

  [[nodiscard]] bool is_leaf(VertexId v) const { return v < leaves_; }
  [[nodiscard]] bool is_internal(VertexId v, Side side) const;

  /// Heap index of vertex v within tree `side`. Leaves have heap index
  /// L + leaf_index in both trees; internal vertices must belong to `side`.
  [[nodiscard]] std::uint64_t heap_index(VertexId v, Side side) const;

  /// Vertex id of the tree-`side` node with heap index h. Heap indices in
  /// [1, L) are internal nodes of that tree; [L, 2L) are the shared leaves.
  [[nodiscard]] VertexId vertex_of_heap(std::uint64_t h, Side side) const;

  /// Canonical key of the tree-`side` edge whose lower endpoint has heap
  /// index `child_heap` (in [2, 2L)). The paired-oracle router uses this to
  /// probe an edge together with its mirror image in the other tree.
  [[nodiscard]] EdgeKey tree_edge_key(Side side, std::uint64_t child_heap) const;

  /// The mirror image (same heap position, other tree) of an edge key.
  [[nodiscard]] EdgeKey mirror_edge_key(EdgeKey key) const;

 private:
  int n_;
  std::uint64_t leaves_;  // 2^n
};

}  // namespace faultroute
