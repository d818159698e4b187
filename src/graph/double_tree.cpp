#include "graph/double_tree.hpp"

#include <cassert>
#include <stdexcept>

// analyze:allow-file-throw-safety(neighbor and edge_key slot guards: out-of-range arguments are programming errors, surfaced through parallel first_error)
namespace faultroute {

DoubleBinaryTree::DoubleBinaryTree(int n) : n_(n), leaves_(1ULL << n) {
  if (n < 1 || n > 30) {
    throw std::invalid_argument("DoubleBinaryTree: depth must be in [1, 30]");
  }
}

bool DoubleBinaryTree::is_internal(VertexId v, Side side) const {
  if (side == Side::kTree1) return v >= leaves_ && v < 2 * leaves_ - 1;
  return v >= 2 * leaves_ - 1 && v < 3 * leaves_ - 2;
}

std::uint64_t DoubleBinaryTree::heap_index(VertexId v, Side side) const {
  if (is_leaf(v)) return leaves_ + v;
  assert(is_internal(v, side));
  const std::uint64_t base = (side == Side::kTree1) ? leaves_ : 2 * leaves_ - 1;
  return v - base + 1;
}

VertexId DoubleBinaryTree::vertex_of_heap(std::uint64_t h, Side side) const {
  assert(h >= 1 && h < 2 * leaves_);
  if (h >= leaves_) return h - leaves_;  // leaf level, shared between trees
  const std::uint64_t base = (side == Side::kTree1) ? leaves_ : 2 * leaves_ - 1;
  return base + h - 1;
}

int DoubleBinaryTree::degree(VertexId v) const {
  if (is_leaf(v)) return 2;                        // one parent in each tree
  if (v == root1() || v == root2()) return 2;      // two children
  return 3;                                        // parent + two children
}

VertexId DoubleBinaryTree::neighbor(VertexId v, int i) const {
  if (is_leaf(v)) {
    // i == 0: parent in tree 1; i == 1: parent in tree 2.
    const std::uint64_t h = (leaves_ + v) / 2;
    if (i == 0) return vertex_of_heap(h, Side::kTree1);
    if (i == 1) return vertex_of_heap(h, Side::kTree2);
    throw std::out_of_range("DoubleBinaryTree::neighbor: leaf index out of range");
  }
  const Side side = is_internal(v, Side::kTree1) ? Side::kTree1 : Side::kTree2;
  const std::uint64_t h = heap_index(v, side);
  const bool is_root = (h == 1);
  // Roots: i == 0 left child, i == 1 right child.
  // Other internal: i == 0 parent, i == 1 left child, i == 2 right child.
  if (!is_root && i == 0) return vertex_of_heap(h / 2, side);
  const int child_slot = is_root ? i : i - 1;
  if (child_slot == 0 || child_slot == 1) {
    return vertex_of_heap(2 * h + static_cast<std::uint64_t>(child_slot), side);
  }
  throw std::out_of_range("DoubleBinaryTree::neighbor: index out of range");
}

EdgeKey DoubleBinaryTree::tree_edge_key(Side side, std::uint64_t child_heap) const {
  assert(child_heap >= 2 && child_heap < 2 * leaves_);
  return (child_heap << 1) | static_cast<EdgeKey>(side);
}

EdgeKey DoubleBinaryTree::mirror_edge_key(EdgeKey key) const { return key ^ 1ULL; }

EdgeKey DoubleBinaryTree::edge_key(VertexId v, int i) const {
  // Every edge is a parent->child edge of exactly one tree; its canonical
  // key is (child heap index, tree bit).
  if (is_leaf(v)) {
    const Side side = (i == 0) ? Side::kTree1 : Side::kTree2;
    if (i != 0 && i != 1) {
      throw std::out_of_range("DoubleBinaryTree::edge_key: leaf index out of range");
    }
    return tree_edge_key(side, leaves_ + v);
  }
  const Side side = is_internal(v, Side::kTree1) ? Side::kTree1 : Side::kTree2;
  const std::uint64_t h = heap_index(v, side);
  const bool is_root = (h == 1);
  if (!is_root && i == 0) return tree_edge_key(side, h);  // edge to parent: v is the child
  const int child_slot = is_root ? i : i - 1;
  if (child_slot == 0 || child_slot == 1) {
    return tree_edge_key(side, 2 * h + static_cast<std::uint64_t>(child_slot));
  }
  throw std::out_of_range("DoubleBinaryTree::edge_key: index out of range");
}

std::uint32_t DoubleBinaryTree::edge_id(VertexId v, int i) const {
  // First appearance: the leaves have the lowest ids, so both parent edges
  // of leaf j appear first there, as ids 2j (tree 1) and 2j + 1 (tree 2).
  // Every other edge appears first at its parent, which precedes the child
  // in heap order, tree 1's internal vertices before tree 2's; each parent
  // files its two children in order, so child heap index c in [2, L) of
  // tree s takes 2L + s (L - 2) + c - 2.
  const EdgeKey key = edge_key(v, i);
  const std::uint64_t child = key >> 1;
  const std::uint64_t side = key & 1ULL;
  if (child >= leaves_) return static_cast<std::uint32_t>(2 * (child - leaves_) + side);
  return static_cast<std::uint32_t>(2 * leaves_ + side * (leaves_ - 2) + child - 2);
}

EdgeEndpoints DoubleBinaryTree::endpoints(EdgeKey key) const {
  const Side side = static_cast<Side>(key & 1ULL);
  const std::uint64_t child_heap = key >> 1;
  return {vertex_of_heap(child_heap, side), vertex_of_heap(child_heap >> 1, side)};
}

std::string DoubleBinaryTree::name() const {
  return "double_tree(n=" + std::to_string(n_) + ")";
}

std::string DoubleBinaryTree::vertex_label(VertexId v) const {
  if (is_leaf(v)) return "leaf:" + std::to_string(v);
  if (is_internal(v, Side::kTree1)) {
    return "t1:h" + std::to_string(heap_index(v, Side::kTree1));
  }
  return "t2:h" + std::to_string(heap_index(v, Side::kTree2));
}

}  // namespace faultroute
