#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/topology.hpp"
#include "graph/vertex_marks.hpp"

namespace faultroute::detail {

/// Per-thread BFS scratch for the percolation BFS routines
/// (cluster_analysis, chemical_distance) and the fault-free metric BFS: the
/// visited/parent marks (graph/vertex_marks.hpp) plus reusable queue
/// buffers, so repeated analyses (threshold bisection, chemical-distance
/// sweeps, permutation prechecks) allocate nothing in steady state on graphs
/// within the dense marks budget. Accessed via the thread_local instances of
/// bfs_scratch() and metric_scratch(), which keeps the scenario runner's
/// cell-parallel sweeps race-free.
struct BfsScratch {
  VertexMarks marks;
  std::vector<VertexId> queue;
  std::vector<std::pair<VertexId, std::uint64_t>> dist_queue;  // (vertex, distance)

  /// Starts a fresh search over `n` vertices: new marks, empty queues.
  void begin(std::uint64_t n) {
    marks.begin(n);
    queue.clear();
    dist_queue.clear();
  }
};

inline BfsScratch& bfs_scratch() {
  static thread_local BfsScratch scratch;
  return scratch;
}

/// The fault-free metric's own scratch (Topology::distance, the BFS below),
/// distinct from bfs_scratch(): the percolation analyses hold live epochs in
/// that instance across calls that may re-enter the metric, and sharing one
/// epoch counter would silently invalidate their marks mid-sweep.
inline BfsScratch& metric_scratch() {
  static thread_local BfsScratch scratch;
  return scratch;
}

/// Fault-free BFS shortest path from u to v over `adj`, written to `path`
/// (u first, v last; empty if v is unreachable). `adj` is anything with
/// degree(x) and neighbor(x, i) over `n` vertices: the virtual Topology
/// interface or a FlatAdjacency snapshot, which agree slot for slot. The
/// search expands vertices in FIFO order, scans each row in slot order,
/// keeps the first discoverer as parent and stops when v is discovered, so
/// both accessors yield the same vertex sequence. Runs on metric_scratch():
/// zero allocation in steady state when `path` is pooled and `n` is within
/// the dense marks budget.
template <typename Adjacency>
// analyze:allow-hot-alloc(pooled thread-local scratch queue plus path materialization into the caller's buffer)
void bfs_shortest_path(const Adjacency& adj, std::uint64_t n, VertexId u, VertexId v,
                       std::vector<VertexId>& path) {
  path.clear();
  if (u == v) {
    path.push_back(u);
    return;
  }
  BfsScratch& scratch = metric_scratch();
  scratch.begin(n);
  scratch.marks.emplace(u, u);
  scratch.queue.push_back(u);
  std::size_t head = 0;
  while (head < scratch.queue.size()) {
    const VertexId x = scratch.queue[head++];
    const int deg = adj.degree(x);
    for (int i = 0; i < deg; ++i) {
      const VertexId y = adj.neighbor(x, i);
      if (!scratch.marks.emplace(y, x)) continue;
      if (y == v) {
        for (VertexId z = v;; z = scratch.marks.at(z)) {
          path.push_back(z);
          if (z == u) break;
        }
        std::reverse(path.begin(), path.end());
        return;
      }
      scratch.queue.push_back(y);
    }
  }
}

}  // namespace faultroute::detail
