#include "graph/topology.hpp"

#include <algorithm>
#include <queue>
#include <unordered_map>

#include "graph/bfs_scratch.hpp"
#include "graph/channel_index.hpp"
#include "graph/flat_adjacency.hpp"

namespace faultroute {

namespace {

/// Dense scratch is worth allocating only when the vertex-indexed arrays fit
/// comfortably in memory; gigantic implicit families (which override the
/// metric anyway) keep the hash path below.
constexpr std::uint64_t kDenseBfsBudgetVertices = 1ull << 26;

}  // namespace

Topology::Topology() = default;
Topology::Topology(const Topology&) {}
Topology::~Topology() = default;

const ChannelIndex& Topology::channel_index() const {
  std::call_once(channel_index_once_,
                 [this] { channel_index_ = std::make_unique<ChannelIndex>(*this); });
  return *channel_index_;
}

const FlatAdjacency& Topology::flat_adjacency() const {
  std::call_once(flat_adjacency_once_,
                 [this] { flat_adjacency_ = std::make_unique<FlatAdjacency>(*this); });
  return *flat_adjacency_;
}

// analyze:hot-root(dense BFS scratch path: metric fallback in router inner loops) analyze:allow-hot-alloc(dense tier runs on pooled thread-local scratch; the hash tier is the documented past-budget fallback)
std::uint64_t Topology::distance(VertexId u, VertexId v) const {
  if (u == v) return 0;
  const std::uint64_t n = num_vertices();
  if (n <= kDenseBfsBudgetVertices) {
    // Epoch-stamped dense BFS: same FIFO slot-order traversal as the hash
    // path below, so the two tiers return identical values; "clearing"
    // between calls is one epoch increment, and the scratch arrays are
    // pooled per thread (zero allocation in steady state).
    detail::BfsScratch& scratch = detail::metric_scratch();
    scratch.begin(n);
    scratch.mark(u);
    scratch.dist_queue.emplace_back(u, 0);
    std::size_t head = 0;
    while (head < scratch.dist_queue.size()) {
      const auto [x, dx] = scratch.dist_queue[head++];
      const int deg = degree(x);
      for (int i = 0; i < deg; ++i) {
        const VertexId y = neighbor(x, i);
        if (scratch.seen(y)) continue;
        if (y == v) return dx + 1;
        scratch.mark(y);
        scratch.dist_queue.emplace_back(y, dx + 1);
      }
    }
    return n;
  }
  // Hash BFS over the implicit adjacency for graphs too large for dense
  // vertex-indexed scratch. Unreachable => num_vertices().
  // lint:allow-hash(fallback BFS for graphs past the dense-scratch budget)
  std::unordered_map<VertexId, std::uint64_t> dist;
  std::queue<VertexId> queue;
  dist.emplace(u, 0);
  queue.push(u);
  while (!queue.empty()) {
    const VertexId x = queue.front();
    queue.pop();
    const std::uint64_t dx = dist.at(x);
    const int deg = degree(x);
    for (int i = 0; i < deg; ++i) {
      const VertexId y = neighbor(x, i);
      if (dist.contains(y)) continue;
      if (y == v) return dx + 1;
      dist.emplace(y, dx + 1);
      queue.push(y);
    }
  }
  return n;
}

// analyze:allow-hot-alloc(pooled dense scratch plus result materialization; the hash tier is the documented past-budget fallback)
std::vector<VertexId> Topology::shortest_path(VertexId u, VertexId v) const {
  if (u == v) return {u};
  const std::uint64_t n = num_vertices();
  if (n <= kDenseBfsBudgetVertices) {
    // Dense tier, traversal-order-identical to the hash tier below and to
    // the CSR-row BFS of graph/flat_adjacency.hpp (the same template), so
    // the *same* shortest path comes back regardless of graph size or
    // adjacency backend — landmark routing's path identity depends on it.
    std::vector<VertexId> path;
    detail::bfs_shortest_path(*this, n, u, v, path);
    return path;
  }
  // lint:allow-hash(fallback BFS for graphs past the dense-scratch budget)
  std::unordered_map<VertexId, VertexId> parent;
  std::queue<VertexId> queue;
  parent.emplace(u, u);
  queue.push(u);
  bool found = false;
  while (!queue.empty() && !found) {
    const VertexId x = queue.front();
    queue.pop();
    const int deg = degree(x);
    for (int i = 0; i < deg; ++i) {
      const VertexId y = neighbor(x, i);
      if (parent.contains(y)) continue;
      parent.emplace(y, x);
      if (y == v) {
        found = true;
        break;
      }
      queue.push(y);
    }
  }
  if (!found) return {};
  std::vector<VertexId> path;
  for (VertexId x = v;; x = parent.at(x)) {
    path.push_back(x);
    if (x == u) break;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::string Topology::vertex_label(VertexId v) const { return std::to_string(v); }

int edge_index_of(const Topology& g, VertexId u, VertexId v) {
  const int deg = g.degree(u);
  for (int i = 0; i < deg; ++i) {
    if (g.neighbor(u, i) == v) return i;
  }
  return -1;
}

std::vector<EdgeKey> incident_edge_keys(const Topology& g, VertexId v) {
  const int deg = g.degree(v);
  std::vector<EdgeKey> keys;
  keys.reserve(static_cast<std::size_t>(deg));
  for (int i = 0; i < deg; ++i) keys.push_back(g.edge_key(v, i));
  return keys;
}

}  // namespace faultroute
