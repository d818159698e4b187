#include "graph/topology.hpp"

#include <stdexcept>

#include "graph/bfs_scratch.hpp"
#include "graph/channel_index.hpp"
#include "graph/flat_adjacency.hpp"

namespace faultroute {

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

// analyze:hot-root(BFS metric fallback in router inner loops) analyze:allow-hot-alloc(pooled thread-local scratch; marks past the dense budget grow per call)
std::uint64_t Topology::distance(VertexId u, VertexId v) const {
  if (u == v) return 0;
  // FIFO slot-order BFS on the metric scratch. Unreachable => num_vertices().
  const std::uint64_t n = num_vertices();
  detail::BfsScratch& scratch = detail::metric_scratch();
  scratch.begin(n);
  scratch.marks.emplace(u, u);
  scratch.dist_queue.emplace_back(u, 0);
  std::size_t head = 0;
  while (head < scratch.dist_queue.size()) {
    const auto [x, dx] = scratch.dist_queue[head++];
    const int deg = degree(x);
    for (int i = 0; i < deg; ++i) {
      const VertexId y = neighbor(x, i);
      if (!scratch.marks.emplace(y, x)) continue;
      if (y == v) return dx + 1;
      scratch.dist_queue.emplace_back(y, dx + 1);
    }
  }
  return n;
}

void Topology::neighbor_distances(VertexId x, VertexId target, std::uint64_t* out) const {
  const int deg = degree(x);
  for (int i = 0; i < deg; ++i) out[i] = distance(neighbor(x, i), target);
}

// analyze:allow-hot-alloc(pooled thread-local scratch plus result materialization)
std::vector<VertexId> Topology::shortest_path(VertexId u, VertexId v) const {
  // The same template as the CSR-row BFS of graph/flat_adjacency.hpp, so the
  // *same* shortest path comes back regardless of adjacency backend —
  // landmark routing's path identity depends on it.
  std::vector<VertexId> path;
  detail::bfs_shortest_path(*this, num_vertices(), u, v, path);
  return path;
}

std::string Topology::vertex_label(VertexId v) const { return std::to_string(v); }

std::uint32_t Topology::edge_id(VertexId /*v*/, int /*i*/) const {
  // analyze:allow-throw-safety(contract violation: ChannelIndex asks only families that declare a closed form)
  throw std::logic_error("Topology::edge_id: " + name() + " has no closed-form edge ids");
}

void throw_allocation_failure(const Topology& graph, const std::string& structure,
                              std::uint64_t bytes) {
  // analyze:allow-throw-safety(out-of-memory refusal of a one-shot lazy build; surfaced via first_error)
  throw std::runtime_error(structure + " of " + graph.name() + ": cannot allocate " +
                           std::to_string(bytes) + " bytes");
}

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
