#include "core/path.hpp"

#include <cstdint>
#include <vector>

#include "core/walk_positions.hpp"

namespace faultroute {

bool is_valid_open_path(const Topology& graph, const EdgeSampler& sampler,
                        const Path& path, VertexId from, VertexId to) {
  return is_valid_open_path(AdjacencyView(graph, nullptr), sampler, path, from, to);
}

bool is_valid_open_path(const AdjacencyView& adj, const EdgeSampler& sampler,
                        const Path& path, VertexId from, VertexId to) {
  if (path.empty()) return false;
  if (path.front() != from || path.back() != to) return false;
  const FlatAdjacency* flat = adj.flat();
  for (std::size_t step = 0; step + 1 < path.size(); ++step) {
    const VertexId a = path[step];
    const VertexId b = path[step + 1];
    // Accept the edge if *any* parallel copy of {a, b} is open.
    bool ok = false;
    if (flat != nullptr) {
      const std::uint64_t end = flat->row_end(a);
      for (std::uint64_t pos = flat->row_begin(a); pos < end && !ok; ++pos) {
        if (flat->neighbor_at(pos) == b &&
            sampler.is_open_indexed(flat->edge_id_at(pos), flat->edge_key_at(pos))) {
          ok = true;
        }
      }
    } else {
      const Topology& graph = adj.graph();
      const int deg = graph.degree(a);
      for (int i = 0; i < deg && !ok; ++i) {
        if (graph.neighbor(a, i) == b && sampler.is_open(graph.edge_key(a, i))) ok = true;
      }
    }
    if (!ok) return false;
  }
  return true;
}

Path simplify_walk(Path walk) {
  // Cutting a loop erases nothing: an entry whose index is past the prefix,
  // or whose prefix slot now holds another vertex, is stale.
  static thread_local WalkPositions positions;
  positions.begin(walk.size());
  // walk[0, size) is the simplified prefix; it is never longer than the part
  // of the walk read so far, so the walk is compacted in place.
  std::size_t size = 0;
  for (std::size_t r = 0; r < walk.size(); ++r) {
    const VertexId v = walk[r];
    WalkPositions::Entry& entry = positions.entry_for(v);
    if (positions.live(entry) && entry.index < size && walk[entry.index] == v) {
      size = entry.index + 1;  // cut the loop back to v's first occurrence
    } else {
      positions.set(entry, v, size);
      walk[size++] = v;
    }
  }
  walk.resize(size);  // analyze:allow-hot-alloc(shrinks the walk in place; never grows)
  return walk;
}

std::size_t path_length(const Path& path) {
  return path.empty() ? 0 : path.size() - 1;
}

}  // namespace faultroute
