#include "core/path.hpp"

#include <cstdint>
#include <vector>

#include "core/walk_positions.hpp"

namespace faultroute {

bool is_valid_open_path(const Topology& graph, const EdgeSampler& sampler,
                        const Path& path, VertexId from, VertexId to) {
  return AdjacencyView(graph, nullptr).visit(
      [&](const auto& rows) { return is_valid_open_path_on(rows, sampler, path, from, to); });
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
