#include "core/path.hpp"

#include <cstdint>
#include <limits>
#include <vector>

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

namespace {

/// simplify_walk's per-thread position table: vertex -> its index in the
/// simplified prefix, by open addressing. It is grow-only and epoch-stamped,
/// so a call starts it empty in O(1) and steady-state calls allocate nothing.
/// Cutting a loop erases nothing: an entry whose index is past the prefix, or
/// whose prefix slot now holds another vertex, is stale, and the caller
/// detects that against the walk itself.
class WalkPositions {
 public:
  struct Entry {
    VertexId vertex = 0;
    std::size_t index = 0;
    std::uint32_t epoch = 0;
  };

  /// Starts an empty table for a walk of `length` vertices (load <= 1/2).
  void begin(std::size_t length) {
    int bits = 4;
    while ((std::size_t{1} << bits) < 2 * length) ++bits;
    shift_ = 64 - bits;
    mask_ = (std::size_t{1} << bits) - 1;
    if (entries_.size() <= mask_) {
      entries_.assign(mask_ + 1, Entry{});  // analyze:allow-hot-alloc(grow-only per-thread table warm-up)
      epoch_ = 0;
    }
    if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
      for (Entry& entry : entries_) entry.epoch = 0;
      epoch_ = 0;
    }
    ++epoch_;
  }

  /// v's live entry, or the free entry v would take.
  [[nodiscard]] Entry& entry_for(VertexId v) {
    for (std::size_t i = (v * 0x9E3779B97F4A7C15ull) >> shift_;; i = (i + 1) & mask_) {
      Entry& entry = entries_[i];
      if (entry.epoch != epoch_ || entry.vertex == v) return entry;
    }
  }

  [[nodiscard]] bool live(const Entry& entry) const { return entry.epoch == epoch_; }

  void set(Entry& entry, VertexId v, std::size_t index) const { entry = {v, index, epoch_}; }

 private:
  std::vector<Entry> entries_;
  int shift_ = 60;
  std::size_t mask_ = 0;
  std::uint32_t epoch_ = 0;
};

}  // namespace

Path simplify_walk(Path walk) {
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
