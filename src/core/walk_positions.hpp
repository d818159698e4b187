#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/topology.hpp"

namespace faultroute {

/// Vertex -> its index along a walk or path, by open addressing, sized by
/// the walk's length rather than the graph's vertex count. simplify_walk
/// keeps its per-thread position table in one, and the landmark walk
/// (core/routers/landmark_walk.hpp) maps each landmark to its place on the
/// base path with one. It is grow-only and epoch-stamped, so begin() starts
/// it empty in O(1) and steady-state use allocates nothing. Nothing is ever
/// erased: a caller that needs to forget entries (simplify_walk cutting a
/// loop) detects stale ones against its own walk.
class WalkPositions {
 public:
  struct Entry {
    VertexId vertex = 0;
    std::size_t index = 0;
    std::uint32_t epoch = 0;
  };

  /// Starts an empty table for a walk of `length` vertices. Load <= 1/4:
  /// most lookups miss (a BFS asking whether a vertex is a landmark), and a
  /// miss in linear probing costs ~1.4 slots there against ~2.5 at 1/2.
  void begin(std::size_t length) {
    int bits = 4;
    while ((std::size_t{1} << bits) < 4 * length) ++bits;
    shift_ = 64 - bits;
    mask_ = (std::size_t{1} << bits) - 1;
    if (entries_.size() <= mask_) {
      entries_.assign(mask_ + 1, Entry{});  // analyze:allow-hot-alloc(grow-only pooled table warm-up)
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

}  // namespace faultroute
