#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "graph/topology.hpp"

namespace faultroute {

/// Interchangeable visited/parent mark backends for the search routers'
/// BFS state, mirroring the dense/hash split of ProbeContext's probe memo:
/// the routers template their search loops over one of these, so the flat
/// adjacency path runs on vertex-indexed epoch-stamped arrays while the
/// implicit path keeps self-contained hash maps (the only option when the
/// vertex space is too large to index). Marks never influence traversal
/// order — only membership and parent recall — so the two backends produce
/// bit-identical routes, probes, and counters.

/// Hash-backed marks: per-search unordered_map, works on any implicit graph.
class HashMarks {
 public:
  /// Empties the marks for a fresh search (the vertex count is ignored;
  /// it exists so search loops can be generic over both backends). Bucket
  /// capacity persists across searches, like the dense arrays.
  void begin(std::uint64_t /*num_vertices*/) { map_.clear(); }

  [[nodiscard]] bool contains(VertexId v) const { return map_.contains(v); }
  [[nodiscard]] VertexId at(VertexId v) const { return map_.at(v); }
  /// Single-probe contains + at.
  [[nodiscard]] bool lookup(VertexId v, VertexId& out) const {
    const auto it = map_.find(v);
    if (it == map_.end()) return false;
    out = it->second;
    return true;
  }
  /// Inserts v -> value; returns false (and leaves the mark) if v is marked.
  // analyze:allow-hot-alloc(HashMarks serves implicit adjacency on graphs above the CSR budget; DenseMarks pools instead)
  bool emplace(VertexId v, VertexId value) { return map_.emplace(v, value).second; }

 private:
  // lint:allow-hash(HashMarks IS the implicit-adjacency path for graphs above the CSR budget)
  std::unordered_map<VertexId, VertexId> map_;
};

/// Dense marks: vertex-indexed arrays whose slots are live only when their
/// stamp equals the current epoch, so clearing between searches is one
/// integer increment and steady-state routing through a pooled instance
/// allocates nothing (the ProbeArena idiom). Requires a materializable
/// vertex space — exactly what a flat adjacency snapshot guarantees. Owned
/// by the router object, which the traffic engine reuses across a worker
/// thread's whole batch.
class DenseMarks {
 public:
  /// Sizes for `n` vertices (grow-only) and starts a fresh search epoch; on
  /// the (once per ~4 billion searches) wrap, stamps are zeroed so stale
  /// marks can never read as live.
  void begin(std::uint64_t n) {
    if (stamp_.size() < n) {
      stamp_.resize(n, 0);  // analyze:allow-hot-alloc(grow-only pooled marks warm-up)
      value_.resize(n, 0);  // analyze:allow-hot-alloc(same grow-only warm-up)
    }
    if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      epoch_ = 0;
    }
    ++epoch_;
  }

  [[nodiscard]] bool contains(VertexId v) const { return stamp_[v] == epoch_; }
  [[nodiscard]] VertexId at(VertexId v) const { return value_[v]; }
  [[nodiscard]] bool lookup(VertexId v, VertexId& out) const {
    if (stamp_[v] != epoch_) return false;
    out = value_[v];
    return true;
  }
  bool emplace(VertexId v, VertexId value) {
    if (stamp_[v] == epoch_) return false;
    stamp_[v] = epoch_;
    value_[v] = value;
    return true;
  }

 private:
  std::vector<std::uint32_t> stamp_;
  std::vector<VertexId> value_;
  std::uint32_t epoch_ = 0;
};

}  // namespace faultroute
