#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "graph/topology.hpp"

namespace faultroute {

/// Largest vertex count whose marks are vertex-indexed arrays. At 12 bytes
/// per vertex (a 4-byte epoch stamp and an 8-byte value) a dense mark set
/// tops out at 96 MiB; past it, marks cost memory only for the vertices a
/// search actually reaches, which keeps a 2^30-vertex hypercube free until
/// probed.
inline constexpr std::uint64_t kDenseMarksBudgetVertices = 1ull << 23;

/// Largest edge count whose single-pair probe state (ProbeArena,
/// core/probe_context.hpp) is edge-indexed arrays. A worker's dense side
/// costs per edge 1/8 byte of memo bits, 1/8 byte of answer bits and a
/// reserved 4-byte list slot (resident only where written), plus 4 bytes of
/// reach stamps per vertex: at the budget 4 + 4 MiB of bits, 128 MiB of list
/// address space and at most 128 MiB of stamps (every family here is
/// connected, so V <= E + 1). The budget does not count the topology's
/// ChannelIndex, which the dense side builds once and shares: 8 bytes per
/// vertex, plus on families without closed-form edge ids (de Bruijn,
/// butterfly, CCC, shuffle-exchange, cycle-matching) a 4-byte edge id per
/// directed channel, 256 MiB at the budget. It admits G(n, c/n) on
/// complete:8000 (32.0M edges); past it, probe state costs memory only for
/// the edges a router probes, which keeps a 2^30-vertex hypercube free
/// until probed. A traffic batch's arena is dense at any size.
inline constexpr std::uint64_t kDenseProbeBudgetEdges = 1ull << 25;

/// The visited set of every BFS in the library: per-vertex marks carrying a
/// VertexId value (a BFS parent, a landmark position), reset by begin(n)
/// before each search. begin(n) picks the storage from the vertex count
/// alone:
///
///  * n <= kDenseMarksBudgetVertices — epoch-stamped vertex-indexed arrays.
///    A slot is live only when its stamp equals the current epoch, so a
///    reset is one integer increment and a pooled instance allocates nothing
///    in steady state (the ProbeArena idiom).
///  * above the budget — a hash map holding only the marked vertices. It is
///    released by swapping with an empty map, so a reset costs O(entries
///    marked by the last search), never O(buckets ever grown).
///
/// Marks never influence traversal order, only membership and value recall,
/// so a search returns the same result on either side of the budget.
class VertexMarks {
 public:
  /// Starts a fresh search over `n` vertices. The dense arrays are
  /// grow-only; on the (once per ~4 billion searches) epoch wrap, stamps are
  /// zeroed so stale marks can never read as live.
  void begin(std::uint64_t n) {
    if (!sparse_.empty()) Sparse().swap(sparse_);
    dense_ = n <= kDenseMarksBudgetVertices;
    if (!dense_) return;
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

  [[nodiscard]] bool contains(VertexId v) const {
    return dense_ ? stamp_[v] == epoch_ : sparse_.contains(v);
  }
  /// The value of v, which must be marked.
  [[nodiscard]] VertexId at(VertexId v) const {
    return dense_ ? value_[v] : sparse_.find(v)->second;
  }
  /// Single-probe contains + at.
  [[nodiscard]] bool lookup(VertexId v, VertexId& out) const {
    if (dense_) {
      if (stamp_[v] != epoch_) return false;
      out = value_[v];
      return true;
    }
    const auto it = sparse_.find(v);
    if (it == sparse_.end()) return false;
    out = it->second;
    return true;
  }
  /// Marks v with `value`; returns false (and keeps the old value) if v is
  /// already marked.
  bool emplace(VertexId v, VertexId value) {
    // analyze:allow-hot-alloc(the sparse side serves only graphs past the dense budget)
    if (!dense_) return sparse_.emplace(v, value).second;
    if (stamp_[v] == epoch_) return false;
    stamp_[v] = epoch_;
    value_[v] = value;
    return true;
  }

 private:
  // lint:allow-hash(the sparse side of VertexMarks: graphs past the dense budget)
  using Sparse = std::unordered_map<VertexId, VertexId>;

  bool dense_ = true;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> stamp_;
  std::vector<VertexId> value_;
  Sparse sparse_;
};

}  // namespace faultroute
