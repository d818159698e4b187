#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>

namespace faultroute::detail {

/// Dense per-edge-id memo of small state values with O(1) wholesale
/// invalidation, shared by the indexed-memo samplers (ExplicitEdgeSampler,
/// OverrideSampler).
///
/// Each cell is one atomic word packing (generation, state): a cell is live
/// only while its generation matches the memo's current one, so
/// invalidate() is a single counter bump, never an O(cells) sweep — the
/// epoch idiom of ProbeArena/VertexMarks, in atomic form. On the (once per
/// 2^30 invalidations) generation wrap, cells are zero-filled so stale
/// generations can never read as live.
///
/// Concurrency contract, matching the samplers that embed it: concurrent
/// const queries (load/store of resolved answers) are safe — answers are a
/// pure function of the key between mutations, so racing stores write
/// identical words with relaxed ordering. invalidate() and attach() are
/// mutations and must be externally serialized against queries, exactly
/// like the samplers' own force()/set() mutators.
class IndexedStateMemo {
 public:
  /// State 0 is reserved as "unknown" (the reset value); stored states must
  /// fit kStateBits.
  static constexpr std::uint8_t kUnknown = 0;
  static constexpr unsigned kStateBits = 2;
  static constexpr std::uint32_t kStateMask = (1u << kStateBits) - 1;
  static constexpr std::uint32_t kMaxGeneration = (1u << (32 - kStateBits)) - 1;

  /// Allocates `size` cells, all unknown. Replaces any previous attachment.
  void attach(std::uint32_t size) {
    cells_ = std::make_unique<std::atomic<std::uint32_t>[]>(size);
    size_ = size;
    generation_ = 0;
    invalidate();
  }

  /// True once attach() has been called; unattached memos answer nothing.
  [[nodiscard]] bool attached() const { return size_ > 0; }
  [[nodiscard]] std::uint32_t size() const { return size_; }

  /// Current state of `id`: kUnknown when out of range, never resolved, or
  /// invalidated since.
  [[nodiscard]] std::uint8_t load(std::uint32_t id) const {
    if (id >= size_) return kUnknown;
    const std::uint32_t cell = cells_[id].load(std::memory_order_relaxed);
    if ((cell >> kStateBits) != generation_) return kUnknown;
    return static_cast<std::uint8_t>(cell & kStateMask);
  }

  /// Publishes a resolved state (1..kStateMask) for `id`; out-of-range ids
  /// are ignored (the caller already fell back to its keyed path).
  void store(std::uint32_t id, std::uint8_t state) const {
    if (id >= size_) return;
    cells_[id].store((generation_ << kStateBits) | state, std::memory_order_relaxed);
  }

  /// Drops every memoized state in O(1) (generation bump).
  void invalidate() {
    if (generation_ == kMaxGeneration) {
      for (std::uint32_t i = 0; i < size_; ++i) {
        cells_[i].store(0, std::memory_order_relaxed);
      }
      generation_ = 0;
    }
    ++generation_;
  }

 private:
  std::unique_ptr<std::atomic<std::uint32_t>[]> cells_;
  std::uint32_t size_ = 0;
  /// Cells are live iff their packed generation equals this. Starts at 1
  /// (via the attach-time invalidate), so zero-initialized cells are stale.
  std::uint32_t generation_ = 0;
};

}  // namespace faultroute::detail
