#pragma once

// Test-only access to a ProbeArena's internals (core/probe_context.hpp).

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/probe_context.hpp"

namespace faultroute {

class ProbeArenaTestPeer {
 public:
  static constexpr std::uint32_t kMaxEpoch = ProbeArena::kMaxEpoch;

  /// A single-pair arena over `graph` on the side `dense` names, whatever
  /// the size test would pick: the sparse side is otherwise reached only
  /// past kDenseProbeBudgetEdges, too large for a differential test.
  static std::unique_ptr<ProbeArena> make(const Topology& graph, bool dense) {
    return std::unique_ptr<ProbeArena>(new ProbeArena(graph, nullptr, dense));
  }

  static bool dense(const ProbeArena& arena) { return arena.dense_; }

  /// The epoch, to reach the wrap without routing four billion messages.
  static std::uint32_t epoch(const ProbeArena& arena) { return arena.epoch_; }
  static void set_epoch(ProbeArena& arena, std::uint32_t epoch) { arena.epoch_ = epoch; }

  /// Memo bits set anywhere in the arena, and the words that hold them.
  static std::uint64_t memo_bits(const ProbeArena& arena) {
    std::uint64_t bits = 0;
    for (const std::uint64_t word : arena.edge_probed_) bits += std::popcount(word);
    return bits;
  }
  static std::uint64_t memo_words_in_use(const ProbeArena& arena) {
    std::uint64_t words = 0;
    for (const std::uint64_t word : arena.edge_probed_) words += word != 0 ? 1 : 0;
    return words;
  }
  static std::size_t listed_edges(const ProbeArena& arena) {
    return arena.num_probed_edges_;
  }

  /// The dense side's state as copies (empty on the sparse side): the memo
  /// and answer bits, and the listed edge ids in list order.
  static std::vector<std::uint64_t> memo_words(const ProbeArena& arena) {
    return arena.edge_probed_;
  }
  static std::vector<std::uint64_t> answer_words(const ProbeArena& arena) {
    return arena.edge_open_;
  }
  static std::vector<std::uint32_t> listed(const ProbeArena& arena) {
    if (!arena.probed_edges_) return {};
    return {arena.probed_edges_.get(), arena.probed_edges_.get() + arena.num_probed_edges_};
  }
};

}  // namespace faultroute
