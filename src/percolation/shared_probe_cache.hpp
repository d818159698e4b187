#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>

#include "graph/topology.hpp"
#include "percolation/edge_sampler.hpp"

namespace faultroute {

class ChannelIndex;

/// Hit/miss counts of SharedProbeCache lookups, owned by one caller — a
/// route_all worker keeps one in its ProbeArena — and added to the cache's
/// totals once, by SharedProbeCache::fold. Plain integers, so counting a
/// probe costs no locked instruction.
struct CacheTally {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// A concurrency-safe memoising layer over an EdgeSampler, shared by every
/// message of a traffic batch.
///
/// Single-pair routing pays the full discovery cost of its environment; a
/// batch of concurrent messages probing one shared environment should not.
/// The cache records the answer the first time any message probes an edge,
/// so the *environment* cost of a batch is the number of distinct edges
/// probed by the union of all messages — per-message cost amortises toward
/// zero as the batch grows and working sets overlap. This is the traffic
/// engine's key hot-path optimisation.
///
/// Storage is one atomic byte per undirected edge of the topology, indexed
/// by the dense edge ids of its ChannelIndex, holding a tri-state:
/// unknown / closed / open. A hit is one relaxed array load — no mutex, no
/// hashing, no node allocation. Unknown slots are resolved by querying the
/// base sampler *outside* any critical section and publishing the answer
/// with a CAS.
///
/// Two entry points share that body. The dense side of a batch's
/// ProbeArena calls the inline, non-virtual lookup() with a tally its worker
/// owns, and the worker folds the tally in once when it drains. Every other caller goes
/// through the EdgeSampler interface (is_open / is_open_indexed), which
/// folds a one-call tally at once. A context that probes an edge again in
/// the same message reads the published byte back with published_open(),
/// which counts nothing: the memo hit is not a cache lookup.
///
/// Correctness under threads: the underlying sampler is a deterministic
/// pure function of the edge key, so two threads racing to resolve the same
/// edge compute the same value — whichever CAS wins publishes it, the loser
/// discards a byte-identical duplicate, and every quantity derived from
/// probe *answers* is bit-identical across thread counts. So is
/// `unique_edges()`: the set of published edges depends only on which edges
/// the batch probes, never on the interleaving. The hit/miss counts are
/// exact in total once every tally is folded (every lookup is exactly one
/// hit or one miss, and a miss is counted only by the CAS winner, so
/// hits + misses == lookups and misses == unique_edges()); only the
/// attribution of any single racing lookup to hit-vs-miss is decided by the
/// race.
class SharedProbeCache final : public EdgeSampler {
 public:
  /// `base` must outlive the cache and be thread-safe under const access
  /// (all library samplers are; they are pure functions of the edge key).
  /// `graph` is the topology whose edges will be probed — its ChannelIndex
  /// supplies the dense edge-id space backing the state array.
  SharedProbeCache(const EdgeSampler& base, const Topology& graph);

  /// The topology whose edge ids index the cache, and its channel index.
  [[nodiscard]] const Topology& graph() const { return graph_; }
  [[nodiscard]] const ChannelIndex& channels() const { return channels_; }

  /// The routing hot path: the cached answer for edge `edge_id`, querying
  /// (and publishing) `base` on first touch. `edge_id` must be `key`'s id
  /// under the constructor topology's ChannelIndex. The lookup is counted in
  /// the caller's `tally` — one hit or one miss — and reaches hits() and
  /// misses() only through fold().
  [[nodiscard]] bool lookup(std::uint32_t edge_id, EdgeKey key, CacheTally& tally) const {
    const std::uint8_t state = states_[edge_id].load(std::memory_order_relaxed);
    if (state != kUnknown) {
      ++tally.hits;
      return state == kOpen;
    }
    const Resolution resolved = resolve(edge_id, key);
    ++(resolved.published ? tally.misses : tally.hits);
    return resolved.open;
  }

  /// The answer already published for edge `edge_id`, read back without
  /// counting it anywhere. The caller must have looked the edge up before,
  /// on the same thread: that lookup saw or published a known state, a
  /// state goes from unknown to known exactly once, and read-read coherence
  /// keeps a later relaxed load of the same byte from reading unknown. The
  /// dense side of a ProbeArena answers its memo hits from here.
  [[nodiscard]] bool published_open(std::uint32_t edge_id) const {
    const std::uint8_t state = states_[edge_id].load(std::memory_order_relaxed);
    assert(state != kUnknown && "published_open before the edge's first lookup");
    return state == kOpen;
  }

  /// Adds a caller's tally to hits() and misses(). Call it once per tally.
  void fold(const CacheTally& tally) const {
    hits_.fetch_add(tally.hits, std::memory_order_relaxed);
    misses_.fetch_add(tally.misses, std::memory_order_relaxed);
  }

  /// Returns the cached answer, querying (and caching) `base` on first
  /// touch. Resolves `key` to its dense edge id by scanning the incident
  /// slots of one endpoint — O(degree), for callers that hold only a key —
  /// through ChannelIndex::edge_id, so no edge-id table is built for a
  /// closed-form family.
  [[nodiscard]] bool is_open(EdgeKey key) const override;

  /// lookup() for callers without a tally of their own: the call is
  /// counted in hits()/misses() at once.
  [[nodiscard]] bool is_open_indexed(std::uint32_t edge_id, EdgeKey key) const override {
    CacheTally tally;
    const bool open = lookup(edge_id, key, tally);
    fold(tally);
    return open;
  }

  [[nodiscard]] double survival_probability() const override {
    return base_.survival_probability();
  }

  /// Number of distinct edges whose state has been discovered — the batch's
  /// total environment-discovery cost. Deterministic across thread counts
  /// once every tally is folded.
  [[nodiscard]] std::uint64_t unique_edges() const {
    return misses_.load(std::memory_order_relaxed);
  }

  /// Exact probe counters over every folded tally: hits + misses ==
  /// lookups, and misses == unique_edges() (a miss is counted only on
  /// actual publication, never by the loser of a resolution race).
  [[nodiscard]] std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint8_t kUnknown = 0;
  static constexpr std::uint8_t kClosed = 1;
  static constexpr std::uint8_t kOpen = 2;

  /// The answer resolve() found, and whether this call published it (a
  /// miss) or lost the race to a call that did (a hit).
  struct Resolution {
    bool open;
    bool published;
  };
  /// lookup()'s miss path: asks `base` and publishes the answer with a CAS.
  /// It takes no tally, so a caller's tally can live in registers.
  [[nodiscard]] Resolution resolve(std::uint32_t edge_id, EdgeKey key) const;

  const EdgeSampler& base_;
  const Topology& graph_;
  const ChannelIndex& channels_;
  /// Tri-state per undirected edge id; unique_ptr because atomics are
  /// neither copyable nor movable (std::vector would demand both).
  std::unique_ptr<std::atomic<std::uint8_t>[]> states_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
};

}  // namespace faultroute
