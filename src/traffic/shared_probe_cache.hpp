#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "graph/topology.hpp"
#include "percolation/edge_sampler.hpp"

namespace faultroute {

class ChannelIndex;

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
/// unknown / closed / open. A probe is a single relaxed-free array load —
/// no mutex, no hashing, no node allocation. Unknown slots are resolved by querying the base sampler
/// *outside* any critical section and publishing the answer with a CAS.
///
/// Correctness under threads: the underlying sampler is a deterministic
/// pure function of the edge key, so two threads racing to resolve the same
/// edge compute the same value — whichever CAS wins publishes it, the loser
/// discards a byte-identical duplicate, and every quantity derived from
/// probe *answers* is bit-identical across thread counts. So is
/// `unique_edges()`: the set of published edges depends only on which edges
/// the batch probes, never on the interleaving. The hit/miss counters are
/// exact in total (every probe is exactly one hit or one miss, and a miss
/// is counted only by the CAS winner, so hits + misses == probe calls and
/// misses == unique_edges()); only the attribution of any single racing
/// probe to hit-vs-miss is decided by the race.
class SharedProbeCache final : public EdgeSampler {
 public:
  /// `base` must outlive the cache and be thread-safe under const access
  /// (all library samplers are; they are pure functions of the edge key).
  /// `graph` is the topology whose edges will be probed — its ChannelIndex
  /// supplies the dense edge-id space backing the state array.
  SharedProbeCache(const EdgeSampler& base, const Topology& graph);

  /// Returns the cached answer, querying (and caching) `base` on first
  /// touch. Resolves `key` to its dense edge id by scanning the incident
  /// slots of one endpoint — O(degree), for callers that hold only a key;
  /// the routing hot path holds ids and goes through is_open_indexed.
  [[nodiscard]] bool is_open(EdgeKey key) const override;

  /// The O(1) entry point: one atomic array load on a hit. `edge_id` must
  /// be `key`'s id under the constructor topology's ChannelIndex (the dense
  /// ProbeContext backend passes exactly that).
  [[nodiscard]] bool is_open_indexed(std::uint32_t edge_id, EdgeKey key) const override;

  [[nodiscard]] double survival_probability() const override {
    return base_.survival_probability();
  }

  /// Number of distinct edges whose state has been discovered — the batch's
  /// total environment-discovery cost. Deterministic across thread counts.
  [[nodiscard]] std::uint64_t unique_edges() const {
    return misses_.load(std::memory_order_relaxed);
  }

  /// Exact probe counters: hits + misses == is_open* calls, and misses ==
  /// unique_edges() (a miss is counted only on actual publication, never by
  /// the loser of a resolution race).
  [[nodiscard]] std::uint64_t approx_hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t approx_misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint8_t kUnknown = 0;
  static constexpr std::uint8_t kClosed = 1;
  static constexpr std::uint8_t kOpen = 2;

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
