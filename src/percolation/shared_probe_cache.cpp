#include "percolation/shared_probe_cache.hpp"

#include <stdexcept>
#include <string>

#include "graph/channel_index.hpp"

namespace faultroute {

SharedProbeCache::SharedProbeCache(const EdgeSampler& base, const Topology& graph)
    : base_(base),
      graph_(graph),
      channels_(graph.channel_index()),
      states_(new std::atomic<std::uint8_t>[channels_.num_edge_ids()]) {
  // Value-initialise to kUnknown; new[] of atomics leaves them
  // default-initialised (indeterminate) otherwise.
  for (std::uint32_t e = 0; e < channels_.num_edge_ids(); ++e) {
    states_[e].store(kUnknown, std::memory_order_relaxed);
  }
}

SharedProbeCache::Resolution SharedProbeCache::resolve(std::uint32_t edge_id, EdgeKey key) const {
  // Resolve outside any critical section: the sampler is pure, so a racing
  // double-compute yields the same value and the CAS loser's work is merely
  // wasted, never wrong. Relaxed ordering suffices — the published byte is
  // the entire message, a pure function of (sampler, key).
  const bool open = base_.is_open(key);
  std::uint8_t expected = kUnknown;
  if (states_[edge_id].compare_exchange_strong(expected, open ? kOpen : kClosed,
                                               std::memory_order_relaxed,
                                               std::memory_order_relaxed)) {
    return {open, true};
  }
  // Lost the publication race: the edge was already discovered, so this
  // lookup is a hit. Counting it as a miss would break misses ==
  // unique_edges().
  return {expected == kOpen, false};
}

bool SharedProbeCache::is_open(EdgeKey key) const {
  // Key-only callers (path verification helpers, tests) pay an O(degree)
  // scan of one endpoint's incident slots to recover the dense id.
  const EdgeEndpoints ends = graph_.endpoints(key);
  const int deg = graph_.degree(ends.a);
  for (int i = 0; i < deg; ++i) {
    if (graph_.edge_key(ends.a, i) == key) {
      return is_open_indexed(channels_.edge_id(ends.a, i), key);
    }
  }
  // analyze:allow-throw-safety(edge-key precondition guard; surfaced via first_error)
  throw std::invalid_argument("SharedProbeCache::is_open: key " + std::to_string(key) +
                              " is not an edge key of " + graph_.name());
}

}  // namespace faultroute
