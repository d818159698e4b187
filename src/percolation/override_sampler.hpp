#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/topology.hpp"
#include "percolation/edge_sampler.hpp"
#include "percolation/indexed_memo.hpp"

namespace faultroute {

/// A sampler that forces chosen edges open or closed on top of a base
/// environment. This is the bridge to the *worst-case* fault model of the
/// literature the paper contrasts itself with (Leighton–Maggs–Sitaraman,
/// Cole–Maggs–Sitaraman): an adversary deletes specific edges, possibly in
/// addition to random failures.
///
/// The base sampler must outlive this one.
class OverrideSampler final : public EdgeSampler {
 public:
  explicit OverrideSampler(const EdgeSampler& base) : base_(base) {}

  /// Forces one edge to the given state (overrides any earlier setting).
  void force(EdgeKey key, bool open) {
    overrides_[key] = open;
    memo_.invalidate();  // O(1) generation bump, not a sweep
  }

  /// Forces a batch of edges closed — the adversary's deletion set.
  void close_all(const std::vector<EdgeKey>& keys) {
    for (const EdgeKey key : keys) overrides_[key] = false;
    memo_.invalidate();
  }

  /// Sizes a dense per-edge-id *override* memo over `graph`'s ChannelIndex
  /// edge-id space, so is_open_indexed stops hashing the override map on
  /// the flat hot paths (which already hold the id). Only this
  /// sampler's own override state is memoized — un-forced edges always
  /// delegate to the base's live is_open_indexed — so the memo can never
  /// serve stale base answers, and force()/close_all() invalidate the rest
  /// in O(1). Identical answers to is_open; ids outside the indexed space
  /// fall back to the key path.
  void index_edges(const Topology& graph);

  [[nodiscard]] std::size_t num_overrides() const { return overrides_.size(); }

  [[nodiscard]] bool is_open(EdgeKey key) const override {
    const auto it = overrides_.find(key);
    return it != overrides_.end() ? it->second : base_.is_open(key);
  }

  [[nodiscard]] bool is_open_indexed(std::uint32_t edge_id, EdgeKey key) const override;

  [[nodiscard]] double survival_probability() const override {
    return base_.survival_probability();  // marginal of the un-forced edges
  }

 private:
  const EdgeSampler& base_;
  // lint:allow-hash(a handful of forced edges on any topology; memo_ serves the indexed path)
  std::unordered_map<EdgeKey, bool> overrides_;
  /// Per-edge-id override memo (no-override / forced-closed / forced-open),
  /// lazily resolved from `overrides_` with relaxed publication — override
  /// state is pure between mutations, so races write identical words.
  detail::IndexedStateMemo memo_;
};

/// All edges with at least one endpoint within graph distance `radius` of
/// `center` — a regional outage. Uses the fault-free metric.
[[nodiscard]] std::vector<EdgeKey> edges_within_ball(const Topology& graph,
                                                     VertexId center, int radius);

/// The edges incident to `v` — the minimal cut isolating one vertex.
[[nodiscard]] std::vector<EdgeKey> incident_cut(const Topology& graph, VertexId v);

}  // namespace faultroute
