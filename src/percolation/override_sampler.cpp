#include "percolation/override_sampler.hpp"

#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "graph/channel_index.hpp"

namespace faultroute {

namespace {

// Memo states: what the override map says about an edge, NOT the final
// answer — un-forced edges must keep consulting the base sampler live, or
// a mutable base (e.g. an ExplicitEdgeSampler fixture) could change under
// a stale memo and make is_open_indexed contradict is_open. (0 is
// IndexedStateMemo's reserved "unknown".)
constexpr std::uint8_t kNoOverride = 1;
constexpr std::uint8_t kForcedClosed = 2;
constexpr std::uint8_t kForcedOpen = 3;

}  // namespace

void OverrideSampler::index_edges(const Topology& graph) {
  memo_.attach(graph.channel_index().num_edge_ids());
}

bool OverrideSampler::is_open_indexed(std::uint32_t edge_id, EdgeKey key) const {
  switch (memo_.load(edge_id)) {
    case kForcedOpen:
      return true;
    case kForcedClosed:
      return false;
    case kNoOverride:
      return base_.is_open_indexed(edge_id, key);
    default: {  // unknown: resolve the override map once, then memoize
      const auto it = overrides_.find(key);
      if (it == overrides_.end()) {
        memo_.store(edge_id, kNoOverride);
        return base_.is_open_indexed(edge_id, key);
      }
      memo_.store(edge_id, it->second ? kForcedOpen : kForcedClosed);
      return it->second;
    }
  }
}

std::vector<EdgeKey> edges_within_ball(const Topology& graph, VertexId center,
                                       int radius) {
  std::vector<EdgeKey> keys;
  // lint:allow-hash(one-shot setup BFS over a small ball of an implicit graph)
  std::unordered_set<EdgeKey> seen;
  // lint:allow-hash(same one-shot setup BFS)
  std::unordered_map<VertexId, int> dist;
  std::queue<VertexId> queue;
  dist.emplace(center, 0);
  queue.push(center);
  while (!queue.empty()) {
    const VertexId x = queue.front();
    queue.pop();
    const int dx = dist.at(x);
    const int deg = graph.degree(x);
    for (int i = 0; i < deg; ++i) {
      const EdgeKey key = graph.edge_key(x, i);
      if (seen.insert(key).second) keys.push_back(key);
      const VertexId y = graph.neighbor(x, i);
      if (dx + 1 <= radius && !dist.contains(y)) {
        dist.emplace(y, dx + 1);
        queue.push(y);
      }
    }
  }
  return keys;
}

std::vector<EdgeKey> incident_cut(const Topology& graph, VertexId v) {
  return incident_edge_keys(graph, v);
}

}  // namespace faultroute
