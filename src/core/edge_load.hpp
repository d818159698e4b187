#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/topology.hpp"

namespace faultroute {

/// Congestion summary of per-edge traversal counts, shared by the
/// permutation batch router and the traffic engine.
struct EdgeLoadStats {
  std::uint64_t max_load = 0;    // traversals of the busiest edge
  std::uint64_t edges_used = 0;  // edges carrying >= 1 traversal
  std::uint64_t total = 0;       // sum of all traversals
  double mean_load = 0.0;        // total / edges_used (0 when unused)
};

/// Thin adapter over the dense accumulation below for callers that still
/// key loads by sparse EdgeKey (one-off analyses, hand-built fixtures); the
/// hot paths accumulate per dense edge id and use summarize_edge_id_load.
[[nodiscard]] EdgeLoadStats summarize_edge_load(
    const std::unordered_map<EdgeKey, std::uint64_t>& load);

/// Congestion summary of a dense per-undirected-edge-id traversal vector
/// (ids from ChannelIndex::edge_id_of / FlatAdjacency::edge_id — both
/// directions of an edge pooled under one id by construction, so no reverse
/// pairing is needed). `used_edges` lists the ids with load > 0 (any order,
/// no duplicates), making the summary O(used), not O(num_edge_ids). Equal
/// field-for-field to summarize_edge_load of the equivalent keyed map.
[[nodiscard]] EdgeLoadStats summarize_edge_id_load(
    const std::vector<std::uint64_t>& edge_load,
    const std::vector<std::uint32_t>& used_edges);

}  // namespace faultroute
