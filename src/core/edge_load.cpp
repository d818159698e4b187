#include "core/edge_load.hpp"

#include <algorithm>

namespace faultroute {

namespace {

/// Shared accumulation core: one count per used edge, however the caller
/// names its edges.
void accumulate_count(EdgeLoadStats& stats, std::uint64_t count) {
  ++stats.edges_used;
  stats.total += count;
  stats.max_load = std::max(stats.max_load, count);
}

void finalize_mean(EdgeLoadStats& stats) {
  if (stats.edges_used > 0) {
    stats.mean_load =
        static_cast<double>(stats.total) / static_cast<double>(stats.edges_used);
  }
}

}  // namespace

EdgeLoadStats summarize_edge_load(const std::unordered_map<EdgeKey, std::uint64_t>& load) {
  EdgeLoadStats stats;
  for (const auto& [key, count] : load) accumulate_count(stats, count);
  finalize_mean(stats);
  return stats;
}

EdgeLoadStats summarize_edge_id_load(const std::vector<std::uint64_t>& edge_load,
                                     const std::vector<std::uint32_t>& used_edges) {
  EdgeLoadStats stats;
  for (const std::uint32_t id : used_edges) accumulate_count(stats, edge_load[id]);
  finalize_mean(stats);
  return stats;
}

}  // namespace faultroute
