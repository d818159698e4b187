#pragma once

#include <cstdint>
#include <vector>

#include "traffic/traffic_engine.hpp"

namespace faultroute::detail {

/// A message's hops in RoutedBatch::hops: [begin, end), empty for a message
/// that did not survive routing/validation or whose source is its target.
struct HopRange {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};

/// Phase 1's output: every hop of the batch's validated paths in one flat
/// array, in message-id order, and each message's range in it.
///
/// Hop a -> b is stored as `(edge id << 1) | [a > b]`: the undirected edge it
/// loads and which of the edge's two directed channels it queues on. That
/// pair names the channel exactly, because the two channels of one edge have
/// distinct tails (ChannelIndex refuses self-loops) and parallel edges have
/// distinct ids; and it fits 32 bits, because ChannelIndex caps channels
/// below 2^32, so edge ids stay below 2^31.
struct RoutedBatch {
  std::vector<std::uint32_t> hops;
  std::vector<HopRange> ranges;  // indexed by message id
};

/// Throws std::length_error naming the count when a batch's hop total reaches
/// 2^32: hop indices are 32-bit in HopRange and in delivery's channel
/// numbering, and truncating one would silently alias two hops.
void check_hop_total(std::uint64_t hops);

/// Phase 1 of run_traffic. Routes every message (thread-parallel,
/// deterministic), verifies paths when config.verify_paths is on, resolves
/// every hop's incident slot and edge id into the flat hop array (refusing a
/// batch check_hop_total refuses before the array is reserved), and fills
/// the routing side of `result`: outcomes (message/routed/censored/
/// distinct_probes/path_edges), routed/failed_routing/censored/invalid_paths,
/// total_distinct_probes, and unique_edges_probed. `result.outcomes` must
/// already be sized to messages.size().
[[nodiscard]] RoutedBatch route_and_validate(
    const Topology& graph, const EdgeSampler& sampler, const RouterFactory& make_router,
    const std::vector<TrafficMessage>& messages, const TrafficConfig& config,
    TrafficResult& result);

/// Harvests a finished run's aggregate fields into `metrics`'s counter
/// registry under the traffic.* namespace (routing partition, probe/cache
/// economics, delivery event counts and gauges).
void record_traffic_counters(obs::RunMetrics& metrics, const TrafficResult& result);

}  // namespace faultroute::detail
