#pragma once

#include <vector>

#include "core/path.hpp"
#include "traffic/traffic_engine.hpp"

namespace faultroute::detail {

/// One message's routed journey in topology-slot form: hop k leaves vertex
/// `path[k]` through incident slot `slots[k]` (so the channel of the hop is
/// recoverable both as a ChannelIndex id and as an (edge key, tail) pair).
/// Empty for messages that did not survive routing/validation.
struct RoutedJourney {
  Path path;               // simplified, validated vertex walk
  std::vector<int> slots;  // slots[k]: incident slot of path[k] -> path[k+1]
};

/// Phase 1's output: the journeys, and the CSR routing resolved (nullptr on
/// the implicit path), whose edge-id table journey compilation reads.
struct RoutedBatch {
  std::vector<RoutedJourney> journeys;
  const FlatAdjacency* flat = nullptr;
};

/// Phase 1 of run_traffic. Routes every message (thread-parallel, deterministic), verifies paths when
/// config.verify_paths is on, resolves every hop's incident slot, and fills
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
