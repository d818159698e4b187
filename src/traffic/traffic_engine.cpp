#include "traffic/traffic_engine.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "graph/channel_index.hpp"
#include "obs/run_metrics.hpp"
#include "traffic/routing_phase.hpp"

namespace faultroute {

namespace {

/// Sentinel for "no message" in the intrusive per-channel FIFOs.
constexpr std::uint32_t kNoMessage = std::numeric_limits<std::uint32_t>::max();

}  // namespace

// analyze:hot-root(event-engine step loop: per-step delivery scheduling)
TrafficResult run_traffic(const Topology& graph, const EdgeSampler& sampler,
                          const RouterFactory& make_router,
                          const std::vector<TrafficMessage>& messages,
                          const TrafficConfig& config) {
  if (config.edge_capacity == 0) {
    // analyze:allow-throw-safety(argument validation before any phase starts)
    throw std::invalid_argument("run_traffic: edge_capacity must be >= 1");
  }
  if (messages.size() > std::numeric_limits<std::uint32_t>::max()) {
    // analyze:allow-throw-safety(argument validation before any phase starts)
    throw std::invalid_argument(
        "run_traffic: message ids are 32-bit; at most 4294967295 messages per run");
  }
  TrafficResult result;
  result.messages = messages.size();
  result.outcomes.resize(messages.size());  // analyze:allow-hot-alloc(per-batch result array sized once)
  obs::PhaseProfiler* profiler =
      config.metrics != nullptr ? &config.metrics->profiler() : nullptr;
  obs::DeliverySampler* sampler_ts =
      config.metrics != nullptr ? config.metrics->delivery_sampler() : nullptr;

  // ---------------------------------------------------------- phase 1: route
  const detail::RoutedBatch routed =
      detail::route_and_validate(graph, sampler, make_router, messages, config, result);
  const std::vector<detail::RoutedJourney>& journeys = routed.journeys;

  // -------------------------------------------------------- phase 2: deliver
  // Event-driven store-and-forward over dense directed-channel ids: at each
  // timestep, messages due now are admitted to their next channel queue
  // in ascending-id order, then every non-empty channel transmits up to
  // `edge_capacity` messages, which arrive at the far endpoint next step.
  const ChannelIndex& index = graph.channel_index();
  result.channels = index.num_channels();

  // Journeys compiled flat: per hop, the channel it queues on and the
  // undirected edge it loads, all hops concatenated; per message a
  // [cursor, end) window into the flat array.
  struct Hop {
    std::uint32_t channel;
    std::uint32_t edge;
  };
  std::optional<obs::PhaseProfiler::Scope> compile_scope;
  compile_scope.emplace(profiler, "compile");
  std::uint64_t total_hops = 0;
  for (const auto& journey : journeys) total_hops += journey.slots.size();
  std::vector<Hop> hops;
  hops.reserve(total_hops);  // analyze:allow-hot-alloc(per-batch journey compilation, reserved to total hops)
  std::vector<std::uint64_t> hop_cursor(messages.size(), 0);  // analyze:allow-hot-alloc(per-batch journey compilation)
  std::vector<std::uint64_t> hop_end(messages.size(), 0);  // analyze:allow-hot-alloc(per-batch journey compilation)
  // channel_of is pure offset arithmetic over the same prefix-sum table the
  // flat snapshot borrows. The edge id is one load from the CSR's table when
  // routing resolved a CSR; on the implicit path ChannelIndex::edge_id
  // computes it for closed-form families, so no table is built for them.
  const FlatAdjacency* flat = routed.flat;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    hop_cursor[i] = hops.size();
    const auto& journey = journeys[i];
    for (std::size_t step = 0; step < journey.slots.size(); ++step) {
      const VertexId v = journey.path[step];
      const int slot = journey.slots[step];
      const std::uint32_t channel = index.channel_of(v, slot);
      const std::uint32_t edge =
          flat != nullptr ? flat->edge_id_at(channel) : index.edge_id(v, slot);
      hops.push_back({channel, edge});  // analyze:allow-hot-alloc(fills the reservation above)
    }
    hop_end[i] = hops.size();
  }
  compile_scope.reset();
  std::optional<obs::PhaseProfiler::Scope> delivery_scope;
  delivery_scope.emplace(profiler, "delivery");

  // Injections, sorted by (time, id) — the order the timeline consumes them.
  // Workloads arrive presorted (generate_workload's contract), making this a
  // no-op scan; sorting anyway keeps hand-built message lists exact too.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> injections;
  injections.reserve(messages.size());  // analyze:allow-hot-alloc(per-batch injection timeline)
  for (std::size_t i = 0; i < messages.size(); ++i) {
    if (!result.outcomes[i].routed) continue;
    // analyze:allow-hot-alloc(fills the reservation above)
    injections.emplace_back(messages[i].inject_time, static_cast<std::uint32_t>(i));
  }
  std::sort(injections.begin(), injections.end());
  std::uint64_t in_flight = injections.size();

  // Per-channel FIFO queues as intrusive singly-linked lists threaded through
  // one per-message `next` slot: a message sits in at most one queue, so no
  // allocation ever happens inside the simulation loop, and queue state is
  // bounded by (channels + messages) by construction.
  std::vector<std::uint32_t> queue_head(index.num_channels(), kNoMessage);  // analyze:allow-hot-alloc(per-batch queue state sized once)
  std::vector<std::uint32_t> queue_tail(index.num_channels(), kNoMessage);  // analyze:allow-hot-alloc(per-batch queue state sized once)
  std::vector<std::uint32_t> next_in_queue(messages.size(), kNoMessage);  // analyze:allow-hot-alloc(per-batch queue state sized once)
  std::vector<std::uint32_t> active;  // channels with a non-empty queue

  // Per-undirected-edge transmission counts, accumulated densely (both
  // directions of an edge share its id, so no pairing is left for
  // aggregation); `used_edges` remembers first touches so aggregation never
  // scans the whole edge space.
  std::vector<std::uint64_t> edge_load(index.num_edge_ids(), 0);  // analyze:allow-hot-alloc(per-batch load accumulators sized once)
  std::vector<std::uint32_t> used_edges;

  // Two-bucket calendar: a hop costs exactly one step, so every transmission
  // lands in the very next bucket, and the only other event source —
  // injections — is consumed from the sorted array by cursor. `arrivals`
  // holds the ids due at the current time t, `next_arrivals` those due t+1.
  std::vector<std::uint32_t> arrivals;
  std::vector<std::uint32_t> next_arrivals;
  std::size_t injected = 0;

  std::uint64_t t = 0;
  std::uint64_t steps = 0;
  while (in_flight > 0 &&
         (injected < injections.size() || !arrivals.empty() || !active.empty())) {
    if (active.empty() && arrivals.empty()) t = injections[injected].first;  // skip idle gap
    if (config.max_steps != 0 && steps >= config.max_steps) break;
    ++steps;

    // Admissions due now: mid-journey arrivals merged with fresh injections,
    // processed in ascending id order (the deterministic FIFO tie-break).
    std::uint64_t injected_now = 0;
    while (injected < injections.size() && injections[injected].first == t) {
      arrivals.push_back(injections[injected].second);  // analyze:allow-hot-alloc(amortized calendar bucket; capacity is retained across steps)
      ++injected;
      ++injected_now;
    }
    std::sort(arrivals.begin(), arrivals.end());
    result.admission_events += arrivals.size();
    for (const std::uint32_t id : arrivals) {
      if (hop_cursor[id] == hop_end[id]) {
        MessageOutcome& out = result.outcomes[id];
        out.delivered = true;
        out.finish_time = t;
        out.queueing_delay = t - out.message.inject_time - out.path_edges;
        --in_flight;
        continue;
      }
      const std::uint32_t channel = hops[hop_cursor[id]].channel;
      next_in_queue[id] = kNoMessage;
      if (queue_head[channel] == kNoMessage) {
        queue_head[channel] = queue_tail[channel] = id;
        active.push_back(channel);  // analyze:allow-hot-alloc(active list bounded by channels; capacity retained across steps)
      } else {
        next_in_queue[queue_tail[channel]] = id;
        queue_tail[channel] = id;
      }
    }
    arrivals.clear();
    result.peak_active_channels = std::max<std::uint64_t>(result.peak_active_channels,
                                                          active.size());

    // Transmit up to `edge_capacity` per active channel; drained channels
    // leave the active list by swap-removal (order across channels is
    // irrelevant: arrivals are re-sorted by id next step).
    for (std::size_t k = 0; k < active.size();) {
      const std::uint32_t channel = active[k];
      for (std::uint64_t slot = 0;
           slot < config.edge_capacity && queue_head[channel] != kNoMessage; ++slot) {
        const std::uint32_t id = queue_head[channel];
        queue_head[channel] = next_in_queue[id];
        const std::uint32_t edge = hops[hop_cursor[id]++].edge;
        // analyze:allow-hot-alloc(first-touch record, one append per distinct edge)
        if (edge_load[edge] == 0) used_edges.push_back(edge);
        ++edge_load[edge];
        next_arrivals.push_back(id);  // analyze:allow-hot-alloc(amortized calendar bucket; capacity is retained across steps)
      }
      if (queue_head[channel] == kNoMessage) {
        queue_tail[channel] = kNoMessage;
        active[k] = active.back();
        active.pop_back();
      } else {
        ++k;
      }
    }
    if (sampler_ts != nullptr) {
      // End-of-step snapshot. Queue depth needs no scan: in_flight splits
      // exactly into not-yet-injected + arriving-next-step + sitting-in-FIFOs.
      obs::DeliverySampler::Sample sample;
      sample.time = t;
      sample.step = steps - 1;
      sample.active_channels = active.size();
      sample.in_transit = next_arrivals.size();
      sample.queued =
          in_flight - (injections.size() - injected) - next_arrivals.size();
      sample.injections = injected_now;
      sampler_ts->record(sample);
    }
    ++t;
    arrivals.swap(next_arrivals);
  }
  result.stranded = in_flight;
  result.sim_steps = steps;

  // ------------------------------------------------------------- aggregation
  delivery_scope.reset();
  const obs::PhaseProfiler::Scope aggregate_scope(profiler, "aggregate");
  // Congestion over undirected edges, O(edges used): `used_edges` lists
  // every loaded id exactly once.
  for (const std::uint32_t edge : used_edges) {
    result.transmissions += edge_load[edge];
    result.max_edge_load = std::max(result.max_edge_load, edge_load[edge]);
  }
  result.edges_used = used_edges.size();
  if (result.edges_used > 0) {
    result.mean_edge_load = static_cast<double>(result.transmissions) /
                            static_cast<double>(result.edges_used);
  }

  double delay_sum = 0.0;
  double hops_sum = 0.0;
  for (const MessageOutcome& out : result.outcomes) {
    if (!out.delivered) continue;
    ++result.delivered;
    result.makespan = std::max(result.makespan, out.finish_time);
    delay_sum += static_cast<double>(out.queueing_delay);
    result.max_queueing_delay = std::max(result.max_queueing_delay, out.queueing_delay);
    hops_sum += static_cast<double>(out.path_edges);
  }
  if (result.delivered > 0) {
    result.mean_queueing_delay = delay_sum / static_cast<double>(result.delivered);
    result.mean_path_edges = hops_sum / static_cast<double>(result.delivered);
  }
  if (config.metrics != nullptr) detail::record_traffic_counters(*config.metrics, result);
  return result;
}

// analyze:det-root(CLI result table: every value must be run-stable)
Table traffic_table(const TrafficResult& result) {
  Table table({"metric", "value"});
  table.add_row({"messages", Table::fmt(result.messages)});
  table.add_row({"routed", Table::fmt(result.routed)});
  table.add_row({"failed routing", Table::fmt(result.failed_routing)});
  table.add_row({"censored (budget)", Table::fmt(result.censored)});
  table.add_row({"invalid paths", Table::fmt(result.invalid_paths)});
  table.add_row({"delivered", Table::fmt(result.delivered)});
  table.add_row({"stranded", Table::fmt(result.stranded)});
  table.add_row({"total distinct probes", Table::fmt(result.total_distinct_probes)});
  table.add_row({"unique edges probed", Table::fmt(result.unique_edges_probed)});
  table.add_row({"probe cache hits", Table::fmt(result.cache_hits)});
  table.add_row({"probe cache misses", Table::fmt(result.cache_misses)});
  table.add_row({"probe amortization", Table::fmt(result.probe_amortization(), 2)});
  table.add_row({"max edge load", Table::fmt(result.max_edge_load)});
  table.add_row({"mean edge load", Table::fmt(result.mean_edge_load, 2)});
  table.add_row({"edges used", Table::fmt(result.edges_used)});
  table.add_row({"mean path edges", Table::fmt(result.mean_path_edges, 2)});
  table.add_row({"mean queueing delay", Table::fmt(result.mean_queueing_delay, 2)});
  table.add_row({"max queueing delay", Table::fmt(result.max_queueing_delay)});
  table.add_row({"makespan", Table::fmt(result.makespan)});
  table.add_row({"throughput (msgs/step)", Table::fmt(result.throughput(), 3)});
  table.add_row({"sim steps", Table::fmt(result.sim_steps)});
  table.add_row({"admission events", Table::fmt(result.admission_events)});
  table.add_row({"transmissions", Table::fmt(result.transmissions)});
  table.add_row({"peak active channels", Table::fmt(result.peak_active_channels)});
  table.add_row({"directed channels", Table::fmt(result.channels)});
  return table;
}

}  // namespace faultroute
