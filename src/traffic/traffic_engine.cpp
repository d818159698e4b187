#include "traffic/traffic_engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
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

/// Renumbers the batch's hops (RoutedBatch::hops) onto batch-local channel
/// ids in place and returns k, the number of distinct undirected edges they
/// load. Those edges become 0..k-1 in order of first appearance, and each
/// hop keeps its direction bit, so hop a -> b on local edge e' queues on
/// local channel 2e' + [a > b]. One pass over the hops through an
/// open-addressing table of 32-bit slots, each the local id of an edge seen
/// before: the local -> edge array supplies the key compare. The table
/// holds between 2 and 4 slots per hop (load at most 1/2), so the state is
/// O(hops), never O(edges of the topology). Local ids fit 31 bits because
/// edge ids do.
std::uint32_t number_local_channels(std::vector<std::uint32_t>& hops) {
  if (hops.empty()) return 0;
  constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();
  const int table_bits = std::bit_width(2 * hops.size() - 1);
  const std::size_t mask = (std::size_t{1} << table_bits) - 1;
  std::vector<std::uint32_t> table(mask + 1, kEmpty);  // analyze:allow-hot-alloc(per-batch numbering table, 2-4 slots per hop)
  std::vector<std::uint32_t> edge_of_local;
  edge_of_local.reserve(hops.size());  // analyze:allow-hot-alloc(per-batch local -> edge array; only the k entries filled are touched)
  for (std::uint32_t& hop : hops) {
    const std::uint32_t edge = hop >> 1;
    // Fibonacci hashing: the top table_bits bits of the 64-bit product.
    std::size_t slot = static_cast<std::size_t>(
        (std::uint64_t{edge} * 0x9E3779B97F4A7C15ull) >> (64 - table_bits));
    std::uint32_t local = table[slot];
    while (local != kEmpty && edge_of_local[local] != edge) {
      slot = (slot + 1) & mask;
      local = table[slot];
    }
    if (local == kEmpty) {
      local = static_cast<std::uint32_t>(edge_of_local.size());
      table[slot] = local;
      edge_of_local.push_back(edge);  // analyze:allow-hot-alloc(fills the reservation above)
    }
    hop = local << 1 | (hop & 1);
  }
  return static_cast<std::uint32_t>(edge_of_local.size());
}

}  // namespace

void detail::sort_message_ids(std::vector<std::uint32_t>& ids,
                              std::vector<std::uint32_t>& scratch, int id_bits) {
  const std::size_t n = ids.size();
  constexpr int kDigitBits = 8;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  const int passes = (id_bits + kDigitBits - 1) / kDigitBits;
  // Every digit's histogram in one read; the buckets' starts then follow by
  // prefix sums. Counts fit 32 bits: a step admits each message at most once.
  std::array<std::array<std::uint32_t, kBuckets>, 4> start{};
  for (const std::uint32_t id : ids) {
    for (int d = 0; d < passes; ++d) ++start[d][id >> (d * kDigitBits) & (kBuckets - 1)];
  }
  scratch.resize(n);  // analyze:allow-hot-alloc(radix scratch; capacity is retained across steps)
  // Least significant digit first; each scatter is stable, so after the last
  // pass the ids are in ascending order.
  for (int d = 0; d < passes; ++d) {
    std::uint32_t sum = 0;
    for (std::uint32_t& bucket : start[d]) sum += std::exchange(bucket, sum);
    for (const std::uint32_t id : ids) {
      scratch[start[d][id >> (d * kDigitBits) & (kBuckets - 1)]++] = id;
    }
    ids.swap(scratch);
  }
}

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

  // ---------------------------------------------------------- phase 1: route
  detail::RoutedBatch routed =
      detail::route_and_validate(graph, sampler, make_router, messages, config, result);
  std::vector<std::uint32_t>& hops = routed.hops;
  std::vector<detail::HopRange>& ranges = routed.ranges;
  result.channels = graph.channel_index().num_channels();

  // -------------------------------------------------------- phase 2: deliver
  // Event-driven store-and-forward over batch-local directed-channel ids: at
  // each timestep, messages due now are admitted to their next channel queue
  // in ascending-id order, then every non-empty channel transmits up to
  // `edge_capacity` messages, which arrive at the far endpoint next step.
  // Compilation numbers the channels the batch's paths use, so every array
  // below is sized by the batch, never by the topology.
  std::optional<obs::PhaseProfiler::Scope> compile_scope;
  compile_scope.emplace(profiler, "compile");
  const std::uint32_t local_edges = number_local_channels(hops);
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
  // bounded by (hops + messages) by construction. A channel's head and tail
  // share one 8-byte entry, so a push or pop touches one cache line.
  struct Queue {
    std::uint32_t head = kNoMessage;
    std::uint32_t tail = kNoMessage;
  };
  std::vector<Queue> queues(2 * std::size_t{local_edges});  // analyze:allow-hot-alloc(per-batch queue state sized once)
  std::vector<std::uint32_t> next_in_queue(messages.size(), kNoMessage);  // analyze:allow-hot-alloc(per-batch queue state sized once)
  std::vector<std::uint32_t> active;  // channels with a non-empty queue

  // Per-undirected-edge transmission counts by local edge id (channel >> 1:
  // both directions of an edge share it, so no pairing is left for
  // aggregation). 32 bits suffice: a batch has fewer than 2^32 hops.
  std::vector<std::uint32_t> edge_load(local_edges, 0);  // analyze:allow-hot-alloc(per-batch load accumulators sized once)

  // Two-bucket calendar: a hop costs exactly one step, so every transmission
  // lands in the very next bucket, and the only other event source —
  // injections — is consumed from the sorted array by cursor. `arrivals`
  // holds the ids due at the current time t, `next_arrivals` those due t+1.
  std::vector<std::uint32_t> arrivals;
  std::vector<std::uint32_t> next_arrivals;
  std::vector<std::uint32_t> sort_scratch;  // sort_message_ids's buffer, reused every step
  const int id_bits = messages.size() > 1 ? std::bit_width(messages.size() - 1) : 0;
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
    while (injected < injections.size() && injections[injected].first == t) {
      arrivals.push_back(injections[injected].second);  // analyze:allow-hot-alloc(amortized calendar bucket; capacity is retained across steps)
      ++injected;
    }
    detail::sort_message_ids(arrivals, sort_scratch, id_bits);
    result.admission_events += arrivals.size();
    for (const std::uint32_t id : arrivals) {
      if (ranges[id].begin == ranges[id].end) {
        MessageOutcome& out = result.outcomes[id];
        out.delivered = true;
        out.finish_time = t;
        out.queueing_delay = t - out.message.inject_time - out.path_edges;
        --in_flight;
        continue;
      }
      const std::uint32_t channel = hops[ranges[id].begin];
      next_in_queue[id] = kNoMessage;
      Queue& queue = queues[channel];
      if (queue.head == kNoMessage) {
        queue.head = queue.tail = id;
        active.push_back(channel);  // analyze:allow-hot-alloc(active list bounded by channels; capacity retained across steps)
      } else {
        next_in_queue[queue.tail] = id;
        queue.tail = id;
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
      Queue& queue = queues[channel];
      for (std::uint64_t slot = 0; slot < config.edge_capacity && queue.head != kNoMessage;
           ++slot) {
        const std::uint32_t id = queue.head;
        queue.head = next_in_queue[id];
        ++ranges[id].begin;
        ++edge_load[channel >> 1];
        next_arrivals.push_back(id);  // analyze:allow-hot-alloc(amortized calendar bucket; capacity is retained across steps)
      }
      if (queue.head == kNoMessage) {
        queue.tail = kNoMessage;
        active[k] = active.back();
        active.pop_back();
      } else {
        ++k;
      }
    }
    ++t;
    arrivals.swap(next_arrivals);
  }
  result.stranded = in_flight;
  result.sim_steps = steps;

  // ------------------------------------------------------------- aggregation
  delivery_scope.reset();
  const obs::PhaseProfiler::Scope aggregate_scope(profiler, "aggregate");
  // Congestion over undirected edges, O(edges the batch's paths use). A step
  // cap can leave some of them untraversed, at load 0.
  for (const std::uint64_t load : edge_load) {
    if (load == 0) continue;
    ++result.edges_used;
    result.transmissions += load;
    result.max_edge_load = std::max(result.max_edge_load, load);
  }
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

}  // namespace faultroute
