#pragma once

// A naive reference implementation of run_traffic, for differential tests.
//
// It is written to be obviously correct, not fast, and shares none of the
// engine's routing phase (detail::route_and_validate) or its event-driven
// delivery loop:
//  * routing is sequential: one router, one fresh ProbeContext per message
//    on the hash backend (no ProbeArena, no CSR snapshot, no distance
//    oracle);
//  * the batch-wide probe cache is a std::map that counts every lookup as a
//    hit or a miss;
//  * paths are validated through the virtual Topology interface;
//  * delivery runs over ordered containers: a std::map timeline, a std::set
//    of busy channels, and a std::deque queue per channel.
//
// The contract is run_traffic's (traffic/traffic_engine.hpp), and every
// field of the result must match it, except `channels`, which the reference
// has no channel index for and leaves at 0. `config.threads`,
// `config.flat_budget_vertices`, `config.flat_snapshot` and
// `config.metrics` are ignored: none of them may change a result.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/path.hpp"
#include "core/probe_context.hpp"
#include "traffic/traffic_engine.hpp"

namespace faultroute::reference {

/// Memoises a sampler in an ordered map. Every is_open call is counted as
/// exactly one hit (edge seen before) or one miss (first lookup).
class MapProbeCache final : public EdgeSampler {
 public:
  explicit MapProbeCache(const EdgeSampler& base) : base_(base) {}

  [[nodiscard]] bool is_open(EdgeKey key) const override {
    const auto it = memo_.find(key);
    if (it != memo_.end()) {
      ++hits_;
      return it->second;
    }
    ++misses_;
    const bool open = base_.is_open(key);
    memo_.emplace(key, open);
    return open;
  }

  [[nodiscard]] double survival_probability() const override {
    return base_.survival_probability();
  }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t unique_edges() const { return memo_.size(); }

 private:
  const EdgeSampler& base_;
  mutable std::map<EdgeKey, bool> memo_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
};

/// A directed transmission channel: the undirected edge `first` traversed
/// out of vertex `second`. The two directions of an edge queue separately.
using Channel = std::pair<EdgeKey, VertexId>;

inline TrafficResult run_traffic(const Topology& graph, const EdgeSampler& sampler,
                                 const RouterFactory& make_router,
                                 const std::vector<TrafficMessage>& messages,
                                 const TrafficConfig& config) {
  if (config.edge_capacity == 0) {
    throw std::invalid_argument("run_traffic: edge_capacity must be >= 1");
  }
  TrafficResult result;
  result.messages = messages.size();
  result.outcomes.resize(messages.size());

  // ---------------------------------------------------------------- routing
  const MapProbeCache cache(sampler);
  const auto router = make_router();
  std::vector<std::vector<Channel>> journeys(messages.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const TrafficMessage& msg = messages[i];
    MessageOutcome& out = result.outcomes[i];
    out.message = msg;

    Path path{msg.source};
    if (msg.source != msg.target) {
      ProbeContext ctx(graph, cache, msg.source, router->required_mode(), config.probe_budget);
      std::optional<Path> routed;
      try {
        routed = router->route(ctx, msg.source, msg.target);
      } catch (const ProbeBudgetExceeded&) {
        out.censored = true;
      }
      out.distinct_probes = ctx.distinct_probes();
      if (out.censored) {
        ++result.censored;
        continue;
      }
      if (!routed) {
        ++result.failed_routing;
        continue;
      }
      path = simplify_walk(*routed);
    }

    if (config.verify_paths &&
        !is_valid_open_path(graph, sampler, path, msg.source, msg.target)) {
      ++result.invalid_paths;
      continue;
    }
    std::vector<Channel> hops;
    bool adjacent = true;
    for (std::size_t step = 0; step + 1 < path.size(); ++step) {
      const int slot = edge_index_of(graph, path[step], path[step + 1]);
      if (slot < 0) {
        adjacent = false;
        break;
      }
      hops.emplace_back(graph.edge_key(path[step], slot), path[step]);
    }
    if (!adjacent) {
      ++result.invalid_paths;
      continue;
    }
    out.routed = true;
    out.path_edges = path_length(path);
    journeys[i] = std::move(hops);
    ++result.routed;
  }
  for (const MessageOutcome& out : result.outcomes) {
    result.total_distinct_probes += out.distinct_probes;
  }
  result.unique_edges_probed = cache.unique_edges();
  result.cache_hits = cache.hits();
  result.cache_misses = cache.misses();

  // --------------------------------------------------------------- delivery
  // Each step: admit the messages due now to their next channel queue in
  // ascending id order (a message with no hops left is delivered instead),
  // then every busy channel transmits up to edge_capacity messages from the
  // front of its queue; they arrive at the far end one step later.
  std::map<std::uint64_t, std::vector<std::uint32_t>> due;  // time -> ids
  std::map<Channel, std::deque<std::uint32_t>> queues;
  std::set<Channel> busy;
  std::map<EdgeKey, std::uint64_t> edge_load;
  std::vector<std::size_t> next_hop(messages.size(), 0);

  std::uint64_t in_flight = 0;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    if (!result.outcomes[i].routed) continue;
    due[messages[i].inject_time].push_back(static_cast<std::uint32_t>(i));
    ++in_flight;
  }

  std::uint64_t t = 0;
  while (in_flight > 0 && (!due.empty() || !busy.empty())) {
    if (busy.empty()) t = due.begin()->first;  // skip an idle gap
    if (config.max_steps != 0 && result.sim_steps >= config.max_steps) break;
    ++result.sim_steps;

    const auto now = due.find(t);
    if (now != due.end()) {
      std::vector<std::uint32_t> ids = std::move(now->second);
      due.erase(now);
      std::sort(ids.begin(), ids.end());
      result.admission_events += ids.size();
      for (const std::uint32_t id : ids) {
        if (next_hop[id] == journeys[id].size()) {
          MessageOutcome& out = result.outcomes[id];
          out.delivered = true;
          out.finish_time = t;
          out.queueing_delay = t - out.message.inject_time - out.path_edges;
          --in_flight;
          continue;
        }
        const Channel& channel = journeys[id][next_hop[id]];
        queues[channel].push_back(id);
        busy.insert(channel);
      }
    }
    result.peak_active_channels =
        std::max<std::uint64_t>(result.peak_active_channels, busy.size());

    std::vector<Channel> drained;
    for (const Channel& channel : busy) {
      std::deque<std::uint32_t>& queue = queues[channel];
      for (std::uint64_t sent = 0; sent < config.edge_capacity && !queue.empty(); ++sent) {
        const std::uint32_t id = queue.front();
        queue.pop_front();
        ++next_hop[id];
        ++edge_load[channel.first];
        ++result.transmissions;
        due[t + 1].push_back(id);
      }
      if (queue.empty()) drained.push_back(channel);
    }
    for (const Channel& channel : drained) busy.erase(channel);
    ++t;
  }
  result.stranded = in_flight;

  // ------------------------------------------------------------ aggregation
  std::uint64_t total_load = 0;
  for (const auto& [key, load] : edge_load) {
    ++result.edges_used;
    total_load += load;
    result.max_edge_load = std::max(result.max_edge_load, load);
  }
  if (result.edges_used > 0) {
    result.mean_edge_load =
        static_cast<double>(total_load) / static_cast<double>(result.edges_used);
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
  return result;
}

}  // namespace faultroute::reference
