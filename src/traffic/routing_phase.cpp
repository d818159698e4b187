#include "traffic/routing_phase.hpp"

#include <atomic>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/parallel.hpp"
#include "graph/distance_oracle.hpp"
#include "obs/run_metrics.hpp"
#include "percolation/shared_probe_cache.hpp"

namespace faultroute::detail {

namespace {

/// One routing worker's probe state: its arena, bound to the batch's cache.
/// The arena's cache tally is folded into the cache once, when the worker
/// drains and its body (holding this) is destroyed.
struct RouteWorker {
  explicit RouteWorker(const SharedProbeCache& batch) : cache(batch), arena(batch) {}
  RouteWorker(const RouteWorker&) = delete;
  RouteWorker& operator=(const RouteWorker&) = delete;
  ~RouteWorker() { cache.fold(arena.tally()); }

  const SharedProbeCache& cache;
  ProbeArena arena;
};

/// Routing proper: every message independently through the shared cache.
/// Messages are independent, so a work-stealing index loop with a
/// fresh-per-thread router reproduces the sequential outcome exactly. Each
/// worker owns one ProbeArena, created here in make_body and re-epoched per
/// message, so steady-state routing allocates nothing, and counts its cache
/// hits and misses in the arena's plain tally.
// analyze:hot-root(routing worker body: per-message inner loop of every sweep)
void route_all(const SharedProbeCache& cache, const RouterFactory& make_router,
               const std::shared_ptr<Router>& prototype,
               const std::vector<TrafficMessage>& messages, const TrafficConfig& config,
               const FlatAdjacency* flat, const DistanceOracle* oracle,
               std::vector<MessageOutcome>& outcomes, std::vector<Path>& paths) {
  // Instrumentation is resolved once, outside the loop: counter ids here,
  // then one per-worker span plus two plain-store adds per message inside.
  obs::CounterRegistry* counters =
      config.metrics != nullptr ? &config.metrics->counters() : nullptr;
  const obs::CounterRegistry::CounterId probe_calls =
      counters != nullptr ? counters->id("traffic.routing.probe_calls") : 0;
  const obs::CounterRegistry::CounterId expansions =
      counters != nullptr ? counters->id("traffic.routing.bfs_expansions") : 0;
  obs::PhaseProfiler* profiler =
      config.metrics != nullptr ? &config.metrics->profiler() : nullptr;
  // When the oracle classification already constructed one router, the
  // first worker to start adopts it rather than paying a second construction
  // (landmark tables and the like live in router ctors). Factories hand out
  // identically-behaving routers — the same property that makes the
  // work-stealing loop legal — so which worker adopts it cannot matter.
  std::atomic<Router*> unclaimed{prototype.get()};
  parallel_index_loop(messages.size(), config.threads, [&] {
    // acq_rel: the claim must be unique (RMW) and the winner must observe the
    // fully-constructed prototype; thread spawn already orders the ctor, so
    // this spells the minimum ordering that keeps both properties explicit.
    const std::shared_ptr<Router> router =
        unclaimed.exchange(nullptr, std::memory_order_acq_rel) != nullptr
            ? prototype
            : make_router();
    const std::shared_ptr<RouteWorker> worker = std::make_shared<RouteWorker>(cache);
    // The worker's whole routing stint is one span on its own track; the
    // body closure (and with it the scope) is destroyed on the worker
    // thread when the worker drains, closing the span there.
    const std::shared_ptr<obs::PhaseProfiler::Scope> span =
        std::make_shared<obs::PhaseProfiler::Scope>(profiler, "route-worker");
    return [&, router, worker, span](std::size_t i) {
      const TrafficMessage& msg = messages[i];
      MessageOutcome& out = outcomes[i];
      out.message = msg;
      if (msg.source == msg.target) {
        out.routed = true;
        paths[i] = Path{msg.source};
        return;
      }
      ProbeContext ctx(worker->arena, msg.source, router->required_mode(),
                       config.probe_budget, flat, oracle);
      std::optional<Path> path;
      try {
        path = router->route(ctx, msg.source, msg.target);
      } catch (const ProbeBudgetExceeded&) {
        out.censored = true;
      }
      out.distinct_probes = ctx.distinct_probes();
      if (counters != nullptr) {
        counters->add(probe_calls, ctx.total_probes());
        counters->add(expansions, ctx.expansions());
      }
      if (path) {
        out.routed = true;
        // Routers may legally return walks; forwarding a loop would burn
        // capacity for nothing, so ship along the simplified path.
        paths[i] = simplify_walk(std::move(*path));
        out.path_edges = path_length(paths[i]);
      }
    };
  });
}

}  // namespace

RoutedBatch route_and_validate(
    const Topology& graph, const EdgeSampler& sampler, const RouterFactory& make_router,
    const std::vector<TrafficMessage>& messages, const TrafficConfig& config,
    TrafficResult& result) {
  obs::PhaseProfiler* profiler =
      config.metrics != nullptr ? &config.metrics->profiler() : nullptr;
  const obs::PhaseProfiler::Scope routing_scope(profiler, "routing");
  std::vector<Path> paths(messages.size());  // analyze:allow-hot-alloc(per-batch result array sized once)

  // One adjacency resolution for the whole batch: every probe, validation
  // scan, and slot resolution below goes through the same backend. An
  // externally provided snapshot (config.flat_snapshot — e.g. an mmap view
  // from a snapshot directory) costs no build, so it bypasses the vertex
  // budget; otherwise the CSR is materialized iff the graph fits it.
  const FlatAdjacency* flat = config.flat_snapshot != nullptr
                                  ? config.flat_snapshot
                                  : resolve_adjacency(graph, config.flat_budget_vertices);
  const AdjacencyView adj(graph, flat);

  const SharedProbeCache cache(sampler, graph);

  // On the flat path, classify the batch's router via one prototype —
  // factories hand out identically-behaving routers, that is what makes
  // thread-parallel routing legal in the first place. Metric routers on
  // families without a closed-form metric read precomputed oracle columns
  // instead of running one BFS per graph.distance call; the column values
  // are the same distances, so outcomes are bit-identical.
  const DistanceOracle* oracle = nullptr;
  std::shared_ptr<Router> prototype;  // adopted by route_all's first worker
  if (flat != nullptr) {
    prototype = make_router();
    if (prototype->uses_distance_metric() && !graph.has_closed_form_metric()) {
      const obs::PhaseProfiler::Scope prewarm_scope(profiler, "oracle-prewarm");
      const DistanceOracle& cached = flat->distance_oracle();
      std::vector<VertexId> targets;
      targets.reserve(messages.size());  // analyze:allow-hot-alloc(per-batch oracle prewarm list)
      // analyze:allow-hot-alloc(per-batch oracle prewarm list)
      for (const TrafficMessage& msg : messages) targets.push_back(msg.target);
      cached.ensure_targets(targets);  // dedups; first-appearance order
      oracle = &cached;
    }
  }
  {
    const obs::PhaseProfiler::Scope route_scope(profiler, "route");
    route_all(cache, make_router, prototype, messages, config, flat, oracle, result.outcomes,
              paths);
  }
  // Every worker has drained and folded its tally, so the totals are exact:
  // the per-message memo means the cache sees one lookup per (message,
  // edge), so hits + misses == total_distinct_probes and misses ==
  // unique_edges_probed, deterministically (see TrafficResult::cache_hits).
  result.unique_edges_probed = cache.unique_edges();
  result.cache_hits = cache.hits();
  result.cache_misses = cache.misses();

  // Validate paths and resolve every hop's slot, edge id and direction.
  const obs::PhaseProfiler::Scope validate_scope(profiler, "validate");
  // A routed message's path_edges is its simplified path's hop count, so the
  // sum bounds the hop array before it is reserved.
  std::uint64_t hop_bound = 0;
  for (const MessageOutcome& out : result.outcomes) hop_bound += out.path_edges;
  check_hop_total(hop_bound);
  RoutedBatch batch;
  std::vector<std::uint32_t>& hops = batch.hops;
  hops.reserve(hop_bound);  // analyze:allow-hot-alloc(per-batch flat hop array, reserved to its bound)
  batch.ranges.resize(messages.size());  // analyze:allow-hot-alloc(per-batch result array sized once)
  // One accessor for the whole batch (the routing phase's): the CSR's loads,
  // or the family's closed forms, which build no channel -> edge-id table.
  adj.visit([&](const auto& rows) {
    for (std::size_t i = 0; i < messages.size(); ++i) {
      MessageOutcome& out = result.outcomes[i];
      result.total_distinct_probes += out.distinct_probes;
      if (out.censored) {
        ++result.censored;
        continue;
      }
      if (!out.routed) {
        ++result.failed_routing;
        continue;
      }
      // Validate before counting as routed, so the exact partition
      // routed + failed + censored + invalid == messages holds.
      const Path& path = paths[i];
      if (config.verify_paths &&
          !is_valid_open_path_on(rows, sampler, path, out.message.source, out.message.target)) {
        ++result.invalid_paths;
        out.routed = false;
        out.path_edges = 0;  // the rejected path's hop count must not leak out
        continue;
      }
      const auto begin = static_cast<std::uint32_t>(hops.size());
      bool ok = true;
      for (std::size_t step = 0; step + 1 < path.size(); ++step) {
        const VertexId a = path[step];
        const VertexId b = path[step + 1];
        const int slot = rows.edge_index_of(a, b);
        if (slot < 0) {  // unreachable when verify_paths is on; defensive otherwise
          ok = false;
          break;
        }
        // analyze:allow-hot-alloc(fills the reservation above)
        hops.push_back(rows.edge_id(a, slot) << 1 | static_cast<std::uint32_t>(a > b));
      }
      if (!ok) {
        ++result.invalid_paths;
        out.routed = false;
        out.path_edges = 0;
        hops.resize(begin);  // analyze:allow-hot-alloc(drops this message's hops; never grows)
        continue;
      }
      batch.ranges[i] = {begin, static_cast<std::uint32_t>(hops.size())};
      ++result.routed;
    }
  });
  return batch;
}

void check_hop_total(std::uint64_t hops) {
  if (hops > std::numeric_limits<std::uint32_t>::max()) {
    // analyze:allow-throw-safety(size refusal before the batch's hop array is reserved)
    throw std::length_error("run_traffic: the batch's paths have " + std::to_string(hops) +
                            " hops; hop indices are 32-bit, so a batch takes at most "
                            "4294967295 hops");
  }
}

void record_traffic_counters(obs::RunMetrics& metrics, const TrafficResult& result) {
  obs::CounterRegistry& counters = metrics.counters();
  const auto sum = [&](std::string_view name, std::uint64_t value) {
    counters.add(counters.id(name), value);
  };
  sum("traffic.routing.messages", result.messages);
  sum("traffic.routing.routed", result.routed);
  sum("traffic.routing.failed_routing", result.failed_routing);
  sum("traffic.routing.censored", result.censored);
  sum("traffic.routing.invalid_paths", result.invalid_paths);
  sum("traffic.routing.distinct_probes", result.total_distinct_probes);
  sum("traffic.cache.hits", result.cache_hits);
  sum("traffic.cache.misses", result.cache_misses);
  sum("traffic.cache.unique_edges", result.unique_edges_probed);
  sum("traffic.delivery.delivered", result.delivered);
  sum("traffic.delivery.stranded", result.stranded);
  sum("traffic.delivery.sim_steps", result.sim_steps);
  sum("traffic.delivery.admission_events", result.admission_events);
  sum("traffic.delivery.transmissions", result.transmissions);
  counters.record_max(
      counters.id("traffic.delivery.peak_active_channels", obs::MergeKind::kMax),
      result.peak_active_channels);
  counters.record_max(counters.id("traffic.delivery.makespan", obs::MergeKind::kMax),
                      result.makespan);
}

}  // namespace faultroute::detail
