#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/routers/flood_router.hpp"
#include "core/routers/greedy_router.hpp"
#include "graph/channel_index.hpp"
#include "graph/hypercube.hpp"
#include "graph/mesh.hpp"
#include "percolation/edge_sampler.hpp"
#include "percolation/shared_probe_cache.hpp"
#include "random/rng.hpp"
#include "traffic/routing_phase.hpp"
#include "traffic/traffic_engine.hpp"
#include "traffic/workload.hpp"

namespace faultroute {
namespace {

RouterFactory best_first_factory() {
  return [] { return std::make_unique<BestFirstRouter>(); };
}

// --------------------------------------------------------------- workloads

TEST(Workload, ParseRoundTripsEveryName) {
  for (const auto& name : workload_names()) {
    EXPECT_EQ(workload_name(parse_workload(name)), name);
  }
  EXPECT_THROW((void)parse_workload("nope"), std::invalid_argument);
}

TEST(Workload, GeneratorsProduceRequestedCountWithDistinctEndpoints) {
  const Hypercube g(6);
  for (const auto& name : workload_names()) {
    WorkloadConfig config;
    config.kind = parse_workload(name);
    config.messages = 200;
    const auto messages = generate_workload(g, config);
    ASSERT_EQ(messages.size(), 200u) << name;
    for (std::size_t i = 0; i < messages.size(); ++i) {
      EXPECT_EQ(messages[i].id, i) << name;
      EXPECT_NE(messages[i].source, messages[i].target) << name;
      EXPECT_LT(messages[i].source, g.num_vertices()) << name;
      EXPECT_LT(messages[i].target, g.num_vertices()) << name;
    }
  }
}

TEST(Workload, PermutationRoundIsAPermutation) {
  // With messages <= n every source appears at most once and so does every
  // target (one round of a fixed-point-free restriction of a permutation).
  const Hypercube g(6);
  WorkloadConfig config;
  config.kind = WorkloadKind::kPermutation;
  config.messages = 48;
  const auto messages = generate_workload(g, config);
  std::set<VertexId> sources;
  std::set<VertexId> targets;
  for (const auto& msg : messages) {
    EXPECT_TRUE(sources.insert(msg.source).second);
    EXPECT_TRUE(targets.insert(msg.target).second);
  }
}

TEST(Workload, HotspotTargetsOneVertex) {
  const Hypercube g(5);
  WorkloadConfig config;
  config.kind = WorkloadKind::kHotspot;
  config.messages = 100;
  config.hotspot_target = 7;
  for (const auto& msg : generate_workload(g, config)) {
    EXPECT_EQ(msg.target, 7u);
    EXPECT_NE(msg.source, 7u);
  }
}

TEST(Workload, BisectionCrossesTheCut) {
  const Hypercube g(5);
  WorkloadConfig config;
  config.kind = WorkloadKind::kBisection;
  config.messages = 100;
  const std::uint64_t half = g.num_vertices() / 2;
  for (const auto& msg : generate_workload(g, config)) {
    EXPECT_LT(msg.source, half);
    EXPECT_GE(msg.target, half);
  }
}

TEST(Workload, PoissonArrivalsAreNondecreasingAndSpread) {
  const Hypercube g(6);
  WorkloadConfig config;
  config.kind = WorkloadKind::kPoisson;
  config.messages = 300;
  config.arrival_rate = 2.0;
  const auto messages = generate_workload(g, config);
  for (std::size_t i = 1; i < messages.size(); ++i) {
    EXPECT_GE(messages[i].inject_time, messages[i - 1].inject_time);
  }
  // Mean inter-arrival 1/rate: the last arrival lands near messages/rate.
  EXPECT_GT(messages.back().inject_time, 300u / 2 / 2);
  EXPECT_LT(messages.back().inject_time, 2 * 300u / 2);
}

TEST(Workload, RejectsMessageCountsThatWouldAliasIds) {
  // Message ids are 32-bit; the old behaviour silently truncated the index,
  // aliasing every message past 2^32. The guard runs before any allocation,
  // so requesting the absurd count is cheap. Both generator families (the
  // permutation round loop and the independent-draw loop) are covered.
  const Hypercube g(6);
  for (const auto& name : workload_names()) {
    WorkloadConfig config;
    config.kind = parse_workload(name);
    config.messages = (std::uint64_t{1} << 32);  // UINT32_MAX + 1
    config.arrival_rate = 1.0;
    EXPECT_THROW((void)generate_workload(g, config), std::invalid_argument) << name;
  }
  WorkloadConfig max_ok;
  max_ok.messages = 0;  // the boundary itself is fine (0 and small counts run)
  EXPECT_TRUE(generate_workload(g, max_ok).empty());
}

TEST(Workload, DeterministicInSeed) {
  const Hypercube g(6);
  WorkloadConfig config;
  config.kind = WorkloadKind::kRandomPairs;
  config.messages = 64;
  config.seed = 9;
  const auto a = generate_workload(g, config);
  const auto b = generate_workload(g, config);
  config.seed = 10;
  const auto c = generate_workload(g, config);
  ASSERT_EQ(a.size(), b.size());
  bool all_equal_to_c = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].source, b[i].source);
    EXPECT_EQ(a[i].target, b[i].target);
    all_equal_to_c = all_equal_to_c && a[i].source == c[i].source && a[i].target == c[i].target;
  }
  EXPECT_FALSE(all_equal_to_c);
}

// ------------------------------------------------------- SharedProbeCache

TEST(SharedProbeCache, TransparentOverBaseSampler) {
  const Hypercube g(6);
  const HashEdgeSampler base(0.5, 77);
  const SharedProbeCache cache(base, g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (int i = 0; i < g.degree(v); ++i) {
      const EdgeKey key = g.edge_key(v, i);
      EXPECT_EQ(cache.is_open(key), base.is_open(key));
      EXPECT_EQ(cache.is_open(key), base.is_open(key));  // cached path
    }
  }
  EXPECT_EQ(cache.unique_edges(), g.num_edges());
  EXPECT_EQ(cache.survival_probability(), base.survival_probability());
}

TEST(SharedProbeCache, ConsistentUnderConcurrentProbing) {
  const Hypercube g(8);
  const HashEdgeSampler base(0.5, 3);
  const SharedProbeCache cache(base, g);
  std::vector<std::thread> pool;
  std::atomic<bool> mismatch{false};
  for (int w = 0; w < 8; ++w) {
    pool.emplace_back([&] {
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        for (int i = 0; i < g.degree(v); ++i) {
          const EdgeKey key = g.edge_key(v, i);
          if (cache.is_open(key) != base.is_open(key)) mismatch = true;
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_FALSE(mismatch);
  EXPECT_EQ(cache.unique_edges(), g.num_edges());
}

TEST(SharedProbeCache, HitsPlusMissesEqualsProbesUnderThreadRaces) {
  // Eight threads hammer the same edge set concurrently, so first-probe
  // races are plentiful. Every call must land in exactly one counter, and a
  // miss only on actual publication: hits + misses == calls and misses ==
  // unique_edges() == the edge count.
  const Hypercube g(8);
  const HashEdgeSampler base(0.5, 3);
  const SharedProbeCache cache(base, g);
  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  std::atomic<std::uint64_t> calls{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    pool.emplace_back([&] {
      std::uint64_t local_calls = 0;
      for (int round = 0; round < kRounds; ++round) {
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
          for (int i = 0; i < g.degree(v); ++i) {
            (void)cache.is_open(g.edge_key(v, i));
            ++local_calls;
          }
        }
      }
      calls.fetch_add(local_calls);
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(cache.hits() + cache.misses(), calls.load());
  EXPECT_EQ(cache.misses(), cache.unique_edges());
  EXPECT_EQ(cache.unique_edges(), g.num_edges());
}

TEST(SharedProbeCache, SequentialCountsAreExact) {
  const Hypercube g(5);
  const HashEdgeSampler base(0.5, 9);
  const SharedProbeCache cache(base, g);
  // First sweep: every probe is a miss. Second sweep: every probe is a hit,
  // from either endpoint (both directions resolve to the same edge id).
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (int i = 0; i < g.degree(v); ++i) {
      const std::uint32_t edge = g.channel_index().edge_id_of(
          g.channel_index().channel_of(v, i));
      (void)cache.is_open_indexed(edge, g.edge_key(v, i));
    }
  }
  // 2E probes over E edges: E misses (first touch) + E hits (reverse side).
  EXPECT_EQ(cache.misses(), g.num_edges());
  EXPECT_EQ(cache.hits(), g.num_edges());
  EXPECT_EQ(cache.unique_edges(), g.num_edges());
}

TEST(SharedProbeCache, LookupCountsInTheCallersTallyUntilFolded) {
  const Hypercube g(5);
  const HashEdgeSampler base(0.5, 9);
  const SharedProbeCache cache(base, g);
  CacheTally tally;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (int i = 0; i < g.degree(v); ++i) {
      const std::uint32_t edge = g.channel_index().edge_id_of(
          g.channel_index().channel_of(v, i));
      const EdgeKey key = g.edge_key(v, i);
      EXPECT_EQ(cache.lookup(edge, key, tally), base.is_open(key));
    }
  }
  EXPECT_EQ(tally.misses, g.num_edges());
  EXPECT_EQ(tally.hits, g.num_edges());
  // The cache's own counters see the tally only once it is folded.
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  cache.fold(tally);
  EXPECT_EQ(cache.hits(), g.num_edges());
  EXPECT_EQ(cache.misses(), g.num_edges());
  EXPECT_EQ(cache.unique_edges(), g.num_edges());
}

// ----------------------------------------------------------- traffic engine

TrafficResult run_hypercube_batch(unsigned threads) {
  const Hypercube g(8);
  const HashEdgeSampler env(0.6, 11);
  WorkloadConfig workload;
  workload.kind = WorkloadKind::kRandomPairs;
  workload.messages = 400;
  workload.seed = 5;
  TrafficConfig config;
  config.threads = threads;
  return run_traffic(g, env, best_first_factory(), generate_workload(g, workload), config);
}

TEST(TrafficEngine, MessageConservation) {
  const TrafficResult r = run_hypercube_batch(4);
  EXPECT_EQ(r.messages, 400u);
  // Every message is accounted for exactly once.
  EXPECT_EQ(r.routed + r.failed_routing + r.censored + r.invalid_paths, r.messages);
  EXPECT_EQ(r.delivered + r.stranded, r.routed);
  EXPECT_EQ(r.stranded, 0u);  // capacity >= 1 and no step cap: everything drains
  EXPECT_EQ(r.invalid_paths, 0u);
  EXPECT_GT(r.delivered, 0u);
}

TEST(TrafficEngine, QueueConservationEdgeLoadsMatchDeliveredHops) {
  const TrafficResult r = run_hypercube_batch(2);
  // Total transmissions recorded on edges == total hops of delivered paths.
  std::uint64_t delivered_hops = 0;
  for (const MessageOutcome& out : r.outcomes) {
    if (out.delivered) delivered_hops += out.path_edges;
  }
  const double load_sum = r.mean_edge_load * static_cast<double>(r.edges_used);
  EXPECT_NEAR(load_sum, static_cast<double>(delivered_hops), 1e-6);
  EXPECT_GE(r.max_edge_load, static_cast<std::uint64_t>(r.mean_edge_load));
}

TEST(TrafficEngine, DeterministicAcrossThreadCounts) {
  const TrafficResult a = run_hypercube_batch(1);
  for (const unsigned threads : {2u, 8u}) {
    const TrafficResult b = run_hypercube_batch(threads);
    EXPECT_EQ(a.routed, b.routed);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.total_distinct_probes, b.total_distinct_probes);
    EXPECT_EQ(a.unique_edges_probed, b.unique_edges_probed);
    EXPECT_EQ(a.max_edge_load, b.max_edge_load);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.mean_queueing_delay, b.mean_queueing_delay);
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
      EXPECT_EQ(a.outcomes[i].distinct_probes, b.outcomes[i].distinct_probes);
      EXPECT_EQ(a.outcomes[i].path_edges, b.outcomes[i].path_edges);
      EXPECT_EQ(a.outcomes[i].finish_time, b.outcomes[i].finish_time);
      EXPECT_EQ(a.outcomes[i].delivered, b.outcomes[i].delivered);
    }
  }
}

TEST(TrafficEngine, SharedCacheAmortisesDiscovery) {
  // The cache is semantically transparent (SharedProbeCache.
  // TransparentOverBaseSampler); the batch re-uses discovered edges many
  // times over.
  const TrafficResult r = run_hypercube_batch(4);
  EXPECT_GT(r.unique_edges_probed, 0u);
  EXPECT_LT(r.unique_edges_probed, r.total_distinct_probes);
  EXPECT_GT(r.probe_amortization(), 1.0);
  // A batch can never discover more edges than the graph has.
  EXPECT_LE(r.unique_edges_probed, Hypercube(8).num_edges());
}

TEST(TrafficEngine, HotspotSaturatesTheTargetEdgeOnALine) {
  // Path graph 0-1-...-15, everything routed to vertex 0: every message must
  // cross the final edge {1,0}, which serialises deliveries at 1 msg/step.
  const Mesh g(1, 16, /*wrap=*/false);
  const HashEdgeSampler env(1.0, 1);
  WorkloadConfig workload;
  workload.kind = WorkloadKind::kHotspot;
  workload.messages = 64;
  workload.hotspot_target = 0;
  TrafficConfig config;
  const TrafficResult r =
      run_traffic(g, env, best_first_factory(), generate_workload(g, workload), config);
  EXPECT_EQ(r.delivered, 64u);
  EXPECT_EQ(r.max_edge_load, 64u);  // the {1,0} edge carries every message
  // Capacity 1 on the last hop: deliveries leave one per step, so the
  // makespan is at least the message count, and queueing dominates delay.
  EXPECT_GE(r.makespan, 64u);
  EXPECT_GT(r.mean_queueing_delay, 1.0);
}

TEST(TrafficEngine, ExtraCapacityRelievesTheHotspot) {
  const Mesh g(1, 16, /*wrap=*/false);
  const HashEdgeSampler env(1.0, 1);
  WorkloadConfig workload;
  workload.kind = WorkloadKind::kHotspot;
  workload.messages = 64;
  TrafficConfig narrow;
  narrow.edge_capacity = 1;
  TrafficConfig wide;
  wide.edge_capacity = 4;
  const auto messages = generate_workload(g, workload);
  const TrafficResult a = run_traffic(g, env, best_first_factory(), messages, narrow);
  const TrafficResult b = run_traffic(g, env, best_first_factory(), messages, wide);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_LT(b.makespan, a.makespan);
  EXPECT_LT(b.mean_queueing_delay, a.mean_queueing_delay);
}

TEST(TrafficEngine, UncongestedMessageHasZeroQueueingDelay) {
  const Hypercube g(6);
  const HashEdgeSampler env(1.0, 1);
  const std::vector<TrafficMessage> one{{0, 0, 63, 0}};
  const TrafficResult r = run_traffic(g, env, best_first_factory(), one, {});
  ASSERT_EQ(r.delivered, 1u);
  EXPECT_EQ(r.outcomes[0].queueing_delay, 0u);
  EXPECT_EQ(r.outcomes[0].finish_time, r.outcomes[0].path_edges);
  EXPECT_EQ(r.makespan, r.outcomes[0].path_edges);
}

TEST(TrafficEngine, PoissonInjectionTimesAreRespected) {
  const Hypercube g(6);
  const HashEdgeSampler env(0.8, 4);
  WorkloadConfig workload;
  workload.kind = WorkloadKind::kPoisson;
  workload.messages = 100;
  workload.arrival_rate = 0.5;
  const TrafficResult r =
      run_traffic(g, env, best_first_factory(), generate_workload(g, workload), {});
  for (const MessageOutcome& out : r.outcomes) {
    if (!out.delivered) continue;
    EXPECT_GE(out.finish_time, out.message.inject_time + out.path_edges);
  }
}

TEST(TrafficEngine, MaxStepsStrandsInFlightMessages) {
  const Mesh g(1, 16, /*wrap=*/false);
  const HashEdgeSampler env(1.0, 1);
  WorkloadConfig workload;
  workload.kind = WorkloadKind::kHotspot;
  workload.messages = 64;
  TrafficConfig config;
  config.max_steps = 5;  // far below the ~64-step drain time of the hotspot
  const TrafficResult r =
      run_traffic(g, env, best_first_factory(), generate_workload(g, workload), config);
  EXPECT_GT(r.stranded, 0u);
  EXPECT_EQ(r.delivered + r.stranded, r.routed);
}

TEST(TrafficEngine, ProbeBudgetCensorsMessages) {
  const Hypercube g(8);
  const HashEdgeSampler env(0.6, 11);
  WorkloadConfig workload;
  workload.kind = WorkloadKind::kRandomPairs;
  workload.messages = 100;
  TrafficConfig config;
  config.probe_budget = 3;  // too small to route across an 8-cube
  const auto factory = [] { return std::make_unique<FloodRouter>(); };
  const TrafficResult r =
      run_traffic(g, env, factory, generate_workload(g, workload), config);
  EXPECT_GT(r.censored, 0u);
  EXPECT_EQ(r.routed + r.failed_routing + r.censored + r.invalid_paths, r.messages);
}

/// A misbehaving router that fabricates the fault-free shortest path without
/// probing — its paths cross closed edges under percolation.
class BlindShortestPathRouter final : public Router {
 public:
  std::optional<Path> route(ProbeContext& ctx, VertexId u, VertexId v) override {
    return ctx.graph().shortest_path(u, v);
  }
  [[nodiscard]] std::string name() const override { return "blind"; }
  [[nodiscard]] RoutingMode required_mode() const override { return RoutingMode::kOracle; }
};

TEST(TrafficEngine, InvalidPathsAreExcludedFromRoutedAndDelivery) {
  const Hypercube g(6);
  const HashEdgeSampler env(0.3, 5);  // sparse: most fabricated paths hit a closed edge
  WorkloadConfig workload;
  workload.kind = WorkloadKind::kRandomPairs;
  workload.messages = 50;
  const auto factory = [] { return std::make_unique<BlindShortestPathRouter>(); };
  const TrafficResult r =
      run_traffic(g, env, factory, generate_workload(g, workload), {});
  EXPECT_GT(r.invalid_paths, 0u);
  // The exact partition holds even when verification rejects paths...
  EXPECT_EQ(r.routed + r.failed_routing + r.censored + r.invalid_paths, r.messages);
  // ...and rejected messages never enter the delivery simulation.
  EXPECT_EQ(r.delivered + r.stranded, r.routed);
}

TEST(TrafficEngine, InvalidPathOutcomesReportZeroPathEdges) {
  // Regression: invalidation reset out.routed but left out.path_edges at the
  // rejected path's hop count, so consumers summing path_edges over
  // non-delivered outcomes double-counted work that never happened.
  const Hypercube g(6);
  const HashEdgeSampler env(0.3, 5);
  WorkloadConfig workload;
  workload.kind = WorkloadKind::kRandomPairs;
  workload.messages = 50;
  const auto factory = [] { return std::make_unique<BlindShortestPathRouter>(); };
  const TrafficResult r =
      run_traffic(g, env, factory, generate_workload(g, workload), {});
  ASSERT_GT(r.invalid_paths, 0u);
  std::uint64_t invalidated = 0;
  for (const MessageOutcome& out : r.outcomes) {
    if (out.routed || out.censored) continue;
    // Both failed-routing and invalidated messages must report zero hops.
    EXPECT_EQ(out.path_edges, 0u);
    ++invalidated;
  }
  EXPECT_EQ(invalidated, r.invalid_paths + r.failed_routing);
}

TEST(TrafficEngine, TwoEdgeContentionHandComputed) {
  // Path graph 0-1-2, two messages 0 -> 2 injected at t=0, capacity 1.
  //   t=0: both queue on channel 0->1; id 0 transmits (edge {0,1}).
  //   t=1: id 0 queues on 1->2 and transmits; id 1 transmits on 0->1.
  //   t=2: id 0 arrives at 2 (delivered, finish 2); id 1 transmits on 1->2.
  //   t=3: id 1 delivered.
  const Mesh g(1, 3, /*wrap=*/false);
  const HashEdgeSampler env(1.0, 1);
  const std::vector<TrafficMessage> two{{0, 0, 2, 0}, {1, 0, 2, 0}};
  const TrafficResult r = run_traffic(g, env, best_first_factory(), two, {});
  ASSERT_EQ(r.delivered, 2u);
  EXPECT_EQ(r.outcomes[0].finish_time, 2u);
  EXPECT_EQ(r.outcomes[1].finish_time, 3u);
  EXPECT_EQ(r.makespan, 3u);
  EXPECT_EQ(r.outcomes[0].queueing_delay, 0u);  // never waited
  EXPECT_EQ(r.outcomes[1].queueing_delay, 1u);  // one step behind id 0 on each edge
  EXPECT_EQ(r.max_queueing_delay, 1u);
  // Both messages crossed both edges; directions pool per undirected edge.
  EXPECT_EQ(r.edges_used, 2u);
  EXPECT_EQ(r.max_edge_load, 2u);
  EXPECT_DOUBLE_EQ(r.mean_edge_load, 2.0);
  EXPECT_EQ(r.transmissions, 4u);
  EXPECT_EQ(r.sim_steps, 4u);             // t = 0, 1, 2, 3
  EXPECT_EQ(r.admission_events, 6u);      // 2 injections + 4 hop arrivals
  EXPECT_EQ(r.peak_active_channels, 2u);  // 0->1 and 1->2 busy at t=1
  EXPECT_EQ(r.channels, 4u);              // 2 undirected edges, both directions
}

TEST(TrafficEngine, TheTwoDirectionsOfOneEdgeQueueIndependently) {
  // hypercube:1 is the single edge {0, 1}. Messages 0 -> 1 and 1 -> 0 leave
  // at t=0 on its two directed channels, so at capacity 1 neither waits for
  // the other, while the undirected edge's load pools both.
  const Hypercube g(1);
  const HashEdgeSampler env(1.0, 1);
  TrafficConfig config;
  config.edge_capacity = 1;
  const std::vector<TrafficMessage> opposite{{0, 0, 1, 0}, {1, 1, 0, 0}};
  const TrafficResult r = run_traffic(g, env, best_first_factory(), opposite, config);
  ASSERT_EQ(r.delivered, 2u);
  for (const MessageOutcome& out : r.outcomes) {
    EXPECT_EQ(out.finish_time, 1u);
    EXPECT_EQ(out.queueing_delay, 0u);
  }
  EXPECT_EQ(r.transmissions, 2u);
  EXPECT_EQ(r.max_edge_load, 2u);
  EXPECT_EQ(r.edges_used, 1u);
}

TEST(TrafficEngine, RefusesABatchOfTwoToThe32Hops) {
  // Hop indices are 32-bit in the flat hop array; the check runs before the
  // array is reserved, so it is tested here on the count alone.
  EXPECT_NO_THROW(detail::check_hop_total(std::numeric_limits<std::uint32_t>::max()));
  try {
    detail::check_hop_total(std::uint64_t{1} << 32);
    FAIL() << "a batch of 2^32 hops was accepted";
  } catch (const std::length_error& e) {
    EXPECT_NE(std::string(e.what()).find("4294967296 hops"), std::string::npos) << e.what();
  }
}

TEST(TrafficEngine, AdmissionSortOrdersIdsOfEveryWidth) {
  // Empty and single-id steps, sizes around one digit's 256 buckets and one
  // past 2^16, with ids spanning one, two and three 8-bit digits (17 bits: a
  // top digit of one bit, as in a batch of 2^17 messages). Each size reuses
  // one scratch buffer, as the delivery loop does across steps.
  std::vector<std::uint32_t> scratch;
  Rng rng(2005);
  for (const int bits : {8, 16, 17, 24}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{255},
                                std::size_t{256}, std::size_t{257}, (std::size_t{1} << 16) + 1}) {
      std::vector<std::uint32_t> ids(n);
      for (std::uint32_t& id : ids) {
        id = static_cast<std::uint32_t>(uniform_below(rng, std::uint64_t{1} << bits));
      }
      std::vector<std::uint32_t> expected = ids;
      std::sort(expected.begin(), expected.end());
      detail::sort_message_ids(ids, scratch, bits);
      EXPECT_EQ(ids, expected) << "bits=" << bits << " n=" << n;
    }
  }
}

TEST(TrafficEngine, DeliveryInvariantsOnAPoissonBatch) {
  const TrafficResult r = [] {
    const Hypercube g(7);
    const HashEdgeSampler env(0.55, 21);
    WorkloadConfig workload;
    workload.kind = WorkloadKind::kPoisson;
    workload.messages = 500;
    workload.arrival_rate = 4.0;
    workload.seed = 3;
    return run_traffic(g, env, best_first_factory(), generate_workload(g, workload), {});
  }();
  // Conservation partition: every message accounted for exactly once, and
  // with no step cap everything routed eventually drains.
  EXPECT_EQ(r.routed + r.failed_routing + r.censored + r.invalid_paths, r.messages);
  EXPECT_EQ(r.delivered + r.stranded, r.routed);
  EXPECT_EQ(r.stranded, 0u);
  ASSERT_GT(r.delivered, 0u);
  // queueing_delay can never underflow: finish >= inject + hops for every
  // delivered message, and the delay is exactly the difference (an underflow
  // would wrap to ~2^64 and blow the reconstruction below).
  std::uint64_t delivered_hops = 0;
  for (const MessageOutcome& out : r.outcomes) {
    if (!out.delivered) continue;
    ASSERT_GE(out.finish_time, out.message.inject_time + out.path_edges);
    EXPECT_EQ(out.queueing_delay,
              out.finish_time - out.message.inject_time - out.path_edges);
    EXPECT_LE(out.queueing_delay, out.finish_time);
    delivered_hops += out.path_edges;
  }
  // Event-counter identities: every delivered hop is one transmission, every
  // admission either re-queues a hop or delivers a message.
  EXPECT_EQ(r.transmissions, delivered_hops);
  EXPECT_EQ(r.admission_events, r.transmissions + r.delivered);
}

TEST(TrafficEngine, MemoryStateIsBoundedByChannelsPlusMessagesNotTime) {
  // Same message count, ~100x different simulated horizon: the engine's
  // per-run state (per-channel FIFO heads over the channels the batch's
  // paths use, per-message slots, per-hop channel ids) must not grow with
  // simulated time. `channels` still reports the topology's ChannelIndex,
  // which bounds the channels in use; under the old container engine the
  // queue table grew with every distinct channel ever touched and the
  // timeline with every distinct admission time.
  const Hypercube g(7);
  const HashEdgeSampler env(0.7, 9);
  const auto run_at_rate = [&](double rate) {
    WorkloadConfig workload;
    workload.kind = WorkloadKind::kPoisson;
    workload.messages = 300;
    workload.arrival_rate = rate;
    workload.seed = 12;
    return run_traffic(g, env, best_first_factory(), generate_workload(g, workload), {});
  };
  const TrafficResult dense = run_at_rate(8.0);
  const TrafficResult sparse = run_at_rate(0.05);  // long horizon, idle gaps
  ASSERT_GT(sparse.makespan, 10 * dense.makespan);
  // Identical state footprint regardless of horizon...
  EXPECT_EQ(dense.channels, sparse.channels);
  EXPECT_EQ(dense.channels, 2 * g.num_edges());
  EXPECT_LE(dense.peak_active_channels, dense.channels);
  EXPECT_LE(sparse.peak_active_channels, sparse.channels);
  // ...and the event loop never executes more steps than it has events for
  // (idle gaps are skipped, so steps are bounded by admissions, not by the
  // simulated clock).
  EXPECT_LE(sparse.sim_steps, sparse.admission_events);
  EXPECT_GT(sparse.makespan, sparse.sim_steps);  // horizon >> work on sparse runs
}

TEST(TrafficEngine, RejectsZeroCapacity) {
  const Hypercube g(4);
  const HashEdgeSampler env(1.0, 1);
  TrafficConfig config;
  config.edge_capacity = 0;
  EXPECT_THROW(run_traffic(g, env, best_first_factory(), {}, config),
               std::invalid_argument);
}

}  // namespace
}  // namespace faultroute
