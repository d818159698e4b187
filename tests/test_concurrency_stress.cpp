// Concurrency stress suite — the workload the CI `tsan` job exists for.
//
// Every lock-free or lazily-initialised shared structure in the repo gets
// hammered here from many threads at once, with a start barrier so the
// threads actually collide: SharedProbeCache CAS publication,
// CounterRegistry per-thread slabs (with a concurrent snapshotter),
// PhaseProfiler scopes from worker threads, DistanceOracle grow-only column
// memo, the lazy Topology::channel_index / flat_adjacency /
// FlatAdjacency::distance_oracle caches, IndexedStateMemo epoch cells, and
// the full threaded traffic engine, including its memo-hit replays of
// published cache bytes.
//
// The assertions are the structures' documented determinism contracts
// (exact counter identities, value purity, one-instance lazy init). Run
// under ThreadSanitizer (-DFAULTROUTE_TSAN=ON) these tests are additionally
// a race detector over every interleaving TSan happens to observe; the
// suite is deliberately allocation-light inside the hammer loops so TSan's
// happens-before graph stays dense.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "graph/channel_index.hpp"
#include "graph/de_bruijn.hpp"
#include "graph/distance_oracle.hpp"
#include "graph/flat_adjacency.hpp"
#include "graph/hypercube.hpp"
#include "obs/counter_registry.hpp"
#include "obs/phase_profiler.hpp"
#include "obs/run_metrics.hpp"
#include "percolation/edge_sampler.hpp"
#include "percolation/indexed_memo.hpp"
#include "percolation/shared_probe_cache.hpp"
#include "random/rng.hpp"
#include "sim/registry.hpp"
#include "traffic/traffic_engine.hpp"
#include "traffic/workload.hpp"

namespace faultroute {
namespace {

/// Spawns `threads` workers, releases them through a spin barrier so they
/// enter `body(worker_index)` as simultaneously as the scheduler allows,
/// and joins. Rethrows nothing: bodies assert with gtest on their own.
void hammer(unsigned threads, const std::function<void(unsigned)>& body) {
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load()) {
      }  // spin: wake all workers within one scheduling quantum
      body(t);
    });
  }
  while (ready.load() < threads) {
  }
  go.store(true);
  for (std::thread& worker : pool) worker.join();
}

constexpr unsigned kThreads = 8;

// ---------------------------------------------------------- probe caches

TEST(ConcurrencyStress, SharedProbeCacheCasPublicationIsExactUnderContention) {
  const Hypercube graph(9);  // 512 vertices, 2304 edges
  const HashEdgeSampler base(0.5, 42);
  const SharedProbeCache cache(base, graph);
  const ChannelIndex& channels = graph.channel_index();
  const std::uint32_t edges = channels.num_edge_ids();

  // Reference answers, resolved single-threaded on an identical cache.
  std::vector<std::pair<std::uint32_t, EdgeKey>> id_key(edges);
  std::vector<char> expected(edges);
  for (std::uint32_t c = 0; c < channels.num_channels(); ++c) {
    const VertexId tail = channels.tail(c);
    const int slot = channels.slot(c);
    id_key[channels.edge_id_of(c)] = {channels.edge_id_of(c),
                                      graph.edge_key(tail, slot)};
  }
  for (std::uint32_t e = 0; e < edges; ++e) {
    expected[e] = base.is_open(id_key[e].second) ? 1 : 0;
  }

  // Every worker probes every edge several times in a worker-dependent
  // order, so first-touch races happen on most edges.
  constexpr int kRounds = 4;
  std::atomic<std::uint64_t> wrong{0};
  hammer(kThreads, [&](unsigned worker) {
    for (int round = 0; round < kRounds; ++round) {
      for (std::uint32_t i = 0; i < edges; ++i) {
        const std::uint32_t e =
            (worker % 2 == 0) ? i : (edges - 1 - i);  // opposing sweeps collide
        const bool open = cache.is_open_indexed(id_key[e].first, id_key[e].second);
        if (open != (expected[e] == 1)) wrong.fetch_add(1);
      }
    }
  });

  EXPECT_EQ(wrong.load(), 0u) << "a racing probe observed a non-pure answer";
  // The documented counter identities: every probe is exactly one hit or one
  // miss, and a miss is counted only by the CAS winner.
  const std::uint64_t probes =
      static_cast<std::uint64_t>(kThreads) * kRounds * edges;
  EXPECT_EQ(cache.hits() + cache.misses(), probes);
  EXPECT_EQ(cache.misses(), cache.unique_edges());
  EXPECT_EQ(cache.unique_edges(), edges);
}

// ------------------------------------------------------- counter registry

TEST(ConcurrencyStress, CounterRegistrySlabMergeIsExactAfterJoin) {
  obs::CounterRegistry registry;
  const auto sum_id = registry.id("stress.sum");
  const auto max_id = registry.id("stress.max", obs::MergeKind::kMax);

  constexpr std::uint64_t kIncrements = 20000;
  // A concurrent snapshotter thread: totals mid-run are unspecified (slabs
  // are merged while owners still write) but must be safe; under TSan this
  // is the reader/writer pair the relaxed atomics exist for.
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load()) {
      (void)registry.snapshot();
      (void)registry.value(sum_id);
    }
  });

  hammer(kThreads, [&](unsigned worker) {
    for (std::uint64_t i = 1; i <= kIncrements; ++i) {
      registry.add(sum_id, 1);
      registry.record_max(max_id, worker * kIncrements + i);
    }
  });
  stop.store(true);
  snapshotter.join();

  // After the workers join, the merge is exact by contract.
  EXPECT_EQ(registry.value(sum_id), kThreads * kIncrements);
  EXPECT_EQ(registry.value(max_id), (kThreads - 1) * kIncrements + kIncrements);
}

TEST(ConcurrencyStress, GlobalRegistryFindOrRegisterRacesResolveToOneCounter) {
  // Racing global_count calls on the same fresh name must converge on a
  // single counter id and lose no increments.
  obs::CounterRegistry& registry = obs::global_registry();
  const std::string name = "stress.global.fan_in";
  constexpr std::uint64_t kIncrements = 5000;
  const std::uint64_t before = registry.value(registry.id(name));
  hammer(kThreads, [&](unsigned) {
    for (std::uint64_t i = 0; i < kIncrements; ++i) obs::global_count(name);
  });
  EXPECT_EQ(registry.value(registry.id(name)) - before, kThreads * kIncrements);
}

// --------------------------------------------------------- phase profiler

TEST(ConcurrencyStress, PhaseProfilerRecordsEveryScopeFromEveryWorker) {
  obs::PhaseProfiler profiler;
  constexpr int kScopes = 500;
  hammer(kThreads, [&](unsigned worker) {
    profiler.label_current_thread("worker");
    for (int i = 0; i < kScopes; ++i) {
      const obs::PhaseProfiler::Scope outer(&profiler, "outer");
      const obs::PhaseProfiler::Scope inner(&profiler, "inner");
      (void)worker;
    }
  });
  std::uint64_t outer = 0;
  std::uint64_t inner = 0;
  for (const auto& stat : profiler.aggregate()) {
    if (stat.path == "outer") outer = stat.count;
    if (stat.path == "outer/inner") inner = stat.count;
  }
  EXPECT_EQ(outer, static_cast<std::uint64_t>(kThreads) * kScopes);
  EXPECT_EQ(inner, static_cast<std::uint64_t>(kThreads) * kScopes);
  EXPECT_EQ(profiler.tracks().size(), kThreads);
}

// --------------------------------------------------------- distance oracle

TEST(ConcurrencyStress, DistanceOracleGrowOnlyMemoIsPureUnderConcurrentGrowth) {
  const DeBruijn graph(8);  // 256 vertices, no closed-form metric
  const FlatAdjacency flat(graph);
  const DistanceOracle oracle(flat);

  // Workers grow the memo with overlapping target blocks while others read
  // columns and ALT bounds for targets that may be mid-build.
  const std::uint64_t n = graph.num_vertices();
  std::atomic<std::uint64_t> wrong{0};
  hammer(kThreads, [&](unsigned worker) {
    std::vector<VertexId> targets;
    for (VertexId t = worker % 4; t < n; t += 4) targets.push_back(t);
    oracle.ensure_targets(targets);
    Rng rng(worker + 1);
    for (int i = 0; i < 2000; ++i) {
      const auto u = static_cast<VertexId>(uniform_below(rng, n));
      const auto t = static_cast<VertexId>(uniform_below(rng, n));
      const std::uint32_t* column = oracle.distances_to(t);
      const std::uint64_t exact = graph.distance(u, t);
      if (column != nullptr && column[u] != exact) wrong.fetch_add(1);
      if (oracle.lower_bound(u, t) > exact) wrong.fetch_add(1);
    }
  });
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(oracle.num_columns(), n);  // all four residue classes merged
}

// ------------------------------------------------------- lazy topology caches

TEST(ConcurrencyStress, LazySnapshotCachesInitializeOnceUnderFirstTouchRaces) {
  for (int round = 0; round < 8; ++round) {
    const Hypercube graph(10);
    std::vector<const ChannelIndex*> index_seen(kThreads);
    std::vector<const FlatAdjacency*> flat_seen(kThreads);
    std::vector<const DistanceOracle*> oracle_seen(kThreads);
    hammer(kThreads, [&](unsigned worker) {
      // All three lazy layers first-touched concurrently, in two orders so
      // the flat_adjacency() path also races channel_index() init.
      if (worker % 2 == 0) {
        index_seen[worker] = &graph.channel_index();
        flat_seen[worker] = &graph.flat_adjacency();
      } else {
        flat_seen[worker] = &graph.flat_adjacency();
        index_seen[worker] = &graph.channel_index();
      }
      oracle_seen[worker] = &flat_seen[worker]->distance_oracle();
    });
    for (unsigned t = 1; t < kThreads; ++t) {
      EXPECT_EQ(index_seen[t], index_seen[0]);
      EXPECT_EQ(flat_seen[t], flat_seen[0]);
      EXPECT_EQ(oracle_seen[t], oracle_seen[0]);
    }
  }
}

// ----------------------------------------------------------- indexed memo

TEST(ConcurrencyStress, IndexedStateMemoRacingStoresOfPureValuesStayConsistent) {
  detail::IndexedStateMemo memo;
  constexpr std::uint32_t kCells = 4096;
  memo.attach(kCells);
  // The samplers' contract: concurrent load/store of *pure* per-id values.
  const auto pure_state = [](std::uint32_t id) {
    return static_cast<std::uint8_t>(1 + id % 3);  // states 1..3 fit kStateBits
  };
  std::atomic<std::uint64_t> wrong{0};
  hammer(kThreads, [&](unsigned worker) {
    for (int round = 0; round < 6; ++round) {
      for (std::uint32_t i = 0; i < kCells; ++i) {
        const std::uint32_t id = (worker % 2 == 0) ? i : (kCells - 1 - i);
        const std::uint8_t loaded = memo.load(id);
        if (loaded == detail::IndexedStateMemo::kUnknown) {
          memo.store(id, pure_state(id));
        } else if (loaded != pure_state(id)) {
          wrong.fetch_add(1);
        }
      }
    }
  });
  EXPECT_EQ(wrong.load(), 0u);
  for (std::uint32_t id = 0; id < kCells; ++id) {
    EXPECT_EQ(memo.load(id), pure_state(id)) << "cell " << id;
  }
}

// -------------------------------------------- whole-engine threaded routing

TEST(ConcurrencyStress, ThreadedTrafficIsBitIdenticalToSingleThreaded) {
  // The capstone: the full engine at threads=4 must reproduce the
  // single-threaded run bit-for-bit. Under TSan this routes real batches
  // through ProbeArena pooling, the lock-free cache with its per-worker
  // tallies, the DistanceOracle prewarm, and the counter slabs at once.
  const auto graph = sim::make_topology("de_bruijn:8");
  const HashEdgeSampler env(0.55, derive_seed(2005, 3));
  WorkloadConfig workload = sim::make_workload("random-pairs");
  workload.messages = 384;
  workload.seed = derive_seed(2005, 4);
  const auto messages = generate_workload(*graph, workload);
  const auto factory = [&]() { return sim::make_router("best-first", *graph); };

  const auto run_with = [&](unsigned threads) {
    TrafficConfig config;
    config.threads = threads;
    return run_traffic(*graph, env, factory, messages, config);
  };

  const TrafficResult baseline = run_with(1);
  const TrafficResult threaded = run_with(4);
  EXPECT_EQ(threaded.routed, baseline.routed);
  EXPECT_EQ(threaded.delivered, baseline.delivered);
  EXPECT_EQ(threaded.makespan, baseline.makespan);
  EXPECT_EQ(threaded.total_distinct_probes, baseline.total_distinct_probes);
  EXPECT_EQ(threaded.unique_edges_probed, baseline.unique_edges_probed);
  // Each worker folds its tally into the cache once, when it drains; a
  // lost or doubled fold would break these identities at threads=4.
  EXPECT_EQ(threaded.cache_hits, baseline.cache_hits);
  EXPECT_EQ(threaded.cache_misses, baseline.cache_misses);
  for (const TrafficResult* run : {&baseline, &threaded}) {
    EXPECT_GT(run->cache_hits, 0u);
    EXPECT_EQ(run->cache_hits + run->cache_misses, run->total_distinct_probes);
    EXPECT_EQ(run->cache_misses, run->unique_edges_probed);
  }
  ASSERT_EQ(threaded.outcomes.size(), baseline.outcomes.size());
  for (std::size_t i = 0; i < baseline.outcomes.size(); ++i) {
    EXPECT_EQ(threaded.outcomes[i].delivered, baseline.outcomes[i].delivered);
    EXPECT_EQ(threaded.outcomes[i].finish_time, baseline.outcomes[i].finish_time);
    EXPECT_EQ(threaded.outcomes[i].path_edges, baseline.outcomes[i].path_edges);
  }
}

TEST(ConcurrencyStress, MemoHitsReplayPublishedAnswersUnderThreads) {
  // A memo hit reads its answer back from the cache byte the message's
  // first probe published, with a relaxed load that counts nothing, while
  // other workers publish their first touches by CAS. landmark re-probes
  // edges within a message, so this batch makes many such replays; under
  // TSan it is the race detector for that load.
  const auto graph = sim::make_topology("torus:2:12");
  const HashEdgeSampler env(0.7, derive_seed(2005, 5));
  WorkloadConfig workload = sim::make_workload("random-pairs");
  workload.messages = 256;
  workload.seed = derive_seed(2005, 6);
  const auto messages = generate_workload(*graph, workload);
  const auto factory = [&]() { return sim::make_router("landmark", *graph); };

  struct Run {
    TrafficResult result;
    std::uint64_t probe_calls = 0;
  };
  const auto run_with = [&](unsigned threads) {
    obs::RunMetrics metrics;
    TrafficConfig config;
    config.threads = threads;
    config.metrics = &metrics;
    Run run{run_traffic(*graph, env, factory, messages, config), 0};
    run.probe_calls =
        metrics.counters().value(metrics.counters().id("traffic.routing.probe_calls"));
    return run;
  };

  const Run baseline = run_with(1);
  const Run threaded = run_with(4);
  for (const Run* run : {&baseline, &threaded}) {
    // Repeat probes happened, and none of them reached the cache tallies.
    EXPECT_GT(run->probe_calls, run->result.total_distinct_probes);
    EXPECT_EQ(run->result.cache_hits + run->result.cache_misses,
              run->result.total_distinct_probes);
    EXPECT_EQ(run->result.cache_misses, run->result.unique_edges_probed);
  }
  EXPECT_EQ(threaded.probe_calls, baseline.probe_calls);
  EXPECT_EQ(threaded.result.routed, baseline.result.routed);
  EXPECT_EQ(threaded.result.delivered, baseline.result.delivered);
  EXPECT_EQ(threaded.result.total_distinct_probes, baseline.result.total_distinct_probes);
  EXPECT_EQ(threaded.result.unique_edges_probed, baseline.result.unique_edges_probed);
  EXPECT_EQ(threaded.result.cache_hits, baseline.result.cache_hits);
  EXPECT_EQ(threaded.result.cache_misses, baseline.result.cache_misses);
  ASSERT_EQ(threaded.result.outcomes.size(), baseline.result.outcomes.size());
  for (std::size_t i = 0; i < baseline.result.outcomes.size(); ++i) {
    const MessageOutcome& a = baseline.result.outcomes[i];
    const MessageOutcome& b = threaded.result.outcomes[i];
    EXPECT_EQ(b.routed, a.routed) << "message " << i;
    EXPECT_EQ(b.distinct_probes, a.distinct_probes) << "message " << i;
    EXPECT_EQ(b.path_edges, a.path_edges) << "message " << i;
    EXPECT_EQ(b.delivered, a.delivered) << "message " << i;
    EXPECT_EQ(b.finish_time, a.finish_time) << "message " << i;
  }
}

}  // namespace
}  // namespace faultroute
