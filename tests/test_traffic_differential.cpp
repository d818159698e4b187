// Differential suite: the traffic engine (run_traffic) against the naive
// reference in helpers/reference_traffic.hpp.
//
// The engine routes through pooled ProbeArenas, the lock-free shared cache,
// CSR adjacency (owned, or an mmap'd snapshot view), DistanceOracle columns
// for metric routers, and thread-parallel workers, then delivers through an
// event-driven simulator over dense channel ids. The reference does none of
// that. The two must agree on every aggregate, every per-message outcome,
// and every engine counter except `channels` (the reference has no channel
// index): across every curated scenario sweep at --quick size, a router
// x topology matrix, flat and implicit adjacency, snapshot views, threads
// 1, 2 and 4, and the delivery edge cases (step caps, idle Poisson gaps,
// extra capacity).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/routers/greedy_router.hpp"
#include "graph/hypercube.hpp"
#include "graph/mesh.hpp"
#include "graph/snapshot.hpp"
#include "helpers/reference_traffic.hpp"
#include "percolation/edge_sampler.hpp"
#include "random/rng.hpp"
#include "scenario/spec.hpp"
#include "sim/registry.hpp"
#include "traffic/traffic_engine.hpp"
#include "traffic/workload.hpp"

#ifndef FAULTROUTE_SOURCE_DIR
#error "test_traffic_differential requires FAULTROUTE_SOURCE_DIR (set by CMakeLists.txt)"
#endif

namespace faultroute {
namespace {

namespace fs = std::filesystem;

void expect_identical(const TrafficResult& fast, const TrafficResult& ref,
                      const std::string& label) {
  EXPECT_EQ(fast.messages, ref.messages) << label;
  EXPECT_EQ(fast.routed, ref.routed) << label;
  EXPECT_EQ(fast.failed_routing, ref.failed_routing) << label;
  EXPECT_EQ(fast.censored, ref.censored) << label;
  EXPECT_EQ(fast.invalid_paths, ref.invalid_paths) << label;
  EXPECT_EQ(fast.delivered, ref.delivered) << label;
  EXPECT_EQ(fast.stranded, ref.stranded) << label;
  EXPECT_EQ(fast.total_distinct_probes, ref.total_distinct_probes) << label;
  EXPECT_EQ(fast.unique_edges_probed, ref.unique_edges_probed) << label;
  EXPECT_EQ(fast.cache_hits, ref.cache_hits) << label;
  EXPECT_EQ(fast.cache_misses, ref.cache_misses) << label;
  EXPECT_EQ(fast.max_edge_load, ref.max_edge_load) << label;
  EXPECT_EQ(fast.mean_edge_load, ref.mean_edge_load) << label;  // exact: same doubles
  EXPECT_EQ(fast.edges_used, ref.edges_used) << label;
  EXPECT_EQ(fast.makespan, ref.makespan) << label;
  EXPECT_EQ(fast.mean_queueing_delay, ref.mean_queueing_delay) << label;
  EXPECT_EQ(fast.max_queueing_delay, ref.max_queueing_delay) << label;
  EXPECT_EQ(fast.mean_path_edges, ref.mean_path_edges) << label;
  EXPECT_EQ(fast.sim_steps, ref.sim_steps) << label;
  EXPECT_EQ(fast.admission_events, ref.admission_events) << label;
  EXPECT_EQ(fast.transmissions, ref.transmissions) << label;
  EXPECT_EQ(fast.peak_active_channels, ref.peak_active_channels) << label;
  ASSERT_EQ(fast.outcomes.size(), ref.outcomes.size()) << label;
  for (std::size_t i = 0; i < fast.outcomes.size(); ++i) {
    const MessageOutcome& x = fast.outcomes[i];
    const MessageOutcome& y = ref.outcomes[i];
    ASSERT_EQ(x.message.source, y.message.source) << label << " msg " << i;
    ASSERT_EQ(x.message.target, y.message.target) << label << " msg " << i;
    ASSERT_EQ(x.routed, y.routed) << label << " msg " << i;
    ASSERT_EQ(x.censored, y.censored) << label << " msg " << i;
    ASSERT_EQ(x.delivered, y.delivered) << label << " msg " << i;
    ASSERT_EQ(x.distinct_probes, y.distinct_probes) << label << " msg " << i;
    ASSERT_EQ(x.path_edges, y.path_edges) << label << " msg " << i;
    ASSERT_EQ(x.finish_time, y.finish_time) << label << " msg " << i;
    ASSERT_EQ(x.queueing_delay, y.queueing_delay) << label << " msg " << i;
  }
}

/// One way the engine can resolve adjacency: the CSR under the default
/// vertex budget, the virtual interface under a zero budget, or an mmap'd
/// snapshot view.
struct Backend {
  std::string name;
  std::uint64_t flat_budget_vertices = kDefaultFlatBudgetVertices;
  const FlatAdjacency* snapshot = nullptr;
};

/// Flat and implicit adjacency, plus the snapshot view when one is given.
std::vector<Backend> backends(const FlatAdjacency* view) {
  std::vector<Backend> all = {{"flat"}, {"implicit", /*flat_budget_vertices=*/0}};
  if (view != nullptr) all.push_back({"snapshot", kDefaultFlatBudgetVertices, view});
  return all;
}

/// Writes `graph`'s CSR adjacency as an on-disk snapshot and maps it back
/// as a zero-copy view, exactly as `--snapshot-dir` does.
std::unique_ptr<FlatAdjacency> snapshot_view(const std::string& topology_spec,
                                             const Topology& graph) {
  const fs::path dir = fs::path(testing::TempDir()) / "faultroute_differential_snaps";
  fs::create_directories(dir);
  write_snapshot(snapshot_path(dir.string(), topology_spec), topology_spec,
                 graph.flat_adjacency());
  std::unique_ptr<FlatAdjacency> view =
      open_snapshot_adjacency(dir.string(), topology_spec, graph);
  EXPECT_TRUE(view != nullptr && view->is_view()) << topology_spec;
  return view;
}

/// Runs the reference once, then the engine on every backend at threads 1,
/// 2 and 4, and holds each engine run to the reference.
void check_against_reference(const Topology& graph, const EdgeSampler& env,
                             const RouterFactory& factory,
                             const std::vector<TrafficMessage>& messages,
                             const TrafficConfig& config,
                             const std::vector<Backend>& modes, const std::string& label) {
  const TrafficResult expected = reference::run_traffic(graph, env, factory, messages, config);
  for (const Backend& backend : modes) {
    TrafficConfig fast = config;
    fast.flat_budget_vertices = backend.flat_budget_vertices;
    fast.flat_snapshot = backend.snapshot;
    for (const unsigned threads : {1u, 2u, 4u}) {
      fast.threads = threads;
      expect_identical(run_traffic(graph, env, factory, messages, fast), expected,
                       label + " adjacency=" + backend.name +
                           " threads=" + std::to_string(threads));
    }
  }
}

// ------------------------------------------------------- curated scenarios

/// Replays every cell of `scenarios/<stem>` at --quick size, with the
/// runner's cell order and seeding: row-major index, trial fastest,
/// environment derive_seed(seed, 2i), workload derive_seed(seed, 2i + 1).
void check_scenario_file(const std::string& stem) {
  const std::string path = std::string(FAULTROUTE_SOURCE_DIR) + "/scenarios/" + stem;
  scenario::ScenarioSpec spec = scenario::load_scenario_file(path);
  spec.messages = std::min<std::uint64_t>(spec.messages, 64);
  spec.trials = std::min<std::uint64_t>(spec.trials, 2);
  scenario::validate_scenario(spec);

  std::vector<std::unique_ptr<Topology>> topologies;
  std::vector<std::unique_ptr<FlatAdjacency>> views;
  for (const auto& topo_spec : spec.topologies) {
    topologies.push_back(sim::make_topology(topo_spec));
    views.push_back(snapshot_view(topo_spec, *topologies.back()));
  }

  std::uint64_t index = 0;
  for (std::size_t ti = 0; ti < topologies.size(); ++ti) {
    for (const double p : spec.p_values) {
      for (const auto& router : spec.routers) {
        for (const auto& workload_spec : spec.workloads) {
          for (std::uint64_t trial = 0; trial < spec.trials; ++trial, ++index) {
            const Topology& topology = *topologies[ti];
            WorkloadConfig workload = sim::make_workload(workload_spec);
            workload.messages = spec.messages;
            workload.seed = derive_seed(spec.seed, 2 * index + 1);
            const auto messages = generate_workload(topology, workload);

            TrafficConfig config;
            config.edge_capacity = spec.edge_capacity;
            if (spec.probe_budget > 0) config.probe_budget = spec.probe_budget;
            config.max_steps = spec.max_steps;
            const HashEdgeSampler environment(p, derive_seed(spec.seed, 2 * index));
            const auto factory = [&]() { return sim::make_router(router, topology); };
            check_against_reference(topology, environment, factory, messages, config,
                                    backends(views[ti].get()),
                                    stem + " cell " + std::to_string(index) + " (" +
                                        spec.topologies[ti] + ", p=" + std::to_string(p) +
                                        ", " + router + ", " + workload_spec + ")");
          }
        }
      }
    }
  }
  EXPECT_GT(index, 0u) << stem;
}

TEST(TrafficDifferential, BisectionTopologies) {
  check_scenario_file("bisection_topologies.scn");
}
TEST(TrafficDifferential, DebruijnRouterShootout) {
  check_scenario_file("debruijn_router_shootout.scn");
}
TEST(TrafficDifferential, ExtensionTopologies) {
  check_scenario_file("extension_topologies.scn");
}
TEST(TrafficDifferential, GnpOracleGap) { check_scenario_file("gnp_oracle_gap.scn"); }
TEST(TrafficDifferential, HotspotMeltdown) { check_scenario_file("hotspot_meltdown.scn"); }
TEST(TrafficDifferential, HypercubePhase) { check_scenario_file("hypercube_phase.scn"); }
TEST(TrafficDifferential, MeshBatchCongestion) {
  check_scenario_file("mesh_batch_congestion.scn");
}
TEST(TrafficDifferential, MeshPoissonLoad) { check_scenario_file("mesh_poisson_load.scn"); }

// ---------------------------------------------------------- router matrix

struct RouterCase {
  std::string topology;
  std::string router;
  std::string workload;
  double p;
  std::uint64_t budget = 0;  // 0 = unbounded
};

void check_router_case(const RouterCase& c) {
  const auto graph = sim::make_topology(c.topology);
  const HashEdgeSampler env(c.p, derive_seed(2005, 7));
  WorkloadConfig workload = sim::make_workload(c.workload);
  workload.messages = 96;
  workload.seed = derive_seed(2005, 8);
  const auto messages = generate_workload(*graph, workload);
  const auto factory = [&]() { return sim::make_router(c.router, *graph); };

  TrafficConfig config;
  if (c.budget > 0) config.probe_budget = c.budget;
  const auto view = snapshot_view(c.topology, *graph);
  check_against_reference(*graph, env, factory, messages, config, backends(view.get()),
                          c.topology + "/" + c.router + "/" + c.workload +
                              " p=" + std::to_string(c.p) +
                              " budget=" + std::to_string(c.budget));
}

TEST(TrafficDifferential, SearchRoutersOnTheFlatPath) {
  // Flood, target-first flood and bidirectional BFS. Budgeted cells censor
  // mid-search, pinning the exact probe at which the budget dies.
  const RouterCase cases[] = {
      {"hypercube:8", "flood", "random-pairs", 0.5, /*budget=*/400},
      {"hypercube:8", "flood", "permutation", 0.55},
      {"de_bruijn:8", "flood-target-first", "random-pairs", 0.55},
      {"butterfly:4", "flood-target-first", "bisection", 0.6, /*budget=*/600},
      {"shuffle_exchange:8", "flood", "random-pairs", 0.6},
      {"ccc:5", "bidirectional", "random-pairs", 0.6},
      {"hypercube:8", "bidirectional", "permutation", 0.5, /*budget=*/500},
      {"complete:128", "bidirectional", "random-pairs", 0.03},
      {"butterfly:2", "bidirectional", "random-pairs", 0.7},  // parallel edges
  };
  for (const auto& c : cases) check_router_case(c);
}

TEST(TrafficDifferential, MetricRoutersWithAndWithoutTheDistanceOracle) {
  // De Bruijn, shuffle-exchange, CCC and butterfly have no closed-form
  // metric, so the engine reads prewarmed DistanceOracle columns there; the
  // hypercube and torus cells take the closed-form bypass.
  const RouterCase cases[] = {
      {"de_bruijn:8", "greedy", "random-pairs", 0.55},
      {"de_bruijn:8", "best-first", "random-pairs", 0.6, /*budget=*/2000},
      {"shuffle_exchange:8", "hybrid", "random-pairs", 0.6},
      {"ccc:5", "best-first", "permutation", 0.65},
      {"butterfly:4", "best-first", "bisection", 0.7},
      {"hypercube:8", "best-first", "random-pairs", 0.6},
      {"hypercube:7", "greedy", "hotspot:0", 0.7},
      {"torus:2:12", "hybrid", "poisson:2", 0.7},
  };
  for (const auto& c : cases) check_router_case(c);
}

TEST(TrafficDifferential, LandmarkAndGnpRouters) {
  // Hypercube and torus take their closed-form base path; de Bruijn,
  // shuffle-exchange, CCC and butterfly run the fault-free BFS over CSR
  // rows on the engine side and over the virtual interface in the reference.
  const RouterCase cases[] = {
      {"hypercube:8", "landmark", "permutation", 0.55},
      {"torus:2:12", "landmark", "poisson:2", 0.7},
      {"de_bruijn:8", "landmark", "random-pairs", 0.6},
      {"shuffle_exchange:8", "landmark", "random-pairs", 0.65},
      {"ccc:5", "landmark", "permutation", 0.65},
      {"butterfly:2", "landmark", "random-pairs", 0.7},  // parallel edges
      {"complete:128", "gnp-oracle", "random-pairs", 0.03},
      {"complete:128", "gnp-local", "random-pairs", 0.03},
  };
  for (const auto& c : cases) check_router_case(c);
}

TEST(TrafficDifferential, TorusBatchIsBitIdenticalWithAndWithoutTheCsr) {
  // Under a CSR budget of 0 the torus's probes, shared cache and journey
  // compilation all take its closed-form edge ids; under the default budget
  // they read the table the CSR borrows. Per-edge loads are keyed by those
  // ids, so the two results must agree field for field, channels included.
  const auto graph = sim::make_topology("torus:3:6");
  const HashEdgeSampler env(0.75, derive_seed(2005, 21));
  WorkloadConfig workload = sim::make_workload("random-pairs");
  workload.messages = 256;
  workload.seed = derive_seed(2005, 22);
  const auto messages = generate_workload(*graph, workload);
  const auto factory = [&]() { return sim::make_router("landmark", *graph); };
  TrafficConfig implicit;
  implicit.flat_budget_vertices = 0;
  TrafficConfig flat;
  for (const unsigned threads : {1u, 4u}) {
    implicit.threads = threads;
    flat.threads = threads;
    const TrafficResult a = run_traffic(*graph, env, factory, messages, implicit);
    const TrafficResult b = run_traffic(*graph, env, factory, messages, flat);
    const std::string label = "torus:3:6 threads=" + std::to_string(threads);
    expect_identical(a, b, label);
    EXPECT_EQ(a.channels, b.channels) << label;
    EXPECT_GT(a.transmissions, 0u) << label;
  }
}

// -------------------------------------------------- delivery edge cases

RouterFactory best_first_factory() {
  return [] { return std::make_unique<BestFirstRouter>(); };
}

TEST(TrafficDifferential, StepCapStrandsIdentically) {
  // A hotspot on a line with a tiny step cap: the break-out point and the
  // stranded accounting must match, including which messages finished.
  const Mesh g(1, 16, /*wrap=*/false);
  const HashEdgeSampler env(1.0, 1);
  WorkloadConfig workload;
  workload.kind = WorkloadKind::kHotspot;
  workload.messages = 48;
  const auto messages = generate_workload(g, workload);
  for (const std::uint64_t cap : {1ull, 5ull, 23ull}) {
    TrafficConfig config;
    config.max_steps = cap;
    check_against_reference(g, env, best_first_factory(), messages, config, backends(nullptr),
                            "max_steps=" + std::to_string(cap));
  }
}

TEST(TrafficDifferential, SparsePoissonIdleGapsSkipIdentically) {
  // Rate 0.02 spreads ~200 arrivals over ~10000 timesteps: the engine's
  // idle-gap skip must land on exactly the timesteps the map timeline visits.
  const Hypercube g(6);
  const HashEdgeSampler env(0.8, 17);
  WorkloadConfig workload;
  workload.kind = WorkloadKind::kPoisson;
  workload.messages = 200;
  workload.arrival_rate = 0.02;
  const auto messages = generate_workload(g, workload);
  check_against_reference(g, env, best_first_factory(), messages, {}, backends(nullptr),
                          "sparse poisson");
}

TEST(TrafficDifferential, ExtraCapacityMatches) {
  const Mesh g(1, 16, /*wrap=*/false);
  const HashEdgeSampler env(1.0, 1);
  WorkloadConfig workload;
  workload.kind = WorkloadKind::kHotspot;
  workload.messages = 64;
  const auto messages = generate_workload(g, workload);
  for (const std::uint64_t capacity : {2ull, 4ull, 64ull}) {
    TrafficConfig config;
    config.edge_capacity = capacity;
    check_against_reference(g, env, best_first_factory(), messages, config, backends(nullptr),
                            "capacity=" + std::to_string(capacity));
  }
}

}  // namespace
}  // namespace faultroute
