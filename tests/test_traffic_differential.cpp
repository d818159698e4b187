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
// x topology matrix, the default, zero-budget and forced-CSR adjacency,
// snapshot views, threads 1, 2 and 4, and the delivery edge cases (step
// caps, idle Poisson gaps, radix-ordered admissions, extra capacity).

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
#include "obs/counter_registry.hpp"
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

/// One way the engine can resolve adjacency: the default (the CSR under
/// the vertex budget, except on the hypercube, which takes its closed
/// form), a zero budget (the closed form of the hypercube and the
/// mesh/torus, else the virtual interface), the topology's own CSR forced
/// in, or an mmap'd snapshot view.
struct Backend {
  std::string name;
  std::uint64_t flat_budget_vertices = kDefaultFlatBudgetVertices;
  const FlatAdjacency* snapshot = nullptr;
};

/// The path the default does not take: the forced CSR where the default
/// routes on the closed form, else a zero budget.
Backend other_backend(const Topology& graph) {
  if (routes_on_closed_form(graph)) {
    return {"csr", kDefaultFlatBudgetVertices, &graph.flat_adjacency()};
  }
  return {"budget-0", /*flat_budget_vertices=*/0};
}

/// The default and the other backend, plus the snapshot view when one is
/// given.
std::vector<Backend> backends(const Topology& graph, const FlatAdjacency* view) {
  std::vector<Backend> all = {{"default"}, other_backend(graph)};
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
                                    backends(topology, views[ti].get()),
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
  check_against_reference(*graph, env, factory, messages, config, backends(*graph, view.get()),
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

TEST(TrafficDifferential, ClosedFormAndCsrRunsAreBitIdentical) {
  // The hypercube routes on its closed-form accessor by default and on the
  // CSR when it is forced in; these small meshes and tori take the CSR by
  // default and their closed form under a budget of 0. Probes, the shared
  // cache and journey compilation then take the closed-form edge ids or
  // the table the CSR borrows; per-edge loads are keyed by those ids, so
  // the other path must agree field for field with the default, channels
  // included.
  for (const std::string spec : {"hypercube:7", "mesh:2:9", "torus:3:6", "torus:2:5"}) {
    const auto graph = sim::make_topology(spec);
    const HashEdgeSampler env(0.75, derive_seed(2005, 21));
    WorkloadConfig workload = sim::make_workload("random-pairs");
    workload.messages = 128;
    workload.seed = derive_seed(2005, 22);
    const auto messages = generate_workload(*graph, workload);
    for (const std::string router :
         {"landmark", "greedy", "best-first", "hybrid", "bidirectional", "flood-target-first"}) {
      const auto factory = [&]() { return sim::make_router(router, *graph); };
      for (const unsigned threads : {1u, 4u}) {
        TrafficConfig config;
        config.threads = threads;
        const TrafficResult expected = run_traffic(*graph, env, factory, messages, config);
        EXPECT_GT(expected.transmissions, 0u) << spec << " " << router;
        const Backend backend = other_backend(*graph);
        TrafficConfig fast = config;
        fast.flat_budget_vertices = backend.flat_budget_vertices;
        fast.flat_snapshot = backend.snapshot;
        const TrafficResult got = run_traffic(*graph, env, factory, messages, fast);
        const std::string label = spec + " " + router + " adjacency=" + backend.name +
                                  " threads=" + std::to_string(threads);
        expect_identical(got, expected, label);
        EXPECT_EQ(got.channels, expected.channels) << label;
      }
    }
  }
}

std::uint64_t global_counter(const std::string& name) {
  for (const auto& entry : obs::global_registry().snapshot()) {
    if (entry.name == name) return entry.value;
  }
  return 0;
}

/// The CSRs one run_traffic batch builds on a fresh `topology_spec` under
/// the vertex budget `flat_budget_vertices`.
std::uint64_t csr_builds_of_a_batch(const std::string& topology_spec,
                                    std::uint64_t flat_budget_vertices) {
  const auto graph = sim::make_topology(topology_spec);
  WorkloadConfig workload = sim::make_workload("random-pairs");
  workload.messages = 64;
  workload.seed = derive_seed(2005, 23);
  const auto messages = generate_workload(*graph, workload);
  const HashEdgeSampler env(0.7, derive_seed(2005, 24));
  const auto factory = [&]() { return sim::make_router("landmark", *graph); };
  TrafficConfig config;
  config.flat_budget_vertices = flat_budget_vertices;
  const std::uint64_t before = global_counter("graph.flat_adjacency.materializations");
  const TrafficResult result = run_traffic(*graph, env, factory, messages, config);
  EXPECT_GT(result.routed, 0u) << topology_spec;
  return global_counter("graph.flat_adjacency.materializations") - before;
}

TEST(TrafficDifferential, ClosedFormRoutesBuildNoCsr) {
  // The hypercube at any budget, the torus past the budget (here 0).
  EXPECT_EQ(csr_builds_of_a_batch("hypercube:10", kDefaultFlatBudgetVertices), 0u);
  EXPECT_EQ(csr_builds_of_a_batch("torus:2:16", 0), 0u);
  EXPECT_EQ(csr_builds_of_a_batch("torus:2:16", kDefaultFlatBudgetVertices), 1u);
  EXPECT_EQ(csr_builds_of_a_batch("de_bruijn:8", kDefaultFlatBudgetVertices), 1u);
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
    check_against_reference(g, env, best_first_factory(), messages, config, backends(g, nullptr),
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
  check_against_reference(g, env, best_first_factory(), messages, {}, backends(g, nullptr),
                          "sparse poisson");
}

TEST(TrafficDifferential, RadixOrderedAdmissionsMatchTheSortedReference) {
  // The engine orders a step's admissions by an LSD radix sort, the
  // reference by std::sort. A 4096-message permutation on hypercube:12
  // injects every id at once (12-bit ids, two passes) and keeps the early
  // steps thousands of ids wide; 70000 messages (17-bit ids) make the third
  // pass, on the top digit, run as well.
  const Hypercube g(12);
  const HashEdgeSampler env(0.95, derive_seed(2005, 31));
  const auto factory = [&]() { return sim::make_router("greedy", g); };
  for (const std::uint64_t count : {std::uint64_t{4096}, std::uint64_t{70000}}) {
    WorkloadConfig workload = sim::make_workload("permutation");
    workload.messages = count;
    workload.seed = derive_seed(2005, 32);
    const auto messages = generate_workload(g, workload);
    check_against_reference(g, env, factory, messages, {}, backends(g, nullptr),
                            "permutation of " + std::to_string(count) + " messages");
  }
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
    check_against_reference(g, env, best_first_factory(), messages, config, backends(g, nullptr),
                            "capacity=" + std::to_string(capacity));
  }
}

}  // namespace
}  // namespace faultroute
