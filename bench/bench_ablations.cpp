// Ablations on the design choices the paper leaves open.
//
//  A1. Section 3.2 remark — "a greedy approach at the early stages would
//      reduce the exponent": hybrid greedy-then-repair vs pure landmark
//      routing on the hypercube, across alpha.
//  A2. Fault model — node failures (the emulation literature's model) vs
//      edge failures at matched marginal edge-survival probability: does the
//      routing picture change? (Node faults correlate incident edges.)
//  A3. Single-pair complexity vs a "full blown routing scheme": batch
//      routing congestion (max edge load) of random pairs on the
//      supercritical mesh — the distinction Section 1.1 draws around
//      Definition 2.

#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>

#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "core/experiment.hpp"
#include "core/routers/hybrid_router.hpp"
#include "core/routers/landmark_router.hpp"
#include "graph/hypercube.hpp"
#include "graph/mesh.hpp"
#include "percolation/cluster_analysis.hpp"
#include "percolation/edge_sampler.hpp"
#include "percolation/node_fault_sampler.hpp"
#include "random/rng.hpp"
#include "sim/options.hpp"
#include "sim/sweep.hpp"
#include "traffic/traffic_engine.hpp"
#include "traffic/workload.hpp"

namespace {

using namespace faultroute;

void greedy_first_ablation(const sim::Options& options) {
  const int n = options.quick ? 12 : 14;
  const Hypercube cube(n);
  const std::vector<double> alphas = {0.25, 0.40, 0.55, 0.70};
  const int trials = options.trials_or(15);
  const std::uint64_t budget = options.quick ? 50000 : 200000;

  Table table({"alpha", "landmark_median", "hybrid_median", "hybrid/landmark",
               "landmark_path", "hybrid_path"});
  for (const double alpha : alphas) {
    const double p = sim::p_for_alpha(n, alpha);
    ExperimentConfig config;
    config.trials = trials;
    config.probe_budget = budget;
    config.base_seed = derive_seed(options.seed, static_cast<std::uint64_t>(alpha * 1000));
    LandmarkRouter landmark;
    HybridGreedyRouter hybrid;
    const auto ls =
        measure_routing(cube, p, landmark, 0, cube.num_vertices() - 1, config);
    const auto hs = measure_routing(cube, p, hybrid, 0, cube.num_vertices() - 1, config);
    table.add_row({Table::fmt(alpha, 2), Table::fmt(ls.median_distinct, 0),
                   Table::fmt(hs.median_distinct, 0),
                   Table::fmt(hs.median_distinct / std::max(1.0, ls.median_distinct), 2),
                   Table::fmt(ls.mean_path_edges, 1), Table::fmt(hs.mean_path_edges, 1)});
  }
  table.print(
      "A1: greedy-first hybrid vs pure landmark on H_{n,p}, n = " + std::to_string(n) +
      " (Section 3.2 remark: greedy early stages should help below the threshold)");
  if (const auto path = options.csv_path("a1_hybrid_vs_landmark")) table.write_csv(*path);
}

void fault_model_ablation(const sim::Options& options) {
  // Matched marginal: edge model at p_edge == node model with
  // node_p^2 * edge_p = p_edge.
  const Mesh mesh(2, options.quick ? 64 : 96);
  const VertexId u = mesh.vertex_at({8, 8});
  const VertexId v = mesh.vertex_at({static_cast<std::int64_t>(mesh.side()) - 9,
                                     static_cast<std::int64_t>(mesh.side()) - 9});
  const int trials = options.trials_or(20);
  const std::vector<double> marginals = {0.60, 0.70, 0.85};

  Table table({"marginal_p", "model", "mean_probes", "median_probes", "mean_path",
               "connect_rate"});
  for (const double marginal : marginals) {
    for (const bool node_model : {false, true}) {
      LandmarkRouter router;
      Summary probes;
      Summary paths;
      int connected = 0;
      int attempts = 0;
      for (int t = 0; t < trials * 4 && connected < trials; ++t) {
        ++attempts;
        const std::uint64_t seed =
            derive_seed(options.seed, static_cast<std::uint64_t>(marginal * 1000) * 100 +
                                          static_cast<std::uint64_t>(t) * 2 +
                                          (node_model ? 1 : 0));
        // Node model: split the marginal as node_p = sqrt(marginal/0.95),
        // edge_p = 0.95 (mostly-node faults).
        std::unique_ptr<EdgeSampler> sampler;
        if (node_model) {
          const double node_p = std::sqrt(marginal / 0.95);
          sampler = std::make_unique<NodeFaultSampler>(mesh, node_p, 0.95, seed);
        } else {
          sampler = std::make_unique<HashEdgeSampler>(marginal, seed);
        }
        const auto ok = open_connected(mesh, *sampler, u, v);
        if (!ok.has_value() || !*ok) continue;
        ++connected;
        ProbeContext ctx(mesh, *sampler, u, RoutingMode::kLocal);
        const auto path = router.route(ctx, u, v);
        if (!path) continue;
        probes.add(static_cast<double>(ctx.distinct_probes()));
        paths.add(static_cast<double>(path->size() - 1));
      }
      table.add_row({Table::fmt(marginal, 2), node_model ? "node(+edge)" : "edge-only",
                     Table::fmt(probes.mean(), 0), Table::fmt(probes.median(), 0),
                     Table::fmt(paths.mean(), 1),
                     Table::fmt(static_cast<double>(connected) / attempts, 2)});
    }
  }
  table.print(
      "A2: node-fault vs edge-fault percolation at matched marginal edge survival "
      "(mesh, landmark router) — node faults correlate incident edges");
  if (const auto path = options.csv_path("a2_fault_models")) table.write_csv(*path);
}

void batch_routing_ablation(const sim::Options& options) {
  const Mesh mesh(2, options.quick ? 32 : 48);
  const std::vector<double> ps = {0.60, 0.75, 0.95};
  const std::vector<std::uint64_t> loads = {16, 64, 256};

  Table table({"p", "pairs", "routed", "mean_probes", "mean_path", "max_edge_load",
               "mean_edge_load"});
  for (const double p : ps) {
    for (const std::uint64_t pairs : loads) {
      const HashEdgeSampler sampler(p, derive_seed(options.seed,
                                                   static_cast<std::uint64_t>(p * 100)));
      WorkloadConfig workload;
      workload.kind = WorkloadKind::kRandomPairs;
      workload.messages = pairs;
      workload.seed = derive_seed(options.seed, pairs);
      const TrafficResult result = run_traffic(
          mesh, sampler, [] { return std::make_unique<LandmarkRouter>(); },
          generate_workload(mesh, workload), TrafficConfig{});
      table.add_row({Table::fmt(p, 2), Table::fmt(result.messages),
                     Table::fmt(result.routed),
                     Table::fmt(static_cast<double>(result.total_distinct_probes) /
                                    static_cast<double>(result.messages),
                                0),
                     Table::fmt(result.mean_path_edges, 1),
                     Table::fmt(result.max_edge_load),
                     Table::fmt(result.mean_edge_load, 2)});
    }
  }
  table.print(
      "A3: batch routing of random pairs on the supercritical mesh — congestion "
      "(max edge load) vs offered load and p; the 'full blown routing scheme' view "
      "of Section 1.1. Disconnected pairs count as failed routing (pairs - routed) "
      "and their probes enter mean_probes");
  if (const auto path = options.csv_path("a3_batch_routing")) table.write_csv(*path);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto options = faultroute::sim::parse_options(argc, argv);
    greedy_first_ablation(options);
    fault_model_ablation(options);
    batch_routing_ablation(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_ablations: %s\n", e.what());
    return 1;
  }
  return 0;
}
