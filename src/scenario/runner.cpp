#include "scenario/runner.hpp"

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "graph/channel_index.hpp"
#include "graph/snapshot.hpp"
#include "obs/run_metrics.hpp"
#include "scenario/checkpoint.hpp"
#include "percolation/edge_sampler.hpp"
#include "random/rng.hpp"
#include "sim/registry.hpp"
#include "traffic/traffic_engine.hpp"
#include "traffic/workload.hpp"

namespace faultroute::scenario {

namespace {

/// Decoded coordinates of a flat cell index (row-major, trial fastest).
struct CellCoords {
  std::size_t topology, p, router, workload;
  std::uint64_t trial;
};

CellCoords decode_cell(const ScenarioSpec& spec, std::uint64_t index) {
  CellCoords c{};
  c.trial = index % spec.trials;
  index /= spec.trials;
  c.workload = static_cast<std::size_t>(index % spec.workloads.size());
  index /= spec.workloads.size();
  c.router = static_cast<std::size_t>(index % spec.routers.size());
  index /= spec.routers.size();
  c.p = static_cast<std::size_t>(index % spec.p_values.size());
  index /= spec.p_values.size();
  c.topology = static_cast<std::size_t>(index);
  return c;
}

}  // namespace

RunSummary run_scenario(const ScenarioSpec& spec, Reporter& reporter) {
  return run_scenario(spec, reporter, RunOptions{});
}

RunSummary run_scenario(const ScenarioSpec& spec, Reporter& reporter,
                        const RunOptions& options) {
  validate_scenario(spec);
  if (options.shard_index == 0 || options.shard_count == 0 ||
      options.shard_index > options.shard_count) {
    // analyze:allow-throw-safety(option validation precedes the trial loops)
    throw std::invalid_argument("scenario shard: need 1 <= k <= n, got " +
                                std::to_string(options.shard_index) + "/" +
                                std::to_string(options.shard_count));
  }
  obs::PhaseProfiler* profiler =
      options.metrics != nullptr ? &options.metrics->profiler() : nullptr;
  const obs::PhaseProfiler::Scope scenario_scope(profiler, "scenario");

  // Fail-fast construction of every registry spec before any cell runs.
  std::vector<std::unique_ptr<Topology>> topologies;
  topologies.reserve(spec.topologies.size());
  for (const auto& topo_spec : spec.topologies) {
    topologies.push_back(sim::make_topology(topo_spec));
    // Every cell delivers over the topology's ChannelIndex; refuse one too
    // large for it now, before any cell draws a vertex-sized workload.
    ChannelIndex::check_capacity(*topologies.back());
  }
  for (const auto& topology : topologies) {
    for (const auto& router : spec.routers) (void)sim::make_router(router, *topology);
  }
  std::vector<WorkloadConfig> workloads;
  workloads.reserve(spec.workloads.size());
  for (const auto& workload_spec : spec.workloads) {
    workloads.push_back(sim::make_workload(workload_spec));
  }
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    if (workloads[w].kind != WorkloadKind::kHotspot) continue;
    for (std::size_t t = 0; t < topologies.size(); ++t) {
      if (workloads[w].hotspot_target >= topologies[t]->num_vertices()) {
        // analyze:allow-throw-safety(scenario validation precedes the trial loops)
        throw std::invalid_argument("workload '" + spec.workloads[w] + "': hotspot target " +
                                    std::to_string(workloads[w].hotspot_target) +
                                    " out of range for topology '" + spec.topologies[t] +
                                    "' (" + std::to_string(topologies[t]->num_vertices()) +
                                    " vertices)");
      }
    }
  }

  // Snapshot adjacencies are opened once per topology, before the parallel
  // loop, and shared read-only by every cell of that topology (absent
  // snapshots leave the per-cell resolve_adjacency fallback in charge). A
  // topology that routes on its closed form takes no CSR, so its snapshot
  // is not opened.
  std::vector<std::unique_ptr<FlatAdjacency>> snapshots(topologies.size());
  if (!spec.snapshot_dir.empty()) {
    for (std::size_t t = 0; t < topologies.size(); ++t) {
      if (routes_on_closed_form(*topologies[t])) continue;
      snapshots[t] =
          open_snapshot_adjacency(spec.snapshot_dir, spec.topologies[t], *topologies[t]);
    }
  }

  const std::uint64_t cells = spec.num_cells();
  std::vector<CellResult> results(cells);

  // This process owns the cells of its shard (all of them by default).
  const auto owned = [&options](std::uint64_t index) {
    return index % options.shard_count == options.shard_index - 1;
  };

  // Resume: replay journaled cells into `results` verbatim and only run the
  // rest. Cells journaled for other shards are ignored, not replayed.
  std::optional<CheckpointJournal> journal;
  std::vector<char> cell_done(cells, 0);
  std::uint64_t resumed = 0;
  if (!options.checkpoint_path.empty()) {
    journal.emplace(options.checkpoint_path, spec);
    for (std::uint64_t i = 0; i < cells; ++i) {
      const auto& prior = journal->completed()[i];
      if (!prior.has_value() || !owned(i)) continue;
      results[i] = *prior;
      cell_done[i] = 1;
      ++resumed;
    }
  }
  std::vector<std::uint64_t> pending;
  for (std::uint64_t i = 0; i < cells; ++i) {
    if (owned(i) && cell_done[i] == 0) pending.push_back(i);
  }
  if (options.metrics != nullptr && resumed > 0) {
    obs::CounterRegistry& counters = options.metrics->counters();
    counters.add(counters.id("scenario.checkpoint.cells_resumed"), resumed);
  }

  parallel_index_loop(pending.size(), spec.threads, [&]() {
    return [&](std::size_t slot) {
      const std::uint64_t index = pending[slot];
      // One span per cell on the worker's own track; the engine's phase
      // scopes nest inside it ("cell-7/routing/...").
      const obs::PhaseProfiler::Scope cell_scope(profiler,
                                                 "cell-" + std::to_string(index));
      const auto coords = decode_cell(spec, index);
      const Topology& topology = *topologies[coords.topology];

      // The cell field table (reporter.hpp) names the sources: KEY fields
      // from spec/index/coords/topology now, METRIC fields from `traffic`.
#define FAULTROUTE_CELL_SET(type, name, source) cell.name = source;
      CellResult& cell = results[index];
      FAULTROUTE_CELL_KEYS(FAULTROUTE_CELL_SET)

      WorkloadConfig workload = workloads[coords.workload];
      workload.messages = spec.messages;
      workload.seed = cell.workload_seed;
      const auto messages = generate_workload(topology, workload);

      TrafficConfig config;
      config.edge_capacity = spec.edge_capacity;
      if (spec.probe_budget > 0) config.probe_budget = spec.probe_budget;
      config.max_steps = spec.max_steps;
      // Parallelism is across cells; a lone pending cell (a one-cell spec,
      // or a resumed or sharded run with one cell left to compute) routes
      // on the spec's threads instead.
      config.threads = pending.size() == 1 ? spec.threads : 1;
      config.flat_snapshot = snapshots[coords.topology].get();
      config.metrics = options.metrics;  // counters merge across cells; the
                                         // registry shards per worker thread
      const HashEdgeSampler environment(cell.p, cell.env_seed);
      const auto factory = [&]() { return sim::make_router(cell.router, topology); };
      const TrafficResult traffic =
          run_traffic(topology, environment, factory, messages, config);
      FAULTROUTE_CELL_METRICS(FAULTROUTE_CELL_SET)
#undef FAULTROUTE_CELL_SET
      if (options.metrics != nullptr) {
        obs::CounterRegistry& counters = options.metrics->counters();
        counters.add(counters.id("scenario.cells"), 1);
      }
      if (journal.has_value()) journal->record(cell);
    };
  });

  // Owned cells only, ascending: a shard's report is the exact subsequence
  // of the single-process report, which is what makes merge a pure stitch.
  RunSummary summary;
  reporter.begin(spec);
  for (std::uint64_t i = 0; i < cells; ++i) {
    if (!owned(i)) continue;
    ++summary.cells;
    summary.messages += results[i].messages;
    summary.delivered += results[i].delivered;
    reporter.report(results[i]);
  }
  reporter.end();
  return summary;
}

}  // namespace faultroute::scenario
