// Sensor-grid scenario — Theorem 4 in the field.
//
// A 2D grid of sensors (say, a warehouse floor) where each radio link works
// only with probability p. A gateway at one corner region must reach a
// sensor far away. Theorem 4 promises: as long as p is above the percolation
// threshold 1/2, the landmark router finds a path with O(distance) probes —
// the constant degrades near the threshold but linearity never breaks.
//
//   $ ./sensor_grid [p] [distance]

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "core/experiment.hpp"
#include "core/routers/landmark_router.hpp"
#include "graph/mesh.hpp"
#include "percolation/cluster_analysis.hpp"
#include "percolation/edge_sampler.hpp"

int main(int argc, char** argv) {
  using namespace faultroute;
  const double p = argc > 1 ? std::atof(argv[1]) : 0.6;
  const std::int64_t distance = argc > 2 ? std::atoll(argv[2]) : 80;

  if (p <= 0.5) {
    std::cout << "warning: p = " << p
              << " is at or below the 2D percolation threshold 0.5 — "
                 "long-range connectivity will not exist\n";
  }

  const std::int64_t margin = 30;
  const Mesh grid(2, distance + 2 * margin);
  const VertexId gateway = grid.vertex_at({margin, margin});
  const VertexId sensor = grid.vertex_at({margin + distance, margin});
  std::cout << "sensor grid " << grid.name() << ", link reliability p = " << p
            << "\ngateway at " << grid.vertex_label(gateway) << ", target sensor at "
            << grid.vertex_label(sensor) << " (distance " << distance << ")\n\n";

  // One concrete environment, end to end.
  const HashEdgeSampler env(p, /*seed=*/7);
  const auto components = analyze_components(grid, env);
  std::cout << "giant component covers " << 100.0 * components.largest_fraction()
            << "% of the sensors\n";
  if (*open_connected(grid, env, gateway, sensor)) {
    LandmarkRouter router;
    ProbeArena arena(grid);
    ProbeContext ctx(arena, env, gateway, RoutingMode::kLocal);
    const auto path = router.route(ctx, gateway, sensor);
    std::cout << "routed in " << (path->size() - 1) << " hops using "
              << ctx.distinct_probes() << " link probes ("
              << static_cast<double>(ctx.distinct_probes()) /
                     static_cast<double>(distance)
              << " probes per unit distance)\n\n";
  } else {
    std::cout << "gateway and sensor disconnected at this seed\n\n";
  }

  // The Theorem 4 shape: probes grow linearly with distance.
  Table table({"distance", "mean_probes", "probes_per_unit", "mean_hops"});
  LandmarkRouter router;
  for (const std::int64_t d : {distance / 4, distance / 2, distance}) {
    const VertexId far_sensor = grid.vertex_at({margin + d, margin});
    ExperimentConfig config;
    config.trials = 15;
    config.base_seed = static_cast<std::uint64_t>(d) * 7919;
    const ExperimentSummary s =
        measure_routing(grid, p, router, gateway, far_sensor, config);
    table.add_row({Table::fmt(static_cast<std::uint64_t>(d)),
                   Table::fmt(s.mean_distinct, 0),
                   Table::fmt(s.mean_distinct / static_cast<double>(d), 1),
                   Table::fmt(s.mean_path_edges, 1)});
  }
  table.print("probes vs distance (Theorem 4: linear, for every p > 1/2)");
  return 0;
}
