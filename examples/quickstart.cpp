// Quickstart: percolate a hypercube, route across it, and inspect the cost.
//
//   $ ./quickstart [seed]
//
// Walks through the library's core objects in ~5 steps:
//   1. build a topology (implicit — nothing is materialised),
//   2. percolate it lazily with a HashEdgeSampler,
//   3. sanity-check the environment (giant component, connectivity),
//   4. route with a local router under locality enforcement,
//   5. read off the routing complexity (Definition 2 of the paper).

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "core/probe_context.hpp"
#include "core/routers/landmark_router.hpp"
#include "graph/hypercube.hpp"
#include "percolation/cluster_analysis.hpp"
#include "percolation/edge_sampler.hpp"

int main(int argc, char** argv) {
  using namespace faultroute;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2005;

  // 1. The 12-dimensional hypercube: 4096 vertices, degree 12.
  const Hypercube cube(12);
  std::cout << "topology: " << cube.name() << " (" << cube.num_vertices()
            << " vertices, " << cube.num_edges() << " edges)\n";

  // 2. Each edge survives with probability p, independently. The sampler is
  //    lazy and deterministic: the random world is defined by (p, seed) and
  //    evaluated only where someone looks.
  const double p = 0.35;  // ~ n^{-0.42}: below this graph's routing trouble zone
  const HashEdgeSampler environment(p, seed);

  // 3. Percolation sanity check: a giant component should exist (p >> 1/n).
  const ComponentSummary components = analyze_components(cube, environment);
  std::cout << "largest open cluster: " << components.largest << " vertices ("
            << 100.0 * components.largest_fraction() << "% of the graph)\n";

  const VertexId u = 0;
  const VertexId v = cube.num_vertices() - 1;  // the antipode, distance 12
  if (!*open_connected(cube, environment, u, v)) {
    std::cout << "u and v are not connected in this environment; "
                 "try another seed\n";
    return 0;
  }

  // 4. Route u -> v with the paper's landmark/BFS local router. The
  //    ProbeContext enforces Definition 1 (locality) and counts probes.
  LandmarkRouter router;
  ProbeArena arena(cube);
  ProbeContext ctx(arena, environment, u, RoutingMode::kLocal);
  const auto path = router.route(ctx, u, v);
  if (!path) {
    std::cout << "routing failed unexpectedly\n";
    return 1;
  }

  // 5. The routing complexity: distinct edges probed.
  std::cout << "routed " << cube.vertex_label(u) << " -> " << cube.vertex_label(v)
            << " in " << (path->size() - 1) << " hops (fault-free distance "
            << cube.distance(u, v) << ")\n"
            << "routing complexity: " << ctx.distinct_probes()
            << " distinct probes (" << ctx.total_probes() << " total)\n"
            << "path:";
  for (const VertexId x : *path) std::cout << ' ' << x;
  std::cout << '\n';
  return 0;
}
