// Phase diagram: an ASCII rendering of the paper's central picture.
//
// For the hypercube H_{n,p} we sweep p downwards from 1 and classify each
// (n, p) cell by the measured cost of local landmark routing between
// antipodes, normalised by the poly(n) budget n^3:
//
//   '.' cheap    (probes <  n^3)            — routable regime
//   'o' pricey   (probes in [n^3, 2^n))     — degrading
//   '#' explosive(probes >= 2^n ~ graph)    — routing lost
//   ' ' disconnected (u !~ v in most environments)
//
// The paper predicts the '#' band to open up between the connectivity
// threshold p ~ 1/n and the routing threshold p ~ n^{-1/2} as n grows.
//
//   $ ./phase_diagram [trials_per_cell]

#include <cmath>
#include <cstdlib>
#include <iostream>

#include "analysis/stats.hpp"
#include "core/probe_context.hpp"
#include "core/routers/landmark_router.hpp"
#include "graph/hypercube.hpp"
#include "percolation/cluster_analysis.hpp"
#include "percolation/edge_sampler.hpp"
#include "random/rng.hpp"

int main(int argc, char** argv) {
  using namespace faultroute;
  const int trials = argc > 1 ? std::atoi(argv[1]) : 6;

  const std::vector<int> dims = {8, 10, 12, 14};
  std::vector<double> ps;
  for (double p = 0.55; p >= 0.049; p -= 0.025) ps.push_back(p);

  std::cout << "Hypercube routing phase diagram (landmark router, antipodal pairs)\n"
            << "legend: '.' < n^3 probes   'o' < 2^n   '#' >= 2^n-ish   ' ' disconnected\n\n";
  std::cout << "   p:";
  for (std::size_t j = 0; j < ps.size(); ++j) std::cout << (j % 4 == 0 ? '|' : ' ');
  std::cout << "   (p from " << ps.front() << " down to " << ps.back() << ")\n";

  for (const int n : dims) {
    const Hypercube cube(n);
    const VertexId u = 0;
    const VertexId v = cube.num_vertices() - 1;
    ProbeArena arena(cube);  // reused by every trial on this cube
    std::cout << "n=" << n << (n < 10 ? " " : "") << ' ';
    for (const double p : ps) {
      int connected = 0;
      Summary probes;
      for (int t = 0; t < trials; ++t) {
        const std::uint64_t seed = derive_seed(
            1234, static_cast<std::uint64_t>(n) * 100000 +
                      static_cast<std::uint64_t>(p * 10000) * 10 +
                      static_cast<std::uint64_t>(t));
        const HashEdgeSampler env(p, seed);
        if (!*open_connected(cube, env, u, v)) continue;
        ++connected;
        LandmarkRouter router;
        ProbeContext ctx(arena, env, u, RoutingMode::kLocal);
        if (router.route(ctx, u, v)) probes.add(static_cast<double>(ctx.distinct_probes()));
      }
      char cell = ' ';
      if (connected * 2 >= trials && probes.count() > 0) {
        const double median = probes.median();
        const double poly = std::pow(n, 3.0);
        const double graph_scale = 0.5 * static_cast<double>(cube.num_edges());
        cell = median < poly ? '.' : (median < graph_scale ? 'o' : '#');
      }
      std::cout << cell;
    }
    const double routing_threshold = 1.0 / std::sqrt(static_cast<double>(n));
    const double giant_threshold = 1.0 / static_cast<double>(n);
    std::cout << "   n^-1/2=" << routing_threshold << "  1/n=" << giant_threshold << '\n';
  }
  std::cout << "\nReading: the 'o'/'#' band between p ~ n^{-1/2} and p ~ 1/n widens\n"
               "with n — Theorem 3's separation of the routing threshold from the\n"
               "connectivity threshold.\n";
  return 0;
}
