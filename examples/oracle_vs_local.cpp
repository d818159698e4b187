// Oracle vs local routing — Section 5 of the paper, live.
//
// Two demonstrations of the exponential / polynomial gap between routers
// that may probe anywhere (oracle) and routers restricted to edges they have
// already reached (local):
//
//   1. Double binary tree TT_n: the local DFS router pays ~ p^{-n} probes
//      (Theorem 7), the paired-edge oracle router pays ~ c * n (Theorem 9).
//   2. G_{n,p} with p = 3/n: local flooding pays ~ n^2, the bidirectional
//      oracle router pays ~ n^{3/2} (Theorems 10, 11).
//
//   $ ./oracle_vs_local

#include <cstdio>
#include <iostream>

#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "core/probe_context.hpp"
#include "core/routers/double_tree_routers.hpp"
#include "core/routers/gnp_routers.hpp"
#include "graph/complete.hpp"
#include "graph/double_tree.hpp"
#include "percolation/cluster_analysis.hpp"
#include "percolation/edge_sampler.hpp"
#include "random/rng.hpp"

namespace {

using namespace faultroute;

void double_tree_demo() {
  const double p = 0.78;  // above the 1/sqrt(2) connectivity threshold
  Table table({"depth n", "local_probes(median)", "oracle_probes(median)", "gap"});
  for (const int n : {6, 9, 12, 15}) {
    const DoubleBinaryTree tree(n);
    DoubleTreeLocalRouter local(tree);
    DoubleTreePairedOracleRouter oracle(tree);
    Summary local_probes;
    Summary oracle_probes;
    // One probe arena per router, reused by every trial.
    ProbeArena local_arena(tree);
    ProbeArena oracle_arena(tree);
    int accepted = 0;
    for (std::uint64_t t = 0; accepted < 25 && t < 2000; ++t) {
      const HashEdgeSampler env(p, derive_seed(99, static_cast<std::uint64_t>(n) * 10000 + t));
      if (!*open_connected(tree, env, tree.root1(), tree.root2())) continue;
      ++accepted;
      ProbeContext lctx(local_arena, env, tree.root1(), RoutingMode::kLocal);
      local.route(lctx, tree.root1(), tree.root2());
      local_probes.add(static_cast<double>(lctx.distinct_probes()));
      ProbeContext octx(oracle_arena, env, tree.root1(), RoutingMode::kOracle);
      if (oracle.route(octx, tree.root1(), tree.root2())) {
        oracle_probes.add(static_cast<double>(octx.distinct_probes()));
      }
    }
    table.add_row({Table::fmt(n), Table::fmt(local_probes.median(), 0),
                   Table::fmt(oracle_probes.median(), 0),
                   Table::fmt(local_probes.median() / oracle_probes.median(), 1)});
  }
  table.print("double tree TT_n at p = 0.78: local explodes, oracle stays linear");
}

void gnp_demo() {
  Table table({"n", "local_probes", "oracle_probes", "gap", "sqrt(n)"});
  for (const std::uint64_t n : {500ULL, 1000ULL, 2000ULL}) {
    const CompleteGraph g(n);
    const double p = 3.0 / static_cast<double>(n);
    GnpLocalRouter local;
    GnpOracleRouter oracle;
    Summary local_probes;
    Summary oracle_probes;
    ProbeArena local_arena(g);
    ProbeArena oracle_arena(g);
    int accepted = 0;
    for (std::uint64_t t = 0; accepted < 10 && t < 200; ++t) {
      const HashEdgeSampler env(p, derive_seed(7, n * 1000 + t));
      if (!*open_connected(g, env, 0, n - 1)) continue;
      ++accepted;
      ProbeContext lctx(local_arena, env, 0, RoutingMode::kLocal);
      local.route(lctx, 0, n - 1);
      local_probes.add(static_cast<double>(lctx.distinct_probes()));
      ProbeContext octx(oracle_arena, env, 0, RoutingMode::kOracle);
      oracle.route(octx, 0, n - 1);
      oracle_probes.add(static_cast<double>(octx.distinct_probes()));
    }
    table.add_row({Table::fmt(n), Table::fmt(local_probes.mean(), 0),
                   Table::fmt(oracle_probes.mean(), 0),
                   Table::fmt(local_probes.mean() / oracle_probes.mean(), 1),
                   Table::fmt(std::sqrt(static_cast<double>(n)), 1)});
  }
  table.print("G_{n,3/n}: the oracle advantage grows like sqrt(n)");
}

}  // namespace

int main() {
  std::cout << "Oracle routing may probe any edge; local routing only edges it "
               "has reached (paper, Definition 1 / Section 5).\n";
  double_tree_demo();
  gnp_demo();
  std::cout << "\nBoth gaps are the paper's Section 5 headline: locality can cost "
               "an exponential (TT_n) or polynomial sqrt(n) (G_{n,p}) factor.\n";
  return 0;
}
