// The completeness matrix: every complete local/oracle router, on every
// compatible topology, under edge percolation, must (a) find a path exactly when ground truth says one exists, (b) return
// only valid open paths, (c) never violate locality when run enforced.
// This is the library's strongest property suite — it exercises every
// topology's adjacency/key/endpoint code and every router's search logic
// against the same oracle (BFS ground truth).

#include <gtest/gtest.h>

#include <memory>

#include "core/probe_context.hpp"
#include "core/routers/bidirectional_router.hpp"
#include "core/routers/flood_router.hpp"
#include "core/routers/greedy_router.hpp"
#include "core/routers/hybrid_router.hpp"
#include "core/routers/landmark_router.hpp"
#include "graph/butterfly.hpp"
#include "graph/complete.hpp"
#include "graph/cube_connected_cycles.hpp"
#include "graph/cycle_matching.hpp"
#include "graph/de_bruijn.hpp"
#include "graph/double_tree.hpp"
#include "graph/hypercube.hpp"
#include "graph/mesh.hpp"
#include "graph/shuffle_exchange.hpp"
#include "percolation/cluster_analysis.hpp"
#include "percolation/edge_sampler.hpp"

namespace faultroute {
namespace {

struct MatrixCase {
  std::string topology_label;
  std::shared_ptr<Topology> topology;
  std::string router_label;
  std::shared_ptr<Router> router;
  double edge_p;   // per-topology: must sit above the family's threshold
  VertexId u;
  VertexId v;
};

std::vector<MatrixCase> build_matrix() {
  struct TopologyCase {
    std::string label;
    std::shared_ptr<Topology> topology;
    double edge_p;
    VertexId u;
    VertexId v;
  };
  const auto tree = std::make_shared<DoubleBinaryTree>(5);
  // Endpoint pairs are far apart; p sits above each family's threshold so a
  // reasonable fraction of environments connect them (the double tree's
  // threshold is 1/sqrt 2, hence the higher p and the root pair).
  const std::vector<TopologyCase> topologies = {
      {"hypercube7", std::make_shared<Hypercube>(7), 0.65, 0, 127},
      {"mesh2x9", std::make_shared<Mesh>(2, 9), 0.65, 0, 80},
      {"torus2x7", std::make_shared<Mesh>(2, 7, true), 0.65, 0, 24},
      {"mesh3x4", std::make_shared<Mesh>(3, 4), 0.65, 0, 63},
      {"double_tree5", tree, 0.85, tree->root1(), tree->root2()},
      {"complete40", std::make_shared<CompleteGraph>(40), 0.2, 0, 39},
      {"de_bruijn7", std::make_shared<DeBruijn>(7), 0.65, 0, 90},
      {"shuffle_exchange7", std::make_shared<ShuffleExchange>(7), 0.75, 0, 90},
      {"butterfly4", std::make_shared<Butterfly>(4), 0.65, 0, 60},
      {"ccc4", std::make_shared<CubeConnectedCycles>(4), 0.75, 0, 60},
      {"cycle_matching64", std::make_shared<CycleWithMatching>(64, 5), 0.75, 0, 33},
  };
  const std::vector<std::pair<std::string, std::shared_ptr<Router>>> routers = {
      {"flood", std::make_shared<FloodRouter>()},
      {"landmark", std::make_shared<LandmarkRouter>()},
      {"best_first", std::make_shared<BestFirstRouter>()},
      {"hybrid", std::make_shared<HybridGreedyRouter>()},
      {"bidirectional", std::make_shared<BidirectionalBfsRouter>()},
  };
  std::vector<MatrixCase> cases;
  for (const auto& t : topologies) {
    for (const auto& [rl, router] : routers) {
      cases.push_back({t.label, t.topology, rl, router, t.edge_p, t.u, t.v});
    }
  }
  return cases;
}

class RouterMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(RouterMatrixTest, CompletenessValidityAndLocality) {
  const MatrixCase& c = GetParam();
  const Topology& g = *c.topology;
  Router& router = *c.router;
  const VertexId u = c.u;
  const VertexId v = c.v;
  int connected_seen = 0;
  int disconnected_seen = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const HashEdgeSampler sampler(c.edge_p, seed);
    const bool connected = *open_connected(g, sampler, u, v);
    (connected ? connected_seen : disconnected_seen)++;
    ProbeArena arena(g);
    ProbeContext ctx(arena, sampler, u, router.required_mode());
    std::optional<Path> path;
    ASSERT_NO_THROW(path = router.route(ctx, u, v))
        << c.topology_label << "/" << c.router_label << " seed " << seed;
    ASSERT_EQ(path.has_value(), connected)
        << c.topology_label << "/" << c.router_label << " seed " << seed;
    if (path) {
      EXPECT_TRUE(is_valid_open_path(g, sampler, *path, u, v))
          << c.topology_label << "/" << c.router_label << " seed " << seed;
      EXPECT_GE(ctx.distinct_probes(), path->size() - 1);
    }
  }
  // The sweep must exercise at least one connected environment to be
  // meaningful (p = 0.65 on these small graphs virtually guarantees it).
  EXPECT_GT(connected_seen, 0) << c.topology_label << " never connected";
}

INSTANTIATE_TEST_SUITE_P(AllCombinations, RouterMatrixTest,
                         ::testing::ValuesIn(build_matrix()),
                         [](const ::testing::TestParamInfo<MatrixCase>& param_info) {
                           return param_info.param.topology_label + "_" +
                                  param_info.param.router_label + "_edgefaults";
                         });

}  // namespace
}  // namespace faultroute
