// Batch routing: many pairs routed through one percolation environment by
// run_traffic, the "full blown routing scheme" Section 1.1 of the paper sets
// apart from the single-pair complexity of Definition 2. These tests pin
// which routers may fail a message: a complete router fails exactly the
// pairs the environment disconnects, an incomplete one may fail more.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "percolation/cluster_analysis.hpp"
#include "percolation/edge_sampler.hpp"
#include "sim/registry.hpp"
#include "traffic/traffic_engine.hpp"
#include "traffic/workload.hpp"

namespace faultroute {
namespace {

TrafficResult route_random_pairs(const Topology& graph, const EdgeSampler& env,
                                 const std::string& router, std::uint64_t messages) {
  WorkloadConfig workload;
  workload.kind = WorkloadKind::kRandomPairs;
  workload.messages = messages;
  workload.seed = 7;
  const auto factory = [&]() { return sim::make_router(router, graph); };
  return run_traffic(graph, env, factory, generate_workload(graph, workload), TrafficConfig{});
}

TEST(BatchRouting, CompleteRoutersFailOnlyOnDisconnectedPairs) {
  // Greedy is documented as incomplete and is left out; every other
  // topology-agnostic router claims completeness in its header.
  const auto mesh = sim::make_topology("mesh:2:8");
  for (const double p : {0.45, 1.0}) {
    const HashEdgeSampler env(p, 3);
    std::uint64_t disconnected = 0;
    for (const std::string router :
         {"flood", "landmark", "best-first", "hybrid", "bidirectional"}) {
      const std::string label = router + " p=" + std::to_string(p);
      const TrafficResult r = route_random_pairs(*mesh, env, router, 40);
      ASSERT_EQ(r.outcomes.size(), 40u) << label;
      EXPECT_EQ(r.censored, 0u) << label;
      EXPECT_EQ(r.invalid_paths, 0u) << label;
      disconnected = 0;
      for (const MessageOutcome& out : r.outcomes) {
        const std::optional<bool> connected =
            open_connected(*mesh, env, out.message.source, out.message.target);
        ASSERT_TRUE(connected.has_value()) << label;
        EXPECT_EQ(out.routed, *connected)
            << label << " " << out.message.source << " -> " << out.message.target;
        if (!*connected) ++disconnected;
      }
      EXPECT_EQ(r.failed_routing, disconnected) << label;
      if (p == 1.0) {
        EXPECT_EQ(r.failed_routing, 0u) << label;
      }
    }
    // p = 0.45 is subcritical on the square lattice: some pairs must be cut
    // off, or the check above would not exercise the failure side at all.
    if (p < 1.0) {
      EXPECT_GT(disconnected, 0u);
    }
  }
}

TEST(BatchRouting, IncompleteGreedyFailuresAreCounted) {
  // Pure greedy descent dies near the target at p ~ 1/2 even when the pair
  // is connected; every failure is still accounted for exactly once.
  const auto cube = sim::make_topology("hypercube:7");
  const HashEdgeSampler env(0.5, 7);
  const TrafficResult r = route_random_pairs(*cube, env, "greedy", 100);
  EXPECT_EQ(r.routed + r.failed_routing + r.censored + r.invalid_paths, r.messages);
  EXPECT_GT(r.failed_routing, 0u);
  std::uint64_t connected_failures = 0;
  for (const MessageOutcome& out : r.outcomes) {
    if (!out.routed && *open_connected(*cube, env, out.message.source, out.message.target)) {
      ++connected_failures;
    }
  }
  EXPECT_GT(connected_failures, 0u);
}

}  // namespace
}  // namespace faultroute
