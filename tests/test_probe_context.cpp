#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/path.hpp"
#include "core/probe_context.hpp"
#include "graph/channel_index.hpp"
#include "graph/complete.hpp"
#include "graph/de_bruijn.hpp"
#include "graph/flat_adjacency.hpp"
#include "graph/hypercube.hpp"
#include "graph/mesh.hpp"
#include "helpers/probe_arena_test_peer.hpp"
#include "percolation/edge_sampler.hpp"
#include "percolation/shared_probe_cache.hpp"
#include "random/rng.hpp"

namespace faultroute {
namespace {

// ------------------------------------------------------------- ProbeContext

TEST(ProbeContext, CountsDistinctAndTotalSeparately) {
  const Hypercube g(4);
  const HashEdgeSampler s(1.0, 1);
  ProbeArena arena(g);
  ProbeContext ctx(arena, s, 0, RoutingMode::kLocal);
  EXPECT_EQ(ctx.distinct_probes(), 0u);
  ctx.probe(0, 0);
  ctx.probe(0, 0);
  ctx.probe(0, 1);
  EXPECT_EQ(ctx.distinct_probes(), 2u);
  EXPECT_EQ(ctx.total_probes(), 3u);
}

TEST(ProbeContext, MemoisesAnswers) {
  const Hypercube g(5);
  const HashEdgeSampler s(0.5, 42);
  ProbeArena arena(g);
  ProbeContext ctx(arena, s, 0, RoutingMode::kOracle);
  for (int i = 0; i < 5; ++i) {
    const bool first = ctx.probe(0, i);
    EXPECT_EQ(ctx.probe(0, i), first);
    EXPECT_EQ(first, s.is_open(g.edge_key(0, i)));
  }
}

TEST(ProbeContext, ProbeAgreesAcrossEndpoints) {
  // Probing the same physical edge from either endpoint is one distinct edge.
  const Hypercube g(4);
  const HashEdgeSampler s(1.0, 9);
  ProbeArena arena(g);
  ProbeContext ctx(arena, s, 0, RoutingMode::kOracle);
  ctx.probe(0, 0);               // edge 0 - 1
  ctx.probe(1, 0);               // same edge from the other side
  EXPECT_EQ(ctx.distinct_probes(), 1u);
}

TEST(ProbeContext, LocalModeTracksReachedSet) {
  const Hypercube g(3);
  ExplicitEdgeSampler s(false);
  s.set(g.edge_key(0, 0), true);  // 0 - 1 open
  ProbeArena arena(g);
  ProbeContext ctx(arena, s, 0, RoutingMode::kLocal);
  EXPECT_TRUE(ctx.is_reached(0));
  EXPECT_FALSE(ctx.is_reached(1));
  EXPECT_TRUE(ctx.probe(0, 0));
  EXPECT_TRUE(ctx.is_reached(1));
  EXPECT_FALSE(ctx.probe(0, 1));   // closed edge
  EXPECT_FALSE(ctx.is_reached(2));
}

TEST(ProbeContext, LocalModeRejectsNonIncidentProbes) {
  const Hypercube g(4);
  const HashEdgeSampler s(1.0, 1);
  ProbeArena arena(g);
  ProbeContext ctx(arena, s, 0, RoutingMode::kLocal);
  // Vertex 12 is far from the source 0 with nothing probed yet.
  EXPECT_THROW(ctx.probe(12, 0), LocalityViolation);
  // Edges at the source are fine, and extend the reach.
  EXPECT_TRUE(ctx.probe(0, 2));  // reaches 4
  EXPECT_NO_THROW(ctx.probe(4, 0));
}

TEST(ProbeContext, LocalProbeFromFarEndpointTowardsReachedIsAllowed) {
  // Definition 1 allows probing any edge with an endpoint on the reached
  // set, regardless of which endpoint names the edge.
  const Hypercube g(3);
  const HashEdgeSampler s(1.0, 1);
  ProbeArena arena(g);
  ProbeContext ctx(arena, s, 0, RoutingMode::kLocal);
  // Edge 1-0 probed from vertex 1 (unreached) is incident to reached 0.
  EXPECT_NO_THROW(ctx.probe(1, 0));
  EXPECT_TRUE(ctx.is_reached(1));
}

TEST(ProbeContext, ClosedProbesDoNotExtendReach) {
  const Hypercube g(3);
  ExplicitEdgeSampler s(false);
  ProbeArena arena(g);
  ProbeContext ctx(arena, s, 0, RoutingMode::kLocal);
  EXPECT_FALSE(ctx.probe(0, 0));
  EXPECT_FALSE(ctx.is_reached(1));
  EXPECT_THROW(ctx.probe(1, 1), LocalityViolation);  // 1 is still unreached
}

TEST(ProbeContext, OracleModeAllowsAnyProbe) {
  const Hypercube g(4);
  const HashEdgeSampler s(0.5, 3);
  ProbeArena arena(g);
  ProbeContext ctx(arena, s, 0, RoutingMode::kOracle);
  EXPECT_NO_THROW(ctx.probe(9, 1));
  EXPECT_NO_THROW(ctx.probe(15, 3));
  EXPECT_TRUE(ctx.is_reached(9));  // trivially true in oracle mode
}

TEST(ProbeContext, BudgetCountsDistinctEdgesOnly) {
  const Hypercube g(4);
  const HashEdgeSampler s(1.0, 1);
  ProbeArena arena(g);
  ProbeContext ctx(arena, s, 0, RoutingMode::kOracle, /*budget=*/2);
  ctx.probe(0, 0);
  ctx.probe(0, 0);  // memoised, free
  ctx.probe(0, 1);
  EXPECT_EQ(ctx.remaining_budget(), 0u);
  EXPECT_THROW(ctx.probe(0, 2), ProbeBudgetExceeded);
  // Memoised probes still succeed after exhaustion.
  EXPECT_NO_THROW(ctx.probe(0, 0));
}

TEST(ProbeContext, ProbeBetweenFindsTheEdge) {
  const Mesh g(2, 4);
  const HashEdgeSampler s(1.0, 1);
  ProbeArena arena(g);
  ProbeContext ctx(arena, s, 0, RoutingMode::kLocal);
  EXPECT_TRUE(ctx.probe_between(0, 1));
  EXPECT_THROW(ctx.probe_between(0, 5), std::invalid_argument);  // diagonal
}

// ------------------------------------------- both arena sides, parameterised
//
// The arena's dense and sparse sides must be observably identical. Each test
// below runs once per side and once per routing mode where the mode matters;
// `make_context` builds a single-pair context over the sampler on an arena
// forced onto the side (the size test would pick dense for these graphs).

class ProbeContextBackends : public ::testing::TestWithParam<bool> {
 protected:
  std::unique_ptr<ProbeContext> make_context(const Topology& g, const EdgeSampler& s,
                                             RoutingMode mode,
                                             std::optional<std::uint64_t> budget) {
    arenas_.push_back(ProbeArenaTestPeer::make(g, /*dense=*/GetParam()));
    return std::make_unique<ProbeContext>(*arenas_.back(), s, 0, mode, budget);
  }

 private:
  std::vector<std::unique_ptr<ProbeArena>> arenas_;
};

INSTANTIATE_TEST_SUITE_P(SparseAndDense, ProbeContextBackends, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return param_info.param ? "dense" : "sparse";
                         });

TEST_P(ProbeContextBackends, BudgetZeroThrowsOnTheVeryFirstFreshProbe) {
  const Hypercube g(4);
  const HashEdgeSampler s(1.0, 1);
  for (const RoutingMode mode : {RoutingMode::kLocal, RoutingMode::kOracle}) {
    const auto ctx = make_context(g, s, mode, /*budget=*/0);
    EXPECT_EQ(ctx->remaining_budget(), 0u);
    EXPECT_THROW(ctx->probe(0, 0), ProbeBudgetExceeded);
    // The rejected probe still counted as a call, but discovered nothing.
    EXPECT_EQ(ctx->total_probes(), 1u);
    EXPECT_EQ(ctx->distinct_probes(), 0u);
  }
}

TEST_P(ProbeContextBackends, ExactlyAtBudgetSucceedsAndOneMoreThrows) {
  const Hypercube g(4);
  const HashEdgeSampler s(1.0, 1);
  for (const RoutingMode mode : {RoutingMode::kLocal, RoutingMode::kOracle}) {
    const auto ctx = make_context(g, s, mode, /*budget=*/4);
    for (int i = 0; i < 4; ++i) EXPECT_NO_THROW(ctx->probe(0, i));  // spends it all
    EXPECT_EQ(ctx->distinct_probes(), 4u);
    EXPECT_EQ(ctx->remaining_budget(), 0u);
    // Memoised re-probes stay free after exhaustion; a fresh edge throws.
    EXPECT_NO_THROW(ctx->probe(0, 3));
    EXPECT_THROW(ctx->probe(1, 1), ProbeBudgetExceeded);
    EXPECT_EQ(ctx->distinct_probes(), 4u);
  }
}

TEST_P(ProbeContextBackends, RemainingBudgetIsConsistentWithTheThrowCondition) {
  // Invariant under any probe sequence: a probe throws ProbeBudgetExceeded
  // iff it is fresh and remaining_budget() == 0, and remaining_budget() ==
  // budget - distinct_probes() throughout.
  const Hypercube g(4);
  const HashEdgeSampler s(0.7, 5);
  constexpr std::uint64_t kBudget = 6;
  const auto ctx = make_context(g, s, RoutingMode::kOracle, kBudget);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (int i = 0; i < g.degree(v); ++i) {
      const std::uint64_t before = ctx->distinct_probes();
      ASSERT_EQ(ctx->remaining_budget(), kBudget - before);
      try {
        ctx->probe(v, i);
        EXPECT_LE(ctx->distinct_probes(), kBudget);
      } catch (const ProbeBudgetExceeded&) {
        EXPECT_EQ(before, kBudget);  // threw exactly at exhaustion
        EXPECT_EQ(ctx->remaining_budget(), 0u);
        return;  // invariant held all the way to exhaustion
      }
    }
  }
  FAIL() << "budget was never exhausted; the sweep should overrun 6 edges";
}

TEST_P(ProbeContextBackends, UnboundedBudgetReportsNullopt) {
  const Hypercube g(3);
  const HashEdgeSampler s(1.0, 1);
  const auto ctx = make_context(g, s, RoutingMode::kOracle, std::nullopt);
  EXPECT_EQ(ctx->remaining_budget(), std::nullopt);
  ctx->probe(0, 0);
  EXPECT_EQ(ctx->remaining_budget(), std::nullopt);
}

// ----------------------------------------------------- dense backend proper

TEST(ProbeArena, EpochBumpIsolatesMessagesWithoutLeakingState) {
  const Hypercube g(4);
  const HashEdgeSampler s(1.0, 9);
  const SharedProbeCache cache(s, g);
  ProbeArena arena(cache);
  {
    ProbeContext first(arena, 0, RoutingMode::kLocal);
    first.probe(0, 0);
    first.probe(0, 1);
    EXPECT_EQ(first.distinct_probes(), 2u);
    EXPECT_TRUE(first.is_reached(1));
  }
  // Same arena, next message: the previous memo and reached set must be
  // invisible — the same edges count as distinct again, and vertex 1 is no
  // longer reached (only the new source is).
  ProbeContext second(arena, 2, RoutingMode::kLocal);
  EXPECT_EQ(second.distinct_probes(), 0u);
  EXPECT_FALSE(second.is_reached(1));
  EXPECT_TRUE(second.is_reached(2));
  EXPECT_THROW(second.probe(0, 0), LocalityViolation);  // 0-1 not incident to {2}
  second.probe(2, 0);
  EXPECT_EQ(second.distinct_probes(), 1u);
  // Three distinct probes reached the cache: two first touches, then the
  // second message's edge 2-3 (a first touch too).
  EXPECT_EQ(arena.tally().hits + arena.tally().misses, 3u);
  EXPECT_EQ(arena.tally().misses, 3u);
}

TEST(ProbeArena, SurvivesTopologySwitches) {
  // Scenario sweeps route each cell's batch on its own cache, so one
  // worker's arenas come and go across topologies; an arena takes its
  // sizes from its cache's topology and routes there.
  const Hypercube cube(4);
  const Mesh mesh(2, 8);
  const HashEdgeSampler s(1.0, 3);
  const SharedProbeCache cube_cache(s, cube);
  const SharedProbeCache mesh_cache(s, mesh);
  ProbeArena cube_arena(cube_cache);
  {
    ProbeContext ctx(cube_arena, 0, RoutingMode::kLocal);
    ctx.probe(0, 0);
    EXPECT_EQ(ctx.distinct_probes(), 1u);
    EXPECT_EQ(&ctx.graph(), &cube);
  }
  {
    ProbeArena mesh_arena(mesh_cache);
    ProbeContext ctx(mesh_arena, 0, RoutingMode::kLocal);
    EXPECT_EQ(&ctx.graph(), &mesh);
    EXPECT_EQ(ctx.distinct_probes(), 0u);
    EXPECT_TRUE(ctx.probe_between(0, 1));
    EXPECT_TRUE(ctx.is_reached(1));
    // The far corner of the 8x8 mesh is past every cube vertex id.
    EXPECT_FALSE(ctx.is_reached(63));
  }
  ProbeContext back(cube_arena, 1, RoutingMode::kOracle);
  back.probe(1, 0);
  EXPECT_EQ(back.distinct_probes(), 1u);
}

TEST(ProbeArena, EpochWrapAtTheStampBoundLeavesNoStaleSlotLive) {
  static_assert(ProbeArenaTestPeer::kMaxEpoch == std::numeric_limits<std::uint32_t>::max(),
                "a vertex stamp is the epoch itself, a full 32-bit word");
  const Hypercube g(4);
  const HashEdgeSampler s(1.0, 9);
  const SharedProbeCache cache(s, g);
  ProbeArena arena(cache);
  {
    // Epoch 1 stamps edge 0-1 and reaches vertex 1.
    ProbeContext ancient(arena, 0, RoutingMode::kLocal);
    EXPECT_EQ(ProbeArenaTestPeer::epoch(arena), 1u);
    EXPECT_TRUE(ancient.probe(0, 0));
    EXPECT_TRUE(ancient.is_reached(1));
  }
  // Skip ahead to the last epoch before the wrap.
  ProbeArenaTestPeer::set_epoch(arena, ProbeArenaTestPeer::kMaxEpoch - 1);
  {
    ProbeContext last(arena, 0, RoutingMode::kLocal);
    EXPECT_EQ(ProbeArenaTestPeer::epoch(arena), ProbeArenaTestPeer::kMaxEpoch);
    // The memo works at the largest epoch: a repeat is a memo hit.
    EXPECT_TRUE(last.probe(0, 1));
    EXPECT_TRUE(last.probe(0, 1));
    EXPECT_EQ(last.distinct_probes(), 1u);
    EXPECT_EQ(last.total_probes(), 2u);
    EXPECT_TRUE(last.is_reached(2));
    EXPECT_FALSE(last.is_reached(1));  // epoch 1's reach is stale
  }
  // The wrap restarts at epoch 1 — the epoch that stamped vertex 1 above.
  // Unless the wrap zero-filled the vertex stamps, it would read as live
  // now; edge 0-1's memo bit went with the message after it.
  ProbeContext wrapped(arena, 3, RoutingMode::kLocal);
  EXPECT_EQ(ProbeArenaTestPeer::epoch(arena), 1u);
  EXPECT_FALSE(wrapped.is_reached(1));
  EXPECT_FALSE(wrapped.is_reached(2));
  EXPECT_FALSE(wrapped.is_reached(0));
  EXPECT_TRUE(wrapped.is_reached(3));
  EXPECT_THROW(wrapped.probe(0, 0), LocalityViolation);  // 0 is not reached
  EXPECT_TRUE(wrapped.probe_between(3, 1));
  EXPECT_TRUE(wrapped.probe_between(1, 0));  // edge 0-1 again: fresh
  EXPECT_EQ(wrapped.distinct_probes(), 2u);
  EXPECT_TRUE(wrapped.is_reached(0));
}

TEST(ProbeArena, SecondLiveContextThrowsAndASequentialOneWorks) {
  const Hypercube g(4);
  const HashEdgeSampler s(1.0, 9);
  const SharedProbeCache cache(s, g);
  ProbeArena arena(cache);
  {
    ProbeContext first(arena, 0, RoutingMode::kLocal);
    EXPECT_TRUE(first.probe(0, 0));
    EXPECT_THROW({ ProbeContext second(arena, 1, RoutingMode::kOracle); }, ProbeArenaInUse);
    // The refused context touched nothing: the first keeps its memo and
    // its reached set, and still holds the arena.
    EXPECT_TRUE(first.probe(0, 0));
    EXPECT_EQ(first.distinct_probes(), 1u);
    EXPECT_EQ(first.total_probes(), 2u);
    EXPECT_TRUE(first.is_reached(1));
    EXPECT_THROW({ ProbeContext third(arena, 2, RoutingMode::kLocal); }, ProbeArenaInUse);
  }
  // Once the first is gone, the next context takes the arena over.
  ProbeContext next(arena, 1, RoutingMode::kOracle);
  EXPECT_EQ(next.distinct_probes(), 0u);
  EXPECT_TRUE(next.probe(0, 0));
  EXPECT_EQ(next.distinct_probes(), 1u);
}

TEST(ProbeArena, MemoBitsAcrossManyWordsAreAllFreshForTheNextMessage) {
  const Hypercube g(8);  // 1024 edge ids: 16 words of memo bits
  const HashEdgeSampler s(0.5, 17);
  const SharedProbeCache cache(s, g);
  const std::uint64_t edges = g.channel_index().num_edge_ids();
  ASSERT_EQ(edges, 1024u);
  ProbeArena arena(cache);
  {
    // Every slot of every vertex: each edge is probed once from each end.
    ProbeContext first(arena, 0, RoutingMode::kOracle);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (int i = 0; i < g.degree(v); ++i) first.probe(v, i);
    }
    EXPECT_EQ(first.distinct_probes(), edges);
    EXPECT_EQ(first.total_probes(), 2 * edges);
    EXPECT_EQ(ProbeArenaTestPeer::memo_bits(arena), edges);
    EXPECT_EQ(ProbeArenaTestPeer::memo_words_in_use(arena), edges / 64);
    EXPECT_EQ(ProbeArenaTestPeer::listed_edges(arena), edges);
  }
  // One lookup per edge, all first touches; the repeats were memo hits.
  EXPECT_EQ(arena.tally().misses, edges);
  EXPECT_EQ(arena.tally().hits, 0u);

  ProbeContext second(arena, 0, RoutingMode::kOracle);
  EXPECT_EQ(ProbeArenaTestPeer::memo_bits(arena), 0u);
  EXPECT_EQ(ProbeArenaTestPeer::listed_edges(arena), 0u);
  EXPECT_EQ(second.distinct_probes(), 0u);
  // Each edge once, from its lower endpoint: every probe is fresh again.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (int i = 0; i < g.degree(v); ++i) {
      if (g.neighbor(v, i) > v) second.probe(v, i);
    }
  }
  EXPECT_EQ(second.distinct_probes(), edges);
  EXPECT_EQ(second.total_probes(), second.distinct_probes());
  // Fresh to the message, known to the cache: every lookup was a hit.
  EXPECT_EQ(arena.tally().misses, edges);
  EXPECT_EQ(arena.tally().hits, edges);
}

TEST(ProbeArena, RepeatProbesReplayTheCachedAnswerWithoutCounting) {
  const Hypercube g(3);
  ExplicitEdgeSampler s(false);
  s.set(g.edge_key(0, 0), true);  // 0 - 1 open; 0 - 2 (slot 1) closed
  const SharedProbeCache cache(s, g);
  ProbeArena arena(cache);
  ProbeContext ctx(arena, 0, RoutingMode::kOracle);
  EXPECT_TRUE(ctx.probe(0, 0));
  EXPECT_FALSE(ctx.probe(0, 1));
  EXPECT_EQ(arena.tally().misses, 2u);
  EXPECT_EQ(arena.tally().hits, 0u);
  // Repeats from both endpoints replay what the first probes published.
  const ChannelIndex& channels = g.channel_index();
  const auto id_of = [&](VertexId v, int i) {
    return channels.edge_id_of(channels.channel_of(v, i));
  };
  for (int round = 0; round < 2; ++round) {
    EXPECT_TRUE(ctx.probe(0, 0));
    EXPECT_TRUE(ctx.probe_between(1, 0));
    EXPECT_FALSE(ctx.probe(0, 1));
    EXPECT_FALSE(ctx.probe_between(2, 0));
  }
  EXPECT_TRUE(cache.published_open(id_of(0, 0)));
  EXPECT_FALSE(cache.published_open(id_of(0, 1)));
  EXPECT_EQ(ctx.distinct_probes(), 2u);
  EXPECT_EQ(ctx.total_probes(), 10u);
  // The eight repeats added nothing to the tally.
  EXPECT_EQ(arena.tally().misses, 2u);
  EXPECT_EQ(arena.tally().hits, 0u);
}

TEST(ProbeArena, AMessageThatDiesOnItsBudgetLeavesNoBitForTheNext) {
  const Hypercube g(6);
  const HashEdgeSampler s(0.5, 23);
  const SharedProbeCache cache(s, g);
  ProbeArena arena(cache);
  {
    ProbeContext doomed(arena, 0, RoutingMode::kOracle, /*budget=*/5);
    EXPECT_THROW(
        {
          for (VertexId v = 0; v < g.num_vertices(); ++v) {
            for (int i = 0; i < g.degree(v); ++i) doomed.probe(v, i);
          }
        },
        ProbeBudgetExceeded);
    EXPECT_EQ(doomed.distinct_probes(), 5u);
  }
  // The dead message's bits stay until the next one starts ...
  EXPECT_EQ(ProbeArenaTestPeer::memo_bits(arena), 5u);
  ProbeContext next(arena, 0, RoutingMode::kOracle, /*budget=*/5);
  // ... which clears them all, so the same five edges are fresh again.
  EXPECT_EQ(ProbeArenaTestPeer::memo_bits(arena), 0u);
  EXPECT_EQ(ProbeArenaTestPeer::listed_edges(arena), 0u);
  for (int i = 0; i < 5; ++i) next.probe(0, i);
  EXPECT_EQ(next.distinct_probes(), 5u);
  EXPECT_EQ(next.total_probes(), 5u);
  EXPECT_THROW(next.probe(3, 0), ProbeBudgetExceeded);  // 3 is not adjacent to 0
}

TEST(ProbeContext, DenseAndSparseSidesAgreeOnEveryObservable) {
  // Drive both sides through an identical mixed probe sequence (repeats,
  // both endpoints of the same edge, reach growth) and compare every
  // observable after every step.
  const Hypercube g(5);
  const HashEdgeSampler s(0.6, 31);
  const auto sparse_arena = ProbeArenaTestPeer::make(g, /*dense=*/false);
  const auto dense_arena = ProbeArenaTestPeer::make(g, /*dense=*/true);
  ProbeContext sparse(*sparse_arena, s, 0, RoutingMode::kLocal);
  ProbeContext dense(*dense_arena, s, 0, RoutingMode::kLocal);
  std::uint64_t frontier = 0;  // walk outward along whatever opens
  for (int round = 0; round < 40; ++round) {
    const VertexId v = frontier;
    for (int i = 0; i < g.degree(v); ++i) {
      bool sparse_open = false;
      bool dense_open = false;
      bool sparse_threw = false;
      bool dense_threw = false;
      try {
        sparse_open = sparse.probe(v, i);
      } catch (const LocalityViolation&) {
        sparse_threw = true;
      }
      try {
        dense_open = dense.probe(v, i);
      } catch (const LocalityViolation&) {
        dense_threw = true;
      }
      ASSERT_EQ(sparse_threw, dense_threw) << "round " << round << " slot " << i;
      ASSERT_EQ(sparse_open, dense_open) << "round " << round << " slot " << i;
      ASSERT_EQ(sparse.distinct_probes(), dense.distinct_probes());
      ASSERT_EQ(sparse.total_probes(), dense.total_probes());
      if (!sparse_threw && sparse_open) frontier = g.neighbor(v, i);
    }
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(sparse.is_reached(v), dense.is_reached(v)) << "vertex " << v;
  }
}

TEST(ProbeArena, TheSideFollowsTheEdgeCountAlone) {
  // A ring of n vertices has n edges: one exactly at the budget, and one a
  // single edge above it. Neither topology stores anything, and the sparse
  // arena builds nothing either (a dense one at the budget would take
  // ~0.5 GB with its channel index, so only the size test is asked there).
  const Mesh at(1, static_cast<std::int64_t>(kDenseProbeBudgetEdges), /*wrap=*/true);
  const Mesh above(1, static_cast<std::int64_t>(kDenseProbeBudgetEdges) + 1, /*wrap=*/true);
  ASSERT_EQ(at.num_edges(), kDenseProbeBudgetEdges);
  ASSERT_EQ(above.num_edges(), kDenseProbeBudgetEdges + 1);
  EXPECT_TRUE(ProbeArena::fits_dense(at));
  EXPECT_FALSE(ProbeArena::fits_dense(above));
  EXPECT_FALSE(ProbeArenaTestPeer::dense(ProbeArena(above)));
  // A small graph is dense for single pairs; a batch's arena is dense at
  // any size (its cache and channel index are edge-sized already).
  const Hypercube small(6);
  EXPECT_TRUE(ProbeArenaTestPeer::dense(ProbeArena(small)));
  const HashEdgeSampler s(0.5, 1);
  const SharedProbeCache cache(s, small);
  EXPECT_TRUE(ProbeArenaTestPeer::dense(ProbeArena(cache)));
  // The sparse side still routes: a probe and a repeat.
  ProbeArena sparse(above);
  ProbeContext ctx(sparse, s, 0, RoutingMode::kLocal);
  const bool open = ctx.probe(0, 0);
  EXPECT_EQ(ctx.probe(0, 0), open);
  EXPECT_EQ(ctx.distinct_probes(), 1u);
  EXPECT_EQ(ctx.total_probes(), 2u);
  EXPECT_EQ(ctx.is_reached(ctx.graph().neighbor(0, 0)), open);
}

TEST(ProbeArena, AContextTakesItsEnvironmentFromItsArenasKind) {
  // A batch's arena probes the batch's cache, a single-pair arena the
  // context's sampler; naming the other is a programming error, refused
  // before the arena is touched.
  const Hypercube g(4);
  const HashEdgeSampler s(1.0, 9);
  const SharedProbeCache cache(s, g);
  ProbeArena batch(cache);
  ProbeArena pair(g);
  EXPECT_THROW({ ProbeContext ctx(batch, s, 0, RoutingMode::kLocal); }, std::logic_error);
  EXPECT_THROW({ ProbeContext ctx(pair, 0, RoutingMode::kLocal); }, std::logic_error);
  ProbeContext on_batch(batch, 0, RoutingMode::kLocal);
  ProbeContext on_pair(pair, s, 0, RoutingMode::kLocal);
  EXPECT_TRUE(on_batch.probe(0, 0));
  EXPECT_TRUE(on_pair.probe(0, 0));
}

TEST(ProbeArena, AReusedArenaRoutesEveryTrialLikeAFreshOne) {
  // One arena per side, rebound to a new environment by every trial, must
  // give each trial exactly the outcome a fresh arena gives it: a stale
  // answer left in the private cache, a stale memo bit or reach stamp
  // would change the path or the probe counts.
  const Mesh g(2, 12);
  const VertexId u = 0;
  const VertexId v = g.num_vertices() - 1;
  for (const bool dense : {true, false}) {
    const auto reused = ProbeArenaTestPeer::make(g, dense);
    for (int trial = 0; trial < 60; ++trial) {
      const HashEdgeSampler s(0.45 + 0.01 * (trial % 20), derive_seed(77, trial));
      for (const RoutingMode mode : {RoutingMode::kLocal, RoutingMode::kOracle}) {
        // A BFS from u over whatever opens, probing every slot of every
        // vertex it reaches (so repeats from both endpoints, too).
        const auto route = [&](ProbeArena& arena) {
          ProbeContext ctx(arena, s, u, mode);
          std::uint64_t opened = 0;
          std::vector<VertexId> queue{u};
          std::vector<bool> seen(g.num_vertices(), false);
          seen[u] = true;
          for (std::size_t head = 0; head < queue.size(); ++head) {
            const VertexId x = queue[head];
            for (int i = 0; i < g.degree(x); ++i) {
              if (!ctx.probe(x, i)) continue;
              ++opened;
              const VertexId y = g.neighbor(x, i);
              if (!seen[y]) {
                seen[y] = true;
                queue.push_back(y);
              }
            }
          }
          return std::vector<std::uint64_t>{ctx.distinct_probes(), ctx.total_probes(), opened,
                                            queue.size(), ctx.is_reached(v) ? 1u : 0u};
        };
        const auto fresh = ProbeArenaTestPeer::make(g, dense);
        ASSERT_EQ(route(*reused), route(*fresh))
            << (dense ? "dense" : "sparse") << " trial " << trial;
      }
    }
  }
}

// --------------------------------------------------------- the row kernel
//
// probe_row must be observably the per-slot loop it replaces, spelled below
// with probe(rows, x, i). Each case drives two identical contexts through
// the same rows, one each way, and compares every observable after every
// row: the slots handed to opened, the counts, the cache tally, reach, the
// memo and answer bits and the listed edges, and the exception, whose slot
// the number of wants calls before it pins.

template <typename Rows, typename Wants, typename Opened>
bool probe_row_by_slot(ProbeContext& ctx, const Rows& rows, VertexId x, int begin, int end,
                       Wants&& wants, Opened&& opened) {
  for (int i = begin; i < end; ++i) {
    const VertexId y = rows.neighbor(x, i);
    if (wants(y) && ctx.probe(rows, x, i) && opened(y, i)) return true;
  }
  return false;
}

enum class ArenaKind { kBatch, kPair, kSparse };
enum class Thrown { kNone, kLocality, kBudget };

/// One side of a case: a context from source 0 on a fresh arena of `kind`
/// (a batch's on a cache of its own, so neither side's lookups warm the
/// other's), and the vertices its opened callback has visited.
struct RowSide {
  std::unique_ptr<SharedProbeCache> cache;
  std::unique_ptr<ProbeArena> arena;
  std::unique_ptr<ProbeContext> ctx;
  std::vector<bool> visited;

  RowSide(const Topology& g, const EdgeSampler& s, ArenaKind kind, RoutingMode mode,
          std::optional<std::uint64_t> budget)
      : visited(g.num_vertices(), false) {
    if (kind == ArenaKind::kBatch) {
      cache = std::make_unique<SharedProbeCache>(s, g);
      arena = std::make_unique<ProbeArena>(*cache);
      ctx = std::make_unique<ProbeContext>(*arena, 0, mode, budget);
    } else {
      arena = ProbeArenaTestPeer::make(g, kind == ArenaKind::kPair);
      ctx = std::make_unique<ProbeContext>(*arena, s, 0, mode, budget);
    }
    visited[0] = true;
  }
};

/// What one row scan did, and the state it left.
struct RowOutcome {
  bool stopped = false;
  Thrown thrown = Thrown::kNone;
  std::uint64_t wanted = 0;
  std::vector<std::pair<VertexId, int>> opened;
  std::uint64_t distinct = 0;
  std::uint64_t total = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::vector<bool> reached;
  std::vector<std::uint64_t> memo;
  std::vector<std::uint64_t> answers;
  std::vector<std::uint32_t> listed;
};

void expect_same_outcome(const RowOutcome& row, const RowOutcome& slot, const std::string& where) {
  ASSERT_EQ(row.thrown, slot.thrown) << where;
  ASSERT_EQ(row.wanted, slot.wanted) << where;
  ASSERT_EQ(row.stopped, slot.stopped) << where;
  ASSERT_EQ(row.opened, slot.opened) << where;
  ASSERT_EQ(row.distinct, slot.distinct) << where;
  ASSERT_EQ(row.total, slot.total) << where;
  ASSERT_EQ(row.hits, slot.hits) << where;
  ASSERT_EQ(row.misses, slot.misses) << where;
  ASSERT_EQ(row.reached, slot.reached) << where;
  ASSERT_EQ(row.memo, slot.memo) << where;
  ASSERT_EQ(row.answers, slot.answers) << where;
  ASSERT_EQ(row.listed, slot.listed) << where;
}

struct ScanStats {
  int budget_throws = 0;
  int locality_throws = 0;
  std::uint64_t repeats = 0;  // probes the memo answered
};

std::uint64_t mix(std::uint64_t x) { return derive_seed(0x5eed, x); }

/// Scans rows on both sides: in BFS order over what opens, with every
/// fifth row a vertex drawn at random (in kLocal mostly unreached, so the
/// locality test runs per slot and throws), every seventh an unreached
/// vertex next to the reached set (its row passes the test through reached
/// neighbors, and probes them, before a slot leaves them), and every third
/// a random slot range. wants skips a fifth of the vertices and two thirds
/// of the visited ones (so edges are probed again, from either end); opened
/// stops the scan on about one vertex in eleven. Returns the distinct count
/// after each row, and counts the throws and repeat probes in `stats`.
template <typename Rows>
std::vector<std::uint64_t> compare_row_scans(const Rows& rows, const Topology& g,
                                             const EdgeSampler& s, ArenaKind kind,
                                             RoutingMode mode,
                                             std::optional<std::uint64_t> budget,
                                             const std::string& label, ScanStats& stats) {
  RowSide by_row(g, s, kind, mode, budget);
  RowSide by_slot(g, s, kind, mode, budget);
  const std::uint64_t n = g.num_vertices();
  std::vector<VertexId> queue{0};
  std::vector<bool> queued(n, false);
  queued[0] = true;
  std::size_t head = 0;
  Rng rng(derive_seed(n, static_cast<std::uint64_t>(kind)));
  std::vector<std::uint64_t> distinct_after;
  stats = {};
  const auto next_to_reached = [&] {
    const VertexId start = uniform_below(rng, n);
    for (std::uint64_t k = 0; k < n; ++k) {
      const VertexId v = (start + k) % n;
      if (by_slot.ctx->is_reached(v)) continue;
      for (int i = 0; i < rows.degree(v); ++i) {
        if (by_slot.ctx->is_reached(rows.neighbor(v, i))) return v;
      }
    }
    return start;
  };
  for (int step = 0; step < 80; ++step) {
    VertexId x;
    if (step % 7 == 6) {
      x = next_to_reached();
    } else if (step % 5 == 4 || head == queue.size()) {
      x = uniform_below(rng, n);
    } else {
      x = queue[head++];
    }
    const int deg = rows.degree(x);
    int begin = 0;
    int end = deg;
    if (step % 3 == 2 && deg > 1) {
      begin = static_cast<int>(uniform_below(rng, static_cast<std::uint64_t>(deg)));
      end = begin + 1 + static_cast<int>(uniform_below(rng, static_cast<std::uint64_t>(deg - begin)));
    }
    const std::uint64_t salt = uniform_below(rng, std::uint64_t{1} << 40);
    const auto scan = [&](RowSide& side, bool kernel) {
      RowOutcome out;
      const auto wants = [&](VertexId y) {
        ++out.wanted;
        return mix(y ^ salt) % 5 != 0 && (!side.visited[y] || mix(y + 2 * salt) % 3 == 0);
      };
      const auto opened = [&](VertexId y, int i) {
        out.opened.emplace_back(y, i);
        side.visited[y] = true;
        return mix(y + salt) % 11 == 0;
      };
      try {
        out.stopped = kernel ? side.ctx->probe_row(rows, x, begin, end, wants, opened)
                             : probe_row_by_slot(*side.ctx, rows, x, begin, end, wants, opened);
      } catch (const LocalityViolation&) {
        out.thrown = Thrown::kLocality;
      } catch (const ProbeBudgetExceeded&) {
        out.thrown = Thrown::kBudget;
      }
      out.distinct = side.ctx->distinct_probes();
      out.total = side.ctx->total_probes();
      out.hits = side.arena->tally().hits;
      out.misses = side.arena->tally().misses;
      for (VertexId v = 0; v < n; ++v) out.reached.push_back(side.ctx->is_reached(v));
      out.memo = ProbeArenaTestPeer::memo_words(*side.arena);
      out.answers = ProbeArenaTestPeer::answer_words(*side.arena);
      out.listed = ProbeArenaTestPeer::listed(*side.arena);
      return out;
    };
    const RowOutcome row = scan(by_row, true);
    const RowOutcome slot = scan(by_slot, false);
    const std::string where = label + " step " + std::to_string(step) + " x=" +
                              std::to_string(x) + " slots [" + std::to_string(begin) + ", " +
                              std::to_string(end) + ")";
    [&] { ASSERT_NO_FATAL_FAILURE(expect_same_outcome(row, slot, where)); }();
    if (::testing::Test::HasFatalFailure()) return distinct_after;
    if (row.thrown == Thrown::kBudget) ++stats.budget_throws;
    if (row.thrown == Thrown::kLocality) ++stats.locality_throws;
    stats.repeats = slot.total - slot.distinct;
    for (const auto& [y, i] : slot.opened) {
      if (!queued[y]) {
        queued[y] = true;
        queue.push_back(y);
      }
    }
    distinct_after.push_back(slot.distinct);
  }
  return distinct_after;
}

/// Every arena kind and mode, unbounded and at budgets that run out at a
/// row's first fresh probe (the count some row ended on) and in the middle
/// of a row (half way into the next row's fresh probes).
template <typename Rows>
void check_probe_row(const Rows& rows, const Topology& g, const std::string& name) {
  const HashEdgeSampler s(0.6, 1234);
  for (const ArenaKind kind : {ArenaKind::kBatch, ArenaKind::kPair, ArenaKind::kSparse}) {
    for (const RoutingMode mode : {RoutingMode::kLocal, RoutingMode::kOracle}) {
      const std::string label = name + (kind == ArenaKind::kBatch  ? " batch"
                                        : kind == ArenaKind::kPair ? " pair"
                                                                   : " sparse") +
                                (mode == RoutingMode::kLocal ? " local" : " oracle");
      ScanStats stats;
      const std::vector<std::uint64_t> distinct =
          compare_row_scans(rows, g, s, kind, mode, std::nullopt, label, stats);
      ASSERT_FALSE(::testing::Test::HasFatalFailure()) << label;
      ASSERT_EQ(stats.budget_throws, 0) << label;
      EXPECT_GT(stats.repeats, 0u) << label;
      // kLocal: some unreached row threw.
      if (mode == RoutingMode::kLocal) {
        EXPECT_GT(stats.locality_throws, 0) << label;
      } else {
        EXPECT_EQ(stats.locality_throws, 0) << label;
      }
      std::vector<std::uint64_t> budgets{0};
      int at_row_start = 0;
      int mid_row = 0;
      for (std::size_t k = 0; k + 1 < distinct.size(); ++k) {
        const std::uint64_t fresh = distinct[k + 1] - distinct[k];
        if (fresh >= 1 && at_row_start < 3) {
          budgets.push_back(distinct[k]);
          ++at_row_start;
        }
        if (fresh >= 2 && mid_row < 3) {
          budgets.push_back(distinct[k] + fresh / 2);
          ++mid_row;
        }
      }
      ASSERT_GE(at_row_start, 1) << label;
      ASSERT_GE(mid_row, 1) << label;
      for (const std::uint64_t budget : budgets) {
        const std::string at = label + " budget " + std::to_string(budget);
        compare_row_scans(rows, g, s, kind, mode, budget, at, stats);
        ASSERT_FALSE(::testing::Test::HasFatalFailure()) << at;
        EXPECT_GT(stats.budget_throws, 0) << at;
      }
    }
  }
}

TEST(ProbeRow, AgreesWithTheSlotBySlotLoopOnEveryObservable) {
  const DeBruijn de_bruijn(7);
  ASSERT_NO_FATAL_FAILURE(
      check_probe_row(FlatRows{&de_bruijn.flat_adjacency()}, de_bruijn, "de_bruijn:7 csr"));
  const CompleteGraph complete(40);
  ASSERT_NO_FATAL_FAILURE(
      check_probe_row(FlatRows{&complete.flat_adjacency()}, complete, "complete:40 csr"));
  const Hypercube cube(7);
  ASSERT_NO_FATAL_FAILURE(check_probe_row(ClosedFormRows<Hypercube>{&cube}, cube, "hypercube:7"));
  const Mesh mesh(2, 9);
  Mesh::Decoded last;
  ASSERT_NO_FATAL_FAILURE(check_probe_row(ClosedFormRows<Mesh>{&mesh, &last}, mesh, "mesh:2:9"));
  const Mesh torus(3, 4, /*wrap=*/true);
  ASSERT_NO_FATAL_FAILURE(
      check_probe_row(ClosedFormRows<Mesh>{&torus, &last}, torus, "torus:3:4"));
  // The virtual accessor takes the per-slot loop on every side.
  ASSERT_NO_FATAL_FAILURE(check_probe_row(VirtualRows{&de_bruijn}, de_bruijn, "de_bruijn:7 virtual"));
}

// ------------------------------------------------------------------- Path

TEST(Path, ValidOpenPathAccepts) {
  const Hypercube g(3);
  const HashEdgeSampler s(1.0, 1);
  EXPECT_TRUE(is_valid_open_path(g, s, {0, 1, 3, 7}, 0, 7));
  EXPECT_TRUE(is_valid_open_path(g, s, {5}, 5, 5));
}

TEST(Path, RejectsWrongEndpointsOrGaps) {
  const Hypercube g(3);
  const HashEdgeSampler s(1.0, 1);
  EXPECT_FALSE(is_valid_open_path(g, s, {}, 0, 0));
  EXPECT_FALSE(is_valid_open_path(g, s, {0, 1}, 0, 7));
  EXPECT_FALSE(is_valid_open_path(g, s, {0, 3}, 0, 3));  // not adjacent
}

TEST(Path, RejectsClosedEdges) {
  const Hypercube g(3);
  ExplicitEdgeSampler s(true);
  s.set(g.edge_key(1, edge_index_of(g, 1, 3)), false);
  EXPECT_FALSE(is_valid_open_path(g, s, {0, 1, 3}, 0, 3));
  EXPECT_TRUE(is_valid_open_path(g, s, {0, 2, 3}, 0, 3));
}

TEST(Path, SimplifyRemovesLoops) {
  EXPECT_EQ(simplify_walk({1, 2, 3, 2, 4}), (Path{1, 2, 4}));
  EXPECT_EQ(simplify_walk({1, 2, 1, 2, 3}), (Path{1, 2, 3}));
  EXPECT_EQ(simplify_walk({7}), (Path{7}));
  EXPECT_EQ(simplify_walk({}), (Path{}));
  EXPECT_EQ(simplify_walk({1, 2, 3}), (Path{1, 2, 3}));
}

// simplify_walk's definition, quadratically: on a repeat, cut the output
// back to the vertex's first occurrence in it.
Path naive_simplify(const Path& walk) {
  Path out;
  for (const VertexId v : walk) {
    const auto it = std::find(out.begin(), out.end(), v);
    if (it != out.end()) {
      out.erase(it + 1, out.end());
    } else {
      out.push_back(v);
    }
  }
  return out;
}

TEST(Path, SimplifyMatchesTheQuadraticDefinitionOnRandomWalks) {
  Rng rng(20050701);
  for (int trial = 0; trial < 3000; ++trial) {
    // A small alphabet forces repeats and nested loops. Every 50th walk is
    // long, so the pooled table grows and the short walks after it reuse a
    // larger table with stale entries. Vertex ids are spread over 64 bits
    // (times an odd constant) so the table's hash sees more than low bits.
    const std::uint64_t length =
        trial % 50 == 0 ? 1000 + uniform_below(rng, 4000) : uniform_below(rng, 80);
    const std::uint64_t alphabet = 1 + uniform_below(rng, trial % 3 == 0 ? 6 : 60);
    Path walk(length);
    for (VertexId& v : walk) v = uniform_below(rng, alphabet) * 0x9E3779B97F4A7C15ull;
    ASSERT_EQ(simplify_walk(walk), naive_simplify(walk)) << "trial " << trial;
  }
}

TEST(Path, SimplifyKeepsEndpointsAndAdjacency) {
  // A messy walk on the hypercube simplifies to a valid simple path.
  const Hypercube g(3);
  const Path walk = {0, 1, 0, 2, 6, 2, 3, 7};
  const Path simple = simplify_walk(walk);
  EXPECT_EQ(simple.front(), 0u);
  EXPECT_EQ(simple.back(), 7u);
  for (std::size_t i = 0; i + 1 < simple.size(); ++i) {
    EXPECT_GE(edge_index_of(g, simple[i], simple[i + 1]), 0);
  }
  // No repeats.
  Path sorted = simple;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST(Path, LengthCounts) {
  EXPECT_EQ(path_length({}), 0u);
  EXPECT_EQ(path_length({3}), 0u);
  EXPECT_EQ(path_length({3, 4, 5}), 2u);
}

}  // namespace
}  // namespace faultroute
