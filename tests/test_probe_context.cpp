#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>

#include "core/path.hpp"
#include "core/probe_context.hpp"
#include "graph/channel_index.hpp"
#include "graph/hypercube.hpp"
#include "graph/mesh.hpp"
#include "percolation/edge_sampler.hpp"
#include "percolation/shared_probe_cache.hpp"
#include "random/rng.hpp"

namespace faultroute {
namespace {

// ------------------------------------------------------------- ProbeContext

TEST(ProbeContext, CountsDistinctAndTotalSeparately) {
  const Hypercube g(4);
  const HashEdgeSampler s(1.0, 1);
  ProbeContext ctx(g, s, 0, RoutingMode::kLocal);
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
  ProbeContext ctx(g, s, 0, RoutingMode::kOracle);
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
  ProbeContext ctx(g, s, 0, RoutingMode::kOracle);
  ctx.probe(0, 0);               // edge 0 - 1
  ctx.probe(1, 0);               // same edge from the other side
  EXPECT_EQ(ctx.distinct_probes(), 1u);
}

TEST(ProbeContext, LocalModeTracksReachedSet) {
  const Hypercube g(3);
  ExplicitEdgeSampler s(false);
  s.set(g.edge_key(0, 0), true);  // 0 - 1 open
  ProbeContext ctx(g, s, 0, RoutingMode::kLocal);
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
  ProbeContext ctx(g, s, 0, RoutingMode::kLocal);
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
  ProbeContext ctx(g, s, 0, RoutingMode::kLocal);
  // Edge 1-0 probed from vertex 1 (unreached) is incident to reached 0.
  EXPECT_NO_THROW(ctx.probe(1, 0));
  EXPECT_TRUE(ctx.is_reached(1));
}

TEST(ProbeContext, ClosedProbesDoNotExtendReach) {
  const Hypercube g(3);
  ExplicitEdgeSampler s(false);
  ProbeContext ctx(g, s, 0, RoutingMode::kLocal);
  EXPECT_FALSE(ctx.probe(0, 0));
  EXPECT_FALSE(ctx.is_reached(1));
  EXPECT_THROW(ctx.probe(1, 1), LocalityViolation);  // 1 is still unreached
}

TEST(ProbeContext, OracleModeAllowsAnyProbe) {
  const Hypercube g(4);
  const HashEdgeSampler s(0.5, 3);
  ProbeContext ctx(g, s, 0, RoutingMode::kOracle);
  EXPECT_NO_THROW(ctx.probe(9, 1));
  EXPECT_NO_THROW(ctx.probe(15, 3));
  EXPECT_TRUE(ctx.is_reached(9));  // trivially true in oracle mode
}

TEST(ProbeContext, BudgetCountsDistinctEdgesOnly) {
  const Hypercube g(4);
  const HashEdgeSampler s(1.0, 1);
  ProbeContext ctx(g, s, 0, RoutingMode::kOracle, /*budget=*/2);
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
  ProbeContext ctx(g, s, 0, RoutingMode::kLocal);
  EXPECT_TRUE(ctx.probe_between(0, 1));
  EXPECT_THROW(ctx.probe_between(0, 5), std::invalid_argument);  // diagonal
}

// ---------------------------------------- both backends, parameterised
//
// The dense (arena-backed) and hash backends must be observably identical.
// Each test below runs once per backend and once per routing mode where the
// mode matters; `make_context` builds a hash context over the sampler, or a
// dense one on an arena bound to a SharedProbeCache over it.

class ProbeContextBackends : public ::testing::TestWithParam<bool> {
 protected:
  std::unique_ptr<ProbeContext> make_context(const Topology& g, const EdgeSampler& s,
                                             RoutingMode mode,
                                             std::optional<std::uint64_t> budget) {
    if (!GetParam()) return std::make_unique<ProbeContext>(g, s, 0, mode, budget);
    if (!arena_) {
      cache_ = std::make_unique<SharedProbeCache>(s, g);
      arena_ = std::make_unique<ProbeArena>(*cache_);
    }
    return std::make_unique<ProbeContext>(*arena_, 0, mode, budget);
  }

 private:
  std::unique_ptr<SharedProbeCache> cache_;
  std::unique_ptr<ProbeArena> arena_;
};

INSTANTIATE_TEST_SUITE_P(HashAndDense, ProbeContextBackends, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return param_info.param ? "dense" : "hash";
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

}  // namespace

/// Test-only access to a ProbeArena's epoch, to reach the wrap without
/// routing four billion messages, and to its memo bits.
class ProbeArenaTestPeer {
 public:
  static constexpr std::uint32_t kMaxEpoch = ProbeArena::kMaxEpoch;
  static std::uint32_t epoch(const ProbeArena& arena) { return arena.epoch_; }
  static void set_epoch(ProbeArena& arena, std::uint32_t epoch) { arena.epoch_ = epoch; }
  /// Memo bits set anywhere in the arena, and the words that hold them.
  static std::uint64_t memo_bits(const ProbeArena& arena) {
    std::uint64_t bits = 0;
    for (const std::uint64_t word : arena.edge_probed_) bits += std::popcount(word);
    return bits;
  }
  static std::uint64_t memo_words_in_use(const ProbeArena& arena) {
    std::uint64_t words = 0;
    for (const std::uint64_t word : arena.edge_probed_) words += word != 0 ? 1 : 0;
    return words;
  }
  static std::size_t listed_edges(const ProbeArena& arena) {
    return arena.probed_edges_.size();
  }
};

namespace {

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

TEST(ProbeContext, DenseAndHashBackendsAgreeOnEveryObservable) {
  // Drive both backends through an identical mixed probe sequence (repeats,
  // both endpoints of the same edge, reach growth) and compare every
  // observable after every step.
  const Hypercube g(5);
  const HashEdgeSampler s(0.6, 31);
  const SharedProbeCache cache(s, g);
  ProbeArena arena(cache);
  ProbeContext hash(g, s, 0, RoutingMode::kLocal);
  ProbeContext dense(arena, 0, RoutingMode::kLocal);
  std::uint64_t frontier = 0;  // walk outward along whatever opens
  for (int round = 0; round < 40; ++round) {
    const VertexId v = frontier;
    for (int i = 0; i < g.degree(v); ++i) {
      bool hash_open = false;
      bool dense_open = false;
      bool hash_threw = false;
      bool dense_threw = false;
      try {
        hash_open = hash.probe(v, i);
      } catch (const LocalityViolation&) {
        hash_threw = true;
      }
      try {
        dense_open = dense.probe(v, i);
      } catch (const LocalityViolation&) {
        dense_threw = true;
      }
      ASSERT_EQ(hash_threw, dense_threw) << "round " << round << " slot " << i;
      ASSERT_EQ(hash_open, dense_open) << "round " << round << " slot " << i;
      ASSERT_EQ(hash.distinct_probes(), dense.distinct_probes());
      ASSERT_EQ(hash.total_probes(), dense.total_probes());
      if (!hash_threw && hash_open) frontier = g.neighbor(v, i);
    }
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(hash.is_reached(v), dense.is_reached(v)) << "vertex " << v;
  }
  // One message on a fresh cache: every distinct probe was a first touch.
  EXPECT_EQ(arena.tally().misses, dense.distinct_probes());
  EXPECT_EQ(arena.tally().hits, 0u);
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
