#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <map>
#include <new>
#include <utility>
#include <vector>

#include "core/path.hpp"
#include "core/probe_context.hpp"
#include "core/routers/bidirectional_router.hpp"
#include "core/routers/flood_router.hpp"
#include "core/routers/greedy_router.hpp"
#include "core/routers/landmark_router.hpp"
#include "graph/hypercube.hpp"
#include "graph/vertex_marks.hpp"
#include "percolation/chemical_distance.hpp"
#include "percolation/cluster_analysis.hpp"
#include "percolation/edge_sampler.hpp"
#include "random/rng.hpp"

// Allocation accounting for this test binary: the largest single request and
// the number of requests since the last reset, and the bytes live right now.
// The suite is single-threaded.
namespace {
std::size_t g_largest_allocation = 0;
std::size_t g_allocations = 0;
std::size_t g_live_bytes = 0;

void reset_allocation_stats() {
  g_largest_allocation = 0;
  g_allocations = 0;
}
}  // namespace

// Out of line, like the deletes below, so the compiler never pairs an
// inlined malloc() or free() with a new or delete expression.
__attribute__((noinline)) void* operator new(std::size_t size) {
  ++g_allocations;
  if (size > g_largest_allocation) g_largest_allocation = size;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes += malloc_usable_size(p);
  return p;
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  if (p != nullptr) g_live_bytes -= malloc_usable_size(p);
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t /*size*/) noexcept {
  operator delete(p);
}

namespace faultroute {
namespace {

constexpr std::uint64_t kSparseN = kDenseMarksBudgetVertices + 1;

using Model = std::map<VertexId, VertexId>;

/// A vertex to query: usually from a small window (so re-marks and hits are
/// frequent even when n is huge), sometimes an extreme id.
VertexId draw_vertex(Rng& rng, std::uint64_t n, VertexId window_base) {
  switch (uniform_below(rng, 8)) {
    case 0:
      return 0;
    case 1:
      return n - 1;
    default:
      return window_base + uniform_below(rng, std::min<std::uint64_t>(n - window_base, 64));
  }
}

/// One search: `ops` random operations on freshly begun marks, each checked
/// against a std::map, then a full read-back of the model.
void search_against_model(VertexMarks& marks, std::uint64_t n, Rng& rng, int ops) {
  marks.begin(n);
  Model model;
  const VertexId window_base = uniform_below(rng, n);
  for (int k = 0; k < ops; ++k) {
    const VertexId v = draw_vertex(rng, n, window_base);
    switch (uniform_below(rng, 4)) {
      case 0: {
        const VertexId value = rng();
        ASSERT_EQ(marks.emplace(v, value), model.emplace(v, value).second) << "vertex " << v;
        break;
      }
      case 1:
        ASSERT_EQ(marks.contains(v), model.contains(v)) << "vertex " << v;
        break;
      case 2: {
        VertexId out = 0;
        const bool found = marks.lookup(v, out);
        ASSERT_EQ(found, model.contains(v)) << "vertex " << v;
        if (found) {
          ASSERT_EQ(out, model.at(v)) << "vertex " << v;
        }
        break;
      }
      default: {
        if (model.empty()) break;
        const auto it = std::next(model.begin(),
                                  static_cast<std::ptrdiff_t>(uniform_below(rng, model.size())));
        ASSERT_EQ(marks.at(it->first), it->second) << "vertex " << it->first;
        break;
      }
    }
  }
  for (const auto& [v, value] : model) {
    ASSERT_TRUE(marks.contains(v));
    ASSERT_EQ(marks.at(v), value);
  }
}

TEST(VertexMarks, DenseSideMatchesAMapModelAcrossEpochs) {
  VertexMarks marks;
  Rng rng(11);
  for (int epoch = 0; epoch < 2000; ++epoch) {
    search_against_model(marks, 1000, rng, static_cast<int>(uniform_below(rng, 200)));
  }
}

TEST(VertexMarks, DenseSideAllocatesNothingOnceWarm) {
  VertexMarks marks;
  marks.begin(1000);
  reset_allocation_stats();
  for (int epoch = 0; epoch < 100; ++epoch) {
    marks.begin(1000);
    for (VertexId v = 0; v < 1000; v += 7) marks.emplace(v, v + 1);
  }
  EXPECT_EQ(g_allocations, 0u);
}

TEST(VertexMarks, SparseSideMatchesAMapModelWithoutVertexSizedArrays) {
  VertexMarks marks;
  Rng rng(12);
  reset_allocation_stats();
  for (int epoch = 0; epoch < 2000; ++epoch) {
    search_against_model(marks, kSparseN, rng, static_cast<int>(uniform_below(rng, 200)));
  }
  // A vertex-sized stamp array alone would be 4 * kSparseN bytes.
  EXPECT_LT(g_largest_allocation, std::size_t{1} << 16);
}

TEST(VertexMarks, OneObjectCrossesTheBudgetInBothDirections) {
  VertexMarks marks;
  Rng rng(13);
  for (int round = 0; round < 50; ++round) {
    search_against_model(marks, 1000, rng, 100);
    // Marks from the dense search must not leak into the sparse one...
    marks.begin(kSparseN);
    for (VertexId v = 0; v < 1000; ++v) ASSERT_FALSE(marks.contains(v)) << v;
    for (VertexId v = 0; v < 1000; v += 3) marks.emplace(v, v);
    search_against_model(marks, kSparseN, rng, 100);
    // ...nor sparse marks into the next dense one.
    marks.begin(kSparseN);
    for (VertexId v = 0; v < 1000; v += 3) marks.emplace(v, v);
    marks.begin(1000);
    for (VertexId v = 0; v < 1000; ++v) ASSERT_FALSE(marks.contains(v)) << v;
  }
}

TEST(VertexMarks, AHugeSparseSearchDoesNotTaxTheSearchesAfterIt) {
  // The sparse side releases its map on begin(), buckets included, so 10^5
  // one-mark searches after a 2^20-mark search each cost O(1), not
  // O(buckets of the big one). Retained bytes stand in for that work.
  VertexMarks marks;
  Rng rng(14);
  constexpr std::uint64_t kBig = std::uint64_t{1} << 20;
  constexpr std::uint64_t kStride = kSparseN / kBig;
  constexpr std::size_t kSlackBytes = std::size_t{1} << 12;
  Model big;
  for (std::uint64_t k = 0; k < kBig; ++k) big.emplace(k * kStride, rng());
  const std::size_t live_before = g_live_bytes;
  marks.begin(kSparseN);
  for (const auto& [v, value] : big) ASSERT_TRUE(marks.emplace(v, value));
  for (const auto& [v, value] : big) {
    VertexId out = 0;
    ASSERT_TRUE(marks.lookup(v, out));
    ASSERT_EQ(out, value);
  }
  ASSERT_GT(g_live_bytes, live_before + kBig * sizeof(VertexId));
  marks.begin(kSparseN);
  EXPECT_LE(g_live_bytes, live_before + kSlackBytes);
  for (int search = 0; search < 100000; ++search) {
    marks.begin(kSparseN);
    const VertexId v = uniform_below(rng, kSparseN);
    const VertexId value = rng();
    ASSERT_TRUE(marks.emplace(v, value));
    ASSERT_FALSE(marks.emplace(v, value + 1));
    ASSERT_EQ(marks.at(v), value);
    const VertexId stale = uniform_below(rng, kBig) * kStride;
    ASSERT_EQ(marks.contains(stale), stale == v) << stale;
  }
  EXPECT_LE(g_live_bytes, live_before + kSlackBytes);
}

// ------------------------------------------ every BFS past the dense budget

TEST(AboveDenseBudget, TopologyMetricBfsMatchesHammingDistance) {
  // The qualified calls bypass the hypercube's closed form and run the
  // generic BFS, here on the sparse side of its marks.
  const Hypercube g(30);
  ASSERT_GT(g.num_vertices(), kDenseMarksBudgetVertices);
  const VertexId top = g.num_vertices() - 1;
  const std::vector<std::pair<VertexId, VertexId>> pairs = {
      {0, 0}, {0, 1}, {5, 4}, {0, 3}, {0, 7}, {12345, 12345 ^ 0b10010001},
      {top, top ^ ((1ULL << 29) | 1ULL)}, {1ULL << 29, (1ULL << 29) | 0b110}};
  for (const auto& [u, v] : pairs) {
    const auto hamming = static_cast<std::uint64_t>(std::popcount(u ^ v));
    EXPECT_EQ(g.Topology::distance(u, v), hamming) << u << " -> " << v;
    const std::vector<VertexId> path = g.Topology::shortest_path(u, v);
    ASSERT_EQ(path.size(), hamming + 1) << u << " -> " << v;
    EXPECT_EQ(path.front(), u);
    EXPECT_EQ(path.back(), v);
    for (std::size_t k = 1; k < path.size(); ++k) {
      EXPECT_EQ(std::popcount(path[k - 1] ^ path[k]), 1) << u << " -> " << v;
    }
  }
}

TEST(AboveDenseBudget, SearchRoutersReturnValidOpenPaths) {
  const Hypercube g(30);
  const HashEdgeSampler s(0.9, 7);
  FloodRouter flood;
  LandmarkRouter landmark;
  BidirectionalBfsRouter bidirectional;
  BestFirstRouter best_first;
  for (Router* router : std::vector<Router*>{&flood, &landmark, &bidirectional, &best_first}) {
    // Twice per router: the second search reuses the pooled marks.
    for (const auto& [u, v] : {std::pair<VertexId, VertexId>{0, 7}, {7, 0}}) {
      ProbeArena arena(g);
      ProbeContext ctx(arena, s, u, router->required_mode());
      const auto path = router->route(ctx, u, v);
      ASSERT_TRUE(path.has_value()) << router->name();
      EXPECT_TRUE(is_valid_open_path(g, s, *path, u, v)) << router->name();
    }
  }
}

TEST(AboveDenseBudget, PercolationSearchesHonourTheirCap) {
  const Hypercube g(30);
  const HashEdgeSampler s(0.9, 7);
  const VertexId top = g.num_vertices() - 1;
  EXPECT_EQ(open_connected(g, s, 0, 7, 100000), std::optional<bool>(true));
  EXPECT_FALSE(open_connected(g, s, 0, top, 1000).has_value());
  const ChemicalPathResult near = chemical_path(g, s, 0, 7, 100000);
  ASSERT_TRUE(near.distance.has_value());
  EXPECT_GE(*near.distance, 3u);
  EXPECT_EQ(near.path.size(), *near.distance + 1);
  EXPECT_TRUE(is_valid_open_path(g, s, near.path, 0, 7));
  EXPECT_FALSE(chemical_path(g, s, 0, top, 1000).distance.has_value());
  EXPECT_EQ(open_cluster_of(g, s, 0, 500).size(), 500u);
}

}  // namespace
}  // namespace faultroute
