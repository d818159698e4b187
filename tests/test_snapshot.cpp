// On-disk CSR adjacency snapshots (graph/snapshot.hpp): format round-trip
// across every registered topology family, mmap-view equivalence with the
// owning build, the snapshot-directory cache contract (hit / miss /
// corrupt), and the corruption diagnostics that must name the offending
// header field instead of silently rebuilding.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "graph/flat_adjacency.hpp"
#include "graph/snapshot.hpp"
#include "obs/counter_registry.hpp"
#include "percolation/edge_sampler.hpp"
#include "scenario/reporter.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "sim/registry.hpp"
#include "traffic/traffic_engine.hpp"
#include "traffic/workload.hpp"

namespace faultroute {
namespace {

namespace fs = std::filesystem;

/// Every registered topology family, at sizes small enough to snapshot in
/// milliseconds. butterfly:2 exercises the parallel-edge corner (distinct
/// edge keys between one vertex pair), cycle_matching the odd-degree one.
const std::vector<std::string> kFamilies = {
    "hypercube:5",   "mesh:2:6",     "torus:2:6",           "double_tree:4",
    "complete:24",   "de_bruijn:6",  "shuffle_exchange:6",  "butterfly:4",
    "butterfly:2",   "ccc:4",        "cycle_matching:64:7",
};

/// Fresh per-test scratch directory under gtest's temp root.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("faultroute_snap_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::uint64_t global_counter(const std::string& name) {
  for (const auto& entry : obs::global_registry().snapshot()) {
    if (entry.name == name) return entry.value;
  }
  return 0;
}

/// Byte surgery for the corruption fixtures.
std::vector<char> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  return {text.begin(), text.end()};
}

void write_file(const fs::path& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// Asserts that opening `path` throws naming `field` in the diagnostic.
void expect_rejected(const std::string& path, const std::string& field) {
  try {
    (void)read_snapshot_info(path);
    FAIL() << "snapshot '" << path << "' was accepted; expected rejection naming field '"
           << field << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("field " + field), std::string::npos)
        << "diagnostic does not name field '" << field << "': " << e.what();
  }
}

// ------------------------------------------------------------- round trip

TEST(Snapshot, RoundTripsRowForRowAcrossAllFamilies) {
  const fs::path dir = scratch_dir("roundtrip");
  for (const auto& spec : kFamilies) {
    SCOPED_TRACE(spec);
    const auto graph = sim::make_topology(spec);
    const FlatAdjacency& built = graph->flat_adjacency();
    write_snapshot(snapshot_path(dir.string(), spec), spec, built);

    const auto view = open_snapshot_adjacency(dir.string(), spec, *graph);
    ASSERT_NE(view, nullptr);
    EXPECT_TRUE(view->is_view());
    EXPECT_FALSE(built.is_view());
    ASSERT_EQ(view->num_vertices(), built.num_vertices());
    ASSERT_EQ(view->num_channels(), built.num_channels());
    EXPECT_EQ(view->num_edge_ids(), built.num_edge_ids());
    EXPECT_EQ(view->memory_bytes(), 0u);  // the pages belong to the mapping

    for (VertexId v = 0; v < graph->num_vertices(); ++v) {
      ASSERT_EQ(view->row_begin(v), built.row_begin(v));
      ASSERT_EQ(view->row_end(v), built.row_end(v));
      for (int i = 0; i < built.degree(v); ++i) {
        ASSERT_EQ(view->neighbor(v, i), built.neighbor(v, i)) << "v=" << v << " i=" << i;
        ASSERT_EQ(view->edge_key(v, i), built.edge_key(v, i)) << "v=" << v << " i=" << i;
        ASSERT_EQ(view->edge_id(v, i), built.edge_id(v, i)) << "v=" << v << " i=" << i;
      }
    }
  }
}

TEST(Snapshot, InfoDecodesTheHeaderItWrote) {
  const fs::path dir = scratch_dir("info");
  const std::string spec = "hypercube:6";
  const auto graph = sim::make_topology(spec);
  const std::string path = snapshot_path(dir.string(), spec);
  write_snapshot(path, spec, graph->flat_adjacency());

  const SnapshotInfo info = read_snapshot_info(path);
  EXPECT_EQ(info.version, snap::kVersion);
  EXPECT_EQ(info.topology_spec, spec);
  EXPECT_FALSE(info.provenance.empty());  // builder's git hash
  EXPECT_EQ(info.num_vertices, graph->num_vertices());
  EXPECT_EQ(info.num_channels, graph->flat_adjacency().num_channels());
  EXPECT_EQ(info.num_edge_ids, graph->flat_adjacency().num_edge_ids());
  // offsets + neighbors + keys + edge_ids, zero-padded to an 8-byte multiple.
  const std::uint64_t unpadded =
      (info.num_vertices + 1) * 8 + static_cast<std::uint64_t>(info.num_channels) * 20;
  EXPECT_EQ(info.payload_bytes, (unpadded + 7) / 8 * 8);
  EXPECT_EQ(fs::file_size(path), snap::kHeaderBytes + info.payload_bytes);
}

TEST(Snapshot, FilenamesAreSanitizedAndStable) {
  EXPECT_EQ(snapshot_filename("hypercube:8"), "hypercube_8.snap");
  EXPECT_EQ(snapshot_filename("torus:2:64"), "torus_2_64.snap");
  EXPECT_EQ(snapshot_filename("a/b\\c d"), "a_b_c_d.snap");
  EXPECT_EQ(snapshot_path("snaps", "ccc:4"), std::string("snaps") +
                                                 static_cast<char>(fs::path::preferred_separator) +
                                                 "ccc_4.snap");
}

TEST(Snapshot, RebuildOverwritesAtomically) {
  const fs::path dir = scratch_dir("rebuild");
  const std::string spec = "mesh:2:5";
  const auto graph = sim::make_topology(spec);
  const std::string path = snapshot_path(dir.string(), spec);
  write_snapshot(path, spec, graph->flat_adjacency());
  const SnapshotInfo first = read_snapshot_info(path);
  write_snapshot(path, spec, graph->flat_adjacency());
  const SnapshotInfo second = read_snapshot_info(path);
  EXPECT_EQ(first.payload_checksum, second.payload_checksum);
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // the temp sibling was renamed away
}

// ------------------------------------------------- directory-cache contract

TEST(Snapshot, AbsentSnapshotIsAMissNotAnError) {
  const fs::path dir = scratch_dir("miss");
  const auto graph = sim::make_topology("hypercube:5");
  const std::uint64_t misses_before = global_counter("graph.snapshot.misses");
  EXPECT_EQ(open_snapshot_adjacency(dir.string(), "hypercube:5", *graph), nullptr);
  EXPECT_EQ(global_counter("graph.snapshot.misses"), misses_before + 1);
}

TEST(Snapshot, HitCountsAndReportsMappedBytes) {
  const fs::path dir = scratch_dir("hit");
  const std::string spec = "hypercube:6";
  const auto graph = sim::make_topology(spec);
  const std::string path = snapshot_path(dir.string(), spec);
  write_snapshot(path, spec, graph->flat_adjacency());

  const std::uint64_t hits_before = global_counter("graph.snapshot.hits");
  const std::uint64_t bytes_before = global_counter("graph.snapshot.bytes_mapped");
  const auto view = open_snapshot_adjacency(dir.string(), spec, *graph);
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(global_counter("graph.snapshot.hits"), hits_before + 1);
  EXPECT_EQ(global_counter("graph.snapshot.bytes_mapped"),
            bytes_before + fs::file_size(path));
}

TEST(Snapshot, EmbeddedSpecMismatchThrowsInsteadOfRebuilding) {
  const fs::path dir = scratch_dir("specmismatch");
  // A file *named* for hypercube:5 whose header embeds hypercube:6: the
  // lookup must refuse it, never silently fall back to materializing.
  const auto six = sim::make_topology("hypercube:6");
  write_snapshot(snapshot_path(dir.string(), "hypercube:5"), "hypercube:6",
                 six->flat_adjacency());
  const auto five = sim::make_topology("hypercube:5");
  EXPECT_THROW((void)open_snapshot_adjacency(dir.string(), "hypercube:5", *five),
               std::runtime_error);
}

TEST(Snapshot, VertexCountMismatchThrowsFromTheViewConstructor) {
  const fs::path dir = scratch_dir("vertexmismatch");
  const auto six = sim::make_topology("hypercube:6");
  write_snapshot(snapshot_path(dir.string(), "hypercube:6"), "hypercube:6",
                 six->flat_adjacency());
  // Same spec string, wrong graph object: the non-owning view refuses to
  // alias arrays of the wrong shape.
  const auto five = sim::make_topology("hypercube:5");
  try {
    (void)open_snapshot_adjacency(dir.string(), "hypercube:6", *five);
    FAIL() << "vertex-count mismatch was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("field num_vertices"), std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------ corruption fixtures

class SnapshotCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = scratch_dir("corrupt");
    graph_ = sim::make_topology("hypercube:6");
    path_ = snapshot_path(dir_.string(), "hypercube:6");
    write_snapshot(path_, "hypercube:6", graph_->flat_adjacency());
    pristine_ = read_file(path_);
  }

  /// Reverts, applies `mutate` to a pristine copy, and expects the reader to
  /// reject it naming `field`.
  void corrupt_and_expect(const std::string& field,
                          const std::function<void(std::vector<char>&)>& mutate) {
    std::vector<char> bytes = pristine_;
    mutate(bytes);
    write_file(path_, bytes);
    expect_rejected(path_, field);
    // The directory lookup must surface the same rejection, not rebuild.
    EXPECT_THROW((void)open_snapshot_adjacency(dir_.string(), "hypercube:6", *graph_),
                 std::runtime_error);
  }

  fs::path dir_;
  std::unique_ptr<Topology> graph_;
  std::string path_;
  std::vector<char> pristine_;
};

TEST_F(SnapshotCorruption, TruncatedHeader) {
  corrupt_and_expect("header_bytes", [](std::vector<char>& b) { b.resize(100); });
}

TEST_F(SnapshotCorruption, TruncatedPayload) {
  corrupt_and_expect("payload_bytes", [](std::vector<char>& b) { b.resize(b.size() - 8); });
}

TEST_F(SnapshotCorruption, FlippedPayloadByte) {
  corrupt_and_expect("payload_checksum",
                     [](std::vector<char>& b) { b[snap::kHeaderBytes + 17] ^= 0x40; });
}

TEST_F(SnapshotCorruption, BadMagic) {
  corrupt_and_expect("magic", [](std::vector<char>& b) { b[0] = 'X'; });
}

TEST_F(SnapshotCorruption, UnknownVersion) {
  // Bumping the version also breaks the header checksum, so re-sign the
  // header: flip the version byte and recompute the checksum over words
  // [0, 248) the same way the writer does.
  corrupt_and_expect("version", [](std::vector<char>& b) {
    b[8] = 2;
    std::uint64_t words[31];
    std::memcpy(words, b.data(), sizeof words);
    const std::uint64_t sum = fnv1a_words(words, 31);
    std::memcpy(b.data() + 248, &sum, 8);  // little-endian host (guarded at open)
  });
}

TEST_F(SnapshotCorruption, FlippedHeaderByte) {
  // A flipped topology-spec byte without re-signing trips the header
  // checksum before any field is trusted.
  corrupt_and_expect("header_checksum", [](std::vector<char>& b) { b[60] ^= 0x01; });
}

// ----------------------------------------- end-to-end equivalence (scenario)

std::string run_report(const scenario::ScenarioSpec& spec) {
  std::ostringstream out;
  scenario::JsonLinesReporter reporter(out);
  (void)scenario::run_scenario(spec, reporter);
  return out.str();
}

TEST(Snapshot, ScenarioOverSnapshotDirIsByteIdenticalAndMaterializesNothing) {
  const fs::path dir = scratch_dir("scenario");
  auto spec = scenario::parse_scenario(
      "topology = hypercube:6, butterfly:3\n"
      "router = landmark, greedy\n"
      "p = 0.4, 0.7\n"
      "messages = 48; trials = 2; seed = 77\n");
  const std::string cold = run_report(spec);

  for (const auto& topo : spec.topologies) {
    const auto graph = sim::make_topology(topo);
    write_snapshot(snapshot_path(dir.string(), topo), topo, graph->flat_adjacency());
  }
  const std::uint64_t built_before = global_counter("graph.flat_adjacency.materializations");
  const std::uint64_t hits_before = global_counter("graph.snapshot.hits");
  spec.snapshot_dir = dir.string();
  const std::string warm = run_report(spec);
  EXPECT_EQ(warm, cold);
  // The warm run resolved the butterfly from its mapped snapshot and left
  // the hypercube's unopened, since the hypercube routes on its closed
  // form: the runner's own graphs never materialized an owning
  // FlatAdjacency.
  EXPECT_EQ(global_counter("graph.flat_adjacency.materializations"), built_before);
  EXPECT_EQ(global_counter("graph.snapshot.hits"), hits_before + 1);
}

TEST(Snapshot, ScenarioWithCorruptSnapshotFailsTheRun) {
  const fs::path dir = scratch_dir("scenario_corrupt");
  const auto graph = sim::make_topology("butterfly:3");
  const std::string path = snapshot_path(dir.string(), "butterfly:3");
  write_snapshot(path, "butterfly:3", graph->flat_adjacency());
  auto bytes = read_file(path);
  bytes[snap::kHeaderBytes + 3] ^= 0x10;
  write_file(path, bytes);

  auto spec = scenario::parse_scenario("topology = butterfly:3; messages = 8");
  spec.snapshot_dir = dir.string();
  std::ostringstream out;
  scenario::JsonLinesReporter reporter(out);
  EXPECT_THROW((void)scenario::run_scenario(spec, reporter), std::runtime_error);
  EXPECT_TRUE(out.str().empty());  // fail-fast: nothing was reported
}

// --------------------------------------------------- budget fallback counter

TEST(Snapshot, AutoFallbackPastBudgetIsCounted) {
  // A family without closed-form adjacency: the hypercube and the
  // mesh/torus never fall back, since past the budget (the hypercube at
  // any budget) they take their closed form.
  const auto graph = sim::make_topology("de_bruijn:7");  // 128 vertices
  const std::uint64_t before = global_counter("graph.flat_adjacency.auto_fallbacks");
  // Within budget: resolves the cached snapshot, no fallback counted.
  EXPECT_NE(resolve_adjacency(*graph, 128), nullptr);
  EXPECT_EQ(global_counter("graph.flat_adjacency.auto_fallbacks"), before);
  // Past budget: virtual dispatch, counted.
  EXPECT_EQ(resolve_adjacency(*graph, 127), nullptr);
  EXPECT_EQ(global_counter("graph.flat_adjacency.auto_fallbacks"), before + 1);
}

// ------------------------------------------------------ edge-id table counter

/// The number of channel -> edge-id tables a whole run_traffic batch on
/// the implicit path (CSR budget 0) builds for a fresh `topology_spec`.
std::uint64_t implicit_batch_edge_id_tables(const std::string& topology_spec) {
  const auto graph = sim::make_topology(topology_spec);
  WorkloadConfig workload;
  workload.messages = 32;
  workload.seed = 11;
  const auto messages = generate_workload(*graph, workload);
  const HashEdgeSampler env(0.7, 5);
  TrafficConfig config;
  config.flat_budget_vertices = 0;
  const std::uint64_t before = global_counter("graph.channel_index.edge_id_tables");
  const TrafficResult result = run_traffic(
      *graph, env, [&] { return sim::make_router("flood", *graph); }, messages, config);
  EXPECT_GT(result.routed, 0u) << topology_spec;
  EXPECT_GT(result.transmissions, 0u) << topology_spec;
  return global_counter("graph.channel_index.edge_id_tables") - before;
}

TEST(Snapshot, ImplicitBatchBuildsAnEdgeIdTableOnlyWithoutAClosedForm) {
  // Probing, the shared cache, the memo and journey compilation all take
  // the closed form on the torus and the hypercube; de Bruijn has none, so
  // its table is built once and shared by all of them.
  EXPECT_EQ(implicit_batch_edge_id_tables("torus:2:6"), 0u);
  EXPECT_EQ(implicit_batch_edge_id_tables("hypercube:6"), 0u);
  EXPECT_EQ(implicit_batch_edge_id_tables("de_bruijn:6"), 1u);
}

}  // namespace
}  // namespace faultroute
