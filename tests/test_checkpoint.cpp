// Checkpoint/resume (scenario/checkpoint.hpp) and sharded sweeps +
// report merging (scenario/merge.hpp): journal encode/decode exactness,
// the spec fingerprint that guards resumes, byte-identical resumed and
// sharded-then-merged reports, and the strict validation both layers apply
// to torn or inconsistent inputs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/checkpoint.hpp"
#include "scenario/merge.hpp"
#include "scenario/reporter.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace faultroute::scenario {
namespace {

namespace fs = std::filesystem;

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("faultroute_ckpt_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  ASSERT_TRUE(out.good());
}

/// An 8-cell sweep that runs in well under a second.
ScenarioSpec small_spec() {
  return parse_scenario(
      "topology = hypercube:5\n"
      "router = landmark, greedy\n"
      "p = 0.35, 0.65\n"
      "messages = 24; trials = 2; seed = 909\n");
}

std::string run_report(const ScenarioSpec& spec, const RunOptions& options,
                       const std::string& format = "jsonl") {
  std::ostringstream out;
  const auto reporter = make_reporter(format, out);
  (void)run_scenario(spec, *reporter, options);
  return out.str();
}

// ------------------------------------------------------------ journal codec

TEST(CheckpointCodec, RoundTripsEveryFieldExactly) {
  CellResult cell;
  cell.cell = 42;
  cell.topology = "torus:2:64";
  cell.topology_name = "torus with\ttabs\nand \\slashes\r";
  cell.vertices = 4096;
  cell.p = 0.1;  // not representable in binary — hexfloat must still round-trip
  cell.router = "best-first";
  cell.workload = "poisson:2.5";
  cell.trial = 3;
  cell.env_seed = 0xdeadbeefcafe1234ull;
  cell.workload_seed = std::numeric_limits<std::uint64_t>::max();
  cell.messages = 1024;
  cell.routed = 1000;
  cell.failed_routing = 20;
  cell.censored = 4;
  cell.invalid_paths = 0;
  cell.delivered = 990;
  cell.stranded = 10;
  cell.total_distinct_probes = 123456789;
  cell.unique_edges_probed = 54321;
  cell.cache_hits = 777;
  cell.cache_misses = 888;
  cell.probe_amortization = 1.0 / 3.0;
  cell.max_edge_load = 17;
  cell.mean_edge_load = 1e300;
  cell.edges_used = 999;
  cell.makespan = 55;
  cell.mean_queueing_delay = 5e-324;  // smallest subnormal
  cell.max_queueing_delay = 9;
  cell.mean_path_edges = -0.0;
  cell.throughput = 0.99999999999999989;
  cell.sim_steps = 60;
  cell.admission_events = 61;
  cell.transmissions = 62;
  cell.peak_active_channels = 63;
  cell.channels = 64;
  cell.has_timings = true;
  cell.routing_ms = 12.5;
  cell.delivery_ms = 0.0001;

  const CellResult back = decode_checkpoint_cell(encode_checkpoint_cell(cell));
  EXPECT_EQ(back.cell, cell.cell);
  EXPECT_EQ(back.topology, cell.topology);
  EXPECT_EQ(back.topology_name, cell.topology_name);
  EXPECT_EQ(back.vertices, cell.vertices);
  EXPECT_EQ(back.p, cell.p);
  EXPECT_EQ(back.router, cell.router);
  EXPECT_EQ(back.workload, cell.workload);
  EXPECT_EQ(back.trial, cell.trial);
  EXPECT_EQ(back.env_seed, cell.env_seed);
  EXPECT_EQ(back.workload_seed, cell.workload_seed);
  EXPECT_EQ(back.messages, cell.messages);
  EXPECT_EQ(back.routed, cell.routed);
  EXPECT_EQ(back.failed_routing, cell.failed_routing);
  EXPECT_EQ(back.censored, cell.censored);
  EXPECT_EQ(back.invalid_paths, cell.invalid_paths);
  EXPECT_EQ(back.delivered, cell.delivered);
  EXPECT_EQ(back.stranded, cell.stranded);
  EXPECT_EQ(back.total_distinct_probes, cell.total_distinct_probes);
  EXPECT_EQ(back.unique_edges_probed, cell.unique_edges_probed);
  EXPECT_EQ(back.cache_hits, cell.cache_hits);
  EXPECT_EQ(back.cache_misses, cell.cache_misses);
  EXPECT_EQ(back.probe_amortization, cell.probe_amortization);
  EXPECT_EQ(back.max_edge_load, cell.max_edge_load);
  EXPECT_EQ(back.mean_edge_load, cell.mean_edge_load);
  EXPECT_EQ(back.edges_used, cell.edges_used);
  EXPECT_EQ(back.makespan, cell.makespan);
  EXPECT_EQ(back.mean_queueing_delay, cell.mean_queueing_delay);
  EXPECT_EQ(back.max_queueing_delay, cell.max_queueing_delay);
  EXPECT_EQ(back.mean_path_edges, cell.mean_path_edges);
  EXPECT_TRUE(std::signbit(back.mean_path_edges));  // -0.0, not 0.0
  EXPECT_EQ(back.throughput, cell.throughput);
  EXPECT_EQ(back.sim_steps, cell.sim_steps);
  EXPECT_EQ(back.admission_events, cell.admission_events);
  EXPECT_EQ(back.transmissions, cell.transmissions);
  EXPECT_EQ(back.peak_active_channels, cell.peak_active_channels);
  EXPECT_EQ(back.channels, cell.channels);
  EXPECT_EQ(back.has_timings, cell.has_timings);
  EXPECT_EQ(back.routing_ms, cell.routing_ms);
  EXPECT_EQ(back.delivery_ms, cell.delivery_ms);
}

TEST(CheckpointCodec, RejectsMalformedLines) {
  const std::string good = encode_checkpoint_cell(CellResult{});
  EXPECT_THROW((void)decode_checkpoint_cell(""), std::runtime_error);
  EXPECT_THROW((void)decode_checkpoint_cell("cell\t1\t2"), std::runtime_error);
  EXPECT_THROW((void)decode_checkpoint_cell(good + "\textra"), std::runtime_error);
  EXPECT_THROW((void)decode_checkpoint_cell("x" + good), std::runtime_error);
}

// -------------------------------------------------------------- fingerprint

TEST(CheckpointFingerprint, IgnoresPresentationOnlyFields) {
  const ScenarioSpec base = small_spec();
  const std::uint64_t fp = spec_fingerprint(base);

  ScenarioSpec other = base;
  other.name = "renamed";
  other.threads = 7;
  other.adjacency = "implicit";
  other.snapshot_dir = "somewhere";
  EXPECT_EQ(spec_fingerprint(other), fp);  // none of these change results
}

TEST(CheckpointFingerprint, ChangesWithEveryResultDeterminingField) {
  const ScenarioSpec base = small_spec();
  const std::uint64_t fp = spec_fingerprint(base);
  const auto differs = [&](void (*mutate)(ScenarioSpec&)) {
    ScenarioSpec other = base;
    mutate(other);
    return spec_fingerprint(other) != fp;
  };
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.seed += 1; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.messages += 1; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.trials += 1; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.edge_capacity += 1; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.probe_budget += 1; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.max_steps += 1; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.p_values[0] += 0.01; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.topologies.push_back("hypercube:4"); }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.routers.pop_back(); }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.workloads[0] = "poisson:1"; }));
}

// ------------------------------------------------------------------- resume

TEST(CheckpointResume, ResumedRunEmitsByteIdenticalReport) {
  const fs::path dir = scratch_dir("resume");
  const ScenarioSpec spec = small_spec();
  const fs::path journal = dir / "sweep.ckpt";

  RunOptions options;
  options.checkpoint_path = journal.string();
  const std::string uninterrupted = run_report(spec, options);

  // The journal now holds all 8 cells. Chop it back to header + 3 cells to
  // simulate a sweep killed mid-flight, then resume.
  const std::string text = read_file(journal);
  std::size_t pos = 0;
  for (int newlines = 0; newlines < 4; ++newlines) pos = text.find('\n', pos) + 1;
  write_file(journal, text.substr(0, pos));
  EXPECT_EQ(CheckpointJournal(journal.string(), spec).num_completed(), 3u);

  const std::string resumed = run_report(spec, options);
  EXPECT_EQ(resumed, uninterrupted);

  // Fully-journaled rerun: every cell replays, the report still matches.
  EXPECT_EQ(CheckpointJournal(journal.string(), spec).num_completed(), 8u);
  EXPECT_EQ(run_report(spec, options), uninterrupted);
}

TEST(CheckpointResume, ResumeIsThreadCountIndependent) {
  const fs::path dir = scratch_dir("resume_threads");
  ScenarioSpec spec = small_spec();
  const fs::path journal = dir / "sweep.ckpt";

  RunOptions options;
  options.checkpoint_path = journal.string();
  spec.threads = 1;
  const std::string first = run_report(spec, options);
  const std::string text = read_file(journal);
  std::size_t pos = 0;
  for (int newlines = 0; newlines < 5; ++newlines) pos = text.find('\n', pos) + 1;
  write_file(journal, text.substr(0, pos));

  spec.threads = 4;  // thread count is outside the fingerprint, by design
  EXPECT_EQ(run_report(spec, options), first);
}

TEST(CheckpointResume, TornFinalLineIsDiscardedAndTruncated) {
  const fs::path dir = scratch_dir("torn");
  const ScenarioSpec spec = small_spec();
  const fs::path journal = dir / "sweep.ckpt";
  RunOptions options;
  options.checkpoint_path = journal.string();
  const std::string report = run_report(spec, options);

  const std::string text = read_file(journal);
  const std::string torn = text.substr(0, text.size() - 7);  // mid-final-line
  write_file(journal, torn);
  const CheckpointJournal loaded(journal.string(), spec);
  EXPECT_EQ(loaded.num_completed(), 7u);
  EXPECT_LT(fs::file_size(journal), torn.size());  // torn tail truncated away

  EXPECT_EQ(run_report(spec, options), report);
}

TEST(CheckpointResume, RefusesAJournalOfADifferentSpec) {
  const fs::path dir = scratch_dir("mismatch");
  const ScenarioSpec spec = small_spec();
  const fs::path journal = dir / "sweep.ckpt";
  RunOptions options;
  options.checkpoint_path = journal.string();
  (void)run_report(spec, options);

  ScenarioSpec reseeded = spec;
  reseeded.seed += 1;
  EXPECT_THROW(CheckpointJournal(journal.string(), reseeded), std::runtime_error);
  EXPECT_THROW((void)run_report(reseeded, options), std::runtime_error);
}

TEST(CheckpointResume, MidFileCorruptionThrowsInsteadOfResuming) {
  const fs::path dir = scratch_dir("corrupt");
  const ScenarioSpec spec = small_spec();
  const fs::path journal = dir / "sweep.ckpt";
  RunOptions options;
  options.checkpoint_path = journal.string();
  (void)run_report(spec, options);

  // Mangle the *second* cell line (not the final one): this cannot be a
  // torn append, so the journal is refused outright.
  auto text = read_file(journal);
  std::size_t pos = 0;
  for (int newlines = 0; newlines < 2; ++newlines) pos = text.find('\n', pos) + 1;
  text[pos + 5] = 'x';
  write_file(journal, text);
  EXPECT_THROW(CheckpointJournal(journal.string(), spec), std::runtime_error);
}

TEST(CheckpointResume, DuplicateCellThrows) {
  const fs::path dir = scratch_dir("duplicate");
  const ScenarioSpec spec = small_spec();
  const fs::path journal = dir / "sweep.ckpt";
  RunOptions options;
  options.checkpoint_path = journal.string();
  (void)run_report(spec, options);

  const std::string text = read_file(journal);
  const auto header_end = text.find('\n') + 1;
  const auto first_cell_end = text.find('\n', header_end) + 1;
  const std::string dup = text.substr(header_end, first_cell_end - header_end);
  write_file(journal, text + dup);  // newline-terminated duplicate, not torn
  EXPECT_THROW(CheckpointJournal(journal.string(), spec), std::runtime_error);
}

// ----------------------------------------------------------- shard + merge

TEST(ShardMerge, StitchedShardsMatchSingleProcessAcrossThreadCounts) {
  for (const std::string format : {"jsonl", "csv"}) {
    for (const unsigned threads : {1u, 2u, 4u}) {
      SCOPED_TRACE(format + " threads=" + std::to_string(threads));
      ScenarioSpec spec = small_spec();
      spec.threads = threads;
      const std::string single = run_report(spec, RunOptions{}, format);

      std::vector<std::string> shards;
      for (unsigned k = 1; k <= 3; ++k) {
        RunOptions options;
        options.shard_index = k;
        options.shard_count = 3;
        shards.push_back(run_report(spec, options, format));
      }
      std::ostringstream merged;
      const MergeStats stats = merge_reports(shards, merged);
      EXPECT_EQ(stats.format, format);
      EXPECT_EQ(stats.shards, 3u);
      EXPECT_EQ(stats.cells, 8u);
      EXPECT_EQ(merged.str(), single);
    }
  }
}

TEST(ShardMerge, ShardReportsOnlyOwnCells) {
  ScenarioSpec spec = small_spec();
  RunOptions options;
  options.shard_index = 2;
  options.shard_count = 3;
  std::ostringstream out;
  const auto reporter = make_reporter("jsonl", out);
  const RunSummary summary = run_scenario(spec, *reporter, options);
  EXPECT_EQ(summary.cells, 3u);  // cells 1, 4, 7 of 8
  EXPECT_NE(out.str().find("\"cell\":1,"), std::string::npos);
  EXPECT_NE(out.str().find("\"cell\":4,"), std::string::npos);
  EXPECT_NE(out.str().find("\"cell\":7,"), std::string::npos);
  EXPECT_EQ(out.str().find("\"cell\":0,"), std::string::npos);
}

TEST(ShardMerge, InvalidShardArgsAreRejected) {
  const ScenarioSpec spec = small_spec();
  std::ostringstream out;
  const auto reporter = make_reporter("jsonl", out);
  RunOptions options;
  options.shard_index = 4;
  options.shard_count = 3;
  EXPECT_THROW((void)run_scenario(spec, *reporter, options), std::invalid_argument);
  options.shard_index = 0;
  EXPECT_THROW((void)run_scenario(spec, *reporter, options), std::invalid_argument);
}

class MergeValidation : public ::testing::Test {
 protected:
  void SetUp() override {
    const ScenarioSpec spec = small_spec();
    for (unsigned k = 1; k <= 3; ++k) {
      RunOptions options;
      options.shard_index = k;
      options.shard_count = 3;
      shards_.push_back(run_report(spec, options));
    }
  }

  static std::string merged_of(const std::vector<std::string>& inputs) {
    std::ostringstream out;
    (void)merge_reports(inputs, out);
    return out.str();
  }

  std::vector<std::string> shards_;
};

TEST_F(MergeValidation, MissingShardIsReported) {
  EXPECT_THROW((void)merged_of({shards_[0], shards_[2]}), std::runtime_error);
  EXPECT_THROW((void)merged_of({}), std::runtime_error);
}

TEST_F(MergeValidation, DuplicateShardIsReported) {
  EXPECT_THROW((void)merged_of({shards_[0], shards_[1], shards_[1]}), std::runtime_error);
}

TEST_F(MergeValidation, HeaderMismatchIsReported) {
  ScenarioSpec reseeded = small_spec();
  reseeded.seed += 1;
  RunOptions options;
  options.shard_index = 3;
  options.shard_count = 3;
  const std::string foreign = run_report(reseeded, options);
  EXPECT_THROW((void)merged_of({shards_[0], shards_[1], foreign}), std::runtime_error);
}

TEST_F(MergeValidation, TruncatedShardIsReported) {
  // Drop the footer line (keeping the trailing newline of the last cell).
  std::string truncated = shards_[1];
  const auto footer = truncated.rfind("{\"type\":\"footer\"");
  truncated.resize(footer);
  EXPECT_THROW((void)merged_of({shards_[0], truncated, shards_[2]}), std::runtime_error);

  // Chop mid-line: no trailing newline at all.
  std::string torn = shards_[2];
  torn.resize(torn.size() - 3);
  EXPECT_THROW((void)merged_of({shards_[0], shards_[1], torn}), std::runtime_error);
}

TEST_F(MergeValidation, MergingACompleteSingleReportIsIdentity) {
  const std::string single = run_report(small_spec(), RunOptions{});
  EXPECT_EQ(merged_of({single}), single);
}

}  // namespace
}  // namespace faultroute::scenario
