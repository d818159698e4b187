// Checkpoint/resume (scenario/checkpoint.hpp) and sharded sweeps +
// report merging (scenario/merge.hpp): journal encode/decode exactness,
// the spec fingerprint that guards resumes, byte-identical resumed and
// sharded-then-merged reports, and the strict validation both layers apply
// to torn or inconsistent inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/schemas.hpp"
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

  const CellResult back = decode_checkpoint_cell(encode_checkpoint_cell(cell));
  EXPECT_EQ(back, cell);
  EXPECT_TRUE(std::signbit(back.mean_path_edges));  // -0.0, not 0.0
}

/// `good` with its field `name` (a table name) replaced by `text`.
std::string with_field(const std::string& good, const std::string& name,
                       const std::string& text) {
  std::size_t field = 1;
  while (std::string(kCellFieldNames[field - 1]) != name) ++field;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < field; ++i) begin = good.find('\t', begin) + 1;
  const std::size_t end = std::min(good.find('\t', begin), good.size());
  return good.substr(0, begin) + text + good.substr(end);
}

TEST(CheckpointCodec, RejectsMalformedLines) {
  const std::string empty = encode_checkpoint_cell(CellResult{});
  EXPECT_THROW((void)decode_checkpoint_cell(""), std::runtime_error);
  EXPECT_THROW((void)decode_checkpoint_cell("cell\t1\t2"), std::runtime_error);
  EXPECT_THROW((void)decode_checkpoint_cell(empty + "\textra"), std::runtime_error);
  EXPECT_THROW((void)decode_checkpoint_cell("x" + empty), std::runtime_error);

  // Fields the lenient C parsers would read (strtoull: "-1" as 2^64-1,
  // " 7" and "+7" as 7; strtod: 0x1p+99999 as inf) but the encoder never
  // writes: each is refused with a diagnostic naming the field.
  CellResult cell;
  cell.messages = 7;
  cell.p = 0.5;
  const std::string good = encode_checkpoint_cell(cell);
  ASSERT_EQ(decode_checkpoint_cell(with_field(good, "messages", "7")), cell);
  for (const auto& [name, text] : std::vector<std::pair<std::string, std::string>>{
           {"messages", "-1"}, {"messages", " 7"}, {"messages", "+7"},
           {"messages", "007"}, {"messages", "18446744073709551616"}, {"messages", ""},
           {"p", "0x1p+99999"}, {"p", "0.5"}, {"p", "0x1.0p-1"}, {"p", " 0x1p-1"},
           {"topology", "a\\q"}, {"topology", "a\\"}, {"topology", "a\nb"}}) {
    SCOPED_TRACE(name + "=" + text);
    try {
      (void)decode_checkpoint_cell(with_field(good, name, text));
      ADD_FAILURE() << "accepted a non-canonical field";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("malformed checkpoint cell line: field '" + name +
                                           "'"),
                std::string::npos)
          << e.what();
    }
  }
}

// ------------------------------------------------------- cell field table

TEST(CellFieldTable, EveryEntryReachesEveryFormatOnce) {
  // A distinct value per entry, so a field written under another's name or
  // twice would show.
  CellResult cell;
  std::uint64_t next = 1;
  for_each_cell_field(cell, [&next](const char* /*name*/, auto& value) {
    using Value = std::decay_t<decltype(value)>;
    if constexpr (std::is_same_v<Value, std::string>) {
      value = "s" + std::to_string(next);
    } else if constexpr (std::is_same_v<Value, double>) {
      value = static_cast<double>(next) + 0.25;
    } else {
      value = next;
    }
    ++next;
  });
  ASSERT_EQ(next, kCellFieldCount + 1);
  ScenarioSpec spec;
  spec.name = "table";

  std::ostringstream jsonl;
  JsonLinesReporter json_reporter(jsonl);
  json_reporter.report(cell);
  const std::string line = jsonl.str();
  for (const char* name : kCellFieldNames) {
    // Appended piecewise: g++ 12's -Wrestrict misfires on operator+ here.
    std::string key = "\"";
    key += name;
    key += "\":";
    std::size_t count = 0;
    for (auto at = line.find(key); at != std::string::npos; at = line.find(key, at + 1)) {
      ++count;
    }
    EXPECT_EQ(count, 1u) << key;
  }

  std::ostringstream csv;
  CsvReporter csv_reporter(csv);
  csv_reporter.begin(spec);
  csv_reporter.report(cell);
  std::istringstream rows(csv.str());
  std::string header;
  std::string row;
  ASSERT_TRUE(std::getline(rows, header));
  ASSERT_TRUE(std::getline(rows, row));
  const auto columns = [](const std::string& text) {
    return 1 + static_cast<std::size_t>(std::count(text.begin(), text.end(), ','));
  };
  EXPECT_EQ(columns(header), 2 + kCellFieldCount);  // schema, scenario, fields
  EXPECT_EQ(columns(row), columns(header));

  EXPECT_EQ(decode_checkpoint_cell(encode_checkpoint_cell(cell)), cell);
}

// -------------------------------------------------------------- fingerprint

TEST(CheckpointFingerprint, IgnoresPresentationOnlyFields) {
  const ScenarioSpec base = small_spec();
  const std::uint64_t fp = spec_fingerprint(base);

  ScenarioSpec other = base;
  other.name = "renamed";
  other.threads = 7;
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

TEST(CheckpointResume, RefusesAnOlderSchemaNamingBothVersions) {
  const fs::path dir = scratch_dir("old_schema");
  const ScenarioSpec spec = small_spec();
  const fs::path journal = dir / "sweep.ckpt";
  RunOptions options;
  options.checkpoint_path = journal.string();
  (void)run_report(spec, options);

  // The same journal as the previous schema version would have headed it.
  const std::string current = obs::schemas::kCheckpoint;
  const std::string previous = current.substr(0, current.rfind(".v") + 2) +
                               std::to_string(obs::schemas::kCheckpointVersion - 1);
  std::string text = read_file(journal);
  ASSERT_EQ(text.compare(0, current.size(), current), 0);
  write_file(journal, previous + text.substr(current.size()));
  try {
    const CheckpointJournal loaded(journal.string(), spec);
    ADD_FAILURE() << "resumed from a journal of another schema";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'" + previous + "'"), std::string::npos) << what;
    EXPECT_NE(what.find("'" + current + "'"), std::string::npos) << what;
  }
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
