// Seeded mutation fuzzing of the scenario layer's decoders of untrusted
// bytes: the spec parser, the checkpoint journal's cell-line codec and the
// shard-report stitcher behind `faultroute merge`. Every spec mutant must
// parse and validate or be refused with std::invalid_argument; every
// journal or shard mutant must round-trip exactly or be refused with
// std::runtime_error. A crash, a hang, another exception type, or a
// silently altered value fails the test. Seeds and iteration counts are
// fixed, so every run replays the same mutants and a failure reproduces
// exactly (the failing mutant is printed).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "random/rng.hpp"
#include "scenario/checkpoint.hpp"
#include "scenario/merge.hpp"
#include "scenario/reporter.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace faultroute::scenario {
namespace {

/// Bytes the decoders treat specially, so insertions and overwrites hit
/// framing, escapes, signs, blanks, hexfloat syntax, CSV quoting and the
/// spec grammar's assignments, separators and comments far more often than
/// uniform random bytes would.
constexpr char kDictionary[] = {'\t', '\n', '\r', '\\', '-', '+', ' ', '0', '9', 'x',
                                'p',  '.',  ',',  '"',  '{', '}', ':', 'e', 'n', 't',
                                '=',  ';',  '#',  '\0'};

char interesting_byte(Rng& rng) {
  if (uniform_below(rng, 4) == 0) return static_cast<char>(uniform_below(rng, 256));
  return kDictionary[uniform_below(rng, sizeof kDictionary)];
}

/// One to three random edits: bit flips, byte overwrites, insertions,
/// deletions of a short run, and truncations.
std::string mutate(std::string text, Rng& rng) {
  const std::uint64_t edits = 1 + uniform_below(rng, 3);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const std::uint64_t at = uniform_below(rng, text.size() + 1);
    switch (uniform_below(rng, 5)) {
      case 0:
        if (at < text.size()) text[at] ^= static_cast<char>(1u << uniform_below(rng, 8));
        break;
      case 1:
        if (at < text.size()) text[at] = interesting_byte(rng);
        break;
      case 2:
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), interesting_byte(rng));
        break;
      case 3:
        if (at < text.size()) text.erase(at, 1 + uniform_below(rng, 4));
        break;
      default:
        text.resize(at);
    }
  }
  return text;
}

TEST(DecoderFuzz, SpecMutantsParseOrThrowInvalidArgument) {
  // Two curated specs (scenarios/hypercube_phase.scn and gnp_oracle_gap.scn,
  // comments dropped) and one that sets capacity, budget, max_steps and
  // threads, with `;` separators and comments.
  const std::vector<std::string> corpus = {
      "name     = hypercube-phase\n"
      "topology = hypercube:10\n"
      "p        = 0.2:0.8:7\n"
      "router   = landmark\n"
      "workload = permutation\n"
      "messages = 1024\n"
      "trials   = 3\n"
      "seed     = 2005\n",
      "name     = gnp-oracle-gap\n"
      "topology = complete:512\n"
      "p        = 0.01, 0.02, 0.04, 0.08\n"
      "router   = gnp-local, gnp-oracle\n"
      "workload = random-pairs\n"
      "messages = 256\n"
      "trials   = 3\n"
      "seed     = 2005\n",
      "# two workloads with parameters\n"
      "topology = torus:2:8, mesh:2:6; p = 0.5, 0.9  # trailing comment\n"
      "router = greedy, best-first\n"
      "workload = poisson:0.5, hotspot:3\n"
      "messages = 64; trials = 2; seed = 7\n"
      "capacity = 2\n"
      "budget = 500\n"
      "max_steps = 1000\n"
      "threads = 2\n",
  };
  // parse_scenario also runs validate_scenario.
  for (const std::string& text : corpus) ASSERT_NO_THROW((void)parse_scenario(text));
  Rng rng(0x73706563ULL);
  std::uint64_t accepted = 0;
  std::uint64_t refused = 0;
  for (int iteration = 0; iteration < 20000; ++iteration) {
    const std::string mutant = mutate(corpus[uniform_below(rng, corpus.size())], rng);
    try {
      (void)parse_scenario(mutant);
      ++accepted;
    } catch (const std::invalid_argument&) {
      ++refused;
    } catch (const std::exception& e) {
      FAIL() << "iteration " << iteration << " threw " << e.what() << "; mutant:\n" << mutant;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(refused, 0u);
}

/// Keeps every reported cell.
class CollectingReporter final : public Reporter {
 public:
  void begin(const ScenarioSpec& /*spec*/) override {}
  void report(const CellResult& cell) override { cells.push_back(cell); }
  void end() override {}
  std::vector<CellResult> cells;
};

ScenarioSpec small_spec() {
  return parse_scenario(
      "topology = hypercube:4\n"
      "router = landmark, greedy\n"
      "p = 0.4, 0.7\n"
      "messages = 12; trials = 2; seed = 77\n");
}

/// Journal lines of a real sweep plus hand-built cells at the edges of
/// every field type (escaped strings, extreme integers, subnormal, negative
/// zero and infinite doubles).
std::vector<std::string> journal_corpus() {
  CollectingReporter collected;
  (void)run_scenario(small_spec(), collected);
  std::vector<CellResult> cells = collected.cells;

  CellResult edge;
  edge.topology = "tab\there\\and\nnewline\r";
  edge.topology_name = "";
  edge.workload_seed = std::numeric_limits<std::uint64_t>::max();
  edge.p = 5e-324;
  edge.mean_path_edges = -0.0;
  edge.mean_edge_load = std::numeric_limits<double>::infinity();
  edge.throughput = 0.1;
  cells.push_back(edge);
  cells.push_back(CellResult{});

  std::vector<std::string> lines;
  lines.reserve(cells.size());
  for (const CellResult& cell : cells) lines.push_back(encode_checkpoint_cell(cell));
  return lines;
}

TEST(DecoderFuzz, JournalCellLinesRoundTripOrThrow) {
  const std::vector<std::string> corpus = journal_corpus();
  for (const std::string& line : corpus) {
    ASSERT_EQ(encode_checkpoint_cell(decode_checkpoint_cell(line)), line);
  }
  Rng rng(0x6a6f75726e616cULL);
  std::uint64_t accepted = 0;
  std::uint64_t refused = 0;
  for (int iteration = 0; iteration < 12000; ++iteration) {
    const std::string mutant = mutate(corpus[uniform_below(rng, corpus.size())], rng);
    try {
      const CellResult cell = decode_checkpoint_cell(mutant);
      ++accepted;
      ASSERT_EQ(encode_checkpoint_cell(cell), mutant)
          << "iteration " << iteration << " mutant: " << mutant;
    } catch (const std::runtime_error&) {
      ++refused;
    }
  }
  // Both outcomes must occur, or the mutator is not exercising the codec.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(refused, 0u);
}

std::string merged(const std::vector<std::string>& shards) {
  std::ostringstream out;
  (void)merge_reports(shards, out);
  return out.str();
}

TEST(DecoderFuzz, MergedShardMutantsAreRefusedOrStable) {
  const ScenarioSpec spec = small_spec();
  Rng rng(0x6d65726765ULL);
  for (const std::string format : {"jsonl", "csv"}) {
    SCOPED_TRACE(format);
    std::vector<std::string> shards;
    for (unsigned k = 1; k <= 3; ++k) {
      RunOptions options;
      options.shard_index = k;
      options.shard_count = 3;
      std::ostringstream out;
      const auto reporter = make_reporter(format, out);
      (void)run_scenario(spec, *reporter, options);
      shards.push_back(out.str());
    }
    const std::string single = merged(shards);
    ASSERT_EQ(merged({single}), single);

    std::uint64_t accepted = 0;
    std::uint64_t refused = 0;
    for (int iteration = 0; iteration < 2000; ++iteration) {
      std::vector<std::string> mutants = shards;
      std::string& target = mutants[uniform_below(rng, mutants.size())];
      target = mutate(target, rng);
      std::string result;
      try {
        result = merged(mutants);
      } catch (const std::runtime_error&) {
        ++refused;
        continue;
      }
      ++accepted;
      // Whatever merge accepts, it must emit a complete report: one that
      // merging again, alone, reproduces byte for byte.
      ASSERT_EQ(merged({result}), result) << "iteration " << iteration << " mutant:\n"
                                          << target;
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(refused, 0u);
  }
}

}  // namespace
}  // namespace faultroute::scenario
