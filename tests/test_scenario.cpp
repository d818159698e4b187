// Scenario subsystem: grammar parsing, validation, deterministic execution,
// and the reporter schemas.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/run_metrics.hpp"
#include "scenario/reporter.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace faultroute::scenario {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) lines.push_back(line);
  return lines;
}

// ----------------------------------------------------------------- grammar

TEST(ScenarioSpec, DefaultsAndSingleValues) {
  const auto spec = parse_scenario("topology = hypercube:6");
  EXPECT_EQ(spec.name, "scenario");
  ASSERT_EQ(spec.topologies, std::vector<std::string>{"hypercube:6"});
  EXPECT_EQ(spec.routers, std::vector<std::string>{"landmark"});
  EXPECT_EQ(spec.workloads, std::vector<std::string>{"permutation"});
  ASSERT_EQ(spec.p_values.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.p_values[0], 0.5);
  EXPECT_EQ(spec.trials, 1u);
  EXPECT_EQ(spec.num_cells(), 1u);
}

TEST(ScenarioSpec, ParsesCommentsListsAndRanges) {
  const auto spec = parse_scenario(R"(
      # a comment line
      name     = full-grammar          # trailing comment
      topology = hypercube:6, torus:2:8
      router   = landmark,greedy
      workload = permutation, poisson:2.5
      p        = 0.2:0.8:4
      messages = 128; trials = 2; seed = 42   # ;-separated assignments
      threads  = 3
      capacity = 2
      budget   = 1000
      max_steps = 500
  )");
  EXPECT_EQ(spec.name, "full-grammar");
  EXPECT_EQ(spec.topologies.size(), 2u);
  EXPECT_EQ(spec.routers.size(), 2u);
  EXPECT_EQ(spec.workloads[1], "poisson:2.5");
  ASSERT_EQ(spec.p_values.size(), 4u);
  EXPECT_DOUBLE_EQ(spec.p_values[0], 0.2);
  EXPECT_DOUBLE_EQ(spec.p_values[3], 0.8);
  EXPECT_EQ(spec.messages, 128u);
  EXPECT_EQ(spec.trials, 2u);
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_EQ(spec.threads, 3u);
  EXPECT_EQ(spec.edge_capacity, 2u);
  EXPECT_EQ(spec.probe_budget, 1000u);
  EXPECT_EQ(spec.max_steps, 500u);
  // 2 topologies x 4 p x 2 routers x 2 workloads x 2 trials
  EXPECT_EQ(spec.num_cells(), 64u);
}

TEST(ScenarioSpec, CommaListOfProbabilities) {
  const auto spec = parse_scenario("topology=hypercube:6\np = 0.25, 0.5, 0.75");
  ASSERT_EQ(spec.p_values.size(), 3u);
  EXPECT_DOUBLE_EQ(spec.p_values[1], 0.5);
}

TEST(ScenarioSpec, OverridesComposeAcrossApplyCalls) {
  ScenarioSpec spec;
  apply_scenario_assignments(spec, "topology=hypercube:6; messages=512");
  apply_scenario_assignments(spec, "messages=64");  // later call wins
  validate_scenario(spec);
  EXPECT_EQ(spec.messages, 64u);
}

TEST(ScenarioSpec, RejectsBadSyntax) {
  const char* bad[] = {
      "topology hypercube:6",            // no '='
      "= hypercube:6",                   // missing key
      "topology =",                      // missing value
      "flavour = vanilla",               // unknown key
      "topology = hypercube:6, , mesh:2:8",  // empty list element
      "p = 0.1:0.9",                     // range needs 3 parts
      "p = 0.1:0.9:1",                   // range needs >= 2 points
      "p = 0.9:0.1:3",                   // reversed range
      "p = zero",                        // not a number
      "messages = -5",                   // negative integer
      "messages = 5x",                   // trailing garbage
      "trials = 1; trials = 2",          // duplicate key in one text
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)parse_scenario(std::string("topology=hypercube:6\n") + text),
                 std::invalid_argument)
        << "'" << text << "'";
  }
}

TEST(ScenarioSpec, RetiredKeysAreUnknownAndNamed) {
  // The routing-phase A/B key is gone; a spec still carrying it must fail
  // with a diagnostic naming the key, not be silently ignored.
  try {
    (void)parse_scenario("topology = hypercube:6; frontier = batch");
    FAIL() << "frontier = batch was accepted";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("unknown key 'frontier'"), std::string::npos) << message;
    EXPECT_EQ(message.find(", frontier"), std::string::npos) << message;
  }
}

TEST(ScenarioSpec, ValidatesRanges) {
  const char* bad[] = {
      "p = 1.5",       // probability > 1
      "p = -0.1",      // probability < 0
      "messages = 0",  // must be >= 1
      "trials = 0",    // must be >= 1
      "capacity = 0",  // must be >= 1
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)parse_scenario(std::string("topology=hypercube:6\n") + text),
                 std::invalid_argument)
        << "'" << text << "'";
  }
  // No topology at all.
  EXPECT_THROW((void)parse_scenario("p = 0.5"), std::invalid_argument);
}

TEST(ScenarioSpec, RejectsOversizedCrossProductWithoutOverflowing) {
  // 2^62 trials x 4 routers wraps a naive uint64 product to 0; the
  // validator must multiply overflow-checked and reject.
  EXPECT_THROW((void)parse_scenario("topology = hypercube:4\n"
                                    "router = landmark, greedy, best-first, bidirectional\n"
                                    "trials = 4611686018427387904"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_scenario("topology = hypercube:4\ntrials = 2000000"),
               std::invalid_argument);
}

// ------------------------------------------------------------------ runner

constexpr const char* kTinyScenario =
    "topology = hypercube:5\n"
    "p        = 0.4, 0.8\n"
    "router   = landmark, greedy\n"
    "workload = random-pairs\n"
    "messages = 24\n"
    "trials   = 2\n"
    "seed     = 99\n";

std::string run_jsonl(unsigned threads) {
  auto spec = parse_scenario(kTinyScenario);
  spec.threads = threads;
  std::ostringstream out;
  JsonLinesReporter reporter(out);
  (void)run_scenario(spec, reporter);
  return out.str();
}

TEST(ScenarioRunner, EmitsSchemaVersionedJsonLines) {
  const auto lines = lines_of(run_jsonl(1));
  // header + 8 cells + footer
  ASSERT_EQ(lines.size(), 10u);
  EXPECT_NE(lines.front().find(std::string("\"schema\":\"") + kSchemaName + "\""),
            std::string::npos);
  EXPECT_NE(lines.front().find("\"provenance\""), std::string::npos);
  EXPECT_NE(lines.front().find("\"cells\":8"), std::string::npos);
  for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
    EXPECT_EQ(lines[i].find("{\"type\":\"cell\",\"cell\":" + std::to_string(i - 1)), 0u);
  }
  EXPECT_EQ(lines.back(), "{\"type\":\"footer\",\"cells_reported\":8}");
}

TEST(ScenarioRunner, ByteIdenticalAcrossRerunsAndThreadCounts) {
  const std::string sequential = run_jsonl(1);
  EXPECT_EQ(sequential, run_jsonl(1)) << "rerun must be byte-identical";
  EXPECT_EQ(sequential, run_jsonl(4)) << "thread count must not change the report";
}

TEST(ScenarioRunner, LonePendingCellRoutesOnTheSpecsThreads) {
  // One cell leaves the cell loop nothing to spread, so the cell's routing
  // phase takes the threads (`faultroute traffic`'s one-batch parallelism).
  const auto run = [](unsigned threads, obs::RunMetrics* metrics) {
    auto spec = parse_scenario("topology = hypercube:6; workload = random-pairs; messages = 48");
    spec.threads = threads;
    RunOptions options;
    options.metrics = metrics;
    std::ostringstream out;
    JsonLinesReporter reporter(out);
    (void)run_scenario(spec, reporter, options);
    return out.str();
  };
  obs::RunMetrics metrics;
  EXPECT_EQ(run(3, &metrics), run(1, nullptr));
  // The calling thread's track, plus one per routing worker.
  EXPECT_EQ(metrics.profiler().tracks().size(), 4u);
}

TEST(ScenarioRunner, SeedChangesEveryEnvironment) {
  auto spec = parse_scenario(kTinyScenario);
  spec.seed = 100;
  std::ostringstream out;
  JsonLinesReporter reporter(out);
  (void)run_scenario(spec, reporter);
  EXPECT_NE(out.str(), run_jsonl(1));
}

TEST(ScenarioRunner, SummaryCountsMatchCells) {
  auto spec = parse_scenario(kTinyScenario);
  std::ostringstream out;
  CsvReporter reporter(out);
  const RunSummary summary = run_scenario(spec, reporter);
  EXPECT_EQ(summary.cells, 8u);
  EXPECT_EQ(summary.messages, 8u * 24u);
  EXPECT_GE(summary.messages, summary.delivered);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 9u);  // header row + 8 cells
  EXPECT_EQ(lines[0].rfind("schema,scenario,cell,topology,", 0), 0u);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].rfind(std::string(kSchemaName) + ",", 0), 0u) << lines[i];
  }
}

TEST(ScenarioRunner, FailsFastOnBadRegistrySpecs) {
  std::ostringstream out;
  JsonLinesReporter reporter(out);

  auto bad_topology = parse_scenario("topology = klein_bottle:4");
  EXPECT_THROW((void)run_scenario(bad_topology, reporter), std::invalid_argument);

  auto bad_router = parse_scenario("topology = hypercube:5\nrouter = teleport");
  EXPECT_THROW((void)run_scenario(bad_router, reporter), std::invalid_argument);

  auto bad_workload = parse_scenario("topology = hypercube:5\nworkload = poisson");
  EXPECT_THROW((void)run_scenario(bad_workload, reporter), std::invalid_argument);

  // double-tree routers only route between the two roots.
  auto bad_pairing = parse_scenario("topology = hypercube:5\nrouter = double-tree-local");
  EXPECT_THROW((void)run_scenario(bad_pairing, reporter), std::invalid_argument);

  // hotspot target out of range for the topology (32 vertices).
  auto bad_target = parse_scenario("topology = hypercube:5\nworkload = hotspot:999");
  EXPECT_THROW((void)run_scenario(bad_target, reporter), std::invalid_argument);

  EXPECT_TRUE(out.str().empty()) << "fail-fast must precede any output";
}

TEST(ScenarioRunner, MakeReporterKnowsBothFormatsOnly) {
  std::ostringstream out;
  EXPECT_NE(make_reporter("jsonl", out), nullptr);
  EXPECT_NE(make_reporter("csv", out), nullptr);
  EXPECT_THROW((void)make_reporter("xml", out), std::invalid_argument);
}

}  // namespace
}  // namespace faultroute::scenario
