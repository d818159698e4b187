#include "scenario/spec.hpp"

#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "sim/strict_parse.hpp"
#include "sim/sweep.hpp"

namespace faultroute::scenario {

namespace {

std::string trim(const std::string& text) {
  const auto first = text.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto last = text.find_last_not_of(" \t\r");
  return text.substr(first, last - first + 1);
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::istringstream stream(text);
  std::string token;
  while (std::getline(stream, token, sep)) parts.push_back(token);
  return parts;
}

[[noreturn]] void fail(const std::string& key, const std::string& why) {
  // analyze:allow-throw-safety(spec validation runs before any parallel phase)
  throw std::invalid_argument("scenario key '" + key + "': " + why);
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  const auto parsed = sim::strict_u64(trim(value));
  if (!parsed) fail(key, "expected a non-negative integer, got '" + value + "'");
  return *parsed;
}

double parse_f64(const std::string& key, const std::string& value) {
  const auto parsed = sim::strict_f64(trim(value));
  if (!parsed) fail(key, "expected a number, got '" + value + "'");
  return *parsed;
}

std::vector<std::string> parse_list(const std::string& key, const std::string& value) {
  std::vector<std::string> items;
  for (const auto& part : split(value, ',')) {
    const std::string item = trim(part);
    if (item.empty()) fail(key, "empty element in list '" + value + "'");
    items.push_back(item);
  }
  if (items.empty()) fail(key, "expected at least one element");
  return items;
}

/// `p` accepts either a comma list of probabilities or one lo:hi:points
/// linspace range (range bounds are validated later with everything else).
std::vector<double> parse_p_values(const std::string& key, const std::string& value) {
  if (value.find(':') != std::string::npos) {
    const auto parts = split(value, ':');
    if (parts.size() != 3) fail(key, "range must be lo:hi:points, got '" + value + "'");
    const double lo = parse_f64(key, parts[0]);
    const double hi = parse_f64(key, parts[1]);
    const std::uint64_t points = parse_u64(key, parts[2]);
    if (points < 2) fail(key, "range needs >= 2 points, got '" + value + "'");
    if (points > 10000) fail(key, "range capped at 10000 points, got '" + value + "'");
    if (!(lo <= hi)) fail(key, "range needs lo <= hi, got '" + value + "'");
    return sim::linspace(lo, hi, static_cast<int>(points));
  }
  std::vector<double> values;
  for (const auto& item : parse_list(key, value)) values.push_back(parse_f64(key, item));
  return values;
}

}  // namespace

void apply_scenario_assignments(ScenarioSpec& spec, const std::string& text) {
  std::set<std::string> assigned;
  std::vector<std::string> statements;
  for (auto line : split(text, '\n')) {
    // Comments run to end of line, so strip them before ';'-splitting.
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    for (const auto& stmt : split(line, ';')) statements.push_back(stmt);
  }
  for (const auto& raw : statements) {
    const std::string statement = trim(raw);
    if (statement.empty()) continue;

    const auto eq = statement.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("scenario: expected 'key = value', got '" + statement + "'");
    }
    const std::string key = trim(statement.substr(0, eq));
    const std::string value = trim(statement.substr(eq + 1));
    if (key.empty()) throw std::invalid_argument("scenario: missing key in '" + statement + "'");
    if (value.empty()) fail(key, "missing value");
    if (!assigned.insert(key).second) fail(key, "assigned twice in one spec");

    if (key == "name") {
      spec.name = value;
    } else if (key == "topology") {
      spec.topologies = parse_list(key, value);
    } else if (key == "router") {
      spec.routers = parse_list(key, value);
    } else if (key == "workload") {
      spec.workloads = parse_list(key, value);
    } else if (key == "p") {
      spec.p_values = parse_p_values(key, value);
    } else if (key == "messages") {
      spec.messages = parse_u64(key, value);
    } else if (key == "trials") {
      spec.trials = parse_u64(key, value);
    } else if (key == "seed") {
      spec.seed = parse_u64(key, value);
    } else if (key == "threads") {
      const std::uint64_t threads = parse_u64(key, value);
      if (threads > 4096) fail(key, "more than 4096 threads is surely a typo");
      spec.threads = static_cast<unsigned>(threads);
    } else if (key == "capacity") {
      spec.edge_capacity = parse_u64(key, value);
    } else if (key == "budget") {
      spec.probe_budget = parse_u64(key, value);
    } else if (key == "max_steps") {
      spec.max_steps = parse_u64(key, value);
    } else if (key == "snapshot_dir") {
      spec.snapshot_dir = value;
    } else {
      throw std::invalid_argument(
          "scenario: unknown key '" + key +
          "' (known: name, topology, router, workload, p, messages, trials, seed, threads, "
          "capacity, budget, max_steps, snapshot_dir)");
    }
  }
}

void validate_scenario(const ScenarioSpec& spec) {
  if (spec.topologies.empty()) fail("topology", "required (no topology given)");
  if (spec.routers.empty()) fail("router", "needs at least one router");
  if (spec.workloads.empty()) fail("workload", "needs at least one workload");
  if (spec.p_values.empty()) fail("p", "needs at least one value");
  for (const double p : spec.p_values) {
    if (!(p >= 0.0 && p <= 1.0)) {
      fail("p", "survival probability must be in [0, 1], got " + std::to_string(p));
    }
  }
  if (spec.messages == 0) fail("messages", "must be >= 1");
  if (spec.trials == 0) fail("trials", "must be >= 1");
  if (spec.edge_capacity == 0) fail("capacity", "must be >= 1");
  // The runner buffers one CellResult per cell (a few hundred bytes each) to
  // report in deterministic order, so cap the cross-product well below
  // memory trouble; larger sweeps should be split across scenario files.
  // Multiply incrementally so absurd axis sizes cannot wrap uint64 and
  // sneak past the cap.
  constexpr std::uint64_t kMaxCells = 1u << 20;
  std::uint64_t cells = 1;
  for (const std::uint64_t axis : {static_cast<std::uint64_t>(spec.topologies.size()),
                                   static_cast<std::uint64_t>(spec.p_values.size()),
                                   static_cast<std::uint64_t>(spec.routers.size()),
                                   static_cast<std::uint64_t>(spec.workloads.size()),
                                   spec.trials}) {
    if (axis > kMaxCells / cells) {
      // analyze:allow-throw-safety(spec validation runs before any parallel phase)
      throw std::invalid_argument("scenario: sweep cross-product exceeds the supported " +
                                  std::to_string(kMaxCells) + " cells");
    }
    cells *= axis;
  }
}

ScenarioSpec parse_scenario(const std::string& text) {
  ScenarioSpec spec;
  apply_scenario_assignments(spec, text);
  validate_scenario(spec);
  return spec;
}

ScenarioSpec load_scenario_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot read scenario file '" + path + "'");
  std::ostringstream buffer;
  buffer << file.rdbuf();

  ScenarioSpec spec;
  // Default the report label to the file stem; an explicit `name =` wins.
  auto stem = path;
  const auto slash = stem.find_last_of("/\\");
  if (slash != std::string::npos) stem = stem.substr(slash + 1);
  const auto dot = stem.find_last_of('.');
  if (dot != std::string::npos && dot > 0) stem.resize(dot);
  if (!stem.empty()) spec.name = stem;

  apply_scenario_assignments(spec, buffer.str());
  validate_scenario(spec);
  return spec;
}

}  // namespace faultroute::scenario
