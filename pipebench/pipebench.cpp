// pipebench — one job of the pipeline benchmark per process. run.py (next to
// this file) builds it, drives it and turns its output into the benchmark's
// metrics; README.md describes the workloads and the metrics.
//
//   pipebench info
//       build provenance and hardware concurrency.
//   pipebench run --spec TEXT [--setup-seconds S] [--trace PATH]
//                 [--corrupt-cell I]
//       one scenario::run_scenario call over the spec. Every cell is checked
//       and every report line hashed. Instrumentation stays off unless
//       --trace is given; then an obs::RunMetrics is attached, the
//       benchmark's own set-up and workload-generation spans are recorded
//       after the call, the Chrome trace is written to PATH, and the output
//       adds the per-layer rollup. --setup-seconds S then times the set-up a
//       sweep over the spec's topologies pays — sim::make_topology +
//       Topology::channel_index() + the CSR adjacency under the kAuto vertex
//       budget, fresh topologies each time — repeatedly for S seconds.
//       --corrupt-cell I alters cell I's result before it is checked and
//       rendered (the benchmark's self-test uses it).
//
// Every job prints exactly one JSON object on stdout and exits 0, or prints
// a diagnostic on stderr and exits 1.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "graph/channel_index.hpp"
#include "graph/flat_adjacency.hpp"
#include "graph/topology.hpp"
#include "obs/build_info.hpp"
#include "obs/counter_registry.hpp"
#include "obs/run_metrics.hpp"
#include "random/rng.hpp"
#include "scenario/reporter.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "sim/registry.hpp"
#include "traffic/workload.hpp"

namespace {

using namespace faultroute;
using Clock = std::chrono::steady_clock;
using Profiler = obs::PhaseProfiler;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs `body` inside a span named `name` (a no-op span without a profiler)
/// and returns its wall time in seconds.
template <class Body>
double timed(Profiler* profiler, std::string_view name, Body&& body) {
  const Profiler::Scope scope(profiler, name);
  const auto start = Clock::now();
  body();
  return seconds_since(start);
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// FNV-1a, 64-bit: a digest of report bytes for regression pins, not a MAC.
std::string fnv1a_hex(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + '"';
}

std::string json_number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  return buf;
}

/// Minimal JSON object builder: fields are appended in call order.
class JsonObject {
 public:
  JsonObject& raw(std::string_view key, std::string_view json) {
    out_ += out_.empty() ? "{" : ",";
    out_ += json_string(key);
    out_ += ':';
    out_ += json;
    return *this;
  }
  JsonObject& num(std::string_view key, double value) { return raw(key, json_number(value)); }
  JsonObject& count(std::string_view key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& str(std::string_view key, std::string_view value) {
    return raw(key, json_string(value));
  }
  [[nodiscard]] std::string close() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

template <class Map>
std::string json_map(const Map& map) {
  JsonObject obj;
  for (const auto& [key, value] : map) {
    if constexpr (std::is_floating_point_v<std::decay_t<decltype(value)>>) {
      obj.num(key, value);
    } else {
      obj.count(key, value);
    }
  }
  return obj.close();
}

template <class T>
std::string json_list(const std::vector<T>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    if constexpr (std::is_same_v<T, std::string>) {
      out += json_string(items[i]);
    } else {
      out += json_number(static_cast<double>(items[i]));
    }
  }
  return out + ']';
}

/// Reporter decorator that records every reporter call as a "report" span.
/// Without a profiler the spans are no-ops.
class TimingReporter final : public scenario::Reporter {
 public:
  TimingReporter(scenario::Reporter& inner, Profiler* profiler)
      : inner_(inner), profiler_(profiler) {}
  void begin(const scenario::ScenarioSpec& spec) override {
    const Profiler::Scope scope(profiler_, "report");
    inner_.begin(spec);
  }
  void report(const scenario::CellResult& cell) override {
    const Profiler::Scope scope(profiler_, "report");
    inner_.report(cell);
  }
  void end() override {
    const Profiler::Scope scope(profiler_, "report");
    inner_.end();
  }

 private:
  scenario::Reporter& inner_;
  Profiler* profiler_;
};

/// Renders the JSON-lines report in memory and checks it as it streams:
/// every cell line is hashed (the header with its build provenance removed,
/// so digests compare across builds), and every cell is checked against the
/// identities TrafficResult documents.
class CheckingReporter final : public scenario::Reporter {
 public:
  explicit CheckingReporter(std::optional<std::uint64_t> corrupt_cell)
      : corrupt_cell_(corrupt_cell) {}

  void begin(const scenario::ScenarioSpec& spec) override {
    expected_messages_ = spec.messages;
    unbounded_delivery_ = spec.max_steps == 0;
    jsonl_.begin(spec);
    header_ = strip_provenance(take_line());
  }

  void report(const scenario::CellResult& result) override {
    scenario::CellResult cell = result;
    if (corrupt_cell_ == cell.cell) ++cell.cache_hits;
    check(cell);
    jsonl_.report(cell);
    cell_hashes_.push_back(fnv1a_hex(take_line()));
    totals_["messages"] += cell.messages;
    totals_["delivered"] += cell.delivered;
    totals_["distinct_probes"] += cell.total_distinct_probes;
    totals_["transmissions"] += cell.transmissions;
    totals_["sim_steps"] += cell.sim_steps;
  }

  void end() override {
    jsonl_.end();
    frame_hash_ = fnv1a_hex(header_ + "\n" + take_line());
  }

  [[nodiscard]] const std::vector<std::string>& cell_hashes() const { return cell_hashes_; }
  [[nodiscard]] const std::string& frame_hash() const { return frame_hash_; }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& totals() const { return totals_; }
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }
  [[nodiscard]] const std::set<std::uint64_t>& failed_cells() const { return failed_cells_; }

 private:
  void check(const scenario::CellResult& c) {
    const auto require = [&](bool ok, const char* what) {
      if (ok) return;
      failures_.push_back("cell " + std::to_string(c.cell) + ": " + what);
      failed_cells_.insert(c.cell);
    };
    require(c.cache_hits + c.cache_misses == c.total_distinct_probes,
            "cache_hits + cache_misses != total_distinct_probes");
    require(c.cache_misses == c.unique_edges_probed, "cache_misses != unique_edges_probed");
    require(c.messages == expected_messages_, "messages != spec messages");
    require(c.routed + c.failed_routing + c.censored + c.invalid_paths == c.messages,
            "routed + failed + censored + invalid != messages");
    require(c.invalid_paths == 0, "a router returned an invalid path");
    require(!unbounded_delivery_ || (c.delivered == c.routed && c.stranded == 0),
            "unbounded delivery left routed messages undelivered");
  }

  std::string take_line() {
    std::string line = buffer_.str();
    buffer_.str("");
    while (!line.empty() && line.back() == '\n') line.pop_back();
    return line;
  }

  /// Drops the `,"provenance":{...}` member from the header line.
  static std::string strip_provenance(std::string header) {
    const std::string key = ",\"provenance\":{";
    const auto at = header.find(key);
    if (at == std::string::npos) return header;
    const auto close = header.find('}', at + key.size());
    if (close == std::string::npos) return header;
    header.erase(at, close + 1 - at);
    return header;
  }

  std::optional<std::uint64_t> corrupt_cell_;
  std::ostringstream buffer_;
  scenario::JsonLinesReporter jsonl_{buffer_};
  std::uint64_t expected_messages_ = 0;
  bool unbounded_delivery_ = true;
  std::string header_;
  std::string frame_hash_;
  std::vector<std::string> cell_hashes_;
  std::map<std::string, std::uint64_t> totals_;
  std::vector<std::string> failures_;
  std::set<std::uint64_t> failed_cells_;
};

struct SetupTimes {
  double build_s = 0.0;
  double channel_index_s = 0.0;
  double csr_s = 0.0;
  std::uint64_t csr_bytes = 0;
  [[nodiscard]] double total_s() const { return build_s + channel_index_s + csr_s; }
};

/// The set-up of every topology of the spec, built fresh: the same public
/// calls a sweep pays before its first cell routes. The CSR step is the
/// runner's own kAuto resolution, which materializes the CSR only under the
/// vertex budget. Built topologies are handed to `keep` when given.
SetupTimes run_setup(const scenario::ScenarioSpec& spec, Profiler* profiler,
                     std::vector<std::unique_ptr<Topology>>* keep) {
  SetupTimes times;
  for (const std::string& topology_spec : spec.topologies) {
    std::unique_ptr<Topology> topology;
    times.build_s += timed(profiler, "make_topology",
                           [&] { topology = sim::make_topology(topology_spec); });
    times.channel_index_s +=
        timed(profiler, "channel_index", [&] { (void)topology->channel_index(); });
    const FlatAdjacency* flat = nullptr;
    times.csr_s += timed(profiler, "csr", [&] {
      flat = resolve_adjacency(*topology, AdjacencyMode::kAuto);
    });
    if (flat != nullptr) times.csr_bytes += flat->memory_bytes();
    if (keep != nullptr) keep->push_back(std::move(topology));
  }
  return times;
}

/// Generates every cell's message list with the workload seed the runner's
/// documented seeding contract assigns it (runner.hpp: cell i, row-major
/// over topology × p × router × workload × trial, draws
/// derive_seed(seed, 2i + 1)), so the timed inputs are the run's own.
double time_workload_generation(const scenario::ScenarioSpec& spec,
                                const std::vector<std::unique_ptr<Topology>>& topologies,
                                Profiler* profiler) {
  const std::uint64_t per_topology = spec.num_cells() / spec.topologies.size();
  const std::uint64_t per_workload = spec.trials;
  double total = 0.0;
  for (std::uint64_t index = 0; index < spec.num_cells(); ++index) {
    const std::size_t t = static_cast<std::size_t>(index / per_topology);
    const std::size_t w =
        static_cast<std::size_t>((index / per_workload) % spec.workloads.size());
    WorkloadConfig config = sim::make_workload(spec.workloads[w]);
    config.messages = spec.messages;
    config.seed = derive_seed(spec.seed, 2 * index + 1);
    std::size_t generated = 0;
    total += timed(profiler, "generate_workload", [&] {
      generated = generate_workload(*topologies[t], config).size();
    });
    if (generated != spec.messages) {
      throw std::runtime_error("generate_workload returned " + std::to_string(generated) +
                               " messages, spec asks for " + std::to_string(spec.messages));
    }
  }
  return total;
}

std::map<std::string, std::uint64_t> snapshot_counters(const obs::CounterRegistry& registry) {
  std::map<std::string, std::uint64_t> values;
  for (const auto& entry : registry.snapshot()) values[entry.name] = entry.value;
  return values;
}

/// Span path with every "cell-<i>" component folded to "cell", so cells
/// aggregate into one layer.
std::string normalize_path(const std::string& path) {
  std::string out;
  std::size_t begin = 0;
  while (begin <= path.size()) {
    const auto slash = path.find('/', begin);
    const auto end = slash == std::string::npos ? path.size() : slash;
    std::string part = path.substr(begin, end - begin);
    if (part.rfind("cell-", 0) == 0) part = "cell";
    if (!out.empty()) out += '/';
    out += part;
    if (slash == std::string::npos) break;
    begin = slash + 1;
  }
  return out;
}

std::string last_component(const std::string& path) {
  const auto slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// Per-layer rollup of the recorded spans. Totals cover every span; self
/// time (a span minus its direct child spans) and the accounting cover the
/// run_scenario window on every track: per track, the window minus its
/// top-level spans is `other` (a worker's idle time), so
/// Σ self + other == window × tracks.
std::string rollup_json(const Profiler& profiler) {
  const auto spans = profiler.spans();
  const Profiler::Span* run = nullptr;
  for (const auto& span : spans) {
    if (span.path == "run_scenario") run = &span;
  }
  if (run == nullptr) throw std::runtime_error("trace holds no run_scenario span");
  const double window_begin = run->start_us;
  const double window_end = run->start_us + run->dur_us;
  constexpr double kSlackUs = 1.0;

  std::map<std::string, double> total_s;
  std::map<std::uint32_t, std::map<std::string, double>> track_paths;
  std::vector<double> cell_ms;
  for (const auto& span : spans) {
    const std::string path = normalize_path(span.path);
    total_s[last_component(path)] += span.dur_us * 1e-6;
    if (last_component(span.path).rfind("cell-", 0) == 0) cell_ms.push_back(span.dur_us * 1e-3);
    if (span.start_us + kSlackUs < window_begin ||
        span.start_us + span.dur_us > window_end + kSlackUs) {
      continue;
    }
    track_paths[span.track][path] += span.dur_us * 1e-6;
  }

  const double window_s = (window_end - window_begin) * 1e-6;
  std::map<std::string, double> self_s;
  double other_s = 0.0;
  for (const auto& [track, paths] : track_paths) {
    std::map<std::string, double> children;
    double covered = 0.0;
    for (const auto& [path, seconds] : paths) {
      const auto slash = path.rfind('/');
      if (slash == std::string::npos) {
        covered += seconds;
      } else {
        children[path.substr(0, slash)] += seconds;
      }
    }
    for (const auto& [path, seconds] : paths) {
      self_s[last_component(path)] += seconds - children[path];
    }
    other_s += std::max(0.0, window_s - covered);
  }
  std::sort(cell_ms.begin(), cell_ms.end());
  return JsonObject()
      .raw("total_s", json_map(total_s))
      .raw("self_s", json_map(self_s))
      .num("other_s", other_s)
      .count("tracks", track_paths.size())
      .num("window_s", window_s)
      .raw("cell_ms", json_list(cell_ms))
      .close();
}

struct Args {
  std::string command;
  std::string spec;
  std::string trace_path;
  std::optional<std::uint64_t> corrupt_cell;
  double setup_seconds = 0.0;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: pipebench info|run [options]");
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--spec") {
      args.spec = value;
    } else if (flag == "--trace") {
      args.trace_path = value;
    } else if (flag == "--corrupt-cell") {
      args.corrupt_cell = std::stoull(value);
    } else if (flag == "--setup-seconds") {
      args.setup_seconds = std::stod(value);
    } else {
      throw std::invalid_argument("unknown flag '" + flag +
                                  "' (known: --spec --trace --corrupt-cell --setup-seconds)");
    }
  }
  return args;
}

std::string info_job() {
  return JsonObject()
      .raw("provenance", obs::provenance_json("pipebench"))
      .count("nproc", std::thread::hardware_concurrency())
      .close();
}

std::string run_job(const Args& args) {
  const scenario::ScenarioSpec spec = scenario::parse_scenario(args.spec);
  const bool traced = !args.trace_path.empty();
  std::unique_ptr<obs::RunMetrics> metrics;
  Profiler* profiler = nullptr;
  if (traced) {
    metrics = std::make_unique<obs::RunMetrics>();
    profiler = &metrics->profiler();
    profiler->label_current_thread("main");
  }

  const auto global_before = snapshot_counters(obs::global_registry());
  CheckingReporter checker(args.corrupt_cell);
  TimingReporter reporter(checker, profiler);
  scenario::RunOptions options;
  options.metrics = metrics.get();

  const double cpu_before = cpu_seconds();
  const auto start = Clock::now();
  scenario::RunSummary summary;
  {
    const Profiler::Scope scope(profiler, "run_scenario");
    summary = scenario::run_scenario(spec, reporter, options);
  }
  const double wall_s = seconds_since(start);
  const double cpu_s = cpu_seconds() - cpu_before;
  const auto global_after = snapshot_counters(obs::global_registry());

  JsonObject out;
  out.num("wall_s", wall_s)
      .num("cpu_s", cpu_s)
      .num("peak_rss_mb", peak_rss_mb())
      .count("threads", spec.threads)
      .count("cells", summary.cells)
      .count("messages", summary.messages)
      .str("frame_hash", checker.frame_hash())
      .raw("cell_hashes", json_list(checker.cell_hashes()))
      .raw("report_totals", json_map(checker.totals()))
      .raw("failed_cells", json_list(std::vector<std::uint64_t>(checker.failed_cells().begin(),
                                                                checker.failed_cells().end())))
      .raw("failures", json_list(checker.failures()));

  // Set-up samples are taken after the timed call, in every call's process,
  // so a run's samples spread over its whole duration.
  if (args.setup_seconds > 0.0) {
    std::vector<double> samples;
    const auto setup_start = Clock::now();
    do {
      samples.push_back(run_setup(spec, nullptr, nullptr).total_s());
    } while (seconds_since(setup_start) < args.setup_seconds);
    out.raw("setup_s", json_list(samples));
  }

  if (traced) {
    // The benchmark's own spans around the public set-up calls, recorded
    // after the timed call so that call starts from the same fresh process
    // state as an untraced one.
    std::vector<std::unique_ptr<Topology>> topologies;
    SetupTimes setup;
    double generate_s = 0.0;
    {
      const Profiler::Scope scope(profiler, "setup");
      setup = run_setup(spec, profiler, &topologies);
    }
    {
      const Profiler::Scope scope(profiler, "workloads");
      generate_s = time_workload_generation(spec, topologies, profiler);
    }
    std::map<std::string, std::uint64_t> counters = snapshot_counters(metrics->counters());
    for (const auto& [name, value] : global_after) {
      const auto before = global_before.find(name);
      counters[name] = value - (before == global_before.end() ? 0 : before->second);
    }
    out.raw("setup", JsonObject()
                         .num("build_s", setup.build_s)
                         .num("channel_index_s", setup.channel_index_s)
                         .num("csr_s", setup.csr_s)
                         .count("csr_bytes", setup.csr_bytes)
                         .close())
        .num("generate_s", generate_s)
        .raw("counters", json_map(counters))
        .raw("rollup", rollup_json(*profiler));
    std::ofstream trace(args.trace_path);
    metrics->write_chrome_trace(trace);
    if (!trace) throw std::runtime_error("cannot write trace to " + args.trace_path);
  }
  return out.close();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    std::string result;
    if (args.command == "info") {
      result = info_job();
    } else if (args.command == "run") {
      result = run_job(args);
    } else {
      throw std::invalid_argument("unknown job '" + args.command + "' (known: info run)");
    }
    std::cout << result << '\n';
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "pipebench: " << error.what() << '\n';
    return 1;
  }
}
