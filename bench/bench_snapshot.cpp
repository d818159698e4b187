// bench_snapshot — cold materialization vs warm mmap start of the CSR
// adjacency, the perf claim behind on-disk snapshots (graph/snapshot.hpp).
//
// Per topology family the bench measures, best of --reps repetitions:
//
//   build_ms  cold start: a fresh Topology materializes its FlatAdjacency
//             (ChannelIndex traversal + the three per-channel arrays) — the
//             price every scenario process pays without a snapshot;
//   write_ms  one-time cost of persisting that build as a snapshot;
//   open_ms   warm start: open_snapshot_adjacency on a fresh Topology —
//             mmap + checksum scan (the page-in pass) + the non-owning view,
//             zero materialization work.
//
// speedup = build_ms / open_ms. The mapped view is additionally compared
// row-for-row against an owning build on every slot, so the bench doubles
// as a format round-trip test at sizes the unit suite cannot afford; the
// process fails on any mismatch.
//
//   bench_snapshot [--quick] [--json] [--out PATH] [--reps N] [--dir DIR]
//
// --json emits one machine-readable object (schema
// faultroute.bench.snapshot.v1, validated in CI by
// scripts/check_bench_schema.py); the committed full-run perf record lives
// in BENCH_snapshot.json at the repo root.

#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/table.hpp"
#include "graph/flat_adjacency.hpp"
#include "graph/snapshot.hpp"
#include "obs/build_info.hpp"
#include "obs/schemas.hpp"
#include "sim/registry.hpp"

namespace {

using namespace faultroute;

struct BenchOptions {
  bool quick = false;
  bool json = false;
  std::string out_path;
  std::string dir;  // empty = a scratch dir under the system temp root
  int reps = 0;     // 0 = default (3 full, 2 quick)
};

BenchOptions parse_args(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const std::string& flag) -> std::string {
      if (arg.size() > flag.size() + 1 && arg.rfind(flag + "=", 0) == 0) {
        return arg.substr(flag.size() + 1);
      }
      if (arg == flag && i + 1 < argc) return argv[++i];
      throw std::invalid_argument("bench_snapshot: " + flag + " needs a value");
    };
    if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--out" || arg.rfind("--out=", 0) == 0) {
      options.out_path = value_of("--out");
    } else if (arg == "--dir" || arg.rfind("--dir=", 0) == 0) {
      options.dir = value_of("--dir");
    } else if (arg == "--reps" || arg.rfind("--reps=", 0) == 0) {
      options.reps = std::stoi(value_of("--reps"));
    } else {
      throw std::invalid_argument("bench_snapshot: unknown flag '" + arg +
                                  "' (known: --quick --json --out --reps --dir)");
    }
  }
  return options;
}

struct BenchResult {
  std::string name;  // topology spec
  std::uint64_t vertices = 0;
  std::uint64_t channels = 0;
  std::uint64_t payload_bytes = 0;
  double build_ms = 0.0;
  double write_ms = 0.0;
  double open_ms = 0.0;
  bool identical = true;
  [[nodiscard]] double speedup() const {
    return open_ms > 0.0 ? build_ms / open_ms : 0.0;
  }
};

double ms_since(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - since)
      .count();
}

/// Every slot of every row must match between the mapped view and a fresh
/// owning build.
bool rows_identical(const FlatAdjacency& a, const FlatAdjacency& b) {
  if (a.num_vertices() != b.num_vertices() || a.num_channels() != b.num_channels() ||
      a.num_edge_ids() != b.num_edge_ids()) {
    return false;
  }
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    if (a.row_begin(v) != b.row_begin(v) || a.row_end(v) != b.row_end(v)) return false;
    for (int i = 0; i < a.degree(v); ++i) {
      if (a.neighbor(v, i) != b.neighbor(v, i) || a.edge_key(v, i) != b.edge_key(v, i) ||
          a.edge_id(v, i) != b.edge_id(v, i)) {
        return false;
      }
    }
  }
  return true;
}

BenchResult run_family(const std::string& spec, const std::string& dir,
                       const BenchOptions& options) {
  BenchResult result;
  result.name = spec;
  const int reps = options.reps > 0 ? options.reps : (options.quick ? 2 : 3);
  const std::string path = snapshot_path(dir, spec);

  for (int rep = 0; rep < reps; ++rep) {
    // Cold start: topology construction is untimed (both paths pay it);
    // the timed region is exactly the materialization a snapshot replaces.
    const auto cold_graph = sim::make_topology(spec);
    const auto build_start = std::chrono::steady_clock::now();
    const FlatAdjacency& built = cold_graph->flat_adjacency();
    const double build_ms = ms_since(build_start);

    const auto write_start = std::chrono::steady_clock::now();
    write_snapshot(path, spec, built);
    const double write_ms = ms_since(write_start);

    // Warm start: a fresh Topology that never materializes — the mapped
    // view (open + verify + point) is all the adjacency work there is.
    const auto warm_graph = sim::make_topology(spec);
    const auto open_start = std::chrono::steady_clock::now();
    const auto view = open_snapshot_adjacency(dir, spec, *warm_graph);
    const double open_ms = ms_since(open_start);
    if (view == nullptr) throw std::runtime_error("snapshot missing after write: " + path);

    if (rep == 0) {
      result.vertices = built.num_vertices();
      result.channels = built.num_channels();
      result.payload_bytes = read_snapshot_info(path).payload_bytes;
      result.identical = rows_identical(*view, built);
      result.build_ms = build_ms;
      result.write_ms = write_ms;
      result.open_ms = open_ms;
    } else {
      if (build_ms < result.build_ms) result.build_ms = build_ms;
      if (write_ms < result.write_ms) result.write_ms = write_ms;
      if (open_ms < result.open_ms) result.open_ms = open_ms;
    }
  }
  return result;
}

std::string json_report(const std::vector<BenchResult>& results, const BenchOptions& options) {
  std::ostringstream out;
  out.precision(6);
  out << std::fixed;
  out << "{\"schema\":\"" << obs::schemas::kBenchSnapshot
      << "\",\"schema_version\":" << obs::schemas::kBenchVersion
      << ",\"provenance\":" << obs::provenance_json("bench_snapshot")
      << ",\"quick\":" << (options.quick ? "true" : "false") << ",\"benchmarks\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    if (i > 0) out << ',';
    out << "{\"name\":\"" << r.name << "\",\"vertices\":" << r.vertices
        << ",\"channels\":" << r.channels << ",\"payload_bytes\":" << r.payload_bytes
        << ",\"build_ms\":" << r.build_ms << ",\"write_ms\":" << r.write_ms
        << ",\"open_ms\":" << r.open_ms << ",\"speedup\":" << r.speedup()
        << ",\"identical\":" << (r.identical ? "true" : "false") << '}';
  }
  out << "]}\n";
  return out.str();
}

int run(const BenchOptions& options) {
  // Large enough that materialization dominates process startup, small
  // enough that --quick stays CI-smoke sized.
  const std::vector<std::string> families =
      options.quick
          ? std::vector<std::string>{"hypercube:13", "torus:2:64", "de_bruijn:13"}
          : std::vector<std::string>{"hypercube:18", "torus:2:512", "de_bruijn:18"};

  namespace fs = std::filesystem;
  const fs::path dir = options.dir.empty()
                           ? fs::temp_directory_path() / "faultroute_bench_snapshot"
                           : fs::path(options.dir);
  fs::create_directories(dir);

  std::vector<BenchResult> results;
  results.reserve(families.size());
  for (const auto& spec : families) results.push_back(run_family(spec, dir.string(), options));
  if (options.dir.empty()) fs::remove_all(dir);  // scratch dir only; keep --dir

  bool all_identical = true;
  for (const BenchResult& r : results) all_identical = all_identical && r.identical;

  if (options.json) {
    const std::string report = json_report(results, options);
    if (options.out_path.empty()) {
      std::cout << report;
    } else {
      std::ofstream out(options.out_path);
      if (!out) throw std::runtime_error("cannot write --out file '" + options.out_path + "'");
      out << report;
    }
  } else {
    Table table({"topology", "vertices", "channels", "payload MB", "build_ms", "write_ms",
                 "open_ms", "speedup", "identical"});
    for (const BenchResult& r : results) {
      table.add_row({r.name, Table::fmt(r.vertices), Table::fmt(r.channels),
                     Table::fmt(static_cast<double>(r.payload_bytes) / (1024.0 * 1024.0), 1),
                     Table::fmt(r.build_ms, 2), Table::fmt(r.write_ms, 2),
                     Table::fmt(r.open_ms, 2), Table::fmt(r.speedup(), 1),
                     r.identical ? "yes" : "NO"});
    }
    table.print("snapshot warm start: mmap'd CSR vs cold materialization");
  }

  if (!all_identical) {
    std::fprintf(stderr, "bench_snapshot: MAPPED VIEW DISAGREES — see 'identical' column\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_snapshot: %s\n", e.what());
    return 1;
  }
}
