#include "scenario/checkpoint.hpp"

// analyze:allow-file-throw-safety(checkpoint load/validate is cold resume setup; refusing a mismatched or corrupt journal must throw before any cell runs)

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "obs/schemas.hpp"

namespace faultroute::scenario {

namespace {

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a_bytes(const std::string& text, std::uint64_t h) {
  for (const unsigned char c : text) h = (h ^ c) * kFnvPrime;
  return h;
}

/// Exact, locale-independent-enough (C hexfloat) double rendering; the
/// journal must round-trip values bit-for-bit so replayed cells re-render
/// identically under the reporter's %.10g.
std::string fmt_f64(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

std::string fmt_u64(std::uint64_t value) { return std::to_string(value); }

/// Journal string escaping: the four bytes that would break the
/// tab-separated line framing.
std::string escape(const std::string& text) {
  std::string out;
  // analyze:allow-hot-alloc(journal encoding runs once per completed cell, outside the routing/delivery loops, dominated by the file append)
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

[[noreturn]] void bad_line(const std::string& why) {
  throw std::runtime_error("malformed checkpoint cell line: " + why);
}

std::string unescape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\') {
      out += text[i];
      continue;
    }
    if (i + 1 >= text.size()) bad_line("dangling escape");
    switch (text[++i]) {
      case '\\': out += '\\'; break;
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      default: bad_line("unknown escape '\\" + std::string(1, text[i]) + "'");
    }
  }
  return out;
}

std::uint64_t parse_u64(const std::string& field) {
  if (field.empty()) bad_line("empty integer field");
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(field.c_str(), &end, 10);
  if (errno != 0 || end != field.c_str() + field.size()) {
    bad_line("expected an integer, got '" + field + "'");
  }
  return value;
}

double parse_f64(const std::string& field) {
  if (field.empty()) bad_line("empty float field");
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(field.c_str(), &end);
  if (end != field.c_str() + field.size()) {
    bad_line("expected a hexfloat, got '" + field + "'");
  }
  return value;
}

bool parse_bool(const std::string& field) {
  if (field == "0") return false;
  if (field == "1") return true;
  bad_line("expected 0 or 1, got '" + field + "'");
}

/// The journal's header line for `spec` — schema tag, spec fingerprint,
/// and cell count. Byte-compared on resume.
std::string header_line(const ScenarioSpec& spec) {
  char buffer[128];
  std::snprintf(buffer, sizeof buffer, "%s\tfingerprint=%016llx\tcells=%llu",
                obs::schemas::kCheckpoint,
                static_cast<unsigned long long>(spec_fingerprint(spec)),
                static_cast<unsigned long long>(spec.num_cells()));
  return buffer;
}

}  // namespace

std::uint64_t spec_fingerprint(const ScenarioSpec& spec) {
  // Exactly the fields cell values depend on, in a fixed order with
  // unambiguous framing. name/threads/adjacency/snapshot_dir are
  // deliberately absent: they never change results, so resuming under a
  // different thread count or adjacency backend is legal.
  std::ostringstream buffer;
  const char sep = '\x1f';
  for (const auto& t : spec.topologies) buffer << 't' << sep << t << sep;
  for (const auto& r : spec.routers) buffer << 'r' << sep << r << sep;
  for (const auto& w : spec.workloads) buffer << 'w' << sep << w << sep;
  for (const double p : spec.p_values) buffer << 'p' << sep << fmt_f64(p) << sep;
  buffer << spec.messages << sep << spec.trials << sep << spec.seed << sep
         << spec.edge_capacity << sep << spec.probe_budget << sep << spec.max_steps;
  return fnv1a_bytes(buffer.str(), kFnvOffset);
}

std::string encode_checkpoint_cell(const CellResult& cell) {
  std::string line = "cell";
  const auto put = [&line](const std::string& field) {
    line += '\t';
    line += field;
  };
  put(fmt_u64(cell.cell));
  put(escape(cell.topology));
  put(escape(cell.topology_name));
  put(fmt_u64(cell.vertices));
  put(fmt_f64(cell.p));
  put(escape(cell.router));
  put(escape(cell.workload));
  put(fmt_u64(cell.trial));
  put(fmt_u64(cell.env_seed));
  put(fmt_u64(cell.workload_seed));
  put(fmt_u64(cell.messages));
  put(fmt_u64(cell.routed));
  put(fmt_u64(cell.failed_routing));
  put(fmt_u64(cell.censored));
  put(fmt_u64(cell.invalid_paths));
  put(fmt_u64(cell.delivered));
  put(fmt_u64(cell.stranded));
  put(fmt_u64(cell.total_distinct_probes));
  put(fmt_u64(cell.unique_edges_probed));
  put(fmt_u64(cell.cache_hits));
  put(fmt_u64(cell.cache_misses));
  put(fmt_f64(cell.probe_amortization));
  put(fmt_u64(cell.max_edge_load));
  put(fmt_f64(cell.mean_edge_load));
  put(fmt_u64(cell.edges_used));
  put(fmt_u64(cell.makespan));
  put(fmt_f64(cell.mean_queueing_delay));
  put(fmt_u64(cell.max_queueing_delay));
  put(fmt_f64(cell.mean_path_edges));
  put(fmt_f64(cell.throughput));
  put(fmt_u64(cell.sim_steps));
  put(fmt_u64(cell.admission_events));
  put(fmt_u64(cell.transmissions));
  put(fmt_u64(cell.peak_active_channels));
  put(fmt_u64(cell.channels));
  put(cell.has_timings ? "1" : "0");
  put(fmt_f64(cell.routing_ms));
  put(fmt_f64(cell.delivery_ms));
  return line;
}

CellResult decode_checkpoint_cell(const std::string& line) {
  // Escapes never contain a raw tab, so framing splits on the byte.
  std::vector<std::string> parts;
  std::size_t pos = 0;
  while (true) {
    const auto tab = line.find('\t', pos);
    if (tab == std::string::npos) {
      parts.push_back(line.substr(pos));
      break;
    }
    parts.push_back(line.substr(pos, tab - pos));
    pos = tab + 1;
  }
  constexpr std::size_t kFields = 39;  // "cell" tag + 38 CellResult fields
  if (parts.size() != kFields) {
    bad_line("expected " + std::to_string(kFields) + " tab-separated fields, got " +
             std::to_string(parts.size()));
  }
  if (parts[0] != "cell") bad_line("expected the 'cell' tag, got '" + parts[0] + "'");

  CellResult cell;
  std::size_t i = 1;
  cell.cell = parse_u64(parts[i++]);
  cell.topology = unescape(parts[i++]);
  cell.topology_name = unescape(parts[i++]);
  cell.vertices = parse_u64(parts[i++]);
  cell.p = parse_f64(parts[i++]);
  cell.router = unescape(parts[i++]);
  cell.workload = unescape(parts[i++]);
  cell.trial = parse_u64(parts[i++]);
  cell.env_seed = parse_u64(parts[i++]);
  cell.workload_seed = parse_u64(parts[i++]);
  cell.messages = parse_u64(parts[i++]);
  cell.routed = parse_u64(parts[i++]);
  cell.failed_routing = parse_u64(parts[i++]);
  cell.censored = parse_u64(parts[i++]);
  cell.invalid_paths = parse_u64(parts[i++]);
  cell.delivered = parse_u64(parts[i++]);
  cell.stranded = parse_u64(parts[i++]);
  cell.total_distinct_probes = parse_u64(parts[i++]);
  cell.unique_edges_probed = parse_u64(parts[i++]);
  cell.cache_hits = parse_u64(parts[i++]);
  cell.cache_misses = parse_u64(parts[i++]);
  cell.probe_amortization = parse_f64(parts[i++]);
  cell.max_edge_load = parse_u64(parts[i++]);
  cell.mean_edge_load = parse_f64(parts[i++]);
  cell.edges_used = parse_u64(parts[i++]);
  cell.makespan = parse_u64(parts[i++]);
  cell.mean_queueing_delay = parse_f64(parts[i++]);
  cell.max_queueing_delay = parse_u64(parts[i++]);
  cell.mean_path_edges = parse_f64(parts[i++]);
  cell.throughput = parse_f64(parts[i++]);
  cell.sim_steps = parse_u64(parts[i++]);
  cell.admission_events = parse_u64(parts[i++]);
  cell.transmissions = parse_u64(parts[i++]);
  cell.peak_active_channels = parse_u64(parts[i++]);
  cell.channels = parse_u64(parts[i++]);
  cell.has_timings = parse_bool(parts[i++]);
  cell.routing_ms = parse_f64(parts[i++]);
  cell.delivery_ms = parse_f64(parts[i++]);
  return cell;
}

CheckpointJournal::CheckpointJournal(std::string path, const ScenarioSpec& spec)
    : path_(std::move(path)) {
  const std::uint64_t cells = spec.num_cells();
  completed_.resize(cells);
  const std::string header = header_line(spec);

  bool fresh = true;
  std::string text;
  {
    std::ifstream in(path_, std::ios::binary);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      text = buffer.str();
      fresh = text.empty();
    }
  }
  std::uint64_t valid_end = 0;  // byte offset past the last intact line
  if (!fresh) {
    std::size_t pos = 0;
    std::size_t lineno = 0;
    while (pos < text.size()) {
      const auto nl = text.find('\n', pos);
      // Trailing bytes with no newline are the one torn write an append
      // crash can leave; they are discarded (and truncated away below).
      if (nl == std::string::npos) break;
      const std::string line = text.substr(pos, nl - pos);
      ++lineno;
      if (lineno == 1) {
        if (line != header) {
          throw std::runtime_error(
              "checkpoint '" + path_ + "': journal belongs to a different spec — refusing " +
              "to resume (expected header '" + header + "', found '" + line + "')");
        }
      } else {
        CellResult cell;
        try {
          cell = decode_checkpoint_cell(line);
        } catch (const std::exception& e) {
          throw std::runtime_error("checkpoint '" + path_ + "' line " +
                                   std::to_string(lineno) + ": " + e.what());
        }
        if (cell.cell >= cells) {
          throw std::runtime_error("checkpoint '" + path_ + "' line " +
                                   std::to_string(lineno) + ": cell index " +
                                   std::to_string(cell.cell) + " out of range (spec has " +
                                   std::to_string(cells) + " cells)");
        }
        if (completed_[cell.cell].has_value()) {
          throw std::runtime_error("checkpoint '" + path_ + "' line " +
                                   std::to_string(lineno) + ": duplicate cell " +
                                   std::to_string(cell.cell));
        }
        completed_[cell.cell] = std::move(cell);
        ++num_completed_;
      }
      valid_end = nl + 1;
      pos = nl + 1;
    }
    if (valid_end < text.size()) {
      // Drop the torn tail so the next append starts on a line boundary.
      std::filesystem::resize_file(path_, valid_end);
    }
  }

  out_.open(path_, std::ios::binary | std::ios::app);
  if (!out_) {
    throw std::runtime_error("checkpoint '" + path_ + "': cannot open for append");
  }
  if (fresh) {
    out_ << header << '\n';
    out_.flush();
    if (!out_) throw std::runtime_error("checkpoint '" + path_ + "': write failed");
  }
}

void CheckpointJournal::record(const CellResult& cell) {
  const std::string line = encode_checkpoint_cell(cell);
  const std::lock_guard<std::mutex> lock(mutex_);
  out_ << line << '\n';
  // One flush per cell: cells take milliseconds to compute, so durability
  // per line costs nothing measurable and a kill loses at most one line.
  out_.flush();
}

}  // namespace faultroute::scenario
