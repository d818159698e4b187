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

/// The journal codec for one cell field, one overload per field type.
/// Integers are decimal. Doubles are C hexfloats (%a), which round-trip
/// bit-for-bit, so replayed cells re-render identically under the
/// reporter's %.10g. Strings escape the four bytes that would break the
/// tab-separated line framing.
///
/// The decoders are lenient (strtoull takes signs and blanks, strtod every
/// float spelling and overflows to inf, and a backslash outside the four
/// escapes passes through); decode_checkpoint_cell re-encodes each value
/// and requires the same bytes back, so only a value's canonical spelling
/// is accepted.
std::string encode_field(std::uint64_t value) { return std::to_string(value); }

std::string encode_field(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

std::string encode_field(const std::string& text) {
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

void decode_field(const std::string& text, std::uint64_t& value) {
  value = std::strtoull(text.c_str(), nullptr, 10);
}

void decode_field(const std::string& text, double& value) {
  value = std::strtod(text.c_str(), nullptr);
}

void decode_field(const std::string& text, std::string& value) {
  value.clear();
  value.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (text[i] != '\\' || (next != '\\' && next != 't' && next != 'n' && next != 'r')) {
      value += text[i];
      continue;
    }
    value += next == 't' ? '\t' : next == 'n' ? '\n' : next == 'r' ? '\r' : '\\';
    ++i;
  }
}

[[noreturn]] void bad_line(const std::string& why) {
  throw std::runtime_error("malformed checkpoint cell line: " + why);
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
  // unambiguous framing. name/threads/snapshot_dir are deliberately
  // absent: they never change results, so resuming under a different
  // thread count or with a snapshot directory is legal.
  std::ostringstream buffer;
  const char sep = '\x1f';
  for (const auto& t : spec.topologies) buffer << 't' << sep << t << sep;
  for (const auto& r : spec.routers) buffer << 'r' << sep << r << sep;
  for (const auto& w : spec.workloads) buffer << 'w' << sep << w << sep;
  for (const double p : spec.p_values) buffer << 'p' << sep << encode_field(p) << sep;
  buffer << spec.messages << sep << spec.trials << sep << spec.seed << sep
         << spec.edge_capacity << sep << spec.probe_budget << sep << spec.max_steps;
  return fnv1a_bytes(buffer.str(), kFnvOffset);
}

std::string encode_checkpoint_cell(const CellResult& cell) {
  std::string line = "cell";
  for_each_cell_field(cell, [&line](const char* /*name*/, const auto& value) {
    line += '\t';
    line += encode_field(value);
  });
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
  constexpr std::size_t kFields = 1 + kCellFieldCount;  // "cell" tag + the fields
  if (parts.size() != kFields) {
    bad_line("expected " + std::to_string(kFields) + " tab-separated fields, got " +
             std::to_string(parts.size()));
  }
  if (parts[0] != "cell") bad_line("expected the 'cell' tag, got '" + parts[0] + "'");

  CellResult cell;
  std::size_t i = 1;
  for_each_cell_field(cell, [&](const char* name, auto& value) {
    const std::string& text = parts[i++];
    decode_field(text, value);
    if (encode_field(value) != text) {
      bad_line("field '" + std::string(name) + "': '" + text +
               "' is not the canonical encoding of a value");
    }
  });
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
        const std::string schema = line.substr(0, line.find('\t'));
        if (schema != obs::schemas::kCheckpoint) {
          throw std::runtime_error("checkpoint '" + path_ + "': journal schema is '" + schema +
                                   "', but this build reads only '" +
                                   obs::schemas::kCheckpoint +
                                   "' — delete the journal to rerun the sweep from scratch");
        }
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
