#include "scenario/reporter.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "obs/build_info.hpp"

namespace faultroute::scenario {

namespace {

/// Shortest round-trippable-enough rendering; deterministic for a given
/// value, so byte-identical reruns only need deterministic values.
std::string fmt(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.10g", value);
  return buffer;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);  // analyze:allow-hot-alloc(reached only via name-based dispatch over-approximation of Marks::begin; emission is off the routing path)
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_str(const std::string& text) { return '"' + json_escape(text) + '"'; }

/// JSON has no NaN/Inf literals; non-finite aggregates (which a pathological
/// config could produce) become null rather than corrupting the stream.
std::string json_num(double value) { return std::isfinite(value) ? fmt(value) : "null"; }

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += json_str(items[i]);
  }
  return out + ']';
}

std::string json_list(const std::vector<double>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += json_num(items[i]);
  }
  return out + ']';
}

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  return out + '"';
}

/// Per-type renderings of a cell field value: integers in decimal, doubles
/// as json_num/fmt, strings quoted and escaped.
std::string json_value(std::uint64_t value) { return std::to_string(value); }
std::string json_value(double value) { return json_num(value); }
std::string json_value(const std::string& value) { return json_str(value); }

std::string csv_value(std::uint64_t value) { return std::to_string(value); }
std::string csv_value(double value) { return fmt(value); }
std::string csv_value(const std::string& value) { return csv_escape(value); }

}  // namespace

void JsonLinesReporter::begin(const ScenarioSpec& spec) {
  // `threads` is deliberately absent: results are independent of it, and the
  // header must be too, so reports stay diffable across machines. Provenance
  // identifies the *build* (schema v3) — reruns of one binary still match
  // byte-for-byte; cross-build diffs show the hash change in the header
  // while every cell line stays comparable.
  out_ << "{\"type\":\"header\",\"schema\":\"" << kSchemaName
       << "\",\"schema_version\":" << kSchemaVersion
       << ",\"provenance\":" << obs::provenance_json("faultroute scenario")
       << ",\"name\":" << json_str(spec.name)
       << ",\"topologies\":" << json_list(spec.topologies)
       << ",\"routers\":" << json_list(spec.routers)
       << ",\"workloads\":" << json_list(spec.workloads)
       << ",\"p\":" << json_list(spec.p_values) << ",\"messages\":" << spec.messages
       << ",\"trials\":" << spec.trials << ",\"seed\":" << spec.seed
       << ",\"capacity\":" << spec.edge_capacity << ",\"budget\":" << spec.probe_budget
       << ",\"max_steps\":" << spec.max_steps << ",\"cells\":" << spec.num_cells() << "}\n";
  cells_reported_ = 0;
}

// analyze:det-root(scenario cell emission: byte-identical across reruns and threads)
void JsonLinesReporter::report(const CellResult& cell) {
  out_ << "{\"type\":\"cell\"";
  for_each_cell_field(cell, [this](const char* name, const auto& value) {
    out_ << ",\"" << name << "\":" << json_value(value);
  });
  out_ << "}\n";
  ++cells_reported_;
}

void JsonLinesReporter::end() {
  // The footer marks a complete, untruncated report.
  out_ << "{\"type\":\"footer\",\"cells_reported\":" << cells_reported_ << "}\n";
  out_.flush();
}

void CsvReporter::begin(const ScenarioSpec& spec) {
  scenario_name_ = spec.name;
  out_ << "schema,scenario";
  for (const char* name : kCellFieldNames) out_ << ',' << name;
  out_ << '\n';
}

// analyze:det-root(scenario CSV rows: byte-identical across reruns and threads)
void CsvReporter::report(const CellResult& cell) {
  out_ << kSchemaName << ',' << csv_escape(scenario_name_);
  for_each_cell_field(cell, [this](const char* /*name*/, const auto& value) {
    out_ << ',' << csv_value(value);
  });
  out_ << '\n';
}

void CsvReporter::end() { out_.flush(); }

std::unique_ptr<Reporter> make_reporter(const std::string& format, std::ostream& out) {
  if (format == "jsonl") return std::make_unique<JsonLinesReporter>(out);
  if (format == "csv") return std::make_unique<CsvReporter>(out);
  throw std::invalid_argument("unknown report format '" + format + "' (known: jsonl, csv)");
}

}  // namespace faultroute::scenario
