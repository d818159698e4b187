#include "obs/run_metrics.hpp"

#include <cmath>
#include <cstdio>

#include "obs/build_info.hpp"

namespace faultroute::obs {

namespace {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());  // analyze:allow-hot-alloc(reached only via name-based dispatch over-approximation of Marks::begin; emission is off the routing path)
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

std::string json_num(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.6f", value);
  return buffer;
}

}  // namespace

void RunMetrics::write_metrics_json(std::ostream& out, std::string_view command) const {
  out << "{\"schema\":\"" << kMetricsSchemaName
      << "\",\"schema_version\":" << kMetricsSchemaVersion << ",\"command\":\""
      << json_escape(command) << "\",\"provenance\":" << provenance_json("faultroute");

  // Run counters merged with the process-global registry (graph.* counters
  // live there because lazily-cached topology state has no run context).
  // Names are disjoint by convention; globals are appended after run
  // counters within one sorted-per-source object.
  out << ",\"counters\":{";
  bool first = true;
  const CounterRegistry* const registries[] = {&counters_, &global_registry()};
  for (const CounterRegistry* registry : registries) {
    for (const CounterRegistry::Entry& entry : registry->snapshot()) {
      if (!first) out << ',';
      first = false;
      out << '"' << json_escape(entry.name) << "\":" << entry.value;
    }
  }
  out << '}';

  out << ",\"phases\":[";
  first = true;
  for (const PhaseProfiler::PhaseStat& stat : profiler_.aggregate()) {
    if (!first) out << ',';
    first = false;
    out << "{\"path\":\"" << json_escape(stat.path) << "\",\"count\":" << stat.count
        << ",\"total_ms\":" << json_num(stat.total_ms) << '}';
  }
  out << ']';

  out << ",\"tracks\":[";
  first = true;
  for (const PhaseProfiler::Track& track : profiler_.tracks()) {
    if (!first) out << ',';
    first = false;
    out << "{\"id\":" << track.id << ",\"name\":\"" << json_escape(track.name) << "\"}";
  }
  out << "]}\n";
  out.flush();
}

void RunMetrics::write_chrome_trace(std::ostream& out) const {
  out << "{\"traceEvents\":[";
  bool first = true;
  // One process, one lane per profiler track: name the lanes first so the
  // viewer labels them before any span renders.
  for (const PhaseProfiler::Track& track : profiler_.tracks()) {
    if (!first) out << ',';
    first = false;
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << track.id
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << json_escape(track.name)
        << "\"}}";
  }
  for (const PhaseProfiler::Span& span : profiler_.spans()) {
    if (!first) out << ',';
    first = false;
    out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << span.track << ",\"cat\":\"faultroute\""
        << ",\"name\":\"" << json_escape(span.path) << "\",\"ts\":" << json_num(span.start_us)
        << ",\"dur\":" << json_num(span.dur_us) << '}';
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  out.flush();
}

}  // namespace faultroute::obs
