#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace faultroute::obs {

/// Nested wall-clock phase timing with per-thread tracks.
///
/// A PhaseProfiler times arbitrarily nested RAII scopes: opening a `Scope`
/// starts a span on the calling thread, destroying it records the span.
/// Scopes nest — a scope opened while another is live on the same thread
/// becomes its child, and
/// the recorded span path joins the open names with '/'
/// ("cell-12/routing/route"). Each thread gets its own *track* (the trace
/// viewer's lane), assigned on first use, so a parallel_index_loop shows one
/// lane per worker.
///
/// Costs and guarantees: a scope is two steady_clock reads plus one
/// mutex-guarded vector append at close — meant for coarse phases (routing /
/// delivery / per-cell), never for per-edge loops. A Scope constructed with
/// a null profiler is a complete no-op, which is how instrumentation-off
/// call sites cost one null check. Recording is purely observational; no
/// simulation state is read or written.
///
/// Completed spans feed two outputs: `aggregate()` (per-path count + total
/// duration, for the metrics report) and `spans()` (the raw list, which
/// RunMetrics::write_chrome_trace turns into Chrome trace events).
class PhaseProfiler {
 public:
  PhaseProfiler();
  PhaseProfiler(const PhaseProfiler&) = delete;
  PhaseProfiler& operator=(const PhaseProfiler&) = delete;
  ~PhaseProfiler();

  /// RAII span handle. Construct with nullptr for a no-op scope.
  class Scope {
   public:
    Scope(PhaseProfiler* profiler, std::string_view name);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    PhaseProfiler* profiler_ = nullptr;
  };

  /// One completed span. Times are microseconds since the profiler's epoch
  /// (its construction), so every track shares one time base.
  struct Span {
    std::string path;     ///< '/'-joined nesting path
    std::uint32_t track;  ///< per-thread lane (see tracks())
    double start_us;
    double dur_us;
  };
  [[nodiscard]] std::vector<Span> spans() const;

  struct PhaseStat {
    std::string path;
    std::uint64_t count;
    double total_ms;
  };
  /// Completed spans aggregated by path, sorted by path.
  [[nodiscard]] std::vector<PhaseStat> aggregate() const;

  struct Track {
    std::uint32_t id;
    std::string name;
  };
  /// Tracks in id order. Default names are "thread-<id>" in first-use order
  /// (track 0 is whichever thread opened a scope first, typically main).
  [[nodiscard]] std::vector<Track> tracks() const;

  /// Names the calling thread's track ("main", "worker"); affects only how
  /// the track is labelled in trace output.
  void label_current_thread(std::string_view name);

  /// Microseconds since the profiler epoch, for callers aligning their own
  /// timestamps with recorded spans.
  [[nodiscard]] double now_us() const;

 private:
  struct ThreadState {
    std::uint32_t track = 0;
    std::string label;
    /// Open scopes: name + start. Touched only by the owning thread.
    std::vector<std::pair<std::string, double>> open;
  };

  [[nodiscard]] ThreadState& state_for_current_thread();
  void close_scope();

  const std::chrono::steady_clock::time_point epoch_;
  const std::uint64_t instance_;  // distinguishes profilers in the TLS cache
  mutable std::mutex mutex_;
  std::map<std::thread::id, std::unique_ptr<ThreadState>> states_;
  std::uint32_t next_track_ = 0;
  std::vector<Span> spans_;
};

}  // namespace faultroute::obs
