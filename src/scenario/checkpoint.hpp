#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "scenario/reporter.hpp"
#include "scenario/spec.hpp"

namespace faultroute::scenario {

/// Checkpoint journals — restartable scenario sweeps.
///
/// Cells of a sweep are deterministic and independently seeded
/// (derive_seed(spec.seed, 2*i) / 2*i+1 — see runner.hpp), so a completed
/// cell's CellResult is a pure function of (spec, i) and can be persisted
/// and replayed verbatim. The journal (`--checkpoint PATH`) is an
/// append-only text file:
///
///   faultroute.checkpoint.v2<TAB>fingerprint=<16 hex><TAB>cells=<N>
///   cell<TAB><field 1><TAB><field 2>...        (one line per finished cell)
///
/// The cell fields are CellResult's, in the order of the cell field table
/// (reporter.hpp). A journal of another schema version is refused with a
/// diagnostic naming both versions.
///
/// The header fingerprint hashes exactly the result-determining spec fields
/// (axes, messages, trials, seed, capacity, budget, max_steps) — and *not*
/// name / threads / snapshot_dir, which never change results — so a
/// resume under a different thread count or with a snapshot directory
/// legitimately reuses the journal, while any edit that would
/// change cell values is refused with a diagnostic. Doubles are serialized
/// as C hexfloats (%a), which round-trip exactly; replayed cells therefore
/// re-render byte-identically in reports, and a resumed run's report equals
/// an uninterrupted run's byte for byte (tests/test_checkpoint.cpp).
///
/// Crash tolerance: appends are flushed line-atomically per cell; on load,
/// a torn final line (the one write a crash can interrupt) is discarded and
/// overwritten, while corruption anywhere earlier throws.

/// FNV-1a fingerprint over the result-determining fields of `spec` (see
/// above). Stable across processes and platforms.
[[nodiscard]] std::uint64_t spec_fingerprint(const ScenarioSpec& spec);

/// One CellResult as one tab-separated journal line (without newline);
/// strings are escaped (\t, \n, \r, \\), doubles rendered as %a hexfloats.
/// decode_checkpoint_cell is the exact inverse: it accepts only lines that
/// encode_checkpoint_cell could have written (every field in its canonical
/// spelling) and throws std::runtime_error naming the first field that is
/// not. Exposed for tests.
[[nodiscard]] std::string encode_checkpoint_cell(const CellResult& cell);
[[nodiscard]] CellResult decode_checkpoint_cell(const std::string& line);

/// An open checkpoint journal: loads previously completed cells on
/// construction, then records newly completed ones.
class CheckpointJournal {
 public:
  /// Opens (creating if absent) the journal at `path` for `spec`. Loads
  /// every completed cell; throws std::runtime_error on a fingerprint or
  /// cell-count mismatch, on corruption anywhere but a torn final line, or
  /// if the file cannot be opened for append.
  CheckpointJournal(std::string path, const ScenarioSpec& spec);

  /// Completed cells loaded from disk, indexed by cell id (nullopt = not
  /// recorded). Fixed after construction.
  [[nodiscard]] const std::vector<std::optional<CellResult>>& completed() const {
    return completed_;
  }
  [[nodiscard]] std::uint64_t num_completed() const { return num_completed_; }

  /// Appends one completed cell and flushes the line. Thread-safe: workers
  /// call this concurrently from the cell loop.
  void record(const CellResult& cell);

 private:
  std::string path_;
  std::vector<std::optional<CellResult>> completed_;
  std::uint64_t num_completed_ = 0;
  std::mutex mutex_;
  std::ofstream out_;
};

}  // namespace faultroute::scenario
