#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace faultroute::sim {

/// Shared CLI options for the experiment bench binaries.
///
///   --quick            shrink instance sizes / trial counts (CI smoke run)
///   --trials=N         override the per-point trial count (N >= 1)
///   --seed=S           override the base seed (unsigned 64-bit)
///   --csv=DIR          also write each printed table as DIR/<table>.csv
struct Options {
  bool quick = false;
  std::optional<int> trials;
  std::uint64_t seed = 20050701;  // PODC 2005 vintage
  std::optional<std::string> csv_dir;

  /// Effective trial count given a full-run default (quick mode quarters it,
  /// minimum 5).
  [[nodiscard]] int trials_or(int full_default) const;

  /// CSV path for a table name, if --csv was given.
  [[nodiscard]] std::optional<std::string> csv_path(const std::string& table_name) const;
};

/// Parses argv; throws std::invalid_argument, naming the flag, on unknown
/// flags or malformed values (whole-token numbers only: `--trials=2abc`,
/// `--trials=0` and `--seed=-1` are refused). argv[0] is ignored; argv is
/// only read.
[[nodiscard]] Options parse_options(int argc, char** argv);

}  // namespace faultroute::sim
