#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace faultroute {

/// A small column-aligned table for experiment reports, printed to stdout by
/// the paper-claims gate and bench_snapshot.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Cell formatting helpers.
  static std::string fmt(double value, int precision = 3);
  static std::string fmt(std::uint64_t value);
  static std::string fmt(int value);

  void add_row(std::vector<std::string> cells);

  [[nodiscard]] std::size_t num_rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t num_columns() const { return headers_.size(); }
  [[nodiscard]] const std::vector<std::string>& row(std::size_t i) const { return rows_[i]; }

  /// Renders the aligned table (header, rule, rows).
  [[nodiscard]] std::string to_string() const;

  /// Prints to stdout with a title line.
  void print(const std::string& title) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace faultroute
