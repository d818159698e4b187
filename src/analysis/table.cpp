#include "analysis/table.hpp"

#include <algorithm>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace faultroute {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("Table: need at least one column");
}

std::string Table::fmt(double value, int precision) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(precision);
  out << value;
  return out.str();
}

std::string Table::fmt(std::uint64_t value) { return std::to_string(value); }
std::string Table::fmt(int value) { return std::to_string(value); }

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("Table::add_row: cell count mismatch");
  }
  rows_.push_back(std::move(cells));
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  const auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out << (c == 0 ? "" : "  ");
      out << cells[c];
      out << std::string(widths[c] - cells[c].size(), ' ');
    }
    out << '\n';
  };
  emit(headers_);
  std::size_t rule = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) rule += widths[c] + (c == 0 ? 0 : 2);
  out << std::string(rule, '-') << '\n';
  for (const auto& row : rows_) emit(row);
  return out.str();
}

void Table::print(const std::string& title) const {
  std::cout << "\n== " << title << " ==\n" << to_string() << std::flush;
}

}  // namespace faultroute
