// Fixed-width ASCII table printer.
//
// Every benchmark binary prints its results in the same row/column layout the
// paper's tables and figure series use (docs/BENCHMARKS.md maps each binary
// to its figure), so output compares with the paper row by row.  Also
// supports CSV emission for plotting.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace rtd {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append one row; cells are pre-formatted strings.
  void add_row(std::vector<std::string> cells);

  /// Format helpers for the common cell types.
  static std::string num(double v, int precision = 3);
  static std::string integer(std::int64_t v);
  static std::string speedup(double v);   // "3.61x"
  static std::string seconds(double v);   // auto-scales s / ms / us

  /// Render to stdout with column alignment and a separator rule.
  void print(std::FILE* out = stdout) const;

  /// Render as CSV (comma-separated, headers first).
  void print_csv(std::FILE* out = stdout) const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace rtd
