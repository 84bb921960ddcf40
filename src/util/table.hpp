// ASCII table / data-series formatting for benchmark output.
//
// Every bench binary prints the rows or series of the paper table/figure it
// regenerates; this module keeps that output consistent and parseable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cni::util {

/// A right-aligned column table with a title, printed in a fixed-width layout:
///
///   == Table 2: Overhead for 8-processor Jacobi ==
///   Category        Time-CNI  Time-standard
///   Synch overhead     0.054          0.063
class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  /// Sets the column headers. Must be called before add_row.
  void set_header(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);

  /// Convenience: formats every cell with %g-style precision.
  void add_row(const std::string& label, const std::vector<double>& values,
               int precision = 4);

  /// Renders the table to a string (trailing newline included).
  [[nodiscard]] std::string to_string() const;

  /// Renders to stdout.
  void print() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `precision` significant decimal places, trimming
/// trailing zeros ("0.054", "13.31", "100").
[[nodiscard]] std::string format_double(double v, int precision = 4);

}  // namespace cni::util
