// Plain-text table formatter used by the bench harnesses to print the same
// rows the paper's tables report.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace lc {

/// Column-aligned ASCII table with a title, header and rows of strings.
class TextTable {
 public:
  explicit TextTable(std::string title) : title_(std::move(title)) {}

  /// Set the header row.
  void header(std::vector<std::string> cells);

  /// Append a data row. Row width may be ragged; missing cells print empty.
  void row(std::vector<std::string> cells);

  /// Render the full table (title, rule, header, rows).
  [[nodiscard]] std::string str() const;

  /// Render and write to stdout.
  void print() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a byte count using binary units ("1.29 GB" style, matching the
/// paper's tables which use GB).
[[nodiscard]] std::string format_bytes_gb(double bytes, int precision = 2);

/// Format a double with fixed precision.
[[nodiscard]] std::string format_fixed(double value, int precision = 2);

/// Format a double with `digits` significant digits (scientific notation
/// when the magnitude calls for it), for quantities spanning many decades.
[[nodiscard]] std::string format_sig(double value, int digits = 3);

}  // namespace lc
