// Plain-text rendering of tables and time series for the
// benchmark harness. Every figure/table bench prints through these so the
// output is comparable against the paper's plots at a glance.
#pragma once

#include <string>
#include <vector>

namespace stellar::util {

/// Fixed-width text table with a header row.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Render with column widths fitted to content, e.g.
  ///   port  | share [%]
  ///   ------+----------
  ///   443   | 55.2
  [[nodiscard]] std::string str() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with fixed precision (locale-independent).
std::string FormatDouble(double v, int precision = 2);

/// Multi-series time-series rendering as aligned columns (t, s1, s2, ...).
std::string SeriesTable(const std::string& x_label, const std::vector<double>& xs,
                        const std::vector<std::pair<std::string, std::vector<double>>>& series,
                        int precision = 2);

}  // namespace stellar::util
