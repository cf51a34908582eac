#include "util/ascii.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace stellar::util {

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("TextTable::add_row: cell count != header count");
  }
  rows_.push_back(std::move(cells));
}

std::string TextTable::str() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) out << " | ";
      out << row[c];
      for (std::size_t pad = row[c].size(); pad < widths[c]; ++pad) out << ' ';
    }
    out << '\n';
  };
  emit_row(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c != 0) out << "-+-";
    out << std::string(widths[c], '-');
  }
  out << '\n';
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string SeriesTable(const std::string& x_label, const std::vector<double>& xs,
                        const std::vector<std::pair<std::string, std::vector<double>>>& series,
                        int precision) {
  for (const auto& [name, ys] : series) {
    if (ys.size() != xs.size()) {
      throw std::invalid_argument("SeriesTable: series '" + name + "' length mismatch");
    }
  }
  std::vector<std::string> headers{x_label};
  for (const auto& [name, ys] : series) headers.push_back(name);
  TextTable table(std::move(headers));
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::vector<std::string> row{FormatDouble(xs[i], precision)};
    for (const auto& [name, ys] : series) row.push_back(FormatDouble(ys[i], precision));
    table.add_row(std::move(row));
  }
  return table.str();
}

}  // namespace stellar::util
