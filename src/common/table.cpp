#include "common/table.hpp"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <sstream>

namespace lc {

void TextTable::header(std::vector<std::string> cells) {
  header_ = std::move(cells);
}

void TextTable::row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

std::string TextTable::str() const {
  std::size_t cols = header_.size();
  for (const auto& r : rows_) cols = std::max(cols, r.size());
  std::vector<std::size_t> width(cols, 0);
  auto widen = [&](const std::vector<std::string>& r) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      width[c] = std::max(width[c], r[c].size());
    }
  };
  widen(header_);
  for (const auto& r : rows_) widen(r);

  std::ostringstream os;
  os << "=== " << title_ << " ===\n";
  auto emit = [&](const std::vector<std::string>& r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::string& cell = c < r.size() ? r[c] : std::string();
      os << std::left << std::setw(static_cast<int>(width[c]) + 2) << cell;
    }
    os << '\n';
  };
  if (!header_.empty()) {
    emit(header_);
    std::size_t total = 0;
    for (auto w : width) total += w + 2;
    os << std::string(total, '-') << '\n';
  }
  for (const auto& r : rows_) emit(r);
  return os.str();
}

void TextTable::print() const { std::fputs(str().c_str(), stdout); }

std::string format_bytes_gb(double bytes, int precision) {
  return format_fixed(bytes / (1024.0 * 1024.0 * 1024.0), precision);
}

std::string format_fixed(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

std::string format_sig(double value, int digits) {
  std::ostringstream os;
  os << std::setprecision(digits) << value;
  return os.str();
}

}  // namespace lc
