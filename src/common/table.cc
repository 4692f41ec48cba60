#include "common/table.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace retina {

TableWriter::TableWriter(std::string title, std::vector<std::string> header)
    : title_(std::move(title)), header_(std::move(header)) {}

void TableWriter::AddRow(std::vector<std::string> row) {
  assert(row.size() == header_.size());
  rows_.push_back(std::move(row));
}

std::string TableWriter::Render() const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line = "|";
    for (size_t c = 0; c < row.size(); ++c) {
      line += " " + row[c] + std::string(widths[c] - row[c].size(), ' ') +
              " |";
    }
    return line + "\n";
  };

  size_t total = 1;
  for (size_t w : widths) total += w + 3;
  const std::string rule(total, '-');

  std::string out;
  if (!title_.empty()) out += title_ + "\n";
  out += rule + "\n";
  out += render_row(header_);
  out += rule + "\n";
  for (const auto& row : rows_) out += render_row(row);
  out += rule + "\n";
  return out;
}

void TableWriter::Print() const { std::fputs(Render().c_str(), stdout); }

}  // namespace retina
