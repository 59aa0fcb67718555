#include "stage/metrics/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace stage::metrics {

void TextTable::SetHeader(std::vector<std::string> header) {
  header_ = std::move(header);
}

void TextTable::AddRow(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

std::string TextTable::Render() const {
  // Column widths over header + rows.
  std::vector<size_t> widths;
  auto grow = [&](const std::vector<std::string>& row) {
    if (row.size() > widths.size()) widths.resize(row.size(), 0);
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  };
  grow(header_);
  for (const auto& row : rows_) grow(row);

  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& row) {
    out << "|";
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : "";
      out << " " << cell << std::string(widths[c] - cell.size(), ' ')
          << " |";
    }
    out << "\n";
  };
  if (!header_.empty()) {
    emit(header_);
    out << "|";
    for (size_t c = 0; c < widths.size(); ++c) {
      out << std::string(widths[c] + 2, '-') << "|";
    }
    out << "\n";
  }
  for (const auto& row : rows_) emit(row);
  return out.str();
}

std::string FormatValue(double value) {
  char buffer[64];
  const double mag = std::abs(value);
  if (mag >= 1000.0) {
    std::snprintf(buffer, sizeof(buffer), "%.0f", value);
  } else if (mag >= 100.0) {
    std::snprintf(buffer, sizeof(buffer), "%.1f", value);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.2f", value);
  }
  return buffer;
}

std::string FormatPercent(double fraction) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.1f%%", fraction * 100.0);
  return buffer;
}

std::string RenderLatencyTable(
    const std::vector<std::string>& slot_names,
    const std::vector<obs::Histogram::Snapshot>& slots,
    double elapsed_seconds) {
  TextTable table;
  table.SetHeader(
      {"Slot", "Count", "QPS", "Mean (us)", "p50 (us)", "p99 (us)",
       "Max (us)"});
  for (size_t i = 0; i < slots.size(); ++i) {
    const obs::Histogram::Snapshot& slot = slots[i];
    const double count = static_cast<double>(slot.count);
    const std::string name =
        i < slot_names.size() ? slot_names[i] : std::to_string(i);
    table.AddRow(
        {name, std::to_string(slot.count),
         FormatValue(elapsed_seconds <= 0.0 ? 0.0 : count / elapsed_seconds),
         FormatValue(slot.count == 0 ? 0.0 : 1e-3 * slot.sum / count),
         FormatValue(1e-3 * slot.Quantile(0.50)),
         FormatValue(1e-3 * slot.Quantile(0.99)),
         FormatValue(1e-3 * slot.max)});
  }
  return table.Render();
}

}  // namespace stage::metrics
