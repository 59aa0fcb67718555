#ifndef STAGE_METRICS_REPORT_H_
#define STAGE_METRICS_REPORT_H_

#include <string>
#include <vector>

#include "stage/obs/metrics.h"

namespace stage::metrics {

// Minimal fixed-width text table used by the bench binaries to print the
// paper's tables.
class TextTable {
 public:
  void SetHeader(std::vector<std::string> header);
  void AddRow(std::vector<std::string> row);
  std::string Render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Formats a double with the paper's 4-significant-digit style (e.g. 7.76,
// 126.4, 1496).
std::string FormatValue(double value);

// Formats a percentage like "20.3%".
std::string FormatPercent(double fraction);

// Fixed-width table of per-slot count / QPS / mean / p50 / p99 / max, one
// row per latency histogram in nanoseconds (unnamed slots render by
// index), for CLI diagnostics.
std::string RenderLatencyTable(
    const std::vector<std::string>& slot_names,
    const std::vector<obs::Histogram::Snapshot>& slots,
    double elapsed_seconds);

}  // namespace stage::metrics

#endif  // STAGE_METRICS_REPORT_H_
