#ifndef STAGE_METRICS_LATENCY_RECORDER_H_
#define STAGE_METRICS_LATENCY_RECORDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stage/obs/metrics.h"

namespace stage::metrics {

// Lock-free per-slot latency/QPS accumulator for serving-path telemetry
// (§4.5 overhead accounting at runtime rather than in a bench). Slots are
// opaque indices; the serving layer maps one slot per PredictionSource so
// cache hits, local-model predictions, and global escalations report
// separate latency distributions. All methods are thread-safe; Record is a
// handful of relaxed atomic RMWs and never blocks.
//
// Each slot is backed by an obs::Histogram (the single histogram
// implementation in the tree), so beyond count/mean/max every slot also
// reports interpolated percentiles and can be exposed on a MetricsRegistry
// via histogram_snapshot.
class LatencyRecorder {
 public:
  explicit LatencyRecorder(size_t num_slots);

  void Record(size_t slot, uint64_t nanos);

  struct SlotSnapshot {
    uint64_t count = 0;
    uint64_t total_nanos = 0;
    uint64_t max_nanos = 0;
    double p50_nanos = 0.0;  // Interpolated from histogram buckets.
    double p99_nanos = 0.0;
    double mean_micros() const {
      return count == 0 ? 0.0 : 1e-3 * static_cast<double>(total_nanos) /
                                    static_cast<double>(count);
    }
    double max_micros() const { return 1e-3 * static_cast<double>(max_nanos); }
  };

  SlotSnapshot slot(size_t slot_index) const;
  // The raw histogram state of one slot (for MetricsRegistry histogram
  // callbacks and percentile queries beyond p50/p99).
  obs::Histogram::Snapshot histogram_snapshot(size_t slot_index) const;
  size_t num_slots() const { return num_slots_; }
  uint64_t total_count() const;

  // Requests per second given a caller-measured wall-clock window.
  static double Qps(uint64_t count, double elapsed_seconds) {
    return elapsed_seconds <= 0.0 ? 0.0
                                  : static_cast<double>(count) / elapsed_seconds;
  }

  // RenderLatencyTable over this recorder's slots.
  std::string RenderTable(const std::vector<std::string>& slot_names,
                          double elapsed_seconds) const;

  // Count / total / max / p50 / p99 of one latency histogram.
  static SlotSnapshot Summarize(const obs::Histogram::Snapshot& histogram);

 private:
  size_t num_slots_;
  std::vector<std::unique_ptr<obs::Histogram>> slots_;
};

// Fixed-width table of per-slot count / QPS / mean / p50 / p99 / max, one
// row per latency histogram (unnamed slots render by index), for CLI
// diagnostics.
std::string RenderLatencyTable(
    const std::vector<std::string>& slot_names,
    const std::vector<obs::Histogram::Snapshot>& slots,
    double elapsed_seconds);

}  // namespace stage::metrics

#endif  // STAGE_METRICS_LATENCY_RECORDER_H_
