#include "stage/metrics/latency_recorder.h"

#include <cmath>

#include "stage/common/macros.h"
#include "stage/metrics/report.h"

namespace stage::metrics {

LatencyRecorder::LatencyRecorder(size_t num_slots) : num_slots_(num_slots) {
  STAGE_CHECK(num_slots > 0);
  slots_.reserve(num_slots);
  for (size_t i = 0; i < num_slots; ++i) {
    slots_.push_back(std::make_unique<obs::Histogram>(
        obs::Histogram::LatencyBucketsNanos()));
  }
}

void LatencyRecorder::Record(size_t slot, uint64_t nanos) {
  STAGE_DCHECK(slot < num_slots_);
  slots_[slot]->Record(static_cast<double>(nanos));
}

LatencyRecorder::SlotSnapshot LatencyRecorder::Summarize(
    const obs::Histogram::Snapshot& histogram) {
  SlotSnapshot out;
  out.count = histogram.count;
  // Nanosecond sums stay exact in a double well past 2^52 total nanos
  // (~52 days of accumulated latency); llround recovers the integer.
  out.total_nanos = static_cast<uint64_t>(std::llround(histogram.sum));
  out.max_nanos = static_cast<uint64_t>(std::llround(histogram.max));
  out.p50_nanos = histogram.Quantile(0.50);
  out.p99_nanos = histogram.Quantile(0.99);
  return out;
}

LatencyRecorder::SlotSnapshot LatencyRecorder::slot(size_t slot_index) const {
  STAGE_DCHECK(slot_index < num_slots_);
  return Summarize(slots_[slot_index]->TakeSnapshot());
}

obs::Histogram::Snapshot LatencyRecorder::histogram_snapshot(
    size_t slot_index) const {
  STAGE_DCHECK(slot_index < num_slots_);
  return slots_[slot_index]->TakeSnapshot();
}

uint64_t LatencyRecorder::total_count() const {
  uint64_t total = 0;
  for (size_t i = 0; i < num_slots_; ++i) total += slots_[i]->count();
  return total;
}

std::string LatencyRecorder::RenderTable(
    const std::vector<std::string>& slot_names, double elapsed_seconds) const {
  std::vector<obs::Histogram::Snapshot> slots;
  slots.reserve(num_slots_);
  for (size_t i = 0; i < num_slots_; ++i) {
    slots.push_back(histogram_snapshot(i));
  }
  return RenderLatencyTable(slot_names, slots, elapsed_seconds);
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
    const LatencyRecorder::SlotSnapshot snapshot =
        LatencyRecorder::Summarize(slots[i]);
    const std::string name =
        i < slot_names.size() ? slot_names[i] : std::to_string(i);
    table.AddRow({name, std::to_string(snapshot.count),
                  FormatValue(LatencyRecorder::Qps(snapshot.count,
                                                   elapsed_seconds)),
                  FormatValue(snapshot.mean_micros()),
                  FormatValue(1e-3 * snapshot.p50_nanos),
                  FormatValue(1e-3 * snapshot.p99_nanos),
                  FormatValue(snapshot.max_micros())});
  }
  return table.Render();
}

}  // namespace stage::metrics
