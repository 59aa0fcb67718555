#ifndef STAGE_OBS_TRACE_H_
#define STAGE_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "stage/obs/metrics.h"

namespace stage::obs {

// Which stage of the §4.1 hierarchy served a prediction. Values mirror
// core::PredictionSource numerically (static_asserted in
// core/stage_predictor.cc); obs sits below core in the dependency graph,
// so the enum is restated here rather than included.
enum class TraceStage : uint8_t {
  kCache = 0,
  kLocal = 1,
  kGlobal = 2,
  kBaseline = 3,
  kDefault = 4,
};

inline constexpr int kNumTraceStages = 5;

std::string_view TraceStageName(TraceStage stage);

// The routing decision of one prediction as first-class data: which stage
// answered, why the router stopped there (which §4.1 thresholds were
// crossed), the uncertainty it saw, and where the time went. Filled by
// core::RouteHierarchical and the predictors layered on it; consumed by
// golden routing tests, trace dumps, and the metrics layer. Plain POD on
// the stack — tracing allocates nothing.
struct PredictionTrace {
  TraceStage stage = TraceStage::kDefault;

  // Routing decision record.
  bool cache_hit = false;        // Stage 1 answered.
  bool local_trained = false;    // A local model existed at predict time.
  bool global_available = false; // A usable global model existed.
  bool short_running = false;    // Local predicted < short_running_seconds.
  bool confident = false;        // log_std < uncertainty threshold.
  bool escalated = false;        // Local handed off to global (stage 3).

  // Prediction values.
  double predicted_seconds = 0.0;
  double uncertainty_log_std = -1.0;  // Negative when unavailable.

  // The thresholds the decision was made against (config at predict time).
  double short_running_threshold = 0.0;
  double uncertainty_threshold = 0.0;

  // Placement / cost. Filled only on traced calls (PredictTraced, and every
  // predict of a stack with a metrics registry); a plain predict reads no
  // clock and leaves them zero. In a batch, each escalated query's
  // route_nanos carries an equal share of the one batched global pass.
  uint32_t cache_shard = 0;   // Shard probed (0 for a one-shard cache).
  uint64_t cache_nanos = 0;   // Stage-1 lookup.
  uint64_t route_nanos = 0;   // Stages 2-3 (model inference + routing).
  uint64_t total_nanos = 0;   // cache_nanos + route_nanos.
};

// Stable one-line serialization of the *deterministic* trace fields (stage,
// decision record, values, thresholds, shard — never latencies), used by
// the golden routing test to pin per-query routing across refactors.
// Doubles are rendered with round-trip precision, so any numeric drift in
// routing inputs changes the line.
std::string FormatTraceLine(uint64_t query_index,
                            const PredictionTrace& trace);

// The hot-path metric bundle of a predictor stack (fleet_serve::TenantStack):
// resolved once against a registry at construction, then updated with
// relaxed atomics per prediction. When `registry` is null every pointer
// stays null and enabled() is false — the stack then neither times nor
// traces its predictions.
struct RoutingMetricSet {
  Counter* escalations = nullptr;          // <prefix>escalations_total.
  Histogram* uncertainty = nullptr;        // <prefix>local_uncertainty_log_std.
  // <prefix>predict_latency_ns{stage=...}, one per stage.
  Histogram* latency[kNumTraceStages] = {};

  bool enabled() const { return escalations != nullptr; }

  static RoutingMetricSet Create(MetricsRegistry* registry,
                                 const std::string& prefix);

  // Records the per-prediction signals: escalation, uncertainty, and
  // total_nanos into the latency histogram of the stage that answered.
  // Call only when enabled(), with a timed trace.
  void Record(const PredictionTrace& trace) const;
};

}  // namespace stage::obs

#endif  // STAGE_OBS_TRACE_H_
