#include "stage/core/stage_predictor.h"

#include <cmath>

namespace stage::core {

// The obs layer restates PredictionSource as obs::TraceStage (obs sits
// below core); the two must stay numerically identical.
static_assert(obs::kNumTraceStages == kNumPredictionSources);
static_assert(static_cast<int>(obs::TraceStage::kCache) ==
              static_cast<int>(PredictionSource::kCache));
static_assert(static_cast<int>(obs::TraceStage::kLocal) ==
              static_cast<int>(PredictionSource::kLocal));
static_assert(static_cast<int>(obs::TraceStage::kGlobal) ==
              static_cast<int>(PredictionSource::kGlobal));
static_assert(static_cast<int>(obs::TraceStage::kBaseline) ==
              static_cast<int>(PredictionSource::kBaseline));
static_assert(static_cast<int>(obs::TraceStage::kDefault) ==
              static_cast<int>(PredictionSource::kDefault));

std::string StagePredictorConfig::Validate() const {
  if (cache.capacity == 0) return "cache.capacity must be positive";
  if (cache.alpha < 0.0 || cache.alpha > 1.0) {
    return "cache.alpha must be in [0, 1]";
  }
  if (pool.capacity == 0 && !pool.unbounded) {
    return "pool.capacity must be positive (or pool.unbounded set)";
  }
  if (pool.bucket_bounds_seconds[0] > pool.bucket_bounds_seconds[1]) {
    return "pool.bucket_bounds_seconds must be non-decreasing";
  }
  for (double fraction : pool.bucket_fractions) {
    if (fraction < 0.0) return "pool.bucket_fractions must be non-negative";
  }
  if (local.ensemble.num_members <= 0) {
    return "local.ensemble.num_members must be positive";
  }
  if (retrain_interval == 0) return "retrain_interval must be positive";
  if (min_train_size == 0) return "min_train_size must be positive";
  // isfinite first: NaN compares false against every threshold, so a bare
  // `< 0.0` check silently accepts it — and a NaN threshold makes every
  // routing confidence check false.
  if (!std::isfinite(short_running_seconds) || short_running_seconds < 0.0) {
    return "short_running_seconds must be finite and non-negative";
  }
  if (!std::isfinite(uncertainty_log_std_threshold) ||
      uncertainty_log_std_threshold < 0.0) {
    return "uncertainty_log_std_threshold must be finite and non-negative";
  }
  const std::string conformal_error = conformal.Validate();
  if (!conformal_error.empty()) return conformal_error;
  return "";
}

void CompleteTrace(obs::PredictionTrace* trace, const Prediction& out) {
  if (trace == nullptr) return;
  trace->stage = static_cast<obs::TraceStage>(out.source);
  trace->predicted_seconds = out.seconds;
  trace->uncertainty_log_std = out.uncertainty_log_std;
}

Prediction RouteHierarchicalDeferred(const StagePredictorConfig& config,
                                     const QueryContext& query,
                                     std::optional<double> cached_seconds,
                                     const local::LocalModel* local,
                                     const global::GlobalModel* global_model,
                                     const fleet::InstanceConfig* instance,
                                     bool* needs_global,
                                     obs::PredictionTrace* trace,
                                     double uncertainty_scale) {
  *needs_global = false;
  Prediction out;
  if (trace != nullptr) {
    trace->short_running_threshold = config.short_running_seconds;
    trace->uncertainty_threshold = config.uncertainty_log_std_threshold;
  }

  // Stage 1: exec-time cache.
  if (cached_seconds) {
    out.seconds = *cached_seconds;
    out.source = PredictionSource::kCache;
    if (trace != nullptr) trace->cache_hit = true;
    CompleteTrace(trace, out);
    return out;
  }

  const bool global_available = config.use_global && global_model != nullptr &&
                                global_model->trained() &&
                                instance != nullptr && query.plan != nullptr;
  if (trace != nullptr) trace->global_available = global_available;

  // Stage 2: instance-optimized local model.
  if (local != nullptr && local->trained()) {
    const local::LocalModel::Output local_out = local->Predict(query.features);
    // The conformal correction (§4.8). Identity when uncertainty_scale is
    // 1.0: IEEE multiplication by 1.0 is exact, so the flag-off path stays
    // bit-for-bit legacy.
    const double log_std = local_out.log_std() * uncertainty_scale;
    out.seconds = local_out.exec_seconds;
    out.uncertainty_log_std = log_std;
    out.source = PredictionSource::kLocal;

    const bool short_running =
        local_out.exec_seconds < config.short_running_seconds;
    const bool confident = log_std < config.uncertainty_log_std_threshold;
    if (trace != nullptr) {
      trace->local_trained = true;
      trace->short_running = short_running;
      trace->confident = confident;
    }
    if (short_running || confident || !global_available) {
      CompleteTrace(trace, out);
      return out;
    }
    // Stage 3: the local model is uncertain about a long-running query.
    // Seconds deferred to the caller's GlobalModel call; trace finishes
    // once they are known.
    out.source = PredictionSource::kGlobal;
    *needs_global = true;
    if (trace != nullptr) trace->escalated = true;
    return out;
  }

  // Cold start: no local model yet. The transferable global model covers
  // new instances until enough local training data accumulates.
  if (global_available) {
    out.source = PredictionSource::kGlobal;
    *needs_global = true;
    return out;
  }
  out.seconds = kColdStartDefaultSeconds;
  out.source = PredictionSource::kDefault;
  CompleteTrace(trace, out);
  return out;
}

Prediction RouteHierarchical(const StagePredictorConfig& config,
                             const QueryContext& query,
                             std::optional<double> cached_seconds,
                             const local::LocalModel* local,
                             const global::GlobalModel* global_model,
                             const fleet::InstanceConfig* instance,
                             obs::PredictionTrace* trace,
                             double uncertainty_scale) {
  bool needs_global = false;
  Prediction out = RouteHierarchicalDeferred(config, query, cached_seconds,
                                             local, global_model, instance,
                                             &needs_global, trace,
                                             uncertainty_scale);
  if (needs_global) {
    out.seconds = global_model->PredictSeconds(*query.plan, *instance,
                                               query.concurrent_queries);
    CompleteTrace(trace, out);
  }
  return out;
}

}  // namespace stage::core
