#ifndef STAGE_CORE_STAGE_PREDICTOR_H_
#define STAGE_CORE_STAGE_PREDICTOR_H_

#include <optional>
#include <string>

#include "stage/cache/exec_time_cache.h"
#include "stage/calib/conformal.h"
#include "stage/core/predictor.h"
#include "stage/fleet/instance.h"
#include "stage/global/global_model.h"
#include "stage/local/local_model.h"
#include "stage/local/training_pool.h"
#include "stage/obs/metrics.h"
#include "stage/obs/trace.h"

namespace stage::core {

// All knobs of the hierarchical Stage predictor (§4).
struct StagePredictorConfig {
  cache::ExecTimeCacheConfig cache;
  local::TrainingPoolConfig pool;
  local::LocalModelConfig local;

  // Local-model (re)training cadence.
  size_t retrain_interval = 400;
  size_t min_train_size = 30;

  // Routing (§4.1): return the local prediction when it says the query is
  // short-running OR when it is confident; otherwise escalate to the
  // global model. The uncertainty threshold is on the log-space standard
  // deviation (a multiplicative error bar: 1.0 ~= within ~2.7x).
  double short_running_seconds = 5.0;
  double uncertainty_log_std_threshold = 1.0;

  // Ablation switch: never consult the global model even if provided.
  bool use_global = true;

  // §4.8 calibration: when set, an online conformal recalibrator rescales
  // the local ensemble's log_std before the confidence check above (and in
  // the reported uncertainty), driven by normalized residuals observed on
  // completions. Off by default — the flag-off path is bit-for-bit legacy
  // routing, pinned by tests/golden/routing_v1.txt.
  bool calibrate_uncertainty = false;
  calib::ConformalConfig conformal;

  // Returns an empty string when the config is usable; otherwise a
  // description of the first problem found. fleet_serve::TenantStack
  // refuses to construct from an invalid config.
  std::string Validate() const;
};

// Non-owning collaborators of one predictor stack (fleet_serve::TenantStack).
// Both model pointers may be null (the predictor degrades to cache + local,
// which is the configuration Redshift actually deployed, §5.2); when set
// they are borrowed and must outlive the predictor.
struct StagePredictorOptions {
  const global::GlobalModel* global_model = nullptr;
  const fleet::InstanceConfig* instance = nullptr;
  // Optional observability sink. When set, the predictor resolves its
  // hot-path metrics (escalations, uncertainty, per-stage latency) against
  // it and registers render-time callbacks for its component state (cache
  // hits/misses/evictions, pool size, attribution counters); it must
  // outlive the predictor, which unregisters its callbacks on destruction.
  obs::MetricsRegistry* metrics = nullptr;
  // Metric name prefix; distinct predictors sharing one registry must use
  // distinct prefixes.
  std::string metrics_prefix = "stage_";
};

// The §4.1 routing policy as a pure function, kept apart from the stack that
// calls it (fleet_serve::TenantStack) so it can be tested alone: cache hit ->
// cached value; trained local model -> local unless it is uncertain about a
// long-running query and a global model is usable; otherwise global (cold
// start) or the cold-start default. `cached_seconds` is the already-made
// cache lookup; `local` may be null or untrained. When `trace` is non-null
// the routing decision (stage reached, thresholds crossed, uncertainty) is
// recorded into it; the latency fields are the caller's job.
// `uncertainty_scale` multiplies the local model's log_std before the
// confidence check and in the reported uncertainty (the §4.8 conformal
// correction); 1.0 — the default, and the only value the flag-off path
// ever passes — is bit-for-bit identity.
Prediction RouteHierarchical(const StagePredictorConfig& config,
                             const QueryContext& query,
                             std::optional<double> cached_seconds,
                             const local::LocalModel* local,
                             const global::GlobalModel* global_model,
                             const fleet::InstanceConfig* instance,
                             obs::PredictionTrace* trace = nullptr,
                             double uncertainty_scale = 1.0);

// Deferred variant for batch paths: identical routing decisions, but when
// the query escalates to the global model it returns with out.source ==
// kGlobal, out.seconds NOT yet computed, and *needs_global = true instead
// of running the (relatively expensive) GCN inline per query. The caller
// collects every such query, runs ONE GlobalModel::PredictBatch over them,
// writes each prediction's seconds, and calls CompleteTrace on any trace it
// passed. RouteHierarchical is a thin wrapper over this function, so the
// two can never drift; the batched fill is bit-for-bit identical to the
// inline call (GlobalModel::PredictBatch's contract).
Prediction RouteHierarchicalDeferred(const StagePredictorConfig& config,
                                     const QueryContext& query,
                                     std::optional<double> cached_seconds,
                                     const local::LocalModel* local,
                                     const global::GlobalModel* global_model,
                                     const fleet::InstanceConfig* instance,
                                     bool* needs_global,
                                     obs::PredictionTrace* trace = nullptr,
                                     double uncertainty_scale = 1.0);

// Mirrors a final routing outcome into `trace` (no-op when null). Batch
// callers use it to finish the trace of a deferred-global query once the
// batched prediction has filled in its seconds.
void CompleteTrace(obs::PredictionTrace* trace, const Prediction& out);

}  // namespace stage::core

#endif  // STAGE_CORE_STAGE_PREDICTOR_H_
