#ifndef STAGE_FLEET_SERVE_TENANT_STACK_H_
#define STAGE_FLEET_SERVE_TENANT_STACK_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "stage/cache/sharded_cache.h"
#include "stage/calib/conformal.h"
#include "stage/core/predictor.h"
#include "stage/core/stage_predictor.h"
#include "stage/local/local_model.h"
#include "stage/local/training_pool.h"
#include "stage/obs/metrics.h"
#include "stage/obs/trace.h"

namespace stage::fleet_serve {

// Per-tenant knobs: one instance's predictor stack shape. (The retrain
// execution mode — inline vs background — is the caller's: Observe(q, s)
// retrains inline, FleetServiceConfig::async_retrain picks for a fleet.)
struct TenantStackConfig {
  core::StagePredictorConfig predictor;

  // Shards of the exec-time cache front. 1 shard reproduces the
  // single-threaded predictor bit-for-bit (same eviction order); more
  // shards let concurrent lookups proceed without serializing.
  size_t cache_shards = 8;

  // Empty when usable, else a description of the first problem.
  std::string Validate() const;
};

// The Stage predictor (§4): exec-time cache -> local Bayesian-ensemble
// model -> fleet-trained global GCN, as one instance's complete stack:
// sharded exec-time cache, training pool, double-buffered local-model
// snapshot, retrain cadence, and attribution telemetry. It is the only
// implementation of the hierarchy in this library.
//
// Two ways to drive it:
//  * Directly, through the ExecTimePredictor interface: Observe(q, s)
//    retrains inline when the §4.3 cadence asks. With cache_shards = 1 a
//    single-threaded replay is deterministic — this is what the paper
//    benches, the examples, the WLM policies and the golden routing
//    replays use.
//  * Under FleetService, which calls the three-argument Observe: the stack
//    only *reports* that the cadence wants a retrain and the fleet's
//    fairness-capped worker pool runs TrainOnce().
//
// Concurrency contract:
//  * Predict / PredictBatch / PredictTraced are const, never block on
//    training, and are safe against each other and against Observe.
//  * Observe is serialized internally (multiple writer sessions are safe).
//  * SaveState pauses writers (not readers) for a consistent cut; LoadState
//    must not race anything — restore before serving starts.
//
// Timing: a predict reads the clock only when it is traced — PredictTraced
// with a trace, or any predict once options.metrics is set (the per-stage
// <prefix>predict_latency_ns histograms are then fed from the trace). An
// untraced predict is the cache probe plus routing and nothing else.
class TenantStack final : public core::ExecTimePredictor {
 public:
  // `options` collaborators are borrowed and must outlive the stack. When
  // options.metrics is set the full per-stack metric families register
  // under options.metrics_prefix (and unregister in the destructor).
  explicit TenantStack(const TenantStackConfig& config,
                       const core::StagePredictorOptions& options = {});
  ~TenantStack() override;

  TenantStack(const TenantStack&) = delete;
  TenantStack& operator=(const TenantStack&) = delete;

  core::Prediction Predict(const core::QueryContext& query) const override;

  // Batch prediction with the global-model fan-out batched: routing runs
  // per query (cache + local model), every escalated query is collected,
  // and ONE GlobalModel::PredictBatch computes their seconds. Results are
  // bit-for-bit identical to calling Predict once per query, in order.
  std::vector<core::Prediction> PredictBatch(
      std::span<const core::QueryContext> queries) const override;

  // Predict with the routing decision recorded into `trace`: stage reached,
  // thresholds crossed, uncertainty, the cache shard the key mapped to, and
  // the cache / route / total latency in ns. Predictions are bit-for-bit
  // identical to Predict. `trace` may be null, degrading to Predict.
  core::Prediction PredictTraced(const core::QueryContext& query,
                                 obs::PredictionTrace* trace) const;

  // Records an executed query into the cache (and, on a miss, the pool),
  // retraining inline when the §4.3 cadence asks for it.
  void Observe(const core::QueryContext& query, double exec_seconds) override {
    Observe(query, exec_seconds, /*inline_retrain=*/true);
  }
  // The same, but with `inline_retrain` false a requested (re)training is
  // not run: the call returns true and the caller owns scheduling
  // TrainOnce(). Returns false whenever no training is left to schedule.
  bool Observe(const core::QueryContext& query, double exec_seconds,
               bool inline_retrain);

  // Snapshots the pool, trains a fresh model, and publishes it with the
  // double-buffered swap. Safe to run concurrently with Predict/Observe;
  // at most one TrainOnce may run at a time per stack.
  void TrainOnce();

  // Symmetric, status-returning checkpoint contract. SaveState pins one
  // consistent Observe boundary (writers stall, readers do not) and writes
  // the "SSRV" stream (SnapshotKind::kPredictionService). The restoring
  // stack's config must match the writer's (same cache_shards: shard
  // membership is key % num_shards). Both return false — filling `error`
  // when non-null — on failure. LoadState parses every component before
  // it commits any, so a stream that fails anywhere leaves the stack as it
  // was. A stack restored from a snapshot continues the replay
  // bit-for-bit — same predictions, same routing, same future retrains —
  // as one that never stopped. Telemetry
  // (attribution counters, cache hit/miss counters) restarts at zero on
  // LoadState: counters describe a serving lifetime, not predictor state.
  // (Fleet eviction preserves them separately via SourceCounts /
  // SeedSourceCounts.)
  bool SaveState(std::ostream& out, std::string* error = nullptr) const;
  bool LoadState(std::istream& in, std::string* error = nullptr);

  // Approximate bytes of resident state (sharded cache + pool + current
  // local model + fixed overhead): the registry's eviction currency. Takes
  // the shard locks briefly; cheap enough for the Observe path.
  size_t ApproxResidentBytes() const;

  // Attribution counters: how many predictions each stage served.
  uint64_t predictions_from(core::PredictionSource source) const {
    return source_counts_[static_cast<int>(source)].load(
        std::memory_order_relaxed);
  }
  uint64_t total_predictions() const;
  std::array<uint64_t, core::kNumPredictionSources> SourceCounts() const;
  // Re-seeds the attribution counters (cold activation of a previously
  // evicted tenant restores its in-process counts). Not thread-safe with
  // concurrent Predicts — call before the stack starts serving.
  void SeedSourceCounts(
      const std::array<uint64_t, core::kNumPredictionSources>& counts);

  // Completed local-model trainings.
  int trainings() const { return trainings_.load(std::memory_order_relaxed); }

  // Current §4.8 conformal sigma correction: 1.0 when
  // predictor.calibrate_uncertainty is off or the window hasn't filled.
  // Lock-free (one atomic load), safe against concurrent Observes.
  double conformal_scale() const {
    return recalibrator_ != nullptr ? recalibrator_->scale() : 1.0;
  }
  // The recalibrator, or nullptr when calibration is off.
  const calib::ConformalRecalibrator* recalibrator() const {
    return recalibrator_.get();
  }

  // Current local-model snapshot (nullptr before the first training). The
  // returned pointer stays valid across later swaps.
  std::shared_ptr<const local::LocalModel> local_model_snapshot() const;

  const cache::ShardedExecTimeCache& exec_time_cache() const { return cache_; }
  size_t pool_size() const;

  // Memory footprint of the locally resident components: cache plus local
  // model (the paper excludes the global model, which deploys as a shared
  // serverless function).
  size_t LocalMemoryBytes() const;

 private:
  core::Prediction PredictImpl(const core::QueryContext& query,
                               obs::PredictionTrace* trace) const;
  void RegisterMetrics();
  void PublishModel(std::shared_ptr<const local::LocalModel> fresh);

  TenantStackConfig config_;
  core::StagePredictorOptions options_;  // Borrowed pointers, nullable.

  cache::ShardedExecTimeCache cache_;

  // Write-path state: the pool and retrain bookkeeping, guarded by
  // pool_mutex_ (observe_mutex_ additionally serializes whole Observes so
  // multiple writer sessions see one sequential order of observations).
  // Mutable so the const SaveState can pause writers while it runs.
  mutable std::mutex observe_mutex_;
  mutable std::mutex pool_mutex_;
  local::TrainingPool pool_;
  size_t observed_since_train_ = 0;
  bool first_train_requested_ = false;

  // §4.8 recalibrator, non-null iff predictor.calibrate_uncertainty. The
  // window is mutated only under observe_mutex_; the published scale is an
  // atomic the read path loads lock-free.
  std::unique_ptr<calib::ConformalRecalibrator> recalibrator_;

  // Double-buffered model snapshot: the trainer publishes a fresh model by
  // swapping this pointer; in-flight readers keep the previous buffer alive
  // through their own shared_ptr until they finish with it. model_mutex_
  // guards only the O(1) copy/swap — it is never held while training — so
  // Predict can stall behind a pointer copy at worst, never behind Train.
  // (Deliberately not std::atomic<std::shared_ptr>: libstdc++ implements
  // that with a lock bit ThreadSanitizer cannot see, and the stress tests
  // must run TSan-clean.)
  mutable std::mutex model_mutex_;
  std::shared_ptr<const local::LocalModel> model_;
  std::atomic<int> trainings_{0};

  mutable std::array<std::atomic<uint64_t>, core::kNumPredictionSources>
      source_counts_{};
  // Hot-path metric handles, resolved against options_.metrics when set
  // (null members otherwise); enabled() is what turns on predict timing.
  obs::RoutingMetricSet routing_metrics_;
};

}  // namespace stage::fleet_serve

#endif  // STAGE_FLEET_SERVE_TENANT_STACK_H_
