#include "stage/fleet_serve/tenant_stack.h"

#include <chrono>
#include <utility>

#include "stage/calib/calibration.h"
#include "stage/common/macros.h"
#include "stage/common/serialize.h"
#include "stage/common/thread_pool.h"

namespace stage::fleet_serve {

namespace {

uint64_t NanosBetween(std::chrono::steady_clock::time_point start,
                      std::chrono::steady_clock::time_point end) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
}

uint64_t ElapsedNanos(std::chrono::steady_clock::time_point start) {
  return NanosBetween(start, std::chrono::steady_clock::now());
}

void SetError(std::string* error, const char* message) {
  if (error != nullptr) *error = message;
}

// Validates before any member construction (config_ initializes first), so
// a bad config reports Validate()'s message instead of tripping an internal
// check deep inside a member constructor.
const TenantStackConfig& Validated(const TenantStackConfig& config) {
  const std::string error = config.Validate();
  STAGE_CHECK_MSG(error.empty(), error.c_str());
  return config;
}

}  // namespace

std::string TenantStackConfig::Validate() const {
  if (cache_shards == 0) return "cache_shards must be positive";
  return predictor.Validate();
}

TenantStack::TenantStack(const TenantStackConfig& config,
                         const core::StagePredictorOptions& options)
    : config_(Validated(config)),
      options_(options),
      cache_(cache::ShardedExecTimeCacheConfig{config.predictor.cache,
                                               config.cache_shards}),
      pool_(config.predictor.pool) {
  if (config_.predictor.calibrate_uncertainty) {
    recalibrator_ = std::make_unique<calib::ConformalRecalibrator>(
        config_.predictor.conformal);
  }
  if (options_.metrics != nullptr) RegisterMetrics();
}

TenantStack::~TenantStack() {
  // Drop render-time callbacks before any member state dies: a scrape
  // racing destruction must never read a dead cache or pool.
  if (options_.metrics != nullptr) options_.metrics->UnregisterAll(this);
}

void TenantStack::RegisterMetrics() {
  obs::MetricsRegistry* registry = options_.metrics;
  const std::string& prefix = options_.metrics_prefix;
  // Escalations, uncertainty and per-stage latency come from the hot-path
  // metric set, fed from each predict's trace.
  routing_metrics_ = obs::RoutingMetricSet::Create(registry, prefix);
  for (int i = 0; i < core::kNumPredictionSources; ++i) {
    const auto source = static_cast<core::PredictionSource>(i);
    const std::string label =
        "{stage=\"" + std::string(core::PredictionSourceName(source)) + "\"}";
    registry->RegisterCounterCallback(
        this, prefix + "predictions_total" + label, [this, i] {
          return source_counts_[i].load(std::memory_order_relaxed);
        });
  }
  registry->RegisterCounterCallback(this, prefix + "cache_hits_total",
                                    [this] { return cache_.hits(); });
  registry->RegisterCounterCallback(this, prefix + "cache_misses_total",
                                    [this] { return cache_.misses(); });
  registry->RegisterCounterCallback(this, prefix + "cache_evictions_total",
                                    [this] { return cache_.evictions(); });
  for (size_t shard = 0; shard < cache_.num_shards(); ++shard) {
    const std::string label = "{shard=\"" + std::to_string(shard) + "\"}";
    registry->RegisterCounterCallback(
        this, prefix + "cache_shard_hits_total" + label,
        [this, shard] { return cache_.shard_stats(shard).hits; });
    registry->RegisterCounterCallback(
        this, prefix + "cache_shard_misses_total" + label,
        [this, shard] { return cache_.shard_stats(shard).misses; });
    registry->RegisterCounterCallback(
        this, prefix + "cache_shard_evictions_total" + label,
        [this, shard] { return cache_.shard_stats(shard).evictions; });
    registry->RegisterGaugeCallback(
        this, prefix + "cache_shard_entries" + label, [this, shard] {
          return static_cast<double>(cache_.shard_stats(shard).entries);
        });
  }
  registry->RegisterGaugeCallback(
      this, prefix + "cache_entries",
      [this] { return static_cast<double>(cache_.size()); });
  registry->RegisterGaugeCallback(
      this, prefix + "pool_entries",
      [this] { return static_cast<double>(pool_size()); });
  registry->RegisterGaugeCallback(
      this, prefix + "resident_memory_bytes",
      [this] { return static_cast<double>(LocalMemoryBytes()); });
  registry->RegisterCounterCallback(
      this, prefix + "local_trainings_total",
      [this] { return static_cast<uint64_t>(trainings()); });
  if (recalibrator_ != nullptr) {
    // Atomic reads only: a scrape must stay TSan-clean against a
    // concurrent Observe mutating the window.
    registry->RegisterGaugeCallback(this, prefix + "conformal_scale", [this] {
      return recalibrator_->scale();
    });
    registry->RegisterGaugeCallback(
        this, prefix + "conformal_window_size", [this] {
          return static_cast<double>(recalibrator_->window_size());
        });
    registry->RegisterCounterCallback(
        this, prefix + "conformal_observations_total",
        [this] { return recalibrator_->observations(); });
  }
  registry->RegisterGaugeCallback(
      this, prefix + "threadpool_queue_depth", [] {
        return static_cast<double>(ThreadPool::Shared().queue_depth());
      });
  registry->RegisterCounterCallback(
      this, prefix + "threadpool_tasks_total",
      [] { return ThreadPool::Shared().tasks_run(); });
}

core::Prediction TenantStack::PredictImpl(const core::QueryContext& query,
                                          obs::PredictionTrace* trace) const {
  using Clock = std::chrono::steady_clock;
  // Take the model snapshot before the cache lookup: a snapshot held for
  // the whole routing decision can never be freed mid-predict, and the
  // routing function sees one consistent model.
  const std::shared_ptr<const local::LocalModel> local =
      local_model_snapshot();
  const Clock::time_point start =
      trace != nullptr ? Clock::now() : Clock::time_point{};
  const std::optional<double> cached = cache_.Predict(query.feature_hash);
  const Clock::time_point after_cache =
      trace != nullptr ? Clock::now() : Clock::time_point{};
  const core::Prediction out = core::RouteHierarchical(
      config_.predictor, query, cached, local.get(), options_.global_model,
      options_.instance, trace, conformal_scale());
  source_counts_[static_cast<int>(out.source)].fetch_add(
      1, std::memory_order_relaxed);
  if (trace != nullptr) {
    trace->cache_shard =
        static_cast<uint32_t>(query.feature_hash % cache_.num_shards());
    trace->cache_nanos = NanosBetween(start, after_cache);
    trace->route_nanos = ElapsedNanos(after_cache);
    trace->total_nanos = trace->cache_nanos + trace->route_nanos;
  }
  return out;
}

core::Prediction TenantStack::Predict(const core::QueryContext& query) const {
  if (!routing_metrics_.enabled()) return PredictImpl(query, nullptr);
  obs::PredictionTrace trace;
  const core::Prediction out = PredictImpl(query, &trace);
  routing_metrics_.Record(trace);
  return out;
}

core::Prediction TenantStack::PredictTraced(const core::QueryContext& query,
                                            obs::PredictionTrace* trace) const {
  if (trace == nullptr) return Predict(query);
  const core::Prediction out = PredictImpl(query, trace);
  if (routing_metrics_.enabled()) routing_metrics_.Record(*trace);
  return out;
}

namespace {

// Batches at least this large fan out across the shared thread pool; the
// per-query routing work (cache shard lookup + flat-forest walk) is too
// small to amortize task handoff below it.
constexpr size_t kParallelBatchThreshold = 64;

}  // namespace

std::vector<core::Prediction> TenantStack::PredictBatch(
    std::span<const core::QueryContext> queries) const {
  using Clock = std::chrono::steady_clock;
  // One model snapshot amortized across the batch; cache lookups still go
  // through the shard locks individually so a batch never starves writers.
  const std::shared_ptr<const local::LocalModel> local =
      local_model_snapshot();
  std::vector<core::Prediction> out(queries.size());
  if (queries.empty()) return out;
  const bool traced = routing_metrics_.enabled();
  std::vector<obs::PredictionTrace> traces(traced ? queries.size() : 0);
  // uint8_t, not bool: lanes write neighboring elements concurrently.
  std::vector<uint8_t> needs_global(queries.size(), 0);

  // One scale load for the whole batch: every lane routes under the same
  // conformal correction even if an Observe refreshes it mid-batch.
  const double scale = conformal_scale();

  // Phase 1: cache + local routing. Escalated queries defer their seconds
  // to ONE batched global pass below instead of running the GCN inline.
  const auto route_one = [&](size_t i) {
    const core::QueryContext& query = queries[i];
    obs::PredictionTrace* trace = traced ? &traces[i] : nullptr;
    const Clock::time_point start = traced ? Clock::now() : Clock::time_point{};
    const std::optional<double> cached = cache_.Predict(query.feature_hash);
    const Clock::time_point after_cache =
        traced ? Clock::now() : Clock::time_point{};
    bool escalate = false;
    out[i] = core::RouteHierarchicalDeferred(
        config_.predictor, query, cached, local.get(), options_.global_model,
        options_.instance, &escalate, trace, scale);
    needs_global[i] = escalate ? 1 : 0;
    if (trace != nullptr) {
      trace->cache_shard =
          static_cast<uint32_t>(query.feature_hash % cache_.num_shards());
      trace->cache_nanos = NanosBetween(start, after_cache);
      trace->route_nanos = ElapsedNanos(after_cache);
    }
  };
  if (queries.size() >= kParallelBatchThreshold) {
    // Safe to fan out: cache_.Predict only touches per-shard locks and
    // atomic counters, the model snapshot is immutable, and each lane
    // writes only its own slots, so results match the sequential loop
    // exactly.
    ThreadPool::Shared().ParallelFor(queries.size(), route_one);
  } else {
    for (size_t i = 0; i < queries.size(); ++i) route_one(i);
  }

  // Phase 2: one level-order batched global pass over every escalation —
  // bit-identical to per-query PredictSeconds (GlobalModel's contract).
  std::vector<size_t> escalated;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (needs_global[i] != 0) escalated.push_back(i);
  }
  uint64_t global_share = 0;
  if (!escalated.empty()) {
    std::vector<global::GlobalQuery> global_queries;
    global_queries.reserve(escalated.size());
    for (size_t i : escalated) {
      global_queries.push_back({queries[i].plan,
                                queries[i].concurrent_queries});
    }
    std::vector<double> seconds(escalated.size());
    const Clock::time_point global_start =
        traced ? Clock::now() : Clock::time_point{};
    options_.global_model->PredictBatch(
        global_queries, *options_.instance, seconds,
        escalated.size() > 1 ? &ThreadPool::Shared() : nullptr);
    // Each escalated query carries an equal share of the batched pass (the
    // per-query split inside one GEMM is unknowable).
    if (traced) global_share = ElapsedNanos(global_start) / escalated.size();
    for (size_t j = 0; j < escalated.size(); ++j) {
      out[escalated[j]].seconds = seconds[j];
    }
  }

  // Counters and trace emission, in index order.
  for (size_t i = 0; i < queries.size(); ++i) {
    source_counts_[static_cast<int>(out[i].source)].fetch_add(
        1, std::memory_order_relaxed);
    if (!traced) continue;
    obs::PredictionTrace& trace = traces[i];
    if (needs_global[i] != 0) {
      trace.route_nanos += global_share;
      core::CompleteTrace(&trace, out[i]);
    }
    trace.total_nanos = trace.cache_nanos + trace.route_nanos;
    routing_metrics_.Record(trace);
  }
  return out;
}

bool TenantStack::Observe(const core::QueryContext& query, double exec_seconds,
                          bool inline_retrain) {
  STAGE_CHECK(exec_seconds >= 0.0);
  std::lock_guard<std::mutex> observe_lock(observe_mutex_);

  // §4.8: score the *current* local model on the completed query and feed
  // the normalized residual to the recalibrator — before the cache/pool
  // mutations below, so the residual reflects the model that actually
  // predicted this query. Sentinel residuals (unusable sigma) come back NaN
  // and the recalibrator ignores them.
  if (recalibrator_ != nullptr) {
    const std::shared_ptr<const local::LocalModel> model =
        local_model_snapshot();
    if (model != nullptr && model->trained()) {
      const local::LocalModel::Output out = model->Predict(query.features);
      recalibrator_->Observe(calib::NormalizedResidual(
          out.exec_seconds, out.log_std(), exec_seconds));
    }
  }

  // §4.3 pool deduplication: only cache misses diversify the pool. The
  // was-cached check and the observation happen under one shard lock.
  const bool was_cached =
      cache_.Observe(query.feature_hash, exec_seconds, query.tick);

  bool request_retrain = false;
  {
    std::lock_guard<std::mutex> pool_lock(pool_mutex_);
    if (!was_cached) {
      pool_.Add(query.features, exec_seconds);
      ++observed_since_train_;
    }
    // The §4.3 cadence: the first training once min_train_size misses are
    // pooled, then one every retrain_interval misses. "A training has been
    // kicked off" stands in for "the local model is trained" so the async
    // first training is requested exactly once.
    const bool first_training =
        !first_train_requested_ &&
        pool_.size() >= config_.predictor.min_train_size;
    const bool scheduled_training =
        first_train_requested_ &&
        observed_since_train_ >= config_.predictor.retrain_interval &&
        pool_.size() >= config_.predictor.min_train_size;
    if (first_training || scheduled_training) {
      request_retrain = true;
      first_train_requested_ = true;
      observed_since_train_ = 0;
    }
  }
  if (!request_retrain) return false;
  if (inline_retrain) {
    TrainOnce();
    return false;
  }
  return true;
}

void TenantStack::TrainOnce() {
  // Snapshot the pool so training never holds the write-path lock.
  local::TrainingPool snapshot = [this] {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    return pool_;
  }();
  auto fresh = std::make_shared<local::LocalModel>(config_.predictor.local);
  fresh->Train(snapshot);
  if (!fresh->trained()) return;  // Empty snapshot: nothing to publish.
  PublishModel(std::move(fresh));
  trainings_.fetch_add(1, std::memory_order_relaxed);
}

void TenantStack::PublishModel(std::shared_ptr<const local::LocalModel> fresh) {
  // Double-buffer swap: readers holding the old snapshot finish on it (and
  // free it with the last reference); new Predicts see the fresh model.
  std::lock_guard<std::mutex> lock(model_mutex_);
  model_ = std::move(fresh);
}

std::shared_ptr<const local::LocalModel> TenantStack::local_model_snapshot()
    const {
  std::lock_guard<std::mutex> lock(model_mutex_);
  return model_;
}

namespace {
// The SnapshotKind::kPredictionService payload; its bytes are pinned by the
// checkpoint and snapshot-fuzz tests.
constexpr uint32_t kServiceMagic = 0x53535256;  // "SSRV".
constexpr uint32_t kServiceVersion = 1;
}  // namespace

bool TenantStack::SaveState(std::ostream& out, std::string* error) const {
  // Pausing Observe (not Predict) pins one consistent cut: every
  // observation is either fully in the snapshot (cache AND pool) or fully
  // after it. A concurrent training may still publish a model mid-snapshot;
  // the single shared_ptr load below keeps the captured model coherent.
  std::lock_guard<std::mutex> observe_lock(observe_mutex_);
  WriteHeader(out, kServiceMagic, kServiceVersion);
  cache_.Save(out);
  {
    std::lock_guard<std::mutex> pool_lock(pool_mutex_);
    pool_.Save(out);
    WritePod<uint64_t>(out, observed_since_train_);
    WritePod<uint8_t>(out, first_train_requested_ ? 1 : 0);
  }
  const std::shared_ptr<const local::LocalModel> model =
      local_model_snapshot();
  WritePod<uint8_t>(out, model ? 1 : 0);
  if (model) model->Save(out);
  WritePod<int32_t>(out, trainings_.load(std::memory_order_relaxed));
  // Appended only when calibration is on, so flag-off stacks keep
  // producing the exact legacy kPredictionService byte stream.
  if (recalibrator_ != nullptr) recalibrator_->Save(out);
  if (!out) {
    SetError(error, "tenant stack state write failed");
    return false;
  }
  return true;
}

bool TenantStack::LoadState(std::istream& in, std::string* error) {
  // Every component parses into a local first; the stack changes only once
  // the whole stream has parsed, so a failed load leaves it untouched.
  std::lock_guard<std::mutex> observe_lock(observe_mutex_);
  if (!ReadHeader(in, kServiceMagic, kServiceVersion)) {
    SetError(error, "bad tenant stack header");
    return false;
  }
  cache::ShardedExecTimeCache exec_cache(
      {config_.predictor.cache, config_.cache_shards});
  if (!exec_cache.Load(in)) {
    SetError(error, "malformed exec-time cache payload");
    return false;
  }
  local::TrainingPool pool(config_.predictor.pool);
  if (!pool.Load(in)) {
    SetError(error, "malformed training pool payload");
    return false;
  }
  uint64_t observed_since_train = 0;
  uint8_t first_train_requested = 0;
  if (!ReadPod(in, &observed_since_train) ||
      !ReadPod(in, &first_train_requested)) {
    SetError(error, "truncated retrain cadence state");
    return false;
  }
  uint8_t has_model = 0;
  if (!ReadPod(in, &has_model)) {
    SetError(error, "truncated local model flag");
    return false;
  }
  std::shared_ptr<local::LocalModel> model;
  if (has_model != 0) {
    model = std::make_shared<local::LocalModel>(config_.predictor.local);
    if (!model->Load(in)) {
      SetError(error, "malformed local model payload");
      return false;
    }
  }
  int32_t trainings = 0;
  if (!ReadPod(in, &trainings)) {
    SetError(error, "truncated trainings counter");
    return false;
  }
  // The recalibrator is last in the stream and its Load is itself
  // all-or-nothing, so it loads in place: it is the last step that can fail.
  if (recalibrator_ != nullptr && !recalibrator_->Load(in)) {
    SetError(error, "malformed conformal recalibrator payload");
    return false;
  }

  cache_ = std::move(exec_cache);
  {
    std::lock_guard<std::mutex> pool_lock(pool_mutex_);
    pool_ = std::move(pool);
    observed_since_train_ = static_cast<size_t>(observed_since_train);
    first_train_requested_ = first_train_requested != 0;
  }
  PublishModel(std::move(model));
  trainings_.store(trainings, std::memory_order_relaxed);
  return true;
}

size_t TenantStack::ApproxResidentBytes() const {
  const std::shared_ptr<const local::LocalModel> local =
      local_model_snapshot();
  size_t pool_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    pool_bytes = pool_.MemoryBytes();
  }
  // The fixed tail covers the stack object itself plus per-shard cache
  // bookkeeping not counted by MemoryBytes.
  return cache_.MemoryBytes() + pool_bytes +
         (local ? local->MemoryBytes() : 0) + sizeof(TenantStack);
}

uint64_t TenantStack::total_predictions() const {
  uint64_t total = 0;
  for (const auto& count : source_counts_) {
    total += count.load(std::memory_order_relaxed);
  }
  return total;
}

std::array<uint64_t, core::kNumPredictionSources> TenantStack::SourceCounts()
    const {
  std::array<uint64_t, core::kNumPredictionSources> counts{};
  for (int i = 0; i < core::kNumPredictionSources; ++i) {
    counts[static_cast<size_t>(i)] =
        source_counts_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

void TenantStack::SeedSourceCounts(
    const std::array<uint64_t, core::kNumPredictionSources>& counts) {
  for (int i = 0; i < core::kNumPredictionSources; ++i) {
    source_counts_[i].store(counts[static_cast<size_t>(i)],
                            std::memory_order_relaxed);
  }
}

size_t TenantStack::pool_size() const {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  return pool_.size();
}

size_t TenantStack::LocalMemoryBytes() const {
  const std::shared_ptr<const local::LocalModel> local =
      local_model_snapshot();
  return cache_.MemoryBytes() + (local ? local->MemoryBytes() : 0);
}

}  // namespace stage::fleet_serve
