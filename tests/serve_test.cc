// Tests for the serving read path: stack config validation,
// batched-vs-looped prediction parity on a TenantStack, and the
// single-instance serving shape (one pinned FleetService tenant) under
// background retraining, including the multi-threaded reader/writer stress
// test (run it under STAGE_SANITIZE=thread to prove the synchronization,
// see README.md).
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "stage/core/stage_predictor.h"
#include "stage/fleet/fleet.h"
#include "stage/fleet_serve/fleet_service.h"
#include "stage/fleet_serve/tenant_stack.h"
#include "stage/obs/metrics.h"
#include "stage/obs/trace.h"

namespace stage::fleet_serve {
namespace {

core::StagePredictorConfig FastStage() {
  core::StagePredictorConfig config;
  config.local.ensemble.num_members = 4;
  config.local.ensemble.member.num_rounds = 40;
  config.min_train_size = 20;
  config.retrain_interval = 100;
  return config;
}

fleet::InstanceTrace MakeTrace(int num_queries, uint64_t seed = 2024) {
  fleet::FleetConfig config;
  config.num_instances = 1;
  config.workload.num_queries = num_queries;
  config.seed = seed;
  fleet::FleetGenerator generator(config);
  return generator.MakeInstanceTrace(0);
}

// Predictions timed into the stage_predict_latency_ns{stage=...} family of
// a stack registered under the default prefix.
uint64_t TimedPredictions(obs::MetricsRegistry& registry) {
  uint64_t total = 0;
  for (int i = 0; i < obs::kNumTraceStages; ++i) {
    total += registry
                 .GetHistogram(
                     "stage_predict_latency_ns{stage=\"" +
                         std::string(obs::TraceStageName(
                             static_cast<obs::TraceStage>(i))) +
                         "\"}",
                     obs::Histogram::LatencyBucketsNanos())
                 .count();
  }
  return total;
}

// One instance served concurrently: tenant 0 of a fleet, pinned warm.
constexpr fleet_serve::TenantId kTenant = 0;

fleet_serve::FleetServiceConfig ServingConfig(
    const core::StagePredictorConfig& predictor) {
  fleet_serve::FleetServiceConfig config;
  config.stack.predictor = predictor;
  config.async_retrain = true;
  config.max_concurrent_trainings = 1;
  return config;
}

std::vector<core::QueryContext> MakeContexts(
    const fleet::InstanceTrace& instance) {
  std::vector<core::QueryContext> contexts;
  contexts.reserve(instance.trace.size());
  for (const fleet::QueryEvent& event : instance.trace) {
    contexts.push_back(core::MakeQueryContext(
        event.plan, event.concurrent_queries,
        static_cast<uint64_t>(event.arrival_ms)));
  }
  return contexts;
}

TEST(ServiceConfigTest, ValidateRejectsNonsense) {
  fleet_serve::TenantStackConfig config;
  EXPECT_TRUE(config.Validate().empty());

  config.cache_shards = 0;
  EXPECT_FALSE(config.Validate().empty());
  config.cache_shards = 8;

  config.predictor.cache.capacity = 0;
  EXPECT_FALSE(config.Validate().empty());
  config.predictor.cache.capacity = 2000;

  config.predictor.cache.alpha = 1.5;
  EXPECT_FALSE(config.Validate().empty());
  config.predictor.cache.alpha = 0.8;

  config.predictor.retrain_interval = 0;
  EXPECT_FALSE(config.Validate().empty());
  config.predictor.retrain_interval = 400;

  config.predictor.min_train_size = 0;
  EXPECT_FALSE(config.Validate().empty());
  config.predictor.min_train_size = 30;

  config.predictor.local.ensemble.num_members = 0;
  EXPECT_FALSE(config.Validate().empty());
  config.predictor.local.ensemble.num_members = 10;

  EXPECT_TRUE(config.Validate().empty());
}

TEST(PredictionServiceTest, PredictBatchMatchesLoopedPredict) {
  const fleet::InstanceTrace instance = MakeTrace(400);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);

  obs::MetricsRegistry registry;
  fleet_serve::TenantStack stack(
      {.predictor = FastStage()},
      {.instance = &instance.config, .metrics = &registry});
  for (size_t i = 0; i < contexts.size(); ++i) {
    stack.Observe(contexts[i], instance.trace[i].exec_seconds);
  }

  const std::vector<core::Prediction> batch = stack.PredictBatch(contexts);
  ASSERT_EQ(batch.size(), contexts.size());
  for (size_t i = 0; i < contexts.size(); ++i) {
    const core::Prediction single = stack.Predict(contexts[i]);
    EXPECT_EQ(batch[i].source, single.source) << i;
    EXPECT_DOUBLE_EQ(batch[i].seconds, single.seconds) << i;
  }
  // Every prediction was attributed, counted, and timed.
  EXPECT_EQ(stack.total_predictions(), 2 * contexts.size());
  EXPECT_EQ(TimedPredictions(registry), 2 * contexts.size());
}

TEST(PredictionServiceTest, PredictBatchWithEscalationsMatchesLoopedPredict) {
  // Same parity bar, with a trained global model wired in and thresholds
  // forcing escalation: the batch path runs ONE GlobalModel::PredictBatch
  // over every escalated query, which must be bit-identical to the inline
  // per-query global pass Predict takes. >64 queries also exercises the
  // parallel phase-1 fan-out.
  const fleet::InstanceTrace instance = MakeTrace(400);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);

  std::vector<global::GlobalExample> examples;
  for (const fleet::QueryEvent& event : instance.trace) {
    examples.push_back(global::MakeGlobalExample(
        event.plan, instance.config, event.concurrent_queries,
        event.exec_seconds));
  }
  global::GlobalModelConfig global_config;
  global_config.hidden_dim = 16;
  global_config.num_layers = 2;
  global_config.head_hidden = {16};
  global_config.epochs = 2;
  const global::GlobalModel global_model =
      global::GlobalModel::Train(examples, global_config);

  fleet_serve::TenantStackConfig config;
  config.predictor = FastStage();
  config.predictor.short_running_seconds = 0.0;
  config.predictor.uncertainty_log_std_threshold = 0.0;
  obs::MetricsRegistry registry;
  fleet_serve::TenantStack stack(config, {.global_model = &global_model,
                                          .instance = &instance.config,
                                          .metrics = &registry});
  for (size_t i = 0; i + 100 < contexts.size(); ++i) {
    stack.Observe(contexts[i], instance.trace[i].exec_seconds);
  }
  ASSERT_NE(stack.local_model_snapshot(), nullptr);

  const std::vector<core::Prediction> batch = stack.PredictBatch(contexts);
  ASSERT_EQ(batch.size(), contexts.size());
  bool any_cache = false;
  bool any_global = false;
  for (size_t i = 0; i < contexts.size(); ++i) {
    const core::Prediction single = stack.Predict(contexts[i]);
    EXPECT_EQ(batch[i].source, single.source) << i;
    EXPECT_EQ(batch[i].seconds, single.seconds) << i;
    any_cache |= batch[i].source == core::PredictionSource::kCache;
    any_global |= batch[i].source == core::PredictionSource::kGlobal;
  }
  EXPECT_TRUE(any_cache);
  EXPECT_TRUE(any_global);
  EXPECT_EQ(stack.total_predictions(), 2 * contexts.size());
  EXPECT_EQ(TimedPredictions(registry), 2 * contexts.size());
}

TEST(PredictionServiceTest, AsyncRetrainPublishesModelInBackground) {
  const fleet::InstanceTrace instance = MakeTrace(600);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);

  fleet_serve::FleetService fleet(ServingConfig(FastStage()));
  fleet.RegisterTenant(kTenant, {.instance = &instance.config});
  const std::shared_ptr<fleet_serve::TenantStack> stack =
      fleet.PinTenant(kTenant);

  EXPECT_EQ(stack->local_model_snapshot(), nullptr);
  for (size_t i = 0; i < contexts.size(); ++i) {
    stack->Predict(contexts[i]);
    fleet.Observe(kTenant, contexts[i], instance.trace[i].exec_seconds);
  }
  fleet.WaitForRetrain();
  EXPECT_GE(stack->trainings(), 1);
  const auto model = stack->local_model_snapshot();
  ASSERT_NE(model, nullptr);
  EXPECT_TRUE(model->trained());
  // A fresh (uncached) query is now served by the swapped-in local model.
  const fleet::InstanceTrace probe = MakeTrace(10, /*seed=*/999);
  const core::Prediction prediction =
      stack->Predict(MakeContexts(probe).front());
  EXPECT_NE(prediction.source, core::PredictionSource::kDefault);
}

// Stress test: 8 reader threads hammering Predict/PredictBatch
// race one writer replaying the trace (Observe) across several retrain
// boundaries. Asserts no lost counters (every prediction attributed, every
// cache lookup counted) and monotone attribution totals. Run under TSan to
// prove the absence of data races.
TEST(PredictionServiceTest, ConcurrentReadersWithRetrainingWriter) {
  const fleet::InstanceTrace instance = MakeTrace(1500);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);

  core::StagePredictorConfig predictor = FastStage();
  predictor.retrain_interval = 150;  // Several retrains per replay.
  obs::MetricsRegistry registry;
  fleet_serve::FleetService fleet(ServingConfig(predictor));
  fleet.RegisterTenant(kTenant,
                       {.instance = &instance.config, .metrics = &registry});
  const std::shared_ptr<fleet_serve::TenantStack> stack =
      fleet.PinTenant(kTenant);
  ASSERT_EQ(stack->exec_time_cache().num_shards(), 8u);

  constexpr int kNumReaders = 8;
  constexpr int kPredictsPerReader = 3000;
  constexpr int kBatchSize = 16;
  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> reader_predictions{0};

  std::vector<std::thread> readers;
  readers.reserve(kNumReaders);
  for (int r = 0; r < kNumReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t made = 0;
      uint64_t last_total = 0;
      size_t at = static_cast<size_t>(r) * 131;
      while (made < kPredictsPerReader) {
        if (made % 3 == 0 && made + kBatchSize <= kPredictsPerReader) {
          // Batched read path, racing the writer.
          const size_t begin = at % (contexts.size() - kBatchSize);
          const std::span<const core::QueryContext> window(
              contexts.data() + begin, kBatchSize);
          made += stack->PredictBatch(window).size();
        } else {
          stack->Predict(contexts[at % contexts.size()]);
          ++made;
        }
        at += 127;
        // Attribution totals only ever grow, even mid-retrain-swap.
        const uint64_t total = stack->total_predictions();
        EXPECT_GE(total, last_total);
        last_total = total;
      }
      reader_predictions.fetch_add(made);
    });
  }

  std::thread writer([&] {
    for (size_t i = 0; i < contexts.size(); ++i) {
      stack->Predict(contexts[i]);  // The serving flow: predict, run, observe.
      fleet.Observe(kTenant, contexts[i], instance.trace[i].exec_seconds);
    }
    writer_done.store(true);
  });

  for (std::thread& reader : readers) reader.join();
  writer.join();
  ASSERT_TRUE(writer_done.load());
  fleet.WaitForRetrain();

  // No lost attribution: readers + writer predictions all counted.
  const uint64_t expected_predictions =
      reader_predictions.load() + contexts.size();
  EXPECT_EQ(stack->total_predictions(), expected_predictions);
  // No lost cache counters: every Predict did exactly one cache lookup.
  EXPECT_EQ(stack->exec_time_cache().hits() +
                stack->exec_time_cache().misses(),
            expected_predictions);
  // Per-source latency telemetry saw every prediction too.
  EXPECT_EQ(TimedPredictions(registry), expected_predictions);
  // The writer crossed retrain boundaries and models were swapped in.
  EXPECT_GE(stack->trainings(), 1);
  ASSERT_NE(stack->local_model_snapshot(), nullptr);
}

}  // namespace
}  // namespace stage::fleet_serve
