#include <cmath>

#include <gtest/gtest.h>

#include "stage/common/rng.h"
#include "stage/core/autowlm.h"
#include "stage/core/replay.h"
#include "stage/core/stage_predictor.h"
#include "stage/fleet/fleet.h"
#include "stage/fleet_serve/tenant_stack.h"

namespace stage::core {
namespace {

// A deterministic single-node plan whose feature vector varies with `knob`.
plan::Plan MakePlan(double knob) {
  plan::PlanNode node;
  node.op = plan::OperatorType::kSeqScanLocal;
  node.estimated_cost = knob;
  node.estimated_cardinality = knob * 10.0;
  node.tuple_width = 100.0;
  node.s3_format = plan::S3Format::kLocal;
  node.table_rows = 1000.0;
  return plan::Plan(plan::QueryType::kSelect, {node});
}

AutoWlmConfig FastAutoWlm() {
  AutoWlmConfig config;
  config.gbdt.num_rounds = 40;
  config.min_train_size = 20;
  config.retrain_interval = 100;
  return config;
}

// The Stage predictor under test: one stack with one cache shard, so a
// single-threaded run is deterministic and Observe retrains inline.
fleet_serve::TenantStackConfig OneShard(const StagePredictorConfig& config) {
  return {.predictor = config, .cache_shards = 1};
}

StagePredictorConfig FastStage() {
  StagePredictorConfig config;
  config.local.ensemble.num_members = 4;
  config.local.ensemble.member.num_rounds = 40;
  config.min_train_size = 20;
  config.retrain_interval = 100;
  return config;
}

TEST(QueryContextTest, HashMatchesFeaturizer) {
  const plan::Plan plan = MakePlan(5.0);
  const QueryContext context = MakeQueryContext(plan, 2, 99);
  EXPECT_EQ(context.feature_hash,
            plan::HashFeatures(plan::FlattenPlan(plan)));
  EXPECT_EQ(context.concurrent_queries, 2);
  EXPECT_EQ(context.tick, 99u);
  EXPECT_EQ(context.plan, &plan);
}

TEST(AutoWlmTest, ColdStartReturnsDefault) {
  AutoWlmPredictor predictor(FastAutoWlm());
  const plan::Plan plan = MakePlan(1.0);
  const Prediction prediction = predictor.Predict(MakeQueryContext(plan, 0, 0));
  EXPECT_EQ(prediction.source, PredictionSource::kDefault);
  EXPECT_DOUBLE_EQ(prediction.seconds, kColdStartDefaultSeconds);
}

TEST(AutoWlmTest, LearnsAfterEnoughObservations) {
  AutoWlmPredictor predictor(FastAutoWlm());
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const double knob = rng.NextUniform(1.0, 10.0);
    const plan::Plan plan = MakePlan(knob);
    const QueryContext context = MakeQueryContext(plan, 0, i);
    predictor.Predict(context);
    predictor.Observe(context, knob * 2.0);  // Exec time = 2 * knob.
  }
  EXPECT_TRUE(predictor.trained());
  const plan::Plan plan = MakePlan(5.0);
  const Prediction prediction =
      predictor.Predict(MakeQueryContext(plan, 0, 1000));
  EXPECT_EQ(prediction.source, PredictionSource::kBaseline);
  EXPECT_NEAR(prediction.seconds, 10.0, 3.0);
}

TEST(StagePredictorTest, CacheServesExactRepeats) {
  fleet_serve::TenantStack predictor(OneShard(FastStage()));
  const plan::Plan plan = MakePlan(3.0);
  const QueryContext context = MakeQueryContext(plan, 0, 1);
  predictor.Observe(context, 7.0);

  const Prediction prediction = predictor.Predict(context);
  EXPECT_EQ(prediction.source, PredictionSource::kCache);
  EXPECT_DOUBLE_EQ(prediction.seconds, 7.0);
  EXPECT_EQ(predictor.predictions_from(PredictionSource::kCache), 1u);
}

TEST(StagePredictorTest, DefaultBeforeAnyTrainingOnMiss) {
  fleet_serve::TenantStack predictor(OneShard(FastStage()));
  const plan::Plan plan = MakePlan(3.0);
  const Prediction prediction = predictor.Predict(MakeQueryContext(plan, 0, 1));
  EXPECT_EQ(prediction.source, PredictionSource::kDefault);
}

TEST(StagePredictorTest, LocalModelTrainsAtThresholdAndServesMisses) {
  fleet_serve::TenantStack predictor(OneShard(FastStage()));
  Rng rng(5);
  // Distinct plans (cache misses) until the pool reaches min_train_size.
  for (int i = 0; i < 30; ++i) {
    const plan::Plan plan = MakePlan(rng.NextUniform(1.0, 10.0));
    predictor.Observe(MakeQueryContext(plan, 0, i), 2.0);
  }
  ASSERT_NE(predictor.local_model_snapshot(), nullptr);
  EXPECT_TRUE(predictor.local_model_snapshot()->trained());
  const plan::Plan fresh = MakePlan(123.456);
  const Prediction prediction =
      predictor.Predict(MakeQueryContext(fresh, 0, 999));
  EXPECT_EQ(prediction.source, PredictionSource::kLocal);
  EXPECT_GE(prediction.uncertainty_log_std, 0.0);
}

TEST(StagePredictorTest, PoolDeduplicatesRepeatsThroughCache) {
  fleet_serve::TenantStack predictor(OneShard(FastStage()));
  const plan::Plan plan = MakePlan(3.0);
  for (int i = 0; i < 10; ++i) {
    predictor.Observe(MakeQueryContext(plan, 0, i), 1.0);
  }
  // Only the first observation (a cache miss) entered the pool.
  EXPECT_EQ(predictor.pool_size(), 1u);
  EXPECT_EQ(predictor.exec_time_cache().size(), 1u);
}

TEST(StagePredictorTest, ColdStartUsesGlobalModelWhenAvailable) {
  // Train a tiny global model on one instance, then give a brand-new
  // predictor (empty cache, untrained local) access to it.
  fleet::FleetConfig fleet_config;
  fleet_config.num_instances = 1;
  fleet_config.workload.num_queries = 200;
  fleet::FleetGenerator generator(fleet_config);
  const auto fleet = generator.GenerateFleet();

  std::vector<global::GlobalExample> examples;
  for (const auto& event : fleet[0].trace) {
    examples.push_back(global::MakeGlobalExample(
        event.plan, fleet[0].config, event.concurrent_queries,
        event.exec_seconds));
  }
  global::GlobalModelConfig global_config;
  global_config.hidden_dim = 16;
  global_config.num_layers = 2;
  global_config.head_hidden = {16};
  global_config.epochs = 2;
  const global::GlobalModel global_model =
      global::GlobalModel::Train(examples, global_config);

  fleet_serve::TenantStack predictor(OneShard(FastStage()),
                                     {&global_model, &fleet[0].config});
  const auto& event = fleet[0].trace[0];
  const Prediction prediction =
      predictor.Predict(MakeQueryContext(event.plan, 0, 0));
  EXPECT_EQ(prediction.source, PredictionSource::kGlobal);
}

TEST(StagePredictorTest, UncertainLongQueriesEscalateToGlobal) {
  // Local trained on short queries only; an alien long-looking query should
  // be uncertain => escalate when a global model exists.
  fleet::FleetConfig fleet_config;
  fleet_config.num_instances = 1;
  fleet_config.workload.num_queries = 150;
  fleet::FleetGenerator generator(fleet_config);
  const auto fleet = generator.GenerateFleet();
  std::vector<global::GlobalExample> examples;
  for (const auto& event : fleet[0].trace) {
    examples.push_back(global::MakeGlobalExample(
        event.plan, fleet[0].config, event.concurrent_queries,
        event.exec_seconds));
  }
  global::GlobalModelConfig global_config;
  global_config.hidden_dim = 16;
  global_config.num_layers = 2;
  global_config.head_hidden = {16};
  global_config.epochs = 2;
  const global::GlobalModel global_model =
      global::GlobalModel::Train(examples, global_config);

  StagePredictorConfig config = FastStage();
  config.short_running_seconds = 0.0;           // Nothing counts as short.
  config.uncertainty_log_std_threshold = 0.0;   // Nothing counts as sure.
  fleet_serve::TenantStack predictor(OneShard(config),
                                     {&global_model, &fleet[0].config});
  Rng rng(9);
  for (int i = 0; i < 40; ++i) {
    const plan::Plan plan = MakePlan(rng.NextUniform(1.0, 2.0));
    predictor.Observe(MakeQueryContext(plan, 0, i), 1.0);
  }
  ASSERT_NE(predictor.local_model_snapshot(), nullptr);
  ASSERT_TRUE(predictor.local_model_snapshot()->trained());
  const plan::Plan alien = MakePlan(1e7);
  const Prediction prediction =
      predictor.Predict(MakeQueryContext(alien, 0, 100));
  EXPECT_EQ(prediction.source, PredictionSource::kGlobal);
}

TEST(StagePredictorTest, PredictBatchBitEqualsLoopedPredict) {
  // One batch mixing every routing outcome — cache hits, local-confident
  // queries, escalations to the (batched) global model — must equal
  // per-query Predict bit for bit, in order.
  fleet::FleetConfig fleet_config;
  fleet_config.num_instances = 1;
  fleet_config.workload.num_queries = 150;
  fleet::FleetGenerator generator(fleet_config);
  const auto fleet = generator.GenerateFleet();
  std::vector<global::GlobalExample> examples;
  for (const auto& event : fleet[0].trace) {
    examples.push_back(global::MakeGlobalExample(
        event.plan, fleet[0].config, event.concurrent_queries,
        event.exec_seconds));
  }
  global::GlobalModelConfig global_config;
  global_config.hidden_dim = 16;
  global_config.num_layers = 2;
  global_config.head_hidden = {16};
  global_config.epochs = 2;
  const global::GlobalModel global_model =
      global::GlobalModel::Train(examples, global_config);

  StagePredictorConfig config = FastStage();
  config.short_running_seconds = 0.0;          // Nothing counts as short.
  config.uncertainty_log_std_threshold = 0.0;  // Nothing counts as sure.
  fleet_serve::TenantStack predictor(OneShard(config),
                                     {&global_model, &fleet[0].config});
  Rng rng(13);
  std::vector<plan::Plan> observed;
  for (int i = 0; i < 40; ++i) {
    observed.push_back(MakePlan(rng.NextUniform(1.0, 2.0)));
    predictor.Observe(MakeQueryContext(observed.back(), 0, i), 1.0);
  }
  ASSERT_NE(predictor.local_model_snapshot(), nullptr);
  ASSERT_TRUE(predictor.local_model_snapshot()->trained());

  std::vector<plan::Plan> fresh;
  for (int i = 0; i < 30; ++i) fresh.push_back(MakePlan(1e6 + i * 1e4));
  std::vector<QueryContext> queries;
  for (int i = 0; i < 10; ++i) {
    queries.push_back(MakeQueryContext(observed[i], 0, 100));  // Cache hits.
  }
  for (const plan::Plan& plan : fresh) {
    queries.push_back(MakeQueryContext(plan, 0, 100));  // Escalations.
  }

  const std::vector<Prediction> batch = predictor.PredictBatch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  bool any_cache = false;
  bool any_global = false;
  for (size_t i = 0; i < queries.size(); ++i) {
    const Prediction single = predictor.Predict(queries[i]);
    EXPECT_EQ(batch[i].source, single.source) << i;
    EXPECT_EQ(batch[i].seconds, single.seconds) << i;
    EXPECT_EQ(batch[i].uncertainty_log_std, single.uncertainty_log_std) << i;
    any_cache |= batch[i].source == PredictionSource::kCache;
    any_global |= batch[i].source == PredictionSource::kGlobal;
  }
  EXPECT_TRUE(any_cache);
  EXPECT_TRUE(any_global);
  EXPECT_EQ(predictor.total_predictions(), 2 * queries.size());
}

TEST(StagePredictorTest, UseGlobalFalseDisablesEscalation) {
  StagePredictorConfig config = FastStage();
  config.use_global = false;
  config.short_running_seconds = 0.0;
  config.uncertainty_log_std_threshold = 0.0;
  fleet_serve::TenantStack predictor(OneShard(config));
  Rng rng(11);
  for (int i = 0; i < 40; ++i) {
    const plan::Plan plan = MakePlan(rng.NextUniform(1.0, 2.0));
    predictor.Observe(MakeQueryContext(plan, 0, i), 1.0);
  }
  const plan::Plan alien = MakePlan(1e7);
  const Prediction prediction =
      predictor.Predict(MakeQueryContext(alien, 0, 100));
  EXPECT_EQ(prediction.source, PredictionSource::kLocal);
}

TEST(AutoWlmTest, LogTargetVariantHandlesLongTail) {
  // The raw-seconds MAE baseline cannot move far from its median init in
  // a few hundred sign-gradient rounds; the log-space variant can. This
  // pins the deliberate baseline-fidelity choice documented in DESIGN.md.
  Rng rng(13);
  AutoWlmConfig raw_config = FastAutoWlm();
  raw_config.gbdt.num_rounds = 60;
  AutoWlmConfig log_config = raw_config;
  log_config.log_target = true;
  AutoWlmPredictor raw_predictor(raw_config);
  AutoWlmPredictor log_predictor(log_config);

  // Exec time = 100 * knob: values up to ~1000s.
  for (int i = 0; i < 300; ++i) {
    const double knob = rng.NextUniform(0.1, 10.0);
    const plan::Plan plan = MakePlan(knob);
    const QueryContext context = MakeQueryContext(plan, 0, i);
    raw_predictor.Observe(context, knob * 100.0);
    log_predictor.Observe(context, knob * 100.0);
  }
  // Raw-seconds MAE compresses the prediction range around its median
  // init (sign-gradient steps move ~lr per round); the log-space variant
  // spans the full dynamic range. Compare the big/small prediction ratio.
  const plan::Plan small = MakePlan(0.2);   // True exec ~20s.
  const plan::Plan big = MakePlan(9.0);     // True exec ~900s.
  const QueryContext small_context = MakeQueryContext(small, 0, 1000);
  const QueryContext big_context = MakeQueryContext(big, 0, 1001);
  const double raw_ratio = raw_predictor.Predict(big_context).seconds /
                           std::max(1.0, raw_predictor.Predict(small_context).seconds);
  const double log_ratio = log_predictor.Predict(big_context).seconds /
                           std::max(1.0, log_predictor.Predict(small_context).seconds);
  EXPECT_GT(log_ratio, raw_ratio * 1.5);  // Log-space spans the range.
  // And the log-space model lands near the truth on the tail query.
  EXPECT_NEAR(log_predictor.Predict(big_context).seconds, 900.0, 450.0);
}

TEST(StagePredictorTest, ObserveZeroExecTimeIsValid) {
  fleet_serve::TenantStack predictor(OneShard(FastStage()));
  const plan::Plan plan = MakePlan(1.0);
  const QueryContext context = MakeQueryContext(plan, 0, 1);
  predictor.Observe(context, 0.0);  // Result-cache-served query: 0s.
  const Prediction prediction = predictor.Predict(context);
  EXPECT_EQ(prediction.source, PredictionSource::kCache);
  EXPECT_DOUBLE_EQ(prediction.seconds, 0.0);
}

TEST(StagePredictorTest, GlobalWithoutInstanceDegradesGracefully) {
  // A global model without an instance description cannot build system
  // features; the predictor must fall back to cache + local, not crash.
  fleet::FleetConfig fleet_config;
  fleet_config.num_instances = 1;
  fleet_config.workload.num_queries = 150;
  fleet::FleetGenerator generator(fleet_config);
  const auto fleet = generator.GenerateFleet();
  std::vector<global::GlobalExample> examples;
  for (const auto& event : fleet[0].trace) {
    examples.push_back(global::MakeGlobalExample(
        event.plan, fleet[0].config, event.concurrent_queries,
        event.exec_seconds));
  }
  global::GlobalModelConfig config;
  config.hidden_dim = 16;
  config.num_layers = 2;
  config.epochs = 1;
  const auto model = global::GlobalModel::Train(examples, config);

  fleet_serve::TenantStack predictor(OneShard(FastStage()),
                                     {.global_model = &model});
  const plan::Plan plan = MakePlan(2.0);
  const Prediction prediction = predictor.Predict(MakeQueryContext(plan, 0, 0));
  EXPECT_EQ(prediction.source, PredictionSource::kDefault);
}

TEST(ReplayTest, RecordsAlignWithTrace) {
  fleet::FleetConfig fleet_config;
  fleet_config.num_instances = 1;
  fleet_config.workload.num_queries = 300;
  fleet::FleetGenerator generator(fleet_config);
  const auto fleet = generator.GenerateFleet();

  AutoWlmPredictor predictor(FastAutoWlm());
  const ReplayResult result = ReplayTrace(fleet[0].trace, predictor);
  ASSERT_EQ(result.records.size(), fleet[0].trace.size());
  for (size_t i = 0; i < result.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.records[i].actual_seconds,
                     fleet[0].trace[i].exec_seconds);
    EXPECT_GE(result.records[i].predicted_seconds, 0.0);
  }
  EXPECT_EQ(result.Actuals().size(), result.records.size());
}

TEST(ReplayTest, StageAttributionCoversAllPredictions) {
  fleet::FleetConfig fleet_config;
  fleet_config.num_instances = 1;
  fleet_config.workload.num_queries = 400;
  fleet::FleetGenerator generator(fleet_config);
  const auto fleet = generator.GenerateFleet();

  fleet_serve::TenantStack predictor(OneShard(FastStage()),
                                     {.instance = &fleet[0].config});
  const ReplayResult result = ReplayTrace(fleet[0].trace, predictor);
  EXPECT_EQ(predictor.total_predictions(), fleet[0].trace.size());
  // Cache must have served a healthy share (the workload repeats a lot).
  EXPECT_GT(predictor.predictions_from(PredictionSource::kCache),
            fleet[0].trace.size() / 4);
  // The subsets partition the records.
  size_t subtotal = 0;
  for (const auto source :
       {PredictionSource::kCache, PredictionSource::kLocal,
        PredictionSource::kGlobal, PredictionSource::kBaseline,
        PredictionSource::kDefault}) {
    subtotal += result.ActualsWhere(source).size();
  }
  EXPECT_EQ(subtotal, result.records.size());
}

}  // namespace
}  // namespace stage::core
