// End-to-end integration tests: fleet generation -> replay with the full
// predictor stack -> accuracy metrics -> WLM simulation. These assert the
// *qualitative shape* of the paper's headline results on a small synthetic
// fleet (exact magnitudes are bench territory).
#include <gtest/gtest.h>

#include "stage/core/autowlm.h"
#include "stage/core/replay.h"
#include "stage/core/stage_predictor.h"
#include "stage/fleet/fleet.h"
#include "stage/fleet_serve/tenant_stack.h"
#include "stage/global/global_model.h"
#include "stage/metrics/error_metrics.h"
#include "stage/metrics/prr.h"
#include "stage/wlm/trace_util.h"
#include "stage/wlm/workload_manager.h"

namespace stage {
namespace {

// One cache shard: a single-threaded replay is deterministic and Observe
// retrains inline.
fleet_serve::TenantStackConfig FastStack() {
  fleet_serve::TenantStackConfig config;
  config.predictor.local.ensemble.num_members = 5;
  config.predictor.local.ensemble.member.num_rounds = 60;
  config.predictor.retrain_interval = 300;
  config.cache_shards = 1;
  return config;
}

core::AutoWlmConfig FastAutoWlmConfig() {
  core::AutoWlmConfig config;
  config.gbdt.num_rounds = 60;
  config.retrain_interval = 300;
  return config;
}

class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fleet::FleetConfig config;
    config.num_instances = 3;
    config.workload.num_queries = 2500;
    config.seed = 2024;
    fleet::FleetGenerator generator(config);
    fleet_ = new std::vector<fleet::InstanceTrace>(generator.GenerateFleet());
  }
  static void TearDownTestSuite() {
    delete fleet_;
    fleet_ = nullptr;
  }

  static std::vector<fleet::InstanceTrace>* fleet_;
};

std::vector<fleet::InstanceTrace>* EndToEndTest::fleet_ = nullptr;

TEST_F(EndToEndTest, StageBeatsAutoWlmOnMedianError) {
  const auto& instance = (*fleet_)[0];
  fleet_serve::TenantStack stage(FastStack(), {.instance = &instance.config});
  core::AutoWlmPredictor autowlm(FastAutoWlmConfig());

  const auto stage_result = core::ReplayTrace(instance.trace, stage);
  const auto auto_result = core::ReplayTrace(instance.trace, autowlm);

  const auto actual = stage_result.Actuals();
  const auto stage_summary = metrics::Summarize(
      metrics::QErrors(actual, stage_result.Predictions()));
  const auto auto_summary = metrics::Summarize(
      metrics::QErrors(actual, auto_result.Predictions()));
  // Stage's cache + fuzzy-cache should clearly win the median Q-error.
  EXPECT_LT(stage_summary.p50, auto_summary.p50);
}

TEST_F(EndToEndTest, CacheSubsetBeatsAutoWlmOnSameQueries) {
  // Table 3's comparison: on cache-hit queries, the cache beats AutoWLM.
  const auto& instance = (*fleet_)[1];
  fleet_serve::TenantStack stage(FastStack(), {.instance = &instance.config});
  core::AutoWlmPredictor autowlm(FastAutoWlmConfig());
  const auto stage_result = core::ReplayTrace(instance.trace, stage);
  const auto auto_result = core::ReplayTrace(instance.trace, autowlm);

  std::vector<double> hit_actual;
  std::vector<double> hit_cache_pred;
  std::vector<double> hit_auto_pred;
  for (size_t i = 0; i < stage_result.records.size(); ++i) {
    if (stage_result.records[i].source == core::PredictionSource::kCache) {
      hit_actual.push_back(stage_result.records[i].actual_seconds);
      hit_cache_pred.push_back(stage_result.records[i].predicted_seconds);
      hit_auto_pred.push_back(auto_result.records[i].predicted_seconds);
    }
  }
  ASSERT_GT(hit_actual.size(), 300u);
  const double cache_p50 =
      metrics::Summarize(metrics::QErrors(hit_actual, hit_cache_pred)).p50;
  const double auto_p50 =
      metrics::Summarize(metrics::QErrors(hit_actual, hit_auto_pred)).p50;
  EXPECT_LT(cache_p50, auto_p50);
}

TEST_F(EndToEndTest, LocalUncertaintyIsInformative) {
  // PRR of the local model's uncertainty on cache-miss queries should be
  // clearly positive (paper: fleet median ~0.9; small traces are noisier).
  const auto& instance = (*fleet_)[2];
  fleet_serve::TenantStack stage(FastStack(), {.instance = &instance.config});
  const auto result = core::ReplayTrace(instance.trace, stage);

  std::vector<double> errors;
  std::vector<double> uncertainties;
  for (const auto& record : result.records) {
    if (record.source == core::PredictionSource::kLocal &&
        record.uncertainty_log_std >= 0.0) {
      errors.push_back(
          std::abs(record.actual_seconds - record.predicted_seconds));
      uncertainties.push_back(record.uncertainty_log_std);
    }
  }
  ASSERT_GT(errors.size(), 100u);
  EXPECT_GT(metrics::PredictionRejectionRatio(errors, uncertainties), 0.2);
}

TEST_F(EndToEndTest, WlmLatencyOrderingOptimalVsStageVsRandom) {
  // Fig. 6's premise: Optimal <= Stage (and any sane predictor), and Stage
  // should beat gross mispredictions (here: a constant predictor). The raw
  // trace is compressed to realistic contention first — without queueing,
  // predictions cannot matter.
  const auto& instance = (*fleet_)[0];
  fleet_serve::TenantStack stage(FastStack(), {.instance = &instance.config});
  const auto stage_result = core::ReplayTrace(instance.trace, stage);

  wlm::WlmConfig config;
  config.short_slots = 2;
  config.long_slots = 2;
  const auto trace = wlm::CompressToUtilization(
      instance.trace, config.short_slots + config.long_slots, 0.7);
  ASSERT_GE(wlm::TraceUtilization(trace,
                                  config.short_slots + config.long_slots),
            0.65);

  const auto actual = stage_result.Actuals();
  const std::vector<double> constant(actual.size(), 1.0);

  const double optimal =
      wlm::SimulateWlm(trace, actual, config).AverageLatency();
  const double staged =
      wlm::SimulateWlm(trace, stage_result.Predictions(), config)
          .AverageLatency();
  const double naive =
      wlm::SimulateWlm(trace, constant, config).AverageLatency();

  EXPECT_LE(optimal, staged * 1.05);  // Oracle scheduling is (about) best.
  EXPECT_LT(staged, naive);           // Learned predictions beat a constant.
}

TEST_F(EndToEndTest, GlobalModelHelpsColdStart) {
  // Train global on instances 0-1, evaluate the first queries of instance 2
  // with and without the global model: attribution should show kGlobal
  // serving the cold-start window and improving its accuracy.
  std::vector<global::GlobalExample> examples;
  for (int i = 0; i < 2; ++i) {
    const auto& instance = (*fleet_)[i];
    for (const auto& event : instance.trace) {
      examples.push_back(global::MakeGlobalExample(
          event.plan, instance.config, event.concurrent_queries,
          event.exec_seconds));
    }
  }
  global::GlobalModelConfig global_config;
  global_config.hidden_dim = 32;
  global_config.num_layers = 2;
  global_config.epochs = 4;
  const auto global_model = global::GlobalModel::Train(examples, global_config);

  const auto& target = (*fleet_)[2];
  const std::vector<fleet::QueryEvent> head(target.trace.begin(),
                                            target.trace.begin() + 200);

  fleet_serve::TenantStack with_global(FastStack(),
                                       {&global_model, &target.config});
  fleet_serve::TenantStack without_global(FastStack(),
                                          {.instance = &target.config});
  const auto with_result = core::ReplayTrace(head, with_global);
  const auto without_result = core::ReplayTrace(head, without_global);

  EXPECT_GT(with_global.predictions_from(core::PredictionSource::kGlobal), 0u);
  EXPECT_EQ(without_global.predictions_from(core::PredictionSource::kGlobal),
            0u);

  const auto actual = with_result.Actuals();
  const double with_q50 = metrics::Summarize(
      metrics::QErrors(actual, with_result.Predictions())).p50;
  const double without_q50 = metrics::Summarize(
      metrics::QErrors(actual, without_result.Predictions())).p50;
  EXPECT_LT(with_q50, without_q50 * 1.5);  // At least not much worse...
  // ...and the cold-start (default-source) predictions must vanish.
  EXPECT_EQ(with_global.predictions_from(core::PredictionSource::kDefault),
            0u);
}

}  // namespace
}  // namespace stage
