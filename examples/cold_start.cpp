// Cold start: a brand-new instance has no executed queries, so the local
// model has nothing to train on — the paper's motivating failure mode for
// AutoWLM. The fleet-trained global model covers the gap: it predicts
// queries on an instance it has never seen.
//
//   ./build/examples/cold_start
#include <cstdio>

#include "stage/core/autowlm.h"
#include "stage/core/replay.h"
#include "stage/core/stage_predictor.h"
#include "stage/fleet/fleet.h"
#include "stage/fleet_serve/tenant_stack.h"
#include "stage/global/global_model.h"
#include "stage/metrics/error_metrics.h"
#include "stage/metrics/report.h"

using namespace stage;

int main() {
  // 1. Train a global model on a small fleet of OTHER customers.
  fleet::FleetConfig train_config;
  train_config.num_instances = 8;
  train_config.workload.num_queries = 800;
  train_config.seed = 55;
  fleet::FleetGenerator train_generator(train_config);
  std::vector<global::GlobalExample> examples;
  for (const auto& instance : train_generator.GenerateFleet()) {
    for (const auto& event : instance.trace) {
      examples.push_back(global::MakeGlobalExample(
          event.plan, instance.config, event.concurrent_queries,
          event.exec_seconds));
    }
  }
  global::GlobalModelConfig global_config;
  global_config.epochs = 6;
  std::printf("training the global model on %zu queries from %d other "
              "instances...\n",
              examples.size(), train_config.num_instances);
  const global::GlobalModel global_model =
      global::GlobalModel::Train(examples, global_config);

  // 2. A brand-new instance from a different seed: zero executed queries.
  fleet::FleetConfig new_config;
  new_config.num_instances = 1;
  new_config.workload.num_queries = 600;
  new_config.seed = 9001;
  fleet::FleetGenerator new_generator(new_config);
  const fleet::InstanceTrace fresh = new_generator.MakeInstanceTrace(0);

  // Only evaluate the cold window: the first 300 queries. A production
  // instance needs far more than a handful of executions before a usable
  // local model exists; model both predictors as requiring 150.
  const std::vector<fleet::QueryEvent> cold_window(fresh.trace.begin(),
                                                   fresh.trace.begin() + 300);

  core::StagePredictorConfig stage_config;
  stage_config.min_train_size = 150;
  const fleet_serve::TenantStackConfig stack_config{
      .predictor = stage_config, .cache_shards = 1};
  fleet_serve::TenantStack with_global(stack_config,
                                       {&global_model, &fresh.config});
  fleet_serve::TenantStack without_global(stack_config,
                                          {.instance = &fresh.config});
  core::AutoWlmConfig autowlm_config;
  autowlm_config.min_train_size = 150;
  core::AutoWlmPredictor autowlm(autowlm_config);

  const auto with_result = core::ReplayTrace(cold_window, with_global);
  const auto without_result = core::ReplayTrace(cold_window, without_global);
  const auto autowlm_result = core::ReplayTrace(cold_window, autowlm);

  const auto actual = with_result.Actuals();
  metrics::TextTable table;
  table.SetHeader(
      {"predictor on a cold instance", "P50 Q-error", "P90 Q-error"});
  const auto add = [&](const char* name, const core::ReplayResult& result) {
    const auto summary =
        metrics::Summarize(metrics::QErrors(actual, result.Predictions()));
    table.AddRow({name, metrics::FormatValue(summary.p50),
                  metrics::FormatValue(summary.p90)});
  };
  add("Stage + global model", with_result);
  add("Stage without global (cache+local only)", without_result);
  add("AutoWLM", autowlm_result);
  std::printf("\n%s\n", table.Render().c_str());

  std::printf("global model served %llu of the first %zu queries "
              "(cold-start coverage)\n",
              static_cast<unsigned long long>(with_global.predictions_from(
                  core::PredictionSource::kGlobal)),
              cold_window.size());
  return 0;
}
