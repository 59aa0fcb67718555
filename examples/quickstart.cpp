// Quickstart: build a tiny synthetic instance, run the Stage predictor on
// its query stream, and inspect predictions, attribution, and accuracy.
//
//   ./build/examples/quickstart
#include <cstdio>

#include "stage/core/replay.h"
#include "stage/core/stage_predictor.h"
#include "stage/fleet/fleet.h"
#include "stage/fleet_serve/tenant_stack.h"
#include "stage/metrics/error_metrics.h"

using namespace stage;

int main() {
  // 1. A synthetic Redshift-like instance with a 1,000-query trace.
  fleet::FleetConfig fleet_config;
  fleet_config.num_instances = 1;
  fleet_config.workload.num_queries = 1000;
  fleet_config.seed = 7;
  fleet::FleetGenerator generator(fleet_config);
  const fleet::InstanceTrace instance = generator.MakeInstanceTrace(0);
  std::printf("instance: %s x%d nodes, %zu tables, %zu queries\n\n",
              std::string(fleet::NodeTypeName(instance.config.node_type))
                  .c_str(),
              instance.config.num_nodes, instance.config.schema.size(),
              instance.trace.size());

  // 2. A Stage predictor in the deployed configuration (cache + local
  //    Bayesian ensemble; no global model). One cache shard keeps this
  //    single-threaded replay deterministic; Observe retrains inline.
  fleet_serve::TenantStackConfig config;
  config.predictor.local.ensemble.num_members = 10;
  config.predictor.local.ensemble.member.num_rounds = 60;
  config.cache_shards = 1;
  fleet_serve::TenantStack predictor(config, {.instance = &instance.config});

  // 3. Drive it query by query: Predict before execution, Observe after.
  //    (core::ReplayTrace wraps exactly this loop.)
  for (size_t i = 0; i < instance.trace.size(); ++i) {
    const fleet::QueryEvent& event = instance.trace[i];
    const core::QueryContext context = core::MakeQueryContext(
        event.plan, event.concurrent_queries,
        static_cast<uint64_t>(event.arrival_ms));
    const core::Prediction prediction = predictor.Predict(context);
    if (i % 200 == 0) {
      std::printf("query %4zu: predicted %8.2fs (%s%s), actual %8.2fs\n", i,
                  prediction.seconds,
                  std::string(core::PredictionSourceName(prediction.source))
                      .c_str(),
                  prediction.uncertainty_log_std >= 0 ? ", with uncertainty"
                                                      : "",
                  event.exec_seconds);
    }
    predictor.Observe(context, event.exec_seconds);
  }

  // 4. Where did predictions come from, and how good were they?
  std::printf("\nattribution: cache=%llu local=%llu default=%llu\n",
              static_cast<unsigned long long>(
                  predictor.predictions_from(core::PredictionSource::kCache)),
              static_cast<unsigned long long>(
                  predictor.predictions_from(core::PredictionSource::kLocal)),
              static_cast<unsigned long long>(predictor.predictions_from(
                  core::PredictionSource::kDefault)));
  std::printf("cache: %zu entries, %llu hits, %llu evictions\n",
              predictor.exec_time_cache().size(),
              static_cast<unsigned long long>(
                  predictor.exec_time_cache().hits()),
              static_cast<unsigned long long>(
                  predictor.exec_time_cache().evictions()));

  // A one-line accuracy summary via the replay helper on a fresh predictor.
  fleet_serve::TenantStack fresh(config, {.instance = &instance.config});
  const core::ReplayResult result = core::ReplayTrace(instance.trace, fresh);
  const auto summary = metrics::Summarize(
      metrics::AbsoluteErrors(result.Actuals(), result.Predictions()));
  std::printf("replayed accuracy: MAE=%.2fs P50-AE=%.2fs P90-AE=%.2fs\n",
              summary.mean, summary.p50, summary.p90);
  return 0;
}
