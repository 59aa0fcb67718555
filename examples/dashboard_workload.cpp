// Dashboard workload: the repetition-heavy scenario from the paper's
// introduction. A BI instance refreshes the same reports all day; the
// exec-time cache serves most of the traffic at near-zero cost, and the
// alpha-blend keeps predictions fresh while table data grows under stale
// statistics.
//
//   ./build/examples/dashboard_workload
#include <cstdio>

#include "stage/core/autowlm.h"
#include "stage/core/replay.h"
#include "stage/core/stage_predictor.h"
#include "stage/fleet/fleet.h"
#include "stage/fleet_serve/tenant_stack.h"
#include "stage/metrics/error_metrics.h"
#include "stage/metrics/report.h"

using namespace stage;

int main() {
  // A dashboarding customer: 90% of queries are exact repeats of a small
  // report pool, tables grow 5% per day, and ANALYZE never runs.
  fleet::FleetConfig fleet_config;
  fleet_config.num_instances = 1;
  fleet_config.seed = 21;
  fleet_config.unique_fraction_mean = 0.1;
  fleet_config.unique_fraction_sigma = 0.0;
  fleet_config.data_growth_probability = 1.0;
  fleet_config.max_daily_growth = 0.05;
  fleet_config.workload.num_queries = 2000;
  fleet_config.workload.num_templates = 40;
  fleet::FleetGenerator generator(fleet_config);
  const fleet::InstanceTrace instance = generator.MakeInstanceTrace(0);

  double repeats = 0;
  for (const auto& event : instance.trace) {
    repeats += event.kind == fleet::QueryEvent::Kind::kRepeat ? 1 : 0;
  }
  std::printf("dashboard instance: %.0f%% of %zu queries are exact "
              "repeats\n\n",
              100.0 * repeats / instance.trace.size(), instance.trace.size());

  core::StagePredictorConfig stage_config;
  stage_config.local.ensemble.member.num_rounds = 60;
  fleet_serve::TenantStack stage({.predictor = stage_config, .cache_shards = 1},
                                 {.instance = &instance.config});
  core::AutoWlmConfig autowlm_config;
  autowlm_config.gbdt.num_rounds = 100;
  core::AutoWlmPredictor autowlm(autowlm_config);

  const auto stage_result = core::ReplayTrace(instance.trace, stage);
  const auto autowlm_result = core::ReplayTrace(instance.trace, autowlm);

  const auto actual = stage_result.Actuals();
  const auto stage_q =
      metrics::Summarize(metrics::QErrors(actual, stage_result.Predictions()));
  const auto autowlm_q = metrics::Summarize(
      metrics::QErrors(actual, autowlm_result.Predictions()));

  metrics::TextTable table;
  table.SetHeader({"predictor", "P50 Q-error", "P90 Q-error", "served by"});
  char served_by[64];
  std::snprintf(served_by, sizeof(served_by), "cache %.0f%% local %.0f%%",
                100.0 *
                    stage.predictions_from(core::PredictionSource::kCache) /
                    instance.trace.size(),
                100.0 *
                    stage.predictions_from(core::PredictionSource::kLocal) /
                    instance.trace.size());
  table.AddRow({"Stage", metrics::FormatValue(stage_q.p50),
                metrics::FormatValue(stage_q.p90), served_by});
  table.AddRow({"AutoWLM", metrics::FormatValue(autowlm_q.p50),
                metrics::FormatValue(autowlm_q.p90), "one XGBoost model"});
  std::printf("%s\n", table.Render().c_str());

  // Freshness under drift: compare the cache's blended prediction for the
  // hottest template early vs late in the trace.
  std::printf("cache freshness under 5%%/day data growth:\n");
  const auto& cache = stage.exec_time_cache();
  for (const auto& event : instance.trace) {
    if (event.template_id == 1) {
      const auto entry = cache.Lookup(
          plan::HashFeatures(plan::FlattenPlan(event.plan)));
      if (entry.has_value()) {
        std::printf("  hottest report: %zu observations, running mean "
                    "%.2fs, last %.2fs -> blended prediction %.2fs\n",
                    entry->stats.count(), entry->stats.mean(),
                    entry->last_exec_time,
                    0.8 * entry->stats.mean() + 0.2 * entry->last_exec_time);
      }
      break;
    }
  }
  return 0;
}
