// Workload-manager scheduling: shows how prediction accuracy turns into
// end-to-end latency. Replays one contended instance through the WLM
// simulator under three predictors and shows a head-of-line-blocking event
// caused by a misprediction.
//
//   ./build/examples/wlm_scheduling
#include <algorithm>
#include <cstdio>

#include "stage/core/autowlm.h"
#include "stage/core/replay.h"
#include "stage/core/stage_predictor.h"
#include "stage/fleet/fleet.h"
#include "stage/fleet_serve/tenant_stack.h"
#include "stage/metrics/report.h"
#include "stage/wlm/trace_util.h"
#include "stage/wlm/workload_manager.h"

using namespace stage;

int main() {
  fleet::FleetConfig fleet_config;
  fleet_config.num_instances = 1;
  fleet_config.workload.num_queries = 2000;
  fleet_config.seed = 33;
  fleet::FleetGenerator generator(fleet_config);
  const fleet::InstanceTrace instance = generator.MakeInstanceTrace(0);

  // Predict every query in arrival order.
  core::StagePredictorConfig stage_config;
  stage_config.local.ensemble.member.num_rounds = 60;
  fleet_serve::TenantStack stage({.predictor = stage_config, .cache_shards = 1},
                                 {.instance = &instance.config});
  core::AutoWlmPredictor autowlm{core::AutoWlmConfig{}};
  const auto stage_result = core::ReplayTrace(instance.trace, stage);
  const auto autowlm_result = core::ReplayTrace(instance.trace, autowlm);

  // Compress the timeline until the cluster is ~65% utilized, then
  // schedule with each predictor's estimates.
  wlm::WlmConfig wlm_config;
  wlm_config.short_slots = 2;
  wlm_config.long_slots = 3;
  const int slots = wlm_config.short_slots + wlm_config.long_slots;
  const auto trace =
      wlm::CompressToUtilization(instance.trace, slots, 0.65);
  std::printf("trace utilization: %.2f on %d slots\n\n",
              wlm::TraceUtilization(trace, slots), slots);

  const auto optimal = stage_result.Actuals();
  const auto stage_wlm =
      wlm::SimulateWlm(trace, stage_result.Predictions(), wlm_config);
  const auto autowlm_wlm =
      wlm::SimulateWlm(trace, autowlm_result.Predictions(), wlm_config);
  const auto optimal_wlm = wlm::SimulateWlm(trace, optimal, wlm_config);

  metrics::TextTable table;
  table.SetHeader({"predictor", "avg latency (s)", "median", "p90",
                   "short-queue admissions"});
  const auto add = [&](const char* name, const wlm::WlmResult& result) {
    table.AddRow({name, metrics::FormatValue(result.AverageLatency()),
                  metrics::FormatValue(result.LatencyQuantile(0.5)),
                  metrics::FormatValue(result.LatencyQuantile(0.9)),
                  std::to_string(result.short_queue_admissions)});
  };
  add("AutoWLM", autowlm_wlm);
  add("Stage", stage_wlm);
  add("Optimal (oracle)", optimal_wlm);
  std::printf("%s\n", table.Render().c_str());

  // Show the worst head-of-line-blocking victim under AutoWLM that Stage
  // avoided: a query whose wait shrank the most.
  size_t worst = 0;
  double worst_delta = 0.0;
  for (size_t i = 0; i < trace.size(); ++i) {
    const double delta =
        autowlm_wlm.wait_seconds[i] - stage_wlm.wait_seconds[i];
    if (delta > worst_delta) {
      worst_delta = delta;
      worst = i;
    }
  }
  std::printf("biggest rescue: query %zu (true exec %.2fs)\n", worst,
              trace[worst].exec_seconds);
  std::printf("  AutoWLM predicted %8.2fs -> waited %8.1fs\n",
              autowlm_result.records[worst].predicted_seconds,
              autowlm_wlm.wait_seconds[worst]);
  std::printf("  Stage   predicted %8.2fs -> waited %8.1fs\n",
              stage_result.records[worst].predicted_seconds,
              stage_wlm.wait_seconds[worst]);
  return 0;
}
