// Ablation: the exec-time cache's blend coefficient alpha in
//   prediction = alpha * running_mean + (1 - alpha) * last_observed.
// Two workloads expose the two ends of the trade-off the paper's alpha=0.8
// balances (§4.2):
//   * static data  -> execution noise dominates; the running mean is the
//     best estimator and alpha -> 1 wins;
//   * drifting data (tables grow under stale stats) -> the mean goes
//     stale; the last observation carries the freshness and small alpha
//     catches up faster.
// An intermediate alpha is the only setting good at both.
#include <cstdio>

#include "bench_common.h"
#include "stage/common/stats.h"
#include "stage/metrics/report.h"

using namespace stage;

namespace {

// Cache-hit accuracy for one (instance, alpha) pair.
metrics::ErrorSummary CacheHitQError(const fleet::InstanceTrace& instance,
                                     double alpha) {
  core::StagePredictorConfig config = bench::PaperStageConfig();
  config.cache.alpha = alpha;
  fleet_serve::TenantStack stage(bench::SingleThreadedStack(config),
                                 {.instance = &instance.config});
  const auto result = core::ReplayTrace(instance.trace, stage);
  std::vector<double> actual;
  std::vector<double> predicted;
  for (const auto& record : result.records) {
    if (record.source == core::PredictionSource::kCache) {
      actual.push_back(record.actual_seconds);
      predicted.push_back(record.predicted_seconds);
    }
  }
  return metrics::Summarize(metrics::QErrors(actual, predicted));
}

}  // namespace

int main() {
  bench::SuiteConfig suite = bench::MakeSuiteConfig();
  const fleet::FleetConfig fleet_config = bench::EvalFleetConfig(suite);
  fleet::FleetGenerator generator(fleet_config);
  const int instances = std::min(3, suite.num_eval_instances);

  // Build paired workloads per instance: identical except for drift.
  std::vector<fleet::InstanceTrace> static_traces;
  std::vector<fleet::InstanceTrace> drifting_traces;
  for (int i = 0; i < instances; ++i) {
    fleet::InstanceConfig base = generator.MakeInstance(i);
    base.noise_sigma = 0.12;        // Mild noise so drift is visible.
    base.spike_probability = 0.005;

    fleet::WorkloadConfig workload = fleet_config.workload;
    workload.repeat_fraction = 0.8;  // Repetition-heavy (cache territory).
    workload.variant_fraction = 0.1;
    workload.days = 14;

    for (double growth : {0.0, 0.10}) {
      fleet::InstanceConfig config = base;
      config.daily_data_growth = growth;  // 0.10/day ~= 3.8x over 14 days.
      fleet::WorkloadGenerator wg(config, fleet_config.generator, workload,
                                  1234 + i);
      fleet::InstanceTrace trace;
      trace.config = config;
      trace.workload = workload;
      trace.trace = wg.GenerateTrace();
      (growth == 0.0 ? static_traces : drifting_traces)
          .push_back(std::move(trace));
    }
  }

  std::printf("=== Ablation: cache blend alpha (prediction = a*mean + "
              "(1-a)*last) ===\n(paper default a = 0.8: robust to noise on "
              "static data without going stale under drift)\n\n");
  metrics::TextTable table;
  table.SetHeader({"alpha", "static data P50-QE", "drifting data P50-QE"});
  for (double alpha : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    std::vector<double> static_p50;
    std::vector<double> drifting_p50;
    for (int i = 0; i < instances; ++i) {
      static_p50.push_back(CacheHitQError(static_traces[i], alpha).p50);
      drifting_p50.push_back(CacheHitQError(drifting_traces[i], alpha).p50);
    }
    table.AddRow({metrics::FormatValue(alpha),
                  metrics::FormatValue(Mean(static_p50)),
                  metrics::FormatValue(Mean(drifting_p50))});
    std::fprintf(stderr, "[bench] alpha %.1f done\n", alpha);
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("(expected: the static column improves toward a = 1 — the "
              "mean averages the noise away — while the drifting column "
              "punishes large a as the mean goes stale; a = 0.8 stays near "
              "the best of both)\n");
  return 0;
}
