// Ablation: the cache's summary statistic (§4.2 notes the history can be
// summarized "any" way). Compares the paper's alpha-blend against pure
// mean, streaming median (P-square sketch), and last-observation-only on
// a spike-prone workload, where the median's robustness shows.
#include <cstdio>

#include "bench_common.h"
#include "stage/metrics/report.h"

using namespace stage;

int main() {
  bench::SuiteConfig suite = bench::MakeSuiteConfig();
  const fleet::FleetConfig fleet_config = bench::EvalFleetConfig(suite);
  fleet::FleetGenerator generator(fleet_config);
  const int instances = std::min(3, suite.num_eval_instances);

  // Spike-prone instances: transient slowdowns hit 10% of executions.
  std::vector<fleet::InstanceTrace> traces;
  for (int i = 0; i < instances; ++i) {
    fleet::InstanceConfig config = generator.MakeInstance(i);
    config.spike_probability = 0.10;
    fleet::WorkloadConfig workload = fleet_config.workload;
    workload.repeat_fraction = 0.8;
    fleet::WorkloadGenerator wg(config, fleet_config.generator, workload,
                                31 + i);
    fleet::InstanceTrace trace;
    trace.config = config;
    trace.workload = workload;
    trace.trace = wg.GenerateTrace();
    traces.push_back(std::move(trace));
  }

  struct Mode {
    const char* name;
    cache::CachePredictionMode mode;
  };
  constexpr Mode kModes[] = {
      {"blend a=0.8 (paper)", cache::CachePredictionMode::kBlend},
      {"mean", cache::CachePredictionMode::kMean},
      {"median (P2 sketch)", cache::CachePredictionMode::kMedian},
      {"last observation", cache::CachePredictionMode::kLast},
  };

  std::printf("=== Ablation: cache summary statistic under a spiky "
              "workload (10%% transient slowdowns) ===\n\n");
  metrics::TextTable table;
  table.SetHeader({"mode", "hit P50-QE", "hit P90-QE", "hit MAE (s)"});
  for (const Mode& mode : kModes) {
    std::vector<double> actual;
    std::vector<double> predicted;
    for (const auto& instance : traces) {
      core::StagePredictorConfig config = bench::PaperStageConfig();
      config.cache.prediction_mode = mode.mode;
      fleet_serve::TenantStack stage(bench::SingleThreadedStack(config),
                                     {.instance = &instance.config});
      const auto result = core::ReplayTrace(instance.trace, stage);
      for (const auto& record : result.records) {
        if (record.source == core::PredictionSource::kCache) {
          actual.push_back(record.actual_seconds);
          predicted.push_back(record.predicted_seconds);
        }
      }
    }
    const auto q_summary =
        metrics::Summarize(metrics::QErrors(actual, predicted));
    const auto abs_summary =
        metrics::Summarize(metrics::AbsoluteErrors(actual, predicted));
    table.AddRow({mode.name, metrics::FormatValue(q_summary.p50),
                  metrics::FormatValue(q_summary.p90),
                  metrics::FormatValue(abs_summary.mean)});
    std::fprintf(stderr, "[bench] mode '%s' done\n", mode.name);
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("(expected: the median shrugs off the spikes that drag the "
              "mean up and whipsaw the last-observation mode; the paper's "
              "blend sits between mean and last by construction)\n");
  return 0;
}
