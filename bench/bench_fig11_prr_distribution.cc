// Figure 11: distribution of the local model's prediction-rejection ratio
// (PRR) across all evaluation instances.
#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "stage/common/stats.h"
#include "stage/common/stats.h"
#include "stage/metrics/prr.h"
#include "stage/metrics/report.h"

using namespace stage;

int main() {
  bench::SuiteConfig suite = bench::MakeSuiteConfig();
  suite.num_eval_instances = std::max(suite.num_eval_instances, 10);
  fleet::FleetGenerator generator(bench::EvalFleetConfig(suite));

  std::vector<double> prr_scores;
  for (int i = 0; i < suite.num_eval_instances; ++i) {
    const fleet::InstanceTrace instance = generator.MakeInstanceTrace(i);
    fleet_serve::TenantStack stage(bench::SingleThreadedStack(),
                                   {.instance = &instance.config});
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
    if (errors.size() < 50) continue;  // Not enough signal to score.
    prr_scores.push_back(
        metrics::PredictionRejectionRatio(errors, uncertainties));
    std::fprintf(stderr, "[bench] instance %d PRR = %.3f (%zu queries)\n", i,
                 prr_scores.back(), errors.size());
  }

  std::printf("=== Figure 11: PRR distribution across instances ===\n"
              "(paper shape: median ~0.9, a cluster near 1.0, a low tail "
              "for instances with too little training data)\n\n");
  metrics::TextTable histogram;
  histogram.SetHeader({"PRR bucket", "# instances", "bar"});
  for (int b = 0; b < 10; ++b) {
    const double lo = b * 0.1;
    const double hi = lo + 0.1;
    int count = 0;
    for (double score : prr_scores) {
      if (score >= lo && (score < hi || (b == 9 && score <= 1.0))) ++count;
    }
    char label[32];
    std::snprintf(label, sizeof(label), "%.1f - %.1f", lo, hi);
    histogram.AddRow({label, std::to_string(count), std::string(count, '#')});
  }
  std::printf("%s\n", histogram.Render().c_str());
  std::printf("median PRR: %.3f over %zu instances (paper: 0.9)\n",
              Quantile(prr_scores, 0.5), prr_scores.size());
  return 0;
}
