// Figure 10: how the prediction-rejection ratio (PRR) is built for one
// example instance: (left) predicted uncertainty vs observed absolute
// error; (right) cumulative-error curves for the oracle ranking, the
// uncertainty ranking, and a random ranking, plus the PRR score.
#include <cstdio>

#include "bench_common.h"
#include "stage/metrics/prr.h"
#include "stage/metrics/report.h"

using namespace stage;

int main() {
  bench::SuiteConfig suite = bench::MakeSuiteConfig();
  fleet::FleetGenerator generator(bench::EvalFleetConfig(suite));
  const fleet::InstanceTrace instance = generator.MakeInstanceTrace(0);

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
  std::printf("instance 0: %zu local-model predictions with uncertainty\n\n",
              errors.size());

  std::printf("=== Figure 10 (left): uncertainty vs absolute error "
              "(sample) ===\n\n");
  metrics::TextTable scatter;
  scatter.SetHeader({"uncertainty (log std)", "abs error (s)"});
  for (size_t i = 0; i < errors.size(); i += errors.size() / 25 + 1) {
    scatter.AddRow({metrics::FormatValue(uncertainties[i]),
                    metrics::FormatValue(errors[i])});
  }
  std::printf("%s\n", scatter.Render().c_str());

  const metrics::PrrCurves curves =
      metrics::ComputePrrCurves(errors, uncertainties);
  std::printf("=== Figure 10 (right): cumulative error vs rejection "
              "fraction ===\n\n");
  metrics::TextTable curve_table;
  curve_table.SetHeader({"% rejected", "Oracle", "Uncertainty", "Random"});
  const size_t n = curves.oracle.size();
  for (double fraction : {0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9}) {
    const size_t k =
        std::min(n - 1, static_cast<size_t>(fraction * static_cast<double>(n)));
    curve_table.AddRow({metrics::FormatPercent(fraction),
                        metrics::FormatPercent(curves.oracle[k]),
                        metrics::FormatPercent(curves.uncertainty[k]),
                        metrics::FormatPercent(curves.random[k])});
  }
  std::printf("%s\n", curve_table.Render().c_str());

  const double prr = metrics::PredictionRejectionRatio(errors, uncertainties);
  std::printf("PRR = %.3f (paper's example instance: 0.9)\n", prr);
  return 0;
}
