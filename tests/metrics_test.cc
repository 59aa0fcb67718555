#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "stage/common/rng.h"
#include "stage/metrics/error_metrics.h"
#include "stage/metrics/prr.h"
#include "stage/metrics/report.h"

namespace stage::metrics {
namespace {

TEST(ErrorMetricsTest, AbsoluteErrors) {
  const auto errors = AbsoluteErrors({1.0, 5.0}, {2.0, 3.0});
  EXPECT_DOUBLE_EQ(errors[0], 1.0);
  EXPECT_DOUBLE_EQ(errors[1], 2.0);
}

TEST(ErrorMetricsTest, QErrorsSymmetricAndFloored) {
  const auto errors = QErrors({2.0, 0.5, 0.0}, {4.0, 1.0, 0.0});
  EXPECT_DOUBLE_EQ(errors[0], 2.0);   // Under by 2x.
  EXPECT_DOUBLE_EQ(errors[1], 2.0);   // Over by 2x.
  EXPECT_DOUBLE_EQ(errors[2], 1.0);   // 0 vs 0: clamped, perfect.
}

TEST(ErrorMetricsTest, QErrorMinimumIsOne) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const double a = rng.NextLogNormal(0, 2);
    const double p = rng.NextLogNormal(0, 2);
    EXPECT_GE(QErrors({a}, {p})[0], 1.0);
  }
}

TEST(ErrorMetricsTest, SummarizeKnownSeries) {
  const ErrorSummary summary = Summarize({1.0, 2.0, 3.0, 4.0, 10.0});
  EXPECT_EQ(summary.count, 5u);
  EXPECT_DOUBLE_EQ(summary.mean, 4.0);
  EXPECT_DOUBLE_EQ(summary.p50, 3.0);
  EXPECT_NEAR(summary.p90, 7.6, 1e-9);  // Interpolated.
}

TEST(ErrorMetricsTest, SummarizeEmpty) {
  const ErrorSummary summary = Summarize({});
  EXPECT_EQ(summary.count, 0u);
  EXPECT_EQ(summary.mean, 0.0);
}

TEST(ErrorMetricsTest, BucketBoundariesMatchPaper) {
  EXPECT_EQ(BucketOf(0.0), 0);
  EXPECT_EQ(BucketOf(9.99), 0);
  EXPECT_EQ(BucketOf(10.0), 1);
  EXPECT_EQ(BucketOf(59.99), 1);
  EXPECT_EQ(BucketOf(60.0), 2);
  EXPECT_EQ(BucketOf(119.0), 2);
  EXPECT_EQ(BucketOf(120.0), 3);
  EXPECT_EQ(BucketOf(299.0), 3);
  EXPECT_EQ(BucketOf(300.0), 4);
  EXPECT_EQ(BucketOf(1e6), 4);
}

TEST(ErrorMetricsTest, BucketedSummaryPartitionsCounts) {
  const std::vector<double> actual = {1.0, 30.0, 90.0, 200.0, 400.0, 2.0};
  const std::vector<double> errors = {0.1, 1.0, 5.0, 20.0, 100.0, 0.2};
  const BucketedSummary summary = SummarizeByBucket(actual, errors);
  EXPECT_EQ(summary.overall.count, 6u);
  EXPECT_EQ(summary.bucket[0].count, 2u);
  EXPECT_EQ(summary.bucket[1].count, 1u);
  EXPECT_EQ(summary.bucket[2].count, 1u);
  EXPECT_EQ(summary.bucket[3].count, 1u);
  EXPECT_EQ(summary.bucket[4].count, 1u);
  size_t total = 0;
  for (int b = 0; b < kNumExecTimeBuckets; ++b) {
    total += summary.bucket[b].count;
  }
  EXPECT_EQ(total, summary.overall.count);
}

TEST(PrrTest, PerfectUncertaintyScoresOne) {
  // Uncertainty exactly equals error: PRR must be 1.
  Rng rng(5);
  std::vector<double> errors;
  for (int i = 0; i < 500; ++i) errors.push_back(rng.NextLogNormal(0, 1));
  EXPECT_NEAR(PredictionRejectionRatio(errors, errors), 1.0, 1e-9);
}

TEST(PrrTest, MonotoneTransformOfErrorStillScoresOne) {
  // PRR is a rank metric: any monotone transform of the error is perfect.
  Rng rng(7);
  std::vector<double> errors;
  std::vector<double> uncertainty;
  for (int i = 0; i < 500; ++i) {
    const double e = rng.NextLogNormal(0, 1);
    errors.push_back(e);
    uncertainty.push_back(std::log1p(e) * 3.0);
  }
  EXPECT_NEAR(PredictionRejectionRatio(errors, uncertainty), 1.0, 1e-9);
}

TEST(PrrTest, RandomUncertaintyScoresNearZero) {
  Rng rng(9);
  std::vector<double> errors;
  std::vector<double> uncertainty;
  for (int i = 0; i < 20000; ++i) {
    errors.push_back(rng.NextLogNormal(0, 1));
    uncertainty.push_back(rng.NextDouble());  // Unrelated to error.
  }
  EXPECT_NEAR(PredictionRejectionRatio(errors, uncertainty), 0.0, 0.05);
}

TEST(PrrTest, AntiCorrelatedUncertaintyScoresNegative) {
  Rng rng(11);
  std::vector<double> errors;
  std::vector<double> uncertainty;
  for (int i = 0; i < 1000; ++i) {
    const double e = rng.NextLogNormal(0, 1);
    errors.push_back(e);
    uncertainty.push_back(-e);
  }
  EXPECT_LT(PredictionRejectionRatio(errors, uncertainty), -0.5);
}

TEST(PrrTest, DegenerateAllEqualErrorsReturnsZero) {
  const std::vector<double> errors(10, 1.0);
  const std::vector<double> uncertainty = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(PredictionRejectionRatio(errors, uncertainty), 0.0);
}

TEST(PrrTest, CurvesAreMonotoneAndEndAtOne) {
  Rng rng(13);
  std::vector<double> errors;
  std::vector<double> uncertainty;
  for (int i = 0; i < 300; ++i) {
    errors.push_back(rng.NextLogNormal(0, 1));
    uncertainty.push_back(rng.NextLogNormal(0, 1));
  }
  const PrrCurves curves = ComputePrrCurves(errors, uncertainty);
  for (const auto* curve :
       {&curves.oracle, &curves.uncertainty, &curves.random}) {
    for (size_t k = 1; k < curve->size(); ++k) {
      EXPECT_GE((*curve)[k], (*curve)[k - 1] - 1e-12);
    }
    EXPECT_NEAR(curve->back(), 1.0, 1e-9);
  }
  // Oracle dominates every other ranking pointwise.
  for (size_t k = 0; k < curves.oracle.size(); ++k) {
    EXPECT_GE(curves.oracle[k] + 1e-12, curves.uncertainty[k]);
    EXPECT_GE(curves.oracle[k] + 1e-12, curves.random[k]);
  }
}

TEST(ReportTest, TableRendersAligned) {
  TextTable table;
  table.SetHeader({"a", "long_header"});
  table.AddRow({"value_is_long", "b"});
  const std::string rendered = table.Render();
  EXPECT_NE(rendered.find("| a             | long_header |"),
            std::string::npos);
  EXPECT_NE(rendered.find("| value_is_long | b           |"),
            std::string::npos);
}

TEST(ReportTest, FormatValueUsesPaperStylePrecision) {
  EXPECT_EQ(FormatValue(7.757), "7.76");
  EXPECT_EQ(FormatValue(126.44), "126.4");
  EXPECT_EQ(FormatValue(1496.2), "1496");
  EXPECT_EQ(FormatValue(0.672), "0.67");
}

TEST(ReportTest, FormatPercent) {
  EXPECT_EQ(FormatPercent(0.203), "20.3%");
}

TEST(ReportTest, RenderLatencyTableHasPercentileColumns) {
  obs::Histogram cache(obs::Histogram::LatencyBucketsNanos());
  obs::Histogram local(obs::Histogram::LatencyBucketsNanos());
  cache.Record(1500);
  const std::string table = RenderLatencyTable(
      {"cache", "local"}, {cache.TakeSnapshot(), local.TakeSnapshot()}, 1.0);
  EXPECT_NE(table.find("p50 (us)"), std::string::npos);
  EXPECT_NE(table.find("p99 (us)"), std::string::npos);
  EXPECT_NE(table.find("| cache | 1     | 1.00 | 1.50"), std::string::npos)
      << table;
  EXPECT_NE(table.find("| local | 0     | 0.00 | 0.00"), std::string::npos)
      << table;
}

}  // namespace
}  // namespace stage::metrics
