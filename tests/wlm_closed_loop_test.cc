// Closed-loop WLM simulator tests: live-predictor hooks (Predict at
// admission, Observe at completion), open-loop equivalence with a frozen
// predictor, mid-run adaptation through the exec-time cache, SLO
// accounting, obs metrics, and the policy harness.
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stage/common/macros.h"
#include "stage/common/rng.h"
#include "stage/core/predictor.h"
#include "stage/obs/metrics.h"
#include "stage/fleet/fleet.h"
#include "stage/fleet_serve/tenant_stack.h"
#include "stage/wlm/closed_loop.h"
#include "stage/wlm/policy.h"
#include "stage/wlm/trace_util.h"
#include "stage/wlm/workload_manager.h"

namespace stage::wlm {
namespace {

// Builds a minimal trace; plans are single-node dummies (the simulator only
// reads arrival_ms and exec_seconds; the closed loop also featurizes them).
std::vector<fleet::QueryEvent> MakeTrace(
    const std::vector<std::pair<int64_t, double>>& arrivals_and_exec) {
  std::vector<fleet::QueryEvent> trace;
  plan::PlanNode node;
  node.op = plan::OperatorType::kSeqScanLocal;
  node.table_rows = 1;
  node.s3_format = plan::S3Format::kLocal;
  for (const auto& [arrival, exec] : arrivals_and_exec) {
    fleet::QueryEvent event;
    event.arrival_ms = arrival;
    event.exec_seconds = exec;
    event.plan = plan::Plan(plan::QueryType::kSelect, {node});
    trace.push_back(std::move(event));
  }
  return trace;
}

// A predictor that replays a fixed prediction sequence (one per Predict
// call, in admission order) and learns nothing from Observe: the frozen
// stand-in that must reduce the closed loop to the open loop.
class FrozenPredictor final : public core::ExecTimePredictor {
 public:
  explicit FrozenPredictor(std::vector<double> predictions)
      : predictions_(std::move(predictions)) {}

  core::Prediction Predict(const core::QueryContext&) const override {
    STAGE_CHECK(next_ < predictions_.size());
    core::Prediction out;
    out.seconds = predictions_[next_++];
    out.source = core::PredictionSource::kBaseline;
    return out;
  }
  void Observe(const core::QueryContext&, double) override { ++observes_; }

  size_t observes() const { return observes_; }

 private:
  std::vector<double> predictions_;
  mutable size_t next_ = 0;
  size_t observes_ = 0;
};

TEST(ClosedLoopTest, FrozenPredictorReproducesOpenLoopBitForBit) {
  Rng rng(51);
  std::vector<std::pair<int64_t, double>> spec;
  int64_t t = 0;
  for (int i = 0; i < 500; ++i) {
    t += static_cast<int64_t>(rng.NextExponential(0.003));
    spec.emplace_back(t, rng.NextLogNormal(0.5, 1.5));
  }
  const auto trace = MakeTrace(spec);
  std::vector<double> predictions;
  Rng rng2(52);
  for (const auto& event : trace) {
    predictions.push_back(event.exec_seconds * rng2.NextLogNormal(0.0, 0.6));
  }
  ClosedLoopConfig config;
  config.wlm.short_slots = 2;
  config.wlm.long_slots = 2;
  config.wlm.enable_concurrency_scaling = true;
  config.wlm.scaling_wait_threshold_seconds = 60.0;

  FrozenPredictor frozen(predictions);
  const ClosedLoopResult closed = SimulateClosedLoop(trace, &frozen, config);
  const WlmResult open = SimulateWlm(trace, predictions, config.wlm);

  // Bit-for-bit: the two paths share one engine, so every output matches
  // exactly, not approximately.
  EXPECT_EQ(closed.wlm.latency_seconds, open.latency_seconds);
  EXPECT_EQ(closed.wlm.wait_seconds, open.wait_seconds);
  EXPECT_EQ(closed.wlm.pool, open.pool);
  EXPECT_EQ(closed.wlm.short_queue_admissions, open.short_queue_admissions);
  EXPECT_EQ(closed.wlm.long_queue_admissions, open.long_queue_admissions);
  EXPECT_EQ(closed.wlm.scaling_offloads, open.scaling_offloads);
  EXPECT_EQ(closed.predicted_seconds, predictions);
  // Every completion was observed, in completion order.
  EXPECT_EQ(frozen.observes(), trace.size());
  EXPECT_EQ(closed.source_counts[static_cast<int>(
                core::PredictionSource::kBaseline)],
            trace.size());
}

TEST(ClosedLoopTest, OracleSchedulesOnTruth) {
  const auto trace = MakeTrace({{0, 1.0}, {10, 50.0}, {20, 0.2}});
  ClosedLoopConfig config;
  const ClosedLoopResult result = SimulateClosedLoop(trace, nullptr, config);
  ASSERT_EQ(result.predicted_seconds.size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.predicted_seconds[i], trace[i].exec_seconds);
  }
  // The oracle consults no predictor: the routing mix stays empty.
  for (const uint64_t count : result.source_counts) EXPECT_EQ(count, 0u);
  // 50s query routed long, the others short.
  EXPECT_EQ(result.wlm.long_queue_admissions, 1);
  EXPECT_EQ(result.wlm.short_queue_admissions, 2);
}

// The closed loop's point: a live predictor stack in the loop adapts
// mid-run. Twelve executions of one 50s dashboard query: the first six
// arrive cold (default 1s prediction -> short queue, head-of-line
// blocking); by the time the last six arrive, the first completion has been
// observed, the exec-time cache answers ~50s, and they route to the long
// queue. An open-loop run with the frozen cold-start predictions can never
// make that correction.
TEST(ClosedLoopTest, CacheAdaptationRoutesRepeatsMidRun) {
  std::vector<std::pair<int64_t, double>> spec;
  for (int i = 0; i < 6; ++i) spec.emplace_back(i, 50.0);
  for (int i = 0; i < 6; ++i) spec.emplace_back(60000 + i, 50.0);
  const auto trace = MakeTrace(spec);

  fleet_serve::TenantStack service({.cache_shards = 1});

  ClosedLoopConfig config;
  config.wlm.short_slots = 1;
  config.wlm.long_slots = 1;
  const ClosedLoopResult closed =
      SimulateClosedLoop(trace, &service, config);

  EXPECT_EQ(closed.wlm.short_queue_admissions, 6);
  EXPECT_EQ(closed.wlm.long_queue_admissions, 6);
  EXPECT_EQ(closed.source_counts[static_cast<int>(
                core::PredictionSource::kDefault)],
            6u);
  EXPECT_EQ(closed.source_counts[static_cast<int>(
                core::PredictionSource::kCache)],
            6u);
  for (int i = 6; i < 12; ++i) {
    EXPECT_NEAR(closed.predicted_seconds[i], 50.0, 5.0) << "query " << i;
  }

  // Open loop with the same cold-start predictions (all 1s): everything
  // lands in the short queue and serializes behind one slot.
  const WlmResult open =
      SimulateWlm(trace, std::vector<double>(trace.size(), 1.0), config.wlm);
  EXPECT_LT(closed.wlm.AverageLatency(), open.AverageLatency());
}

TEST(ClosedLoopTest, SloAccountingCountsProportionalDeadlines) {
  // A 10s query mispredicted short blocks a 0.1s query for ~10s: with
  // slo_factor=10 the short query's 1s deadline blows. The oracle routes
  // the 10s query long and nobody violates.
  const auto trace = MakeTrace({{0, 10.0}, {1, 0.1}});
  ClosedLoopConfig config;
  config.wlm.short_slots = 1;
  config.wlm.long_slots = 1;
  config.slo_factor = 10.0;

  FrozenPredictor frozen({1.0, 0.1});
  const ClosedLoopResult mispredicted =
      SimulateClosedLoop(trace, &frozen, config);
  EXPECT_EQ(mispredicted.slo_violations, 1u);
  EXPECT_NEAR(mispredicted.SloViolationRate(), 0.5, 1e-9);

  const ClosedLoopResult oracle = SimulateClosedLoop(trace, nullptr, config);
  EXPECT_EQ(oracle.slo_violations, 0u);
  EXPECT_DOUBLE_EQ(oracle.SloViolationRate(), 0.0);

  // slo_factor <= 0 disables accounting entirely.
  config.slo_factor = 0.0;
  FrozenPredictor frozen2({1.0, 0.1});
  const ClosedLoopResult disabled =
      SimulateClosedLoop(trace, &frozen2, config);
  EXPECT_EQ(disabled.slo_violations, 0u);
}

TEST(ClosedLoopTest, MetricsAccumulateInRegistry) {
  const auto trace = MakeTrace({{0, 10.0}, {1, 0.1}, {2, 0.2}});
  obs::MetricsRegistry registry;
  ClosedLoopConfig config;
  config.slo_factor = 10.0;
  config.metrics = &registry;
  config.metrics_prefix = "wlm_test_";
  FrozenPredictor frozen({1.0, 0.1, 0.2});
  const ClosedLoopResult result = SimulateClosedLoop(trace, &frozen, config);

  EXPECT_EQ(registry.GetCounter("wlm_test_admissions_total").value(), 3u);
  EXPECT_EQ(registry.GetCounter("wlm_test_completions_total").value(), 3u);
  EXPECT_EQ(registry.GetCounter("wlm_test_slo_misses_total").value(),
            result.slo_violations);
  EXPECT_EQ(registry.GetCounter("wlm_test_scaling_offloads_total").value(),
            static_cast<uint64_t>(result.wlm.scaling_offloads));
  // All queries have started by the end of the run; the instantaneous
  // depth gauge must have drained, and the high-water mark must match.
  EXPECT_DOUBLE_EQ(registry.GetGauge("wlm_test_queue_depth").value(), 0.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("wlm_test_max_queue_depth").value(),
                   static_cast<double>(result.max_queue_depth));
  EXPECT_GE(result.max_queue_depth, 1u);

  std::string error;
  EXPECT_TRUE(obs::ValidateTextExposition(registry.RenderText(), &error))
      << error;
}

TEST(WlmPolicyTest, NamesParseRoundTrip) {
  for (const WlmPolicy policy :
       {WlmPolicy::kOracle, WlmPolicy::kStage, WlmPolicy::kAutoWlm,
        WlmPolicy::kOpenLoop}) {
    WlmPolicy parsed;
    ASSERT_TRUE(ParseWlmPolicy(WlmPolicyName(policy), &parsed));
    EXPECT_EQ(parsed, policy);
  }
  WlmPolicy unused;
  EXPECT_FALSE(ParseWlmPolicy("sjf", &unused));
  EXPECT_FALSE(ParseWlmPolicy("", &unused));
}

// End-to-end policy harness over a generated instance trace: every policy
// completes the whole trace, attributes every non-oracle admission, and
// the Stage policy is deterministic run-to-run.
TEST(WlmPolicyTest, AllPoliciesCompleteAGeneratedTrace) {
  fleet::FleetConfig fleet_config;
  fleet_config.num_instances = 1;
  fleet_config.workload.num_queries = 220;
  fleet_config.seed = 7;
  fleet::FleetGenerator generator(fleet_config);
  const fleet::InstanceTrace instance = generator.MakeInstanceTrace(0);
  const auto trace = CompressToUtilization(instance.trace, 5, 0.8);

  PolicyRunConfig config;
  config.instance = &instance.config;
  config.stage.local.ensemble.num_members = 4;
  config.stage.local.ensemble.member.num_rounds = 40;

  ClosedLoopResult results[kNumWlmPolicies];
  for (const WlmPolicy policy :
       {WlmPolicy::kOracle, WlmPolicy::kStage, WlmPolicy::kAutoWlm,
        WlmPolicy::kOpenLoop}) {
    const ClosedLoopResult result = RunWlmPolicy(trace, policy, config);
    ASSERT_EQ(result.wlm.latency_seconds.size(), trace.size());
    ASSERT_EQ(result.predicted_seconds.size(), trace.size());
    uint64_t attributed = 0;
    for (const uint64_t count : result.source_counts) attributed += count;
    if (policy == WlmPolicy::kOracle) {
      EXPECT_EQ(attributed, 0u);
    } else {
      EXPECT_EQ(attributed, trace.size());
    }
    for (size_t i = 0; i < trace.size(); ++i) {
      EXPECT_GE(result.wlm.latency_seconds[i], trace[i].exec_seconds - 1e-9);
    }
    results[static_cast<int>(policy)] = result;
  }

  // Deterministic: a second Stage closed-loop run is bit-for-bit the first.
  const ClosedLoopResult again =
      RunWlmPolicy(trace, WlmPolicy::kStage, config);
  EXPECT_EQ(again.wlm.latency_seconds,
            results[static_cast<int>(WlmPolicy::kStage)].wlm.latency_seconds);
  EXPECT_EQ(again.predicted_seconds,
            results[static_cast<int>(WlmPolicy::kStage)].predicted_seconds);
}

}  // namespace
}  // namespace stage::wlm
