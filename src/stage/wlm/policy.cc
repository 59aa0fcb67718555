#include "stage/wlm/policy.h"

#include "stage/common/macros.h"
#include "stage/core/replay.h"
#include "stage/fleet_serve/tenant_stack.h"

namespace stage::wlm {

namespace {

// Open loop has no completion hook, so its SLO accounting happens after the
// fact — same definition as the closed-loop path (deadline = slo_factor x
// true exec-time).
uint64_t CountSloViolations(const std::vector<fleet::QueryEvent>& trace,
                            const WlmResult& wlm, double slo_factor) {
  if (slo_factor <= 0.0) return 0;
  uint64_t violations = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (wlm.latency_seconds[i] > slo_factor * trace[i].exec_seconds) {
      ++violations;
    }
  }
  return violations;
}

// Both Stage policies run one stack pinned deterministic: inline retrain
// (the stack's own Observe) and one cache shard make a single-threaded run
// bit-for-bit reproducible.
fleet_serve::TenantStack MakeStageStack(const PolicyRunConfig& config) {
  return fleet_serve::TenantStack({.predictor = config.stage,
                                   .cache_shards = 1},
                                  {config.global_model, config.instance});
}

ClosedLoopResult RunOpenLoopStage(const std::vector<fleet::QueryEvent>& trace,
                                  const PolicyRunConfig& config) {
  fleet_serve::TenantStack predictor = MakeStageStack(config);
  // The pre-PR pipeline: predictions fixed by an arrival-order replay
  // (predict, then observe, per event) before any queueing is simulated.
  const core::ReplayResult replay = core::ReplayTrace(trace, predictor);

  ClosedLoopResult result;
  result.slo_factor = config.loop.slo_factor;
  result.predicted_seconds = replay.Predictions();
  result.sources.reserve(trace.size());
  for (const core::ReplayRecord& record : replay.records) {
    result.sources.push_back(record.source);
    ++result.source_counts[static_cast<int>(record.source)];
  }
  result.wlm = SimulateWlm(trace, result.predicted_seconds, config.loop.wlm);
  result.slo_violations =
      CountSloViolations(trace, result.wlm, config.loop.slo_factor);
  return result;
}

}  // namespace

std::string_view WlmPolicyName(WlmPolicy policy) {
  switch (policy) {
    case WlmPolicy::kOracle: return "oracle";
    case WlmPolicy::kStage: return "stage";
    case WlmPolicy::kAutoWlm: return "autowlm";
    case WlmPolicy::kOpenLoop: return "open_loop";
  }
  STAGE_CHECK_MSG(false, "invalid policy");
  return "";
}

bool ParseWlmPolicy(std::string_view name, WlmPolicy* out) {
  for (const WlmPolicy policy :
       {WlmPolicy::kOracle, WlmPolicy::kStage, WlmPolicy::kAutoWlm,
        WlmPolicy::kOpenLoop}) {
    if (name == WlmPolicyName(policy)) {
      *out = policy;
      return true;
    }
  }
  return false;
}

ClosedLoopResult RunWlmPolicy(const std::vector<fleet::QueryEvent>& trace,
                              WlmPolicy policy,
                              const PolicyRunConfig& config) {
  switch (policy) {
    case WlmPolicy::kOracle:
      return SimulateClosedLoop(trace, nullptr, config.loop);
    case WlmPolicy::kStage: {
      // The full predictor stack in the loop (the §4.5 deployment shape).
      fleet_serve::TenantStack stack = MakeStageStack(config);
      return SimulateClosedLoop(trace, &stack, config.loop);
    }
    case WlmPolicy::kAutoWlm: {
      core::AutoWlmPredictor autowlm(config.autowlm);
      return SimulateClosedLoop(trace, &autowlm, config.loop);
    }
    case WlmPolicy::kOpenLoop:
      return RunOpenLoopStage(trace, config);
  }
  STAGE_CHECK_MSG(false, "invalid policy");
  return {};
}

}  // namespace stage::wlm
