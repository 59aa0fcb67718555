#ifndef STAGE_WLM_CLOSED_LOOP_H_
#define STAGE_WLM_CLOSED_LOOP_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "stage/core/predictor.h"
#include "stage/fleet/workload.h"
#include "stage/obs/metrics.h"
#include "stage/wlm/workload_manager.h"

namespace stage::wlm {

// Knobs of one closed-loop WLM simulation run.
struct ClosedLoopConfig {
  WlmConfig wlm;

  // Per-query latency SLO: a query's deadline is slo_factor x its true
  // exec-time (a wait budget proportional to the work, the shape AutoWLM's
  // queueing targets take — a 100 ms dashboard query blowing through 10x
  // its runtime is a violation; an hour-long ETL waiting a minute is not).
  // <= 0 disables SLO accounting.
  double slo_factor = 10.0;

  // Optional observability sink. When set, the run maintains
  //   <prefix>admissions_total, <prefix>completions_total,
  //   <prefix>scaling_offloads_total, <prefix>slo_misses_total (counters),
  //   <prefix>queue_depth, <prefix>max_queue_depth (gauges, in simulated
  //   event time).
  // Counters are owned registry metrics, so repeated runs against one
  // registry accumulate.
  obs::MetricsRegistry* metrics = nullptr;
  std::string metrics_prefix = "wlm_";
};

// Outcome of a closed-loop run: the queueing result plus what the live
// predictor said at each admission and how often the SLO was blown.
struct ClosedLoopResult {
  WlmResult wlm;

  // Per-query, in trace order: the prediction sampled at admission (as the
  // predictor reported it, before the engine's negative-clamp) and the
  // stage that served it.
  std::vector<double> predicted_seconds;
  std::vector<core::PredictionSource> sources;
  // Admission counts per stage: the routing-source mix. All zero under the
  // oracle (no predictor consulted).
  std::array<uint64_t, core::kNumPredictionSources> source_counts{};

  uint64_t slo_violations = 0;
  // Largest number of queries simultaneously queued (admitted, not yet
  // started) at any event instant.
  uint64_t max_queue_depth = 0;
  double slo_factor = 0.0;  // Echoed from the config.

  // slo_violations / completed queries; 0 on an empty run or when SLO
  // accounting is disabled.
  double SloViolationRate() const;
};

// Closed-loop WLM simulation (ROADMAP item 2; the paper's §1/§5.2 claim
// made operational): `predictor` is consulted live inside the event loop —
// Predict at each admission decides the short/long split and the SJF key,
// and each completion calls Observe with the measured exec-time, so the
// exec-time cache and local model adapt *during* the run. Queries admitted
// after a completion see the updated predictor; that mid-run adaptation is
// exactly what the open-loop SimulateWlm (predictions precomputed on an
// arrival-order replay) cannot express.
//
// A null `predictor` runs the oracle policy: scheduling sees the true
// exec-times (source counts stay zero). With a predictor that never learns
// from Observe, the result is bit-for-bit identical to SimulateWlm over
// the same per-admission predictions — both run the same engine.
//
// Uses the predictor's sequential interface (Predict then Observe from one
// thread). For deterministic runs, give a fleet_serve::TenantStack one
// cache shard; its Observe retrains inline.
ClosedLoopResult SimulateClosedLoop(
    const std::vector<fleet::QueryEvent>& trace,
    core::ExecTimePredictor* predictor, const ClosedLoopConfig& config);

}  // namespace stage::wlm

#endif  // STAGE_WLM_CLOSED_LOOP_H_
