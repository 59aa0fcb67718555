#ifndef STAGE_BENCH_BENCH_COMMON_H_
#define STAGE_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "stage/core/autowlm.h"
#include "stage/core/replay.h"
#include "stage/core/stage_predictor.h"
#include "stage/fleet/fleet.h"
#include "stage/fleet_serve/tenant_stack.h"
#include "stage/global/global_model.h"
#include "stage/metrics/error_metrics.h"

namespace stage::bench {

// Shared experiment scale. The paper evaluates 300 instances x ~100k
// queries on production hardware; the defaults here reproduce every
// experiment's *shape* in minutes on one machine. Set STAGE_BENCH_FAST=1
// for a quick smoke-scale run.
struct SuiteConfig {
  int num_eval_instances = 10;
  int queries_per_instance = 3000;
  int num_train_instances = 16;   // Global-model training fleet.
  int train_queries_per_instance = 1500;
  uint64_t eval_seed = 2024;
  uint64_t train_seed = 777;
};

// Reads STAGE_BENCH_FAST and scales the suite down when set.
SuiteConfig MakeSuiteConfig();

fleet::FleetConfig EvalFleetConfig(const SuiteConfig& suite);
fleet::FleetConfig TrainFleetConfig(const SuiteConfig& suite);

// The paper's hyper-parameters (§5.1), with boosting rounds trimmed from
// 200 to 100 (early stopping fires well before that on pool-sized data;
// documented in EXPERIMENTS.md).
core::StagePredictorConfig PaperStageConfig();
core::AutoWlmConfig PaperAutoWlmConfig();

// The shape of the Stage predictor every bench replays: one cache shard,
// so a single-threaded replay is deterministic (its Observe retrains
// inline).
fleet_serve::TenantStackConfig SingleThreadedStack(
    const core::StagePredictorConfig& predictor = PaperStageConfig());
global::GlobalModelConfig PaperGlobalConfig();

// Trains the fleet-level global model on the (disjoint) training fleet.
global::GlobalModel TrainGlobalModel(const SuiteConfig& suite);

// Replay of one instance with both predictors (+ attribution counters).
struct InstanceEval {
  fleet::InstanceTrace instance;
  core::ReplayResult stage;
  core::ReplayResult autowlm;
  uint64_t stage_cache_predictions = 0;
  uint64_t stage_local_predictions = 0;
  uint64_t stage_global_predictions = 0;
  uint64_t stage_default_predictions = 0;
};

// Generates the evaluation fleet and replays every instance with a fresh
// Stage predictor (optionally wired to `global_model`) and a fresh AutoWLM
// baseline. Prints one progress line per instance to stderr.
std::vector<InstanceEval> RunSuite(const SuiteConfig& suite,
                                   const global::GlobalModel* global_model);

// Concatenated (actual, predicted) across all instances.
struct PooledSeries {
  std::vector<double> actual;
  std::vector<double> stage_predicted;
  std::vector<double> autowlm_predicted;
};
PooledSeries PoolRecords(const std::vector<InstanceEval>& evals);

// Renders one of the paper's bucketed accuracy tables (MAE / P50 / P90 per
// exec-time bucket) side by side for two methods.
// `metric` is "AE" for absolute error or "QE" for Q-error; it only changes
// the column headers.
std::string RenderBucketTable(const std::string& caption,
                              const std::string& metric,
                              const std::string& left_name,
                              const metrics::BucketedSummary& left,
                              const std::string& right_name,
                              const metrics::BucketedSummary& right);

// Per-query dual evaluation used by Tables 5-6: replay an instance with the
// deployed configuration (cache + local, no global) while also computing
// the global model's prediction for every cache miss.
struct DualRecord {
  double actual = 0.0;
  double local_seconds = 0.0;   // What the local model predicted.
  double global_seconds = 0.0;  // What the global model would have said.
  double log_std = -1.0;        // Local uncertainty.
  // True when the §4.1 routing would escalate this query to the global
  // model (local uncertain AND predicted long-running).
  bool escalate = false;
};
std::vector<DualRecord> ReplayDual(const fleet::InstanceTrace& instance,
                                   const global::GlobalModel& global_model,
                                   const core::StagePredictorConfig& config);

}  // namespace stage::bench

#endif  // STAGE_BENCH_BENCH_COMMON_H_
