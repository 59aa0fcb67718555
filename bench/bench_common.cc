#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "stage/metrics/report.h"

namespace stage::bench {

SuiteConfig MakeSuiteConfig() {
  SuiteConfig suite;
  const char* fast = std::getenv("STAGE_BENCH_FAST");
  if (fast != nullptr && fast[0] != '\0' && fast[0] != '0') {
    suite.num_eval_instances = 3;
    suite.queries_per_instance = 1000;
    suite.num_train_instances = 3;
    suite.train_queries_per_instance = 500;
  }
  return suite;
}

fleet::FleetConfig EvalFleetConfig(const SuiteConfig& suite) {
  fleet::FleetConfig config;
  config.num_instances = suite.num_eval_instances;
  config.workload.num_queries = suite.queries_per_instance;
  config.seed = suite.eval_seed;
  return config;
}

fleet::FleetConfig TrainFleetConfig(const SuiteConfig& suite) {
  fleet::FleetConfig config;
  config.num_instances = suite.num_train_instances;
  config.workload.num_queries = suite.train_queries_per_instance;
  config.seed = suite.train_seed;  // Disjoint from the evaluation fleet.
  return config;
}

core::StagePredictorConfig PaperStageConfig() {
  core::StagePredictorConfig config;
  config.cache.capacity = 2000;         // §5.1.
  config.cache.alpha = 0.8;             // §4.2.
  config.local.ensemble.num_members = 10;
  config.local.ensemble.member.num_rounds = 100;
  config.local.ensemble.member.max_depth = 6;
  config.local.ensemble.member.validation_fraction = 0.2;
  config.retrain_interval = 400;
  return config;
}

core::AutoWlmConfig PaperAutoWlmConfig() {
  core::AutoWlmConfig config;
  config.gbdt.num_rounds = 200;        // Paper: 200 estimators.
  config.gbdt.learning_rate = 0.3;     // XGBoost's default eta.
  config.gbdt.max_depth = 6;
  config.gbdt.validation_fraction = 0.2;
  config.retrain_interval = 400;
  return config;
}

global::GlobalModelConfig PaperGlobalConfig() {
  // Architecture-faithful, CPU-sized (paper: hidden 512, 8 layers, 0.2
  // dropout on GPUs).
  global::GlobalModelConfig config;
  config.hidden_dim = 48;
  config.num_layers = 3;
  config.dropout = 0.2f;
  config.epochs = 8;
  return config;
}

global::GlobalModel TrainGlobalModel(const SuiteConfig& suite) {
  fleet::FleetGenerator generator(TrainFleetConfig(suite));
  const auto fleet = generator.GenerateFleet();
  std::vector<global::GlobalExample> examples;
  for (const auto& instance : fleet) {
    for (const auto& event : instance.trace) {
      examples.push_back(global::MakeGlobalExample(
          event.plan, instance.config, event.concurrent_queries,
          event.exec_seconds));
    }
  }
  double val_mae = 0.0;
  std::fprintf(stderr, "[bench] training global model on %zu examples...\n",
               examples.size());
  global::GlobalModel model =
      global::GlobalModel::Train(examples, PaperGlobalConfig(), &val_mae);
  std::fprintf(stderr, "[bench] global model val MAE (log space): %.4f\n",
               val_mae);
  return model;
}

fleet_serve::TenantStackConfig SingleThreadedStack(
    const core::StagePredictorConfig& predictor) {
  return {.predictor = predictor, .cache_shards = 1};
}

std::vector<InstanceEval> RunSuite(const SuiteConfig& suite,
                                   const global::GlobalModel* global_model) {
  fleet::FleetGenerator generator(EvalFleetConfig(suite));
  std::vector<InstanceEval> evals;
  evals.reserve(suite.num_eval_instances);
  for (int i = 0; i < suite.num_eval_instances; ++i) {
    InstanceEval eval;
    eval.instance = generator.MakeInstanceTrace(i);

    fleet_serve::TenantStack stage(SingleThreadedStack(),
                                   {global_model, &eval.instance.config});
    core::AutoWlmPredictor autowlm(PaperAutoWlmConfig());
    eval.stage = core::ReplayTrace(eval.instance.trace, stage);
    eval.autowlm = core::ReplayTrace(eval.instance.trace, autowlm);
    eval.stage_cache_predictions =
        stage.predictions_from(core::PredictionSource::kCache);
    eval.stage_local_predictions =
        stage.predictions_from(core::PredictionSource::kLocal);
    eval.stage_global_predictions =
        stage.predictions_from(core::PredictionSource::kGlobal);
    eval.stage_default_predictions =
        stage.predictions_from(core::PredictionSource::kDefault);
    std::fprintf(stderr,
                 "[bench] instance %d/%d replayed (%zu queries; cache %lu, "
                 "local %lu, global %lu)\n",
                 i + 1, suite.num_eval_instances, eval.instance.trace.size(),
                 static_cast<unsigned long>(eval.stage_cache_predictions),
                 static_cast<unsigned long>(eval.stage_local_predictions),
                 static_cast<unsigned long>(eval.stage_global_predictions));
    evals.push_back(std::move(eval));
  }
  return evals;
}

PooledSeries PoolRecords(const std::vector<InstanceEval>& evals) {
  PooledSeries pooled;
  for (const InstanceEval& eval : evals) {
    for (size_t i = 0; i < eval.stage.records.size(); ++i) {
      pooled.actual.push_back(eval.stage.records[i].actual_seconds);
      pooled.stage_predicted.push_back(
          eval.stage.records[i].predicted_seconds);
      pooled.autowlm_predicted.push_back(
          eval.autowlm.records[i].predicted_seconds);
    }
  }
  return pooled;
}

std::string RenderBucketTable(const std::string& caption,
                              const std::string& metric,
                              const std::string& left_name,
                              const metrics::BucketedSummary& left,
                              const std::string& right_name,
                              const metrics::BucketedSummary& right) {
  metrics::TextTable table;
  table.SetHeader({"Query Exec-time", "# Queries",
                   left_name + " M" + metric, "P50-" + metric,
                   "P90-" + metric, right_name + " M" + metric,
                   "P50-" + metric, "P90-" + metric});
  auto add = [&](const std::string& name, const metrics::ErrorSummary& l,
                 const metrics::ErrorSummary& r) {
    table.AddRow({name, std::to_string(l.count), metrics::FormatValue(l.mean),
                  metrics::FormatValue(l.p50), metrics::FormatValue(l.p90),
                  metrics::FormatValue(r.mean), metrics::FormatValue(r.p50),
                  metrics::FormatValue(r.p90)});
  };
  add("Overall", left.overall, right.overall);
  for (int b = 0; b < metrics::kNumExecTimeBuckets; ++b) {
    add(metrics::BucketName(b), left.bucket[b], right.bucket[b]);
  }
  std::ostringstream out;
  out << caption << "\n" << table.Render();
  return out.str();
}

std::vector<DualRecord> ReplayDual(const fleet::InstanceTrace& instance,
                                   const global::GlobalModel& global_model,
                                   const core::StagePredictorConfig& config) {
  core::StagePredictorConfig local_only = config;
  local_only.use_global = false;
  fleet_serve::TenantStack stage(SingleThreadedStack(local_only),
                                 {.instance = &instance.config});

  std::vector<DualRecord> records;
  for (const fleet::QueryEvent& event : instance.trace) {
    const core::QueryContext context = core::MakeQueryContext(
        event.plan, event.concurrent_queries,
        static_cast<uint64_t>(event.arrival_ms));
    const core::Prediction prediction = stage.Predict(context);
    if (prediction.source == core::PredictionSource::kLocal) {
      DualRecord record;
      record.actual = event.exec_seconds;
      record.local_seconds = prediction.seconds;
      record.log_std = prediction.uncertainty_log_std;
      record.global_seconds = global_model.PredictSeconds(
          event.plan, instance.config, event.concurrent_queries);
      record.escalate =
          prediction.seconds >= config.short_running_seconds &&
          prediction.uncertainty_log_std >= config.uncertainty_log_std_threshold;
      records.push_back(record);
    }
    stage.Observe(context, event.exec_seconds);
  }
  return records;
}

}  // namespace stage::bench
