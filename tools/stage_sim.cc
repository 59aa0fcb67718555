// stage_sim: command-line driver for the Stage predictor simulation.
//
// Subcommands:
//   trace         Generate a synthetic instance trace and print a summary
//                 (or per-query CSV with --csv).
//   train-global  Train the fleet-level global model and checkpoint it.
//   replay        Replay instances with Stage + AutoWLM, print accuracy
//                 tables (optionally loading a global checkpoint).
//   wlm           End-to-end closed-loop workload-manager comparison: the
//                 predictor runs inside the queue simulation (Predict at
//                 admission, Observe at completion), per --policy.
//   serve         Serve one instance concurrently (a pinned FleetService
//                 tenant): one writer replays the trace while N reader
//                 threads predict; prints attribution, cache stats, and
//                 per-source latency/QPS.
//   stats         Replay a trace through an instrumented pinned tenant
//                 and dump the full metrics registry (Prometheus text, or
//                 JSON with --json). With --out the periodic checkpointer
//                 runs too, so its snapshot metrics show up in the dump.
//   snapshot      Replay the first --stop_after events of a trace through
//                 a predictor stack and publish a crash-safe snapshot
//                 (CRC-checked, atomic-rename) of the full predictor state.
//   fleet-serve   Serve every instance of the generated fleet as a
//                 FleetService tenant: N threads replay the traces under an
//                 optional resident-bytes budget (--budget_mb), printing
//                 throughput, eviction/cold-activation counters, and the
//                 activation latency table; --out saves the indexed fleet
//                 snapshot.
//   serve --restore_from=FILE --skip=K resumes a suspended replay from a
//                 snapshot: the service comes up warm (cache, pool, local
//                 model) and the writer continues at event K.
//   serve-net     Run the epoll prediction server (FleetService behind a
//                 socket) for --duration_s seconds, one tenant per
//                 instance; publishes the bound port via --port_file and
//                 prints serving stats on shutdown.
//   loadgen       Drive a serve-net endpoint with pipelined predict
//                 requests over N connections; prints qps and latency
//                 percentiles.
//
// Examples:
//   stage_sim trace --instances=2 --queries=500
//   stage_sim train-global --instances=12 --queries=1000 --out=global.bin
//   stage_sim replay --instances=4 --queries=2000 --global=global.bin
//   stage_sim wlm --instances=4 --queries=2000 --utilization=0.75
//   stage_sim serve --queries=2000 --threads=8 --shards=8
//   stage_sim snapshot --queries=2000 --stop_after=1000 --out=snap.bin
//   stage_sim serve --queries=2000 --shards=1 --sync
//       --restore_from=snap.bin --skip=1000
//   stage_sim stats --queries=2000 --shards=4
//   stage_sim serve --queries=2000 --metrics_out=metrics.prom
//   stage_sim serve-net --port=7433 --workers=2 --window_us=200 &
//   stage_sim loadgen --port=7433 --connections=16 --requests=500
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "stage/calib/calibration.h"
#include "stage/calib/conformal.h"
#include "stage/ckpt/checkpoint.h"
#include "stage/common/flags.h"
#include "stage/common/stats.h"
#include "stage/core/autowlm.h"
#include "stage/core/replay.h"
#include "stage/core/stage_predictor.h"
#include "stage/fleet/fleet.h"
#include "stage/fleet_serve/fleet_service.h"
#include "stage/fleet_serve/tenant_stack.h"
#include "stage/global/global_model.h"
#include "stage/metrics/error_metrics.h"
#include "stage/metrics/report.h"
#include "stage/net/loadgen.h"
#include "stage/net/server.h"
#include "stage/obs/metrics.h"
#include "stage/wlm/policy.h"
#include "stage/wlm/trace_util.h"
#include "stage/wlm/workload_manager.h"

using namespace stage;

namespace {

const std::vector<std::string> kKnownFlags = {
    "instances", "queries",  "seed",        "csv",  "out",
    "global",    "members",  "rounds",      "help", "utilization",
    "short_slots", "long_slots", "threads", "shards", "sync",
    "stop_after", "restore_from", "skip", "metrics_out", "json",
    "budget_mb", "policy", "slo_factor", "window", "anchor",
    "host", "port", "port_file", "workers", "window_us", "max_batch",
    "queue_bound", "max_conns", "duration_s", "connections", "pipeline",
    "requests", "tenants", "concurrent"};

void PrintUsage() {
  std::printf(
      "usage: stage_sim "
      "<trace|train-global|replay|wlm|serve|snapshot|stats|calibrate|"
      "fleet-serve|serve-net|loadgen> [flags]\n"
      "  common flags: --instances=N --queries=N --seed=N\n"
      "  trace:        --csv (per-query CSV to stdout)\n"
      "  train-global: --out=FILE (checkpoint path, default global.bin)\n"
      "  replay:       --global=FILE --members=K --rounds=R --csv\n"
      "                --metrics_out=FILE (dump the metrics registry after "
      "the replay)\n"
      "  wlm:          --global=FILE --utilization=U --short_slots=N "
      "--long_slots=N\n"
      "                --policy=oracle|stage|autowlm|open_loop (default: "
      "compare all)\n"
      "                --slo_factor=K (deadline = K x true exec-time; <=0 "
      "disables)\n"
      "                --metrics_out=FILE (per-policy wlm_<policy>_* "
      "queue metrics)\n"
      "  serve:        --global=FILE --threads=N --shards=N --sync "
      "(inline retrain)\n"
      "                --restore_from=FILE --skip=K (resume a snapshotted "
      "replay;\n"
      "                 --shards must match the snapshotting run)\n"
      "                --metrics_out=FILE (dump the metrics registry after "
      "the run)\n"
      "  snapshot:     --stop_after=K --out=FILE --shards=N (replay K "
      "events,\n"
      "                 write a crash-safe full-state snapshot)\n"
      "  stats:        replay through an instrumented service, dump the\n"
      "                full registry to stdout (--json for the JSON dump;\n"
      "                --out=FILE also runs the periodic checkpointer)\n"
      "  calibrate:    replay and score prediction-interval coverage at\n"
      "                50/80/90/95%% before and after the online conformal\n"
      "                recalibrator (prequential shadow scoring);\n"
      "                --global=FILE --members=K --rounds=R --window=N\n"
      "                (residual window capacity) --anchor=P (anchor\n"
      "                confidence, default 0.9) --out=FILE (JSON report)\n"
      "  fleet-serve:  one tenant per instance through FleetService;\n"
      "                --threads=N --shards=N --budget_mb=M (resident-bytes\n"
      "                budget, 0 = unbounded) --sync (inline retrain)\n"
      "                --out=FILE (indexed fleet snapshot after the replay)\n"
      "  serve-net:    epoll prediction server: FleetService behind a\n"
      "                socket, one tenant per instance; --port=N (0 binds\n"
      "                an ephemeral port) --port_file=FILE (publish the\n"
      "                bound port) --workers=N --window_us=N (0 disables\n"
      "                micro-batching) --max_batch=N --queue_bound=N\n"
      "                --max_conns=N --duration_s=S --global=FILE\n"
      "                --metrics_out=FILE\n"
      "  loadgen:      pipelined predict load against a serve-net\n"
      "                endpoint: --port=N (required) --host=A\n"
      "                --connections=N --pipeline=N --requests=N (per\n"
      "                connection) --tenants=N --concurrent=N; plans come\n"
      "                from the generated trace (--queries/--seed)\n"
      "  --metrics_out=FILE writes Prometheus text exposition, or the JSON\n"
      "  dump when FILE ends in .json\n");
}

// Writes the registry to `path`: Prometheus text exposition by default, the
// JSON dump when the path ends in ".json".
bool DumpMetrics(const obs::MetricsRegistry& registry,
                 const std::string& path) {
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  std::ofstream out(path, std::ios::trunc);
  if (!out || !(out << (json ? registry.RenderJson()
                             : registry.RenderText()))) {
    std::fprintf(stderr, "error: cannot write metrics to %s\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "[stage_sim] metrics written to %s (%s)\n",
               path.c_str(), json ? "json" : "text exposition");
  return true;
}

fleet::FleetConfig FleetFromFlags(const Flags& flags) {
  fleet::FleetConfig config;
  config.num_instances = static_cast<int>(flags.GetInt("instances", 4));
  config.workload.num_queries =
      static_cast<int>(flags.GetInt("queries", 2000));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 2024));
  return config;
}

core::StagePredictorConfig StageConfigFromFlags(const Flags& flags) {
  core::StagePredictorConfig config;
  config.local.ensemble.num_members =
      static_cast<int>(flags.GetInt("members", 10));
  config.local.ensemble.member.num_rounds =
      static_cast<int>(flags.GetInt("rounds", 100));
  return config;
}

// One stack's shape: the predictor knobs plus --shards (default
// `default_shards`).
fleet_serve::TenantStackConfig StackConfigFromFlags(const Flags& flags,
                                                    int64_t default_shards) {
  fleet_serve::TenantStackConfig config;
  config.predictor = StageConfigFromFlags(flags);
  config.cache_shards =
      static_cast<size_t>(flags.GetInt("shards", default_shards));
  return config;
}

int RunTrace(const Flags& flags) {
  fleet::FleetGenerator generator(FleetFromFlags(flags));
  const bool csv = flags.GetBool("csv", false);
  if (csv) {
    std::printf("instance,arrival_ms,exec_seconds,kind,template_id,"
                "concurrent,nodes,depth\n");
  }
  for (int i = 0; i < generator.config().num_instances; ++i) {
    const fleet::InstanceTrace instance = generator.MakeInstanceTrace(i);
    if (csv) {
      for (const auto& event : instance.trace) {
        std::printf("%d,%lld,%.6f,%d,%llu,%d,%d,%d\n", i,
                    static_cast<long long>(event.arrival_ms),
                    event.exec_seconds, static_cast<int>(event.kind),
                    static_cast<unsigned long long>(event.template_id),
                    event.concurrent_queries, event.plan.node_count(),
                    event.plan.Depth());
      }
      continue;
    }
    double repeats = 0;
    std::vector<double> latencies;
    for (const auto& event : instance.trace) {
      repeats += event.kind == fleet::QueryEvent::Kind::kRepeat ? 1 : 0;
      latencies.push_back(event.exec_seconds);
    }
    std::printf(
        "instance %d: %s x%d, %zu tables, %zu queries, %.0f%% repeats, "
        "p50 exec %.2fs, p99 %.1fs\n",
        i, std::string(fleet::NodeTypeName(instance.config.node_type)).c_str(),
        instance.config.num_nodes, instance.config.schema.size(),
        instance.trace.size(), 100.0 * repeats / instance.trace.size(),
        Quantile(latencies, 0.5), Quantile(latencies, 0.99));
  }
  return 0;
}

int RunTrainGlobal(const Flags& flags) {
  fleet::FleetConfig config = FleetFromFlags(flags);
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 777));
  fleet::FleetGenerator generator(config);
  std::vector<global::GlobalExample> examples;
  for (const auto& instance : generator.GenerateFleet()) {
    for (const auto& event : instance.trace) {
      examples.push_back(global::MakeGlobalExample(
          event.plan, instance.config, event.concurrent_queries,
          event.exec_seconds));
    }
  }
  std::printf("training on %zu examples from %d instances...\n",
              examples.size(), config.num_instances);
  global::GlobalModelConfig model_config;
  double val_mae = 0.0;
  const global::GlobalModel model =
      global::GlobalModel::Train(examples, model_config, &val_mae);
  std::printf("validation MAE (log space): %.4f\n", val_mae);

  const std::string path = flags.GetString("out", "global.bin");
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
    return 1;
  }
  model.Save(out);
  std::printf("checkpoint written to %s (%zu parameter bytes)\n",
              path.c_str(), model.MemoryBytes());
  return 0;
}

bool MaybeLoadGlobal(const Flags& flags, global::GlobalModel* model,
                     bool* loaded) {
  *loaded = false;
  const std::string path = flags.GetString("global", "");
  if (path.empty()) return true;
  std::ifstream in(path, std::ios::binary);
  if (!in || !model->Load(in)) {
    std::fprintf(stderr, "error: failed to load global model from %s\n",
                 path.c_str());
    return false;
  }
  *loaded = true;
  return true;
}

int RunReplay(const Flags& flags) {
  global::GlobalModel global_model;
  bool use_global = false;
  if (!MaybeLoadGlobal(flags, &global_model, &use_global)) return 1;

  fleet::FleetGenerator generator(FleetFromFlags(flags));
  const bool csv = flags.GetBool("csv", false);
  if (csv) {
    std::printf("instance,query,actual,stage_pred,stage_source,autowlm_pred\n");
  }
  const std::string metrics_out = flags.GetString("metrics_out", "");
  obs::MetricsRegistry registry;

  std::vector<double> actual;
  std::vector<double> stage_pred;
  std::vector<double> autowlm_pred;
  for (int i = 0; i < generator.config().num_instances; ++i) {
    const fleet::InstanceTrace instance = generator.MakeInstanceTrace(i);
    core::StagePredictorOptions options;
    options.global_model = use_global ? &global_model : nullptr;
    options.instance = &instance.config;
    // Sequential per-instance predictors can share one registry: owned
    // counters accumulate across instances, and each predictor's component
    // callbacks unregister at destruction before the next one registers.
    if (!metrics_out.empty()) options.metrics = &registry;
    fleet_serve::TenantStack stage({.predictor = StageConfigFromFlags(flags),
                                    .cache_shards = 1},
                                   options);
    core::AutoWlmPredictor autowlm{core::AutoWlmConfig{}};
    const auto stage_result = core::ReplayTrace(instance.trace, stage);
    const auto autowlm_result = core::ReplayTrace(instance.trace, autowlm);
    // Dump while the last predictor is alive so its component state (cache
    // fill, pool size) is still sampled by the render-time callbacks.
    if (!metrics_out.empty() && i + 1 == generator.config().num_instances &&
        !DumpMetrics(registry, metrics_out)) {
      return 1;
    }
    for (size_t q = 0; q < stage_result.records.size(); ++q) {
      actual.push_back(stage_result.records[q].actual_seconds);
      stage_pred.push_back(stage_result.records[q].predicted_seconds);
      autowlm_pred.push_back(autowlm_result.records[q].predicted_seconds);
      if (csv) {
        std::printf(
            "%d,%zu,%.6f,%.6f,%s,%.6f\n", i, q, actual.back(),
            stage_pred.back(),
            std::string(core::PredictionSourceName(
                            stage_result.records[q].source))
                .c_str(),
            autowlm_pred.back());
      }
    }
    std::fprintf(stderr, "[stage_sim] instance %d replayed\n", i);
  }
  if (csv) return 0;

  const auto stage_summary = metrics::SummarizeByBucket(
      actual, metrics::AbsoluteErrors(actual, stage_pred));
  const auto autowlm_summary = metrics::SummarizeByBucket(
      actual, metrics::AbsoluteErrors(actual, autowlm_pred));
  metrics::TextTable table;
  table.SetHeader({"Bucket", "# Queries", "Stage MAE", "P50", "P90",
                   "AutoWLM MAE", "P50", "P90"});
  const auto add = [&](const std::string& name,
                       const metrics::ErrorSummary& a,
                       const metrics::ErrorSummary& b) {
    table.AddRow({name, std::to_string(a.count), metrics::FormatValue(a.mean),
                  metrics::FormatValue(a.p50), metrics::FormatValue(a.p90),
                  metrics::FormatValue(b.mean), metrics::FormatValue(b.p50),
                  metrics::FormatValue(b.p90)});
  };
  add("Overall", stage_summary.overall, autowlm_summary.overall);
  for (int b = 0; b < metrics::kNumExecTimeBuckets; ++b) {
    add(metrics::BucketName(b), stage_summary.bucket[b],
        autowlm_summary.bucket[b]);
  }
  std::printf("%s", table.Render().c_str());
  std::printf("global model: %s\n", use_global ? "loaded" : "not used");
  return 0;
}

// Interval-calibration report (§4.8): replays every instance with the
// flag-off predictor, scores each local prediction against the observed
// exec-time twice — raw sigma ("pre") and sigma rescaled by a shadow
// conformal recalibrator ("post") — prequentially, so "post" only ever
// uses a scale fit on strictly earlier completions of the same stream.
int RunCalibrate(const Flags& flags) {
  global::GlobalModel global_model;
  bool use_global = false;
  if (!MaybeLoadGlobal(flags, &global_model, &use_global)) return 1;

  calib::ConformalConfig conformal;
  conformal.window_capacity =
      static_cast<size_t>(flags.GetInt("window", 512));
  conformal.anchor_confidence = flags.GetDouble("anchor", 0.9);
  if (const std::string error = conformal.Validate(); !error.empty()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }

  fleet::FleetGenerator generator(FleetFromFlags(flags));
  calib::CalibrationHarness pre_harness;
  calib::CalibrationHarness post_harness;
  double final_scale = 1.0;
  for (int i = 0; i < generator.config().num_instances; ++i) {
    const fleet::InstanceTrace instance = generator.MakeInstanceTrace(i);
    core::StagePredictorOptions options;
    options.global_model = use_global ? &global_model : nullptr;
    options.instance = &instance.config;
    fleet_serve::TenantStack predictor(
        {.predictor = StageConfigFromFlags(flags), .cache_shards = 1},
        options);
    calib::ConformalRecalibrator shadow(conformal);
    for (const fleet::QueryEvent& event : instance.trace) {
      const core::QueryContext context = core::MakeQueryContext(
          event.plan, event.concurrent_queries,
          static_cast<uint64_t>(event.arrival_ms));
      obs::PredictionTrace trace;
      predictor.PredictTraced(context, &trace);
      if (calib::UsableLogStd(trace.uncertainty_log_std)) {
        const int source = static_cast<int>(trace.stage);
        pre_harness.Add({trace.predicted_seconds, trace.uncertainty_log_std,
                         event.exec_seconds, source});
        post_harness.Add({trace.predicted_seconds,
                          trace.uncertainty_log_std * shadow.scale(),
                          event.exec_seconds, source});
        shadow.Observe(calib::NormalizedResidual(trace.predicted_seconds,
                                                 trace.uncertainty_log_std,
                                                 event.exec_seconds));
      }
      predictor.Observe(context, event.exec_seconds);
    }
    final_scale = shadow.scale();
    std::fprintf(stderr, "[stage_sim] instance %d calibrated "
                         "(shadow scale %.3f)\n",
                 i, final_scale);
  }

  const calib::CalibrationReport pre = pre_harness.Report();
  const calib::CalibrationReport post = post_harness.Report();
  metrics::TextTable table;
  table.SetHeader({"Nominal", "Pre coverage", "Post coverage"});
  for (size_t i = 0; i < pre.levels.size(); ++i) {
    char nominal[16];
    std::snprintf(nominal, sizeof(nominal), "%.0f%%", 100.0 * pre.levels[i]);
    table.AddRow({nominal, metrics::FormatValue(pre.observed[i]),
                  metrics::FormatValue(post.observed[i])});
  }
  std::printf("%s", table.Render().c_str());
  std::printf("scored %llu predictions (%llu excluded: no usable sigma)\n"
              "ECE %.4f -> %.4f, coverage@90 error %.4f -> %.4f, final "
              "shadow scale %.3f\n",
              static_cast<unsigned long long>(pre.usable),
              static_cast<unsigned long long>(pre.excluded), pre.ece,
              post.ece, pre.CoverageErrorAt(0.9), post.CoverageErrorAt(0.9),
              final_scale);

  const std::string out_path = flags.GetString("out", "");
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::trunc);
    if (!out || !(out << "{\n\"pre\": " << pre.ToJson() << ",\n\"post\": "
                      << post.ToJson() << ",\n\"final_scale\": "
                      << final_scale << "\n}\n")) {
      std::fprintf(stderr, "error: cannot write report to %s\n",
                   out_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "[stage_sim] calibration report written to %s\n",
                 out_path.c_str());
  }
  return 0;
}

// Closed-loop WLM comparison: every policy drives the queue simulator with
// a live predictor (Predict at admission, Observe at completion), except
// `open_loop` which replays the pre-closed-loop pipeline for comparison.
int RunWlm(const Flags& flags) {
  global::GlobalModel global_model;
  bool use_global = false;
  if (!MaybeLoadGlobal(flags, &global_model, &use_global)) return 1;

  fleet::FleetGenerator generator(FleetFromFlags(flags));
  wlm::PolicyRunConfig policy_config;
  policy_config.loop.wlm.short_slots =
      static_cast<int>(flags.GetInt("short_slots", 2));
  policy_config.loop.wlm.long_slots =
      static_cast<int>(flags.GetInt("long_slots", 3));
  policy_config.loop.slo_factor = flags.GetDouble("slo_factor", 10.0);
  policy_config.stage = StageConfigFromFlags(flags);
  policy_config.global_model = use_global ? &global_model : nullptr;
  const double utilization = flags.GetDouble("utilization", 0.75);
  const int total_slots = policy_config.loop.wlm.short_slots +
                          policy_config.loop.wlm.long_slots;

  // --policy=NAME runs one policy; default compares all of them, AutoWLM
  // first so the improvement column reads against the baseline.
  std::vector<wlm::WlmPolicy> policies;
  const std::string policy_name = flags.GetString("policy", "");
  if (policy_name.empty()) {
    policies = {wlm::WlmPolicy::kAutoWlm, wlm::WlmPolicy::kStage,
                wlm::WlmPolicy::kOpenLoop, wlm::WlmPolicy::kOracle};
  } else {
    wlm::WlmPolicy policy;
    if (!wlm::ParseWlmPolicy(policy_name, &policy)) {
      std::fprintf(stderr,
                   "error: unknown --policy=%s "
                   "(oracle|stage|autowlm|open_loop)\n",
                   policy_name.c_str());
      return 1;
    }
    policies = {policy};
  }

  const std::string metrics_out = flags.GetString("metrics_out", "");
  obs::MetricsRegistry registry;

  struct PolicyOutcome {
    std::vector<double> latencies;
    uint64_t slo_violations = 0;
    uint64_t offloads = 0;
  };
  std::vector<PolicyOutcome> outcomes(policies.size());
  for (int i = 0; i < generator.config().num_instances; ++i) {
    const fleet::InstanceTrace instance = generator.MakeInstanceTrace(i);
    const auto trace =
        wlm::CompressToUtilization(instance.trace, total_slots, utilization);
    policy_config.instance = &instance.config;
    for (size_t p = 0; p < policies.size(); ++p) {
      if (!metrics_out.empty()) {
        policy_config.loop.metrics = &registry;
        policy_config.loop.metrics_prefix =
            "wlm_" + std::string(wlm::WlmPolicyName(policies[p])) + "_";
      }
      const wlm::ClosedLoopResult result =
          wlm::RunWlmPolicy(trace, policies[p], policy_config);
      outcomes[p].latencies.insert(outcomes[p].latencies.end(),
                                   result.wlm.latency_seconds.begin(),
                                   result.wlm.latency_seconds.end());
      outcomes[p].slo_violations += result.slo_violations;
      outcomes[p].offloads +=
          static_cast<uint64_t>(result.wlm.scaling_offloads);
    }
    std::fprintf(stderr, "[stage_sim] instance %d simulated\n", i);
  }
  if (!metrics_out.empty() && !DumpMetrics(registry, metrics_out)) return 1;

  metrics::TextTable table;
  table.SetHeader({"Policy", "avg (s)", "impr.", "median (s)", "p99 (s)",
                   "SLO miss", "offloads"});
  const double base = Mean(outcomes[0].latencies);
  for (size_t p = 0; p < policies.size(); ++p) {
    const PolicyOutcome& outcome = outcomes[p];
    const double avg = Mean(outcome.latencies);
    const double miss =
        outcome.latencies.empty()
            ? 0.0
            : static_cast<double>(outcome.slo_violations) /
                  static_cast<double>(outcome.latencies.size());
    table.AddRow({std::string(wlm::WlmPolicyName(policies[p])),
                  metrics::FormatValue(avg),
                  metrics::FormatPercent(1.0 - avg / base),
                  metrics::FormatValue(Quantile(outcome.latencies, 0.5)),
                  metrics::FormatValue(Quantile(outcome.latencies, 0.99)),
                  metrics::FormatPercent(miss),
                  std::to_string(outcome.offloads)});
  }
  std::printf("%s", table.Render().c_str());
  std::printf("slo_factor: %.1f (deadline = factor x true exec-time)\n",
              policy_config.loop.slo_factor);
  return 0;
}

int RunSnapshot(const Flags& flags) {
  global::GlobalModel global_model;
  bool use_global = false;
  if (!MaybeLoadGlobal(flags, &global_model, &use_global)) return 1;

  fleet::FleetGenerator generator(FleetFromFlags(flags));
  const fleet::InstanceTrace instance = generator.MakeInstanceTrace(0);

  // Suspend/resume is a deterministic-replay workflow: the stack's own
  // Observe retrains inline, so the snapshot captures the exact state after
  // --stop_after events.
  fleet_serve::TenantStack stack(
      StackConfigFromFlags(flags, 1),
      {use_global ? &global_model : nullptr, &instance.config});

  size_t stop_after = static_cast<size_t>(
      flags.GetInt("stop_after", static_cast<int64_t>(instance.trace.size())));
  if (stop_after > instance.trace.size()) stop_after = instance.trace.size();
  for (size_t i = 0; i < stop_after; ++i) {
    const fleet::QueryEvent& event = instance.trace[i];
    const core::QueryContext context = core::MakeQueryContext(
        event.plan, event.concurrent_queries,
        static_cast<uint64_t>(event.arrival_ms));
    stack.Predict(context);
    stack.Observe(context, event.exec_seconds);
  }

  const std::string path = flags.GetString("out", "stage_snapshot.bin");
  std::string error;
  if (!ckpt::SaveServiceSnapshot(stack, path, &error)) {
    std::fprintf(stderr, "error: snapshot failed: %s\n", error.c_str());
    return 1;
  }
  std::printf(
      "replayed %zu/%zu events; snapshot published to %s\n"
      "state: cache %zu entries (%zu shards), pool %zu, trainings %d\n"
      "resume: stage_sim serve --restore_from=%s --skip=%zu --shards=%zu "
      "--sync [same --instances/--queries/--seed/--rounds/--members]\n",
      stop_after, instance.trace.size(), path.c_str(),
      stack.exec_time_cache().size(), stack.exec_time_cache().num_shards(),
      stack.pool_size(), stack.trainings(), path.c_str(), stop_after,
      stack.exec_time_cache().num_shards());
  return 0;
}

// One instance served concurrently: tenant 0 of a fleet, pinned warm so
// readers predict straight on its stack while Observe goes through the
// fleet (background retrain unless --sync).
constexpr fleet_serve::TenantId kServedTenant = 0;

fleet_serve::FleetServiceConfig ServedFleetConfig(const Flags& flags,
                                                  int64_t default_shards) {
  fleet_serve::FleetServiceConfig config;
  config.stack = StackConfigFromFlags(flags, default_shards);
  config.async_retrain = !flags.GetBool("sync", false);
  // One worker: serialized trainings, repeat requests coalescing into one
  // follow-up run.
  config.max_concurrent_trainings = 1;
  return config;
}

// Per-source predict latency/QPS of the stack registered under `prefix`,
// read from its <prefix>predict_latency_ns{stage=...} histograms.
std::string RenderPredictLatency(obs::MetricsRegistry& registry,
                                 const std::string& prefix,
                                 double elapsed_seconds) {
  std::vector<std::string> names;
  std::vector<obs::Histogram::Snapshot> slots;
  for (int i = 0; i < core::kNumPredictionSources; ++i) {
    names.emplace_back(
        core::PredictionSourceName(static_cast<core::PredictionSource>(i)));
    slots.push_back(registry
                        .GetHistogram(prefix + "predict_latency_ns{stage=\"" +
                                          names.back() + "\"}",
                                      obs::Histogram::LatencyBucketsNanos())
                        .TakeSnapshot());
  }
  return metrics::RenderLatencyTable(names, slots, elapsed_seconds);
}

int RunServe(const Flags& flags) {
  global::GlobalModel global_model;
  bool use_global = false;
  if (!MaybeLoadGlobal(flags, &global_model, &use_global)) return 1;

  fleet::FleetGenerator generator(FleetFromFlags(flags));
  const fleet::InstanceTrace instance = generator.MakeInstanceTrace(0);
  std::vector<core::QueryContext> contexts;
  contexts.reserve(instance.trace.size());
  for (const fleet::QueryEvent& event : instance.trace) {
    contexts.push_back(core::MakeQueryContext(
        event.plan, event.concurrent_queries,
        static_cast<uint64_t>(event.arrival_ms)));
  }

  const fleet_serve::FleetServiceConfig config = ServedFleetConfig(flags, 8);
  // The registry feeds the per-source latency table below (and
  // --metrics_out).
  obs::MetricsRegistry registry;
  core::StagePredictorOptions options;
  options.global_model = use_global ? &global_model : nullptr;
  options.instance = &instance.config;
  options.metrics = &registry;
  fleet_serve::FleetService fleet(config);
  fleet.RegisterTenant(kServedTenant, options);
  const std::shared_ptr<fleet_serve::TenantStack> stack =
      fleet.PinTenant(kServedTenant);

  // Warm restart: restore a snapshotted replay and continue at --skip.
  const std::string restore_from = flags.GetString("restore_from", "");
  size_t skip = static_cast<size_t>(flags.GetInt("skip", 0));
  if (!restore_from.empty()) {
    std::string error;
    if (!ckpt::LoadServiceSnapshot(stack.get(), restore_from, &error)) {
      std::fprintf(stderr,
                   "error: restore from %s failed: %s (flags must match the "
                   "snapshotting run, e.g. --shards)\n",
                   restore_from.c_str(), error.c_str());
      return 1;
    }
    std::printf("restored %s: cache %zu entries, pool %zu, trainings %d\n",
                restore_from.c_str(), stack->exec_time_cache().size(),
                stack->pool_size(), stack->trainings());
  }
  if (skip > contexts.size()) skip = contexts.size();

  // One writer replays the production flow (predict, execute, observe);
  // N reader threads model concurrent sessions asking for predictions.
  const int num_readers = static_cast<int>(flags.GetInt("threads", 4));
  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> reader_predictions{0};
  const auto start = std::chrono::steady_clock::now();

  std::vector<std::thread> readers;
  readers.reserve(static_cast<size_t>(num_readers));
  for (int r = 0; r < num_readers; ++r) {
    readers.emplace_back([&, r] {
      uint64_t made = 0;
      size_t at = static_cast<size_t>(r) * 131;
      // Floor of one pass over the trace: on few-core machines the writer
      // can finish before a reader is ever scheduled.
      while (!writer_done.load(std::memory_order_relaxed) ||
             made < contexts.size()) {
        stack->Predict(contexts[at % contexts.size()]);
        at += 127;
        ++made;
      }
      reader_predictions.fetch_add(made);
    });
  }
  for (size_t i = skip; i < contexts.size(); ++i) {
    stack->Predict(contexts[i]);
    fleet.Observe(kServedTenant, contexts[i], instance.trace[i].exec_seconds);
  }
  writer_done.store(true);
  for (std::thread& reader : readers) reader.join();
  fleet.WaitForRetrain();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::printf("replayed %zu queries + %llu concurrent reads in %.2fs "
              "(%.0f predictions/s, %d reader threads, %zu cache shards, "
              "%s retrain)\n",
              contexts.size() - skip,
              static_cast<unsigned long long>(reader_predictions.load()),
              elapsed,
              static_cast<double>(stack->total_predictions()) / elapsed,
              num_readers, stack->exec_time_cache().num_shards(),
              config.async_retrain ? "async" : "inline");
  std::printf("trainings: %d, cache hits: %llu, misses: %llu, evictions: "
              "%llu, pool: %zu, resident: %zu bytes\n",
              stack->trainings(),
              static_cast<unsigned long long>(stack->exec_time_cache().hits()),
              static_cast<unsigned long long>(
                  stack->exec_time_cache().misses()),
              static_cast<unsigned long long>(
                  stack->exec_time_cache().evictions()),
              stack->pool_size(), stack->LocalMemoryBytes());
  std::printf("%s", RenderPredictLatency(registry, options.metrics_prefix,
                                         elapsed)
                        .c_str());
  const std::string metrics_out = flags.GetString("metrics_out", "");
  if (!metrics_out.empty() && !DumpMetrics(registry, metrics_out)) return 1;
  return 0;
}

// stats: the observability one-stop. Replays one instance trace through a
// fully instrumented pinned tenant (plus, with --out, the periodic
// checkpointer) and dumps every metric in the registry.
int RunStats(const Flags& flags) {
  global::GlobalModel global_model;
  bool use_global = false;
  if (!MaybeLoadGlobal(flags, &global_model, &use_global)) return 1;

  fleet::FleetGenerator generator(FleetFromFlags(flags));
  const fleet::InstanceTrace instance = generator.MakeInstanceTrace(0);

  obs::MetricsRegistry registry;
  core::StagePredictorOptions options;
  options.global_model = use_global ? &global_model : nullptr;
  options.instance = &instance.config;
  options.metrics = &registry;
  fleet_serve::FleetService fleet(ServedFleetConfig(flags, 4));
  fleet.RegisterTenant(kServedTenant, options);
  const std::shared_ptr<fleet_serve::TenantStack> stack =
      fleet.PinTenant(kServedTenant);

  std::unique_ptr<ckpt::PeriodicCheckpointer> checkpointer;
  const std::string snapshot_path = flags.GetString("out", "");
  if (!snapshot_path.empty()) {
    ckpt::PeriodicCheckpointer::Options ckpt_options;
    ckpt_options.path = snapshot_path;
    ckpt_options.interval = std::chrono::milliseconds(250);
    ckpt_options.metrics = &registry;
    checkpointer =
        std::make_unique<ckpt::PeriodicCheckpointer>(*stack, ckpt_options);
  }

  for (size_t i = 0; i < instance.trace.size(); ++i) {
    const fleet::QueryEvent& event = instance.trace[i];
    const core::QueryContext context = core::MakeQueryContext(
        event.plan, event.concurrent_queries,
        static_cast<uint64_t>(event.arrival_ms));
    stack->Predict(context);
    fleet.Observe(kServedTenant, context, event.exec_seconds);
  }
  fleet.WaitForRetrain();
  if (checkpointer != nullptr) {
    std::string error;
    if (!checkpointer->TriggerNow(&error)) {
      std::fprintf(stderr, "warning: final snapshot failed: %s\n",
                   error.c_str());
    }
    checkpointer->Stop();
  }

  const std::string metrics_out = flags.GetString("metrics_out", "");
  if (!metrics_out.empty() && !DumpMetrics(registry, metrics_out)) return 1;
  std::printf("%s", flags.GetBool("json", false)
                        ? registry.RenderJson().c_str()
                        : registry.RenderText().c_str());
  return 0;
}

// Multi-tenant serving demo: every instance of the generated fleet becomes
// a FleetService tenant; N threads replay the tenants' traces concurrently
// under an optional resident-bytes budget, then the registry's eviction /
// cold-activation counters and activation latency table are printed.
int RunFleetServe(const Flags& flags) {
  fleet::FleetConfig fleet_config = FleetFromFlags(flags);
  fleet_config.workload.num_queries =
      static_cast<int>(flags.GetInt("queries", 500));
  fleet::FleetGenerator generator(fleet_config);
  const size_t num_tenants = static_cast<size_t>(fleet_config.num_instances);
  std::vector<fleet::InstanceTrace> instances;
  instances.reserve(num_tenants);
  for (size_t t = 0; t < num_tenants; ++t) {
    instances.push_back(generator.MakeInstanceTrace(static_cast<int>(t)));
  }

  obs::MetricsRegistry registry;
  fleet_serve::FleetServiceConfig config;
  config.stack = StackConfigFromFlags(flags, 4);
  config.async_retrain = !flags.GetBool("sync", false);
  config.resident_bytes_budget =
      static_cast<size_t>(flags.GetInt("budget_mb", 0)) * 1024 * 1024;
  fleet_serve::FleetService service(config, {.metrics = &registry});
  for (size_t t = 0; t < num_tenants; ++t) {
    service.RegisterTenant(t, {.instance = &instances[t].config});
  }

  const size_t num_threads = std::min<size_t>(
      num_tenants, static_cast<size_t>(flags.GetInt("threads", 4)));
  std::atomic<uint64_t> predictions{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(num_threads);
  for (size_t w = 0; w < num_threads; ++w) {
    workers.emplace_back([&, w] {
      uint64_t made = 0;
      for (size_t t = w; t < num_tenants; t += num_threads) {
        for (const fleet::QueryEvent& event : instances[t].trace) {
          const core::QueryContext context = core::MakeQueryContext(
              event.plan, event.concurrent_queries,
              static_cast<uint64_t>(event.arrival_ms));
          service.Predict(t, context);
          service.Observe(t, context, event.exec_seconds);
          ++made;
        }
      }
      predictions.fetch_add(made, std::memory_order_relaxed);
    });
  }
  for (std::thread& worker : workers) worker.join();
  service.WaitForRetrain();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::printf("fleet-serve: %zu tenants, %zu threads, %llu predictions in "
              "%.2fs (%.0f/s)\n",
              num_tenants, num_threads,
              static_cast<unsigned long long>(predictions.load()), elapsed,
              static_cast<double>(predictions.load()) / elapsed);
  std::printf("warm %zu/%zu, resident %.1f MiB, evictions %llu, "
              "cold activations %llu\n",
              service.WarmCount(), service.TenantCount(),
              static_cast<double>(service.ResidentBytes()) / (1024 * 1024),
              static_cast<unsigned long long>(service.evictions()),
              static_cast<unsigned long long>(service.cold_activations()));
  const obs::LatencyHistograms& activation = service.activation_latency();
  std::printf(
      "\n== Activation latency by source ==\n%s",
      metrics::RenderLatencyTable(
          {"parked", "file", "fresh"},
          {activation.histogram_snapshot(
               fleet_serve::FleetService::kActivationFromParked),
           activation.histogram_snapshot(
               fleet_serve::FleetService::kActivationFromFile),
           activation.histogram_snapshot(
               fleet_serve::FleetService::kActivationFresh)},
          elapsed)
          .c_str());

  const std::string snapshot_out = flags.GetString("out", "");
  if (!snapshot_out.empty()) {
    std::string error;
    if (!service.SaveSnapshot(snapshot_out, &error)) {
      std::fprintf(stderr, "error: fleet snapshot failed: %s\n",
                   error.c_str());
      return 1;
    }
    std::fprintf(stderr, "[stage_sim] fleet snapshot written to %s\n",
                 snapshot_out.c_str());
  }
  const std::string metrics_out = flags.GetString("metrics_out", "");
  if (!metrics_out.empty() && !DumpMetrics(registry, metrics_out)) return 1;
  return 0;
}

int RunServeNet(const Flags& flags) {
  global::GlobalModel global_model;
  bool use_global = false;
  if (!MaybeLoadGlobal(flags, &global_model, &use_global)) return 1;

  fleet::FleetConfig fleet_config = FleetFromFlags(flags);
  fleet_config.workload.num_queries =
      static_cast<int>(flags.GetInt("queries", 200));
  fleet::FleetGenerator generator(fleet_config);
  const size_t num_tenants = static_cast<size_t>(fleet_config.num_instances);
  std::vector<fleet::InstanceTrace> instances;
  instances.reserve(num_tenants);
  for (size_t t = 0; t < num_tenants; ++t) {
    instances.push_back(generator.MakeInstanceTrace(static_cast<int>(t)));
  }

  obs::MetricsRegistry registry;
  fleet_serve::FleetServiceConfig fleet_service_config;
  fleet_service_config.stack.predictor = StageConfigFromFlags(flags);
  fleet_service_config.stack.cache_shards =
      static_cast<size_t>(flags.GetInt("shards", 4));
  fleet_service_config.async_retrain = !flags.GetBool("sync", false);
  fleet_serve::FleetService service(fleet_service_config,
                                    {.metrics = &registry});
  for (size_t t = 0; t < num_tenants; ++t) {
    service.RegisterTenant(
        t, {.global_model = use_global ? &global_model : nullptr,
            .instance = &instances[t].config});
  }

  net::ServerConfig server_config;
  server_config.host = flags.GetString("host", "127.0.0.1");
  server_config.port = static_cast<int>(flags.GetInt("port", 0));
  server_config.num_workers = static_cast<int>(flags.GetInt("workers", 2));
  server_config.batch_window_us = flags.GetInt("window_us", 200);
  server_config.max_batch = flags.GetInt("max_batch", 64);
  server_config.queue_bound = flags.GetInt("queue_bound", 1024);
  server_config.max_connections = flags.GetInt("max_conns", 256);
  {
    const std::string problem = server_config.Validate();
    if (!problem.empty()) {
      std::fprintf(stderr, "error: %s\n", problem.c_str());
      return 1;
    }
  }
  net::Server server(&service, server_config, {.metrics = &registry});
  std::printf("serve-net: listening on %s:%d (%zu tenants, %d workers, "
              "window %lldus, global model %s)\n",
              server_config.host.c_str(), server.port(), num_tenants,
              server_config.num_workers,
              static_cast<long long>(server_config.batch_window_us),
              use_global ? "loaded" : "absent");
  std::fflush(stdout);

  // Publish the bound port last so a script polling the file knows the
  // server is accepting by the time the file is readable.
  const std::string port_file = flags.GetString("port_file", "");
  if (!port_file.empty()) {
    std::ofstream out(port_file, std::ios::trunc);
    if (!out || !(out << server.port() << "\n")) {
      std::fprintf(stderr, "error: cannot write port file %s\n",
                   port_file.c_str());
      return 1;
    }
  }

  const int64_t duration_s = flags.GetInt("duration_s", 5);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(duration_s);
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.Shutdown();

  const net::ServerStats stats = server.Stats();
  uint64_t errors = 0;
  for (const uint64_t count : stats.errors_by_code) errors += count;
  std::printf("serve-net: %llu connections (%llu rejected), %llu frames "
              "in, %llu predictions (%llu batched, %llu inline), %llu "
              "observes, %llu errors\n",
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.connections_rejected),
              static_cast<unsigned long long>(stats.frames_in),
              static_cast<unsigned long long>(stats.predictions_batched +
                                              stats.predictions_inline),
              static_cast<unsigned long long>(stats.predictions_batched),
              static_cast<unsigned long long>(stats.predictions_inline),
              static_cast<unsigned long long>(stats.observes),
              static_cast<unsigned long long>(errors));
  const obs::Histogram::Snapshot batches = server.batch_size_histogram();
  if (batches.count > 0) {
    std::printf("serve-net: %llu batch flushes, mean batch %.1f, final "
                "effective window %llu us\n",
                static_cast<unsigned long long>(batches.count),
                batches.sum / static_cast<double>(batches.count),
                static_cast<unsigned long long>(stats.effective_window_us));
  }
  const std::string metrics_out = flags.GetString("metrics_out", "");
  if (!metrics_out.empty() && !DumpMetrics(registry, metrics_out)) return 1;
  return 0;
}

int RunLoadgenCmd(const Flags& flags) {
  net::LoadgenConfig config;
  config.host = flags.GetString("host", "127.0.0.1");
  config.port = static_cast<int>(flags.GetInt("port", 0));
  config.connections = static_cast<int>(flags.GetInt("connections", 16));
  config.pipeline = static_cast<int>(flags.GetInt("pipeline", 8));
  config.requests_per_connection = flags.GetInt("requests", 500);
  config.tenants = static_cast<int>(flags.GetInt("tenants", 1));
  config.concurrent_queries = static_cast<int>(flags.GetInt("concurrent", 8));
  {
    const std::string problem = config.Validate();
    if (!problem.empty()) {
      std::fprintf(stderr, "error: %s\n", problem.c_str());
      return 1;
    }
  }

  // The plan pool: same generator the server uses, so plans look like the
  // tenant's own workload (any plan is valid for any registered tenant).
  fleet::FleetConfig fleet_config = FleetFromFlags(flags);
  fleet_config.workload.num_queries =
      static_cast<int>(flags.GetInt("queries", 200));
  fleet::FleetGenerator generator(fleet_config);
  const fleet::InstanceTrace instance = generator.MakeInstanceTrace(0);
  std::vector<plan::Plan> plans;
  plans.reserve(instance.trace.size());
  for (const auto& event : instance.trace) plans.push_back(event.plan);

  net::LoadgenResult result;
  std::string error;
  if (!RunLoadgen(config, plans, &result, &error)) {
    std::fprintf(stderr, "error: loadgen failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("loadgen: %llu completed, %llu errors in %.2fs (%.0f qps)\n",
              static_cast<unsigned long long>(result.completed),
              static_cast<unsigned long long>(result.errors),
              result.elapsed_seconds, result.qps);
  std::printf("loadgen: latency mean %.3fms p50 %.3fms p99 %.3fms\n",
              result.mean_ms, result.p50_ms, result.p99_ms);
  std::printf("loadgen: sources");
  for (size_t s = 0; s < result.source_counts.size(); ++s) {
    const std::string_view name = core::PredictionSourceName(
        static_cast<core::PredictionSource>(s));
    std::printf(" %.*s=%llu", static_cast<int>(name.size()), name.data(),
                static_cast<unsigned long long>(result.source_counts[s]));
  }
  std::printf("\n");
  const uint64_t expected = static_cast<uint64_t>(config.connections) *
                            static_cast<uint64_t>(
                                config.requests_per_connection);
  if (result.completed + result.errors != expected) {
    std::fprintf(stderr, "error: %llu of %llu requests unanswered\n",
                 static_cast<unsigned long long>(expected - result.completed -
                                                 result.errors),
                 static_cast<unsigned long long>(expected));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  std::string error;
  if (!Flags::Parse(argc, argv, kKnownFlags, &flags, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    PrintUsage();
    return 1;
  }
  if (flags.positional().empty() || flags.GetBool("help", false)) {
    PrintUsage();
    return flags.positional().empty() ? 1 : 0;
  }
  const std::string& command = flags.positional().front();
  if (command == "trace") return RunTrace(flags);
  if (command == "train-global") return RunTrainGlobal(flags);
  if (command == "replay") return RunReplay(flags);
  if (command == "wlm") return RunWlm(flags);
  if (command == "serve") return RunServe(flags);
  if (command == "snapshot") return RunSnapshot(flags);
  if (command == "stats") return RunStats(flags);
  if (command == "calibrate") return RunCalibrate(flags);
  if (command == "fleet-serve") return RunFleetServe(flags);
  if (command == "serve-net") return RunServeNet(flags);
  if (command == "loadgen") return RunLoadgenCmd(flags);
  std::fprintf(stderr, "error: unknown command '%s'\n", command.c_str());
  PrintUsage();
  return 1;
}
