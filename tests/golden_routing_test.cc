// Golden routing-replay test: a fixed-seed 5k-query workload is replayed
// through the Stage predictor (fleet_serve::TenantStack with one cache
// shard, Observe retraining inline) and the per-query PredictionTrace stream
// is serialized (deterministic fields only — never latencies). Stage
// counts, cache hit totals, escalation count, and a CRC32 of the full
// trace stream are pinned in tests/golden/routing_v1.txt, so ANY change to
// routing behaviour — thresholds, cache eviction, model training, tie
// breaks — trips this test with a precise diff of what moved.
//
// Regenerating after an intentional routing change:
//   STAGE_REGEN_GOLDEN=1 ./build/tests/golden_routing_test
// then review the diff of tests/golden/routing_v1.txt like any other code
// change (see DESIGN.md "Observability" for the workflow).
#include <array>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stage/common/crc32.h"
#include "stage/core/stage_predictor.h"
#include "stage/fleet/fleet.h"
#include "stage/fleet_serve/tenant_stack.h"
#include "stage/global/global_model.h"
#include "stage/obs/metrics.h"
#include "stage/obs/trace.h"

#ifndef STAGE_GOLDEN_DIR
#error "STAGE_GOLDEN_DIR must be defined by the build"
#endif

namespace stage {
namespace {

constexpr int kNumQueries = 5000;
constexpr uint64_t kWorkloadSeed = 91;
constexpr uint64_t kGlobalTrainSeed = 17;

// Small-but-real predictor: the local model trains early and often enough
// that the replay exercises every routing stage. The tightened thresholds
// (vs the paper defaults) make escalations to the global model common
// enough to pin meaningfully.
core::StagePredictorConfig GoldenConfig() {
  core::StagePredictorConfig config;
  config.local.ensemble.num_members = 2;
  config.local.ensemble.member.num_rounds = 20;
  config.local.ensemble.member.max_depth = 3;
  config.cache.capacity = 400;
  config.pool.capacity = 96;
  config.min_train_size = 40;
  config.retrain_interval = 250;
  config.short_running_seconds = 2.0;
  config.uncertainty_log_std_threshold = 0.6;
  return config;
}

// The flag-on twin of GoldenConfig: identical routing knobs plus the §4.8
// conformal recalibrator, pinned in its own golden
// (tests/golden/routing_calibrated_v1.txt). The small window/refresh make
// the scale engage early in the 5k replay.
core::StagePredictorConfig CalibratedGoldenConfig() {
  core::StagePredictorConfig config = GoldenConfig();
  config.calibrate_uncertainty = true;
  config.conformal.window_capacity = 256;
  config.conformal.min_window = 32;
  config.conformal.refresh_interval = 16;
  return config;
}

// The replayed stack: one cache shard, the replay-deterministic shape.
fleet_serve::TenantStackConfig OneShard(
    const core::StagePredictorConfig& config) {
  return {.predictor = config, .cache_shards = 1};
}

struct GoldenWorkload {
  fleet::InstanceTrace instance;
  global::GlobalModel global_model;
};

const GoldenWorkload& Workload() {
  static const GoldenWorkload* workload = [] {
    auto* out = new GoldenWorkload();
    {
      fleet::FleetConfig config;
      config.num_instances = 1;
      config.workload.num_queries = kNumQueries;
      config.seed = kWorkloadSeed;
      fleet::FleetGenerator generator(config);
      out->instance = generator.MakeInstanceTrace(0);
    }
    // The global model trains on a *different* instance (different seed,
    // different workload) — the cold-start deployment story.
    {
      fleet::FleetConfig config;
      config.num_instances = 1;
      config.workload.num_queries = 600;
      config.seed = kGlobalTrainSeed;
      fleet::FleetGenerator generator(config);
      const fleet::InstanceTrace trainer = generator.MakeInstanceTrace(0);
      std::vector<global::GlobalExample> examples;
      examples.reserve(trainer.trace.size());
      for (const fleet::QueryEvent& event : trainer.trace) {
        examples.push_back(global::MakeGlobalExample(
            event.plan, trainer.config, event.concurrent_queries,
            event.exec_seconds));
      }
      global::GlobalModelConfig global_config;
      global_config.hidden_dim = 16;
      global_config.num_layers = 2;
      global_config.epochs = 2;
      out->global_model = global::GlobalModel::Train(examples, global_config);
    }
    return out;
  }();
  return *workload;
}

// The replay summary that gets pinned. `trace_crc32` covers the full
// per-query trace-line stream, so stage counts can't mask a routing swap
// between two queries.
struct ReplaySummary {
  std::map<std::string, uint64_t> values;

  std::string Serialize() const {
    std::ostringstream out;
    for (const auto& [key, value] : values) {
      out << key << "=" << value << "\n";
    }
    return out.str();
  }
};

ReplaySummary ReplayTraced(fleet_serve::TenantStack& predictor) {
  const GoldenWorkload& workload = Workload();
  ReplaySummary summary;
  uint32_t crc = 0;
  std::array<uint64_t, obs::kNumTraceStages> stage_counts{};
  uint64_t escalations = 0;
  uint64_t cache_hits = 0;
  uint64_t query_index = 0;
  for (const fleet::QueryEvent& event : workload.instance.trace) {
    const core::QueryContext context =
        core::MakeQueryContext(event.plan, event.concurrent_queries,
                               static_cast<uint64_t>(event.arrival_ms));
    obs::PredictionTrace trace;
    predictor.PredictTraced(context, &trace);
    predictor.Observe(context, event.exec_seconds);
    const std::string line = obs::FormatTraceLine(query_index, trace) + "\n";
    crc = Crc32(line.data(), line.size(), crc);
    ++stage_counts[static_cast<size_t>(trace.stage)];
    if (trace.escalated) ++escalations;
    if (trace.cache_hit) ++cache_hits;
    ++query_index;
  }
  summary.values["queries"] = query_index;
  for (int i = 0; i < obs::kNumTraceStages; ++i) {
    summary.values["stage_" + std::string(obs::TraceStageName(
                                  static_cast<obs::TraceStage>(i)))] =
        stage_counts[static_cast<size_t>(i)];
  }
  summary.values["escalations"] = escalations;
  summary.values["cache_hits"] = cache_hits;
  summary.values["trace_crc32"] = crc;
  return summary;
}

std::string GoldenPath() {
  return std::string(STAGE_GOLDEN_DIR) + "/routing_v1.txt";
}

std::string CalibratedGoldenPath() {
  return std::string(STAGE_GOLDEN_DIR) + "/routing_calibrated_v1.txt";
}

// Shared regen-or-compare tail for both pins.
void CheckAgainstGolden(const std::string& serialized,
                        const std::string& path) {
  if (std::getenv("STAGE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << serialized;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << path << " missing; regenerate with STAGE_REGEN_GOLDEN=1 (see "
                 "DESIGN.md)";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(serialized, golden.str())
      << "Routing behaviour changed. If intentional, regenerate with\n"
         "  STAGE_REGEN_GOLDEN=1 ./tests/golden_routing_test\n"
         "and review the golden diff.";
}

TEST(GoldenRoutingTest, ReplayMatchesPinnedGolden) {
  const GoldenWorkload& workload = Workload();
  obs::MetricsRegistry registry;
  core::StagePredictorOptions options;
  options.global_model = &workload.global_model;
  options.instance = &workload.instance.config;
  options.metrics = &registry;
  fleet_serve::TenantStack predictor(OneShard(GoldenConfig()), options);

  const ReplaySummary summary = ReplayTraced(predictor);

  // Internal consistency before comparing to the pin: stage counts
  // partition the replay, the registry agrees with the summary, and the
  // exposition parses.
  uint64_t stage_sum = 0;
  for (int i = 0; i < obs::kNumTraceStages; ++i) {
    stage_sum += summary.values.at(
        "stage_" +
        std::string(obs::TraceStageName(static_cast<obs::TraceStage>(i))));
  }
  ASSERT_EQ(stage_sum, summary.values.at("queries"));
  EXPECT_EQ(summary.values.at("stage_cache"), summary.values.at("cache_hits"));
  EXPECT_EQ(summary.values.at("stage_cache"),
            predictor.predictions_from(core::PredictionSource::kCache));
  EXPECT_EQ(registry.GetCounter("stage_escalations_total").value(),
            summary.values.at("escalations"));
  // Cache, local, global, and escalation paths must all be exercised for
  // the golden to mean anything. kDefault never fires here (the global
  // model covers the cold-start window — that's the point of stage 3) and
  // kBaseline is never produced by the hierarchical router.
  EXPECT_GT(summary.values.at("stage_cache"), 0u);
  EXPECT_GT(summary.values.at("stage_local"), 0u);
  EXPECT_GT(summary.values.at("stage_global"), 0u);
  EXPECT_GT(summary.values.at("escalations"), 0u);
  EXPECT_EQ(summary.values.at("stage_baseline"), 0u);
  std::string error;
  ASSERT_TRUE(obs::ValidateTextExposition(registry.RenderText(), &error))
      << error;

  CheckAgainstGolden(summary.Serialize(), GoldenPath());
}

// Flag-on twin: the conformal recalibrator rescales the uncertainty the
// router sees, so the calibrated replay gets its own pin. The test also
// proves the flag actually bites — the recalibrator refreshes during the
// replay and the calibrated trace stream diverges from the flag-off one.
TEST(GoldenRoutingTest, CalibratedReplayMatchesPinnedGolden) {
  const GoldenWorkload& workload = Workload();
  core::StagePredictorOptions options;
  options.global_model = &workload.global_model;
  options.instance = &workload.instance.config;

  fleet_serve::TenantStack baseline(OneShard(GoldenConfig()), options);
  const ReplaySummary baseline_summary = ReplayTraced(baseline);

  fleet_serve::TenantStack calibrated(OneShard(CalibratedGoldenConfig()),
                                      options);
  const ReplaySummary calibrated_summary = ReplayTraced(calibrated);

  // The recalibrator engaged: its window filled, the scale refreshed away
  // from the identity, and the trace stream (which serializes the scaled
  // uncertainty with round-trip precision) moved.
  ASSERT_NE(calibrated.recalibrator(), nullptr);
  EXPECT_GT(calibrated.recalibrator()->refreshes(), 0u);
  EXPECT_NE(calibrated.conformal_scale(), 1.0);
  EXPECT_NE(calibrated_summary.values.at("trace_crc32"),
            baseline_summary.values.at("trace_crc32"));
  EXPECT_EQ(calibrated_summary.values.at("queries"),
            baseline_summary.values.at("queries"));

  CheckAgainstGolden(calibrated_summary.Serialize(), CalibratedGoldenPath());
}

}  // namespace
}  // namespace stage
