// Tests for the stage::ckpt snapshot subsystem: envelope integrity,
// crash-safe tmp-then-rename publication, warm-restart equivalence for
// every checkpointable component (the acceptance bar: a restored stack
// continues a replay bit-for-bit), the periodic background checkpointer,
// and the corruption fault-injection suite. The CorruptionSuite* tests are
// additionally run standalone under AddressSanitizer by tools/check.sh —
// truncations and bit flips must make loads return false, never crash,
// never allocate unboundedly, never yield a trained model.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "stage/cache/sharded_cache.h"
#include "stage/ckpt/checkpoint.h"
#include "stage/ckpt/snapshot_file.h"
#include "stage/common/crc32.h"
#include "stage/common/rng.h"
#include "stage/core/stage_predictor.h"
#include "stage/fleet/fleet.h"
#include "stage/fleet_serve/tenant_stack.h"
#include "stage/local/local_model.h"
#include "stage/local/training_pool.h"
#include "stage/obs/metrics.h"
#include "test_temp_dir.h"

namespace stage::ckpt {
namespace {

// Small-but-real configs (mirrors serve_test.cc) so every builder trains an
// actual model and the snapshots stay a few tens of KB.
core::StagePredictorConfig FastStage() {
  core::StagePredictorConfig config;
  config.local.ensemble.num_members = 2;
  config.local.ensemble.member.num_rounds = 20;
  config.local.ensemble.member.max_depth = 3;
  config.cache.capacity = 24;
  config.pool.capacity = 48;
  config.min_train_size = 20;
  config.retrain_interval = 60;
  return config;
}

// A predictor stack of `shards` cache shards; driven single-threaded, its
// Observe retrains inline.
fleet_serve::TenantStackConfig StackConfig(size_t shards) {
  return {.predictor = FastStage(), .cache_shards = shards};
}

fleet::InstanceTrace MakeTrace(int num_queries, uint64_t seed = 2024) {
  fleet::FleetConfig config;
  config.num_instances = 1;
  config.workload.num_queries = num_queries;
  config.seed = seed;
  fleet::FleetGenerator generator(config);
  return generator.MakeInstanceTrace(0);
}

std::vector<core::QueryContext> MakeContexts(
    const fleet::InstanceTrace& instance) {
  std::vector<core::QueryContext> contexts;
  contexts.reserve(instance.trace.size());
  for (const fleet::QueryEvent& event : instance.trace) {
    contexts.push_back(core::MakeQueryContext(
        event.plan, event.concurrent_queries,
        static_cast<uint64_t>(event.arrival_ms)));
  }
  return contexts;
}

using testing_util::TempPath;

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

bool FileExists(const std::string& path) {
  return std::ifstream(path, std::ios::binary).good();
}

plan::PlanFeatures MakeFeatures(float seed) {
  plan::PlanFeatures features{};
  for (int i = 0; i < plan::kPlanFeatureDim; ++i) {
    features[i] = seed + static_cast<float>(i) * 0.01f;
  }
  return features;
}

local::TrainingPool MakeFilledPool(size_t capacity = 48) {
  local::TrainingPoolConfig config;
  config.capacity = capacity;
  local::TrainingPool pool(config);
  Rng rng(7);
  for (int i = 0; i < 120; ++i) {
    pool.Add(MakeFeatures(static_cast<float>(rng.NextDouble() * 3)),
             rng.NextLogNormal(0.5, 0.8));
  }
  return pool;
}

local::LocalModel MakeTrainedModel() {
  local::LocalModelConfig config;
  config.ensemble.num_members = 2;
  config.ensemble.member.num_rounds = 20;
  config.ensemble.member.max_depth = 3;
  config.include_mae_member = true;
  local::LocalModel model(config);
  model.Train(MakeFilledPool(160));
  return model;
}

// ---------------------------------------------------------------------------
// Kind registry (snapshot_file.h): the single name<->kind vocabulary shared
// by the ckpt envelope and the fleet snapshot format.

TEST(SnapshotKindRegistryTest, NamesAreDistinctAndRoundTrip) {
  std::set<std::string_view> names;
  for (const SnapshotKind kind : kAllSnapshotKinds) {
    const std::string_view name = SnapshotKindName(kind);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "unknown");
    EXPECT_TRUE(names.insert(name).second) << "duplicate name: " << name;
    const auto restored = SnapshotKindFromName(name);
    ASSERT_TRUE(restored.has_value()) << name;
    EXPECT_EQ(*restored, kind) << name;
  }
  EXPECT_EQ(names.size(), kAllSnapshotKinds.size());
  EXPECT_FALSE(SnapshotKindFromName("no-such-kind").has_value());
  EXPECT_FALSE(SnapshotKindFromName("").has_value());
  EXPECT_FALSE(SnapshotKindFromName("unknown").has_value());
}

// ---------------------------------------------------------------------------
// Envelope (snapshot_file.h).

TEST(SnapshotStreamTest, RoundTripsPayload) {
  const std::string payload = "the quick brown snapshot payload";
  std::stringstream buffer;
  WriteSnapshotStream(buffer, SnapshotKind::kTrainingPool, payload);

  std::string restored;
  std::string error;
  ASSERT_TRUE(ReadSnapshotStream(buffer, SnapshotKind::kTrainingPool,
                                 &restored, &error))
      << error;
  EXPECT_EQ(restored, payload);
}

TEST(SnapshotStreamTest, RejectsKindMismatch) {
  std::stringstream buffer;
  WriteSnapshotStream(buffer, SnapshotKind::kTrainingPool, "payload");
  std::string restored;
  std::string error;
  EXPECT_FALSE(ReadSnapshotStream(buffer, SnapshotKind::kLocalModel,
                                  &restored, &error));
  EXPECT_FALSE(error.empty());
}

TEST(SnapshotStreamTest, RejectsBadMagic) {
  std::stringstream buffer;
  WriteSnapshotStream(buffer, SnapshotKind::kExecTimeCache, "payload");
  std::string bytes = buffer.str();
  bytes[0] ^= 0xFF;
  std::istringstream corrupted(bytes);
  std::string restored;
  EXPECT_FALSE(ReadSnapshotStream(corrupted, SnapshotKind::kExecTimeCache,
                                  &restored));
}

// Regression pin for the refactor that moved the envelope onto the shared
// frame vocabulary (stage/common/framing.h): the on-disk bytes of every
// existing snapshot must stay EXACTLY as they were — u32 magic "SSNP", u32
// version 1, u32 kind, u64 payload size, u32 payload CRC32, payload, all
// little-endian. If this test fails, every snapshot in the wild is
// unreadable; fix the code, not the test.
TEST(SnapshotStreamTest, EnvelopeBytesArePinnedToTheSharedFrameLayout) {
  const std::string payload = "pinned-envelope-payload";
  std::stringstream buffer;
  WriteSnapshotStream(buffer, SnapshotKind::kLocalModel, payload);
  const std::string bytes = buffer.str();

  std::string expected;
  const auto append_u32 = [&expected](uint32_t value) {
    expected.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  append_u32(0x53534e50u);  // "SSNP".
  append_u32(1u);           // Envelope version.
  append_u32(static_cast<uint32_t>(SnapshotKind::kLocalModel));
  const auto size64 = static_cast<uint64_t>(payload.size());
  expected.append(reinterpret_cast<const char*>(&size64), sizeof(size64));
  append_u32(Crc32(payload));
  expected += payload;

  ASSERT_EQ(bytes.size(), expected.size());
  EXPECT_EQ(bytes, expected);

  // And the pinned bytes still read back through the public API.
  std::istringstream in(expected);
  std::string restored;
  std::string error;
  ASSERT_TRUE(ReadSnapshotStream(in, SnapshotKind::kLocalModel,
                                 &restored, &error))
      << error;
  EXPECT_EQ(restored, payload);
}

TEST(SnapshotFileTest, PublishesAtomicallyAndRemovesTmp) {
  const std::string path = TempPath("publish.snap");
  std::string error;
  ASSERT_TRUE(
      WriteSnapshotFile(path, SnapshotKind::kTrainingPool, "v1", &error))
      << error;
  EXPECT_FALSE(FileExists(path + ".tmp"));

  std::string payload;
  ASSERT_TRUE(
      ReadSnapshotFile(path, SnapshotKind::kTrainingPool, &payload, &error))
      << error;
  EXPECT_EQ(payload, "v1");
  std::remove(path.c_str());
}

// Crash-safety acceptance bar: a writer killed mid-write leaves at most a
// garbage *.tmp; the previously published snapshot must stay loadable, and
// the next successful write must replace the stale tmp cleanly.
TEST(SnapshotFileTest, StaleTmpNeverCorruptsPublishedSnapshot) {
  const std::string path = TempPath("torn.snap");
  ASSERT_TRUE(WriteSnapshotFile(path, SnapshotKind::kTrainingPool, "good"));

  // Simulated torn writer: a truncated envelope at the tmp path.
  std::stringstream torn;
  WriteSnapshotStream(torn, SnapshotKind::kTrainingPool, "interrupted");
  WriteFileBytes(path + ".tmp", torn.str().substr(0, 9));

  std::string payload;
  ASSERT_TRUE(
      ReadSnapshotFile(path, SnapshotKind::kTrainingPool, &payload));
  EXPECT_EQ(payload, "good");

  ASSERT_TRUE(WriteSnapshotFile(path, SnapshotKind::kTrainingPool, "newer"));
  ASSERT_TRUE(
      ReadSnapshotFile(path, SnapshotKind::kTrainingPool, &payload));
  EXPECT_EQ(payload, "newer");
  EXPECT_FALSE(FileExists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(SnapshotFileTest, TruncatedPublishedFileFailsCleanly) {
  const std::string path = TempPath("truncated.snap");
  ASSERT_TRUE(WriteSnapshotFile(path, SnapshotKind::kLocalModel,
                                "a payload long enough to cut"));
  std::stringstream full;
  WriteSnapshotStream(full, SnapshotKind::kLocalModel,
                      "a payload long enough to cut");
  WriteFileBytes(path, full.str().substr(0, full.str().size() / 2));

  std::string payload;
  std::string error;
  EXPECT_FALSE(
      ReadSnapshotFile(path, SnapshotKind::kLocalModel, &payload, &error));
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

TEST(SnapshotFileTest, MissingFileFails) {
  std::string payload;
  std::string error;
  EXPECT_FALSE(ReadSnapshotFile(TempPath("does_not_exist.snap"),
                                SnapshotKind::kLocalModel, &payload, &error));
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// Component round trips.

TEST(LocalModelSnapshotTest, FileRoundTripIsBitForBit) {
  const local::LocalModel original = MakeTrainedModel();
  const std::string path = TempPath("local_model.snap");
  std::string error;
  ASSERT_TRUE(SaveLocalModelSnapshot(original, path, &error)) << error;

  local::LocalModel restored{local::LocalModelConfig{}};
  ASSERT_TRUE(LoadLocalModelSnapshot(&restored, path, &error)) << error;
  ASSERT_TRUE(restored.trained());

  Rng rng(11);
  for (int i = 0; i < 20; ++i) {
    const auto features = MakeFeatures(static_cast<float>(rng.NextDouble()));
    const auto a = original.Predict(features);
    const auto b = restored.Predict(features);
    EXPECT_DOUBLE_EQ(a.exec_seconds, b.exec_seconds);
    EXPECT_DOUBLE_EQ(a.total_variance(), b.total_variance());
  }
  std::remove(path.c_str());
}

TEST(ExecTimeCacheCheckpointTest, RestoredCacheContinuesBitForBit) {
  cache::ExecTimeCacheConfig config;
  config.capacity = 8;  // Small, to exercise eviction across the restore.
  cache::ExecTimeCache original(config);
  Rng rng(3);
  for (uint64_t tick = 0; tick < 40; ++tick) {
    original.Observe(rng.NextBelow(13), rng.NextDouble() * 10, tick);
  }

  std::stringstream buffer;
  original.Save(buffer);
  cache::ExecTimeCache restored(config);
  ASSERT_TRUE(restored.Load(buffer));
  EXPECT_EQ(restored.size(), original.size());

  // Continue the identical observation stream on both: predictions and
  // eviction decisions must stay in lockstep.
  Rng continue_a(5);
  Rng continue_b(5);
  for (uint64_t tick = 40; tick < 120; ++tick) {
    const uint64_t key_a = continue_a.NextBelow(13);
    const uint64_t key_b = continue_b.NextBelow(13);
    ASSERT_EQ(key_a, key_b);
    const auto a = original.Predict(key_a);
    const auto b = restored.Predict(key_b);
    ASSERT_EQ(a.has_value(), b.has_value()) << tick;
    if (a) {
      EXPECT_DOUBLE_EQ(*a, *b) << tick;
    }
    const double exec = continue_a.NextDouble() * 10;
    continue_b.NextDouble();
    original.Observe(key_a, exec, tick);
    restored.Observe(key_b, exec, tick);
  }
  EXPECT_EQ(restored.size(), original.size());
}

TEST(ExecTimeCacheCheckpointTest, MedianModeRoundTrips) {
  cache::ExecTimeCacheConfig config;
  config.capacity = 8;
  config.prediction_mode = cache::CachePredictionMode::kMedian;
  cache::ExecTimeCache original(config);
  Rng rng(9);
  for (uint64_t tick = 0; tick < 60; ++tick) {
    original.Observe(rng.NextBelow(6), rng.NextLogNormal(0.0, 1.0), tick);
  }
  std::stringstream buffer;
  original.Save(buffer);
  cache::ExecTimeCache restored(config);
  ASSERT_TRUE(restored.Load(buffer));
  for (uint64_t key = 0; key < 6; ++key) {
    const auto a = original.Predict(key);
    const auto b = restored.Predict(key);
    ASSERT_EQ(a.has_value(), b.has_value()) << key;
    if (a) {
      EXPECT_DOUBLE_EQ(*a, *b) << key;
    }
  }
}

TEST(ExecTimeCacheCheckpointTest, LoadRejectsOverCapacitySnapshot) {
  cache::ExecTimeCacheConfig big;
  big.capacity = 16;
  cache::ExecTimeCache original(big);
  for (uint64_t key = 0; key < 16; ++key) original.Observe(key, 1.0, key);
  std::stringstream buffer;
  original.Save(buffer);

  cache::ExecTimeCacheConfig small;
  small.capacity = 8;
  cache::ExecTimeCache restored(small);
  EXPECT_FALSE(restored.Load(buffer));
  EXPECT_EQ(restored.size(), 0u);  // Failed Load leaves the cache untouched.
}

TEST(TrainingPoolCheckpointTest, RestoredPoolBuildsIdenticalDataset) {
  const local::TrainingPool original = MakeFilledPool();
  std::stringstream buffer;
  original.Save(buffer);

  local::TrainingPoolConfig config;
  config.capacity = 48;
  local::TrainingPool restored(config);
  ASSERT_TRUE(restored.Load(buffer));
  EXPECT_EQ(restored.size(), original.size());
  EXPECT_EQ(restored.total_added(), original.total_added());

  const gbt::Dataset a = original.BuildDataset();
  const gbt::Dataset b = restored.BuildDataset();
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    EXPECT_DOUBLE_EQ(a.label(r), b.label(r)) << r;
  }
}

TEST(TrainingPoolCheckpointTest, RestoredPoolContinuesEvictionOrder) {
  local::TrainingPool original = MakeFilledPool();
  std::stringstream buffer;
  original.Save(buffer);
  local::TrainingPoolConfig config;
  config.capacity = 48;
  local::TrainingPool restored(config);
  ASSERT_TRUE(restored.Load(buffer));

  // The same post-restore additions must evict the same oldest examples.
  Rng rng(17);
  for (int i = 0; i < 80; ++i) {
    const auto features = MakeFeatures(static_cast<float>(rng.NextDouble()));
    const double exec = rng.NextLogNormal(0.5, 0.8);
    original.Add(features, exec);
    restored.Add(features, exec);
  }
  const gbt::Dataset a = original.BuildDataset();
  const gbt::Dataset b = restored.BuildDataset();
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    EXPECT_DOUBLE_EQ(a.label(r), b.label(r)) << r;
  }
}

TEST(ShardedCacheCheckpointTest, RoundTripsAcrossShards) {
  cache::ShardedExecTimeCacheConfig config;
  config.cache.capacity = 30;
  config.num_shards = 3;
  cache::ShardedExecTimeCache original(config);
  Rng rng(21);
  for (uint64_t tick = 0; tick < 200; ++tick) {
    original.Observe(rng.NextBelow(50), rng.NextDouble() * 20, tick);
  }

  std::stringstream buffer;
  original.Save(buffer);
  cache::ShardedExecTimeCache restored(config);
  ASSERT_TRUE(restored.Load(buffer));
  EXPECT_EQ(restored.size(), original.size());
  for (uint64_t key = 0; key < 50; ++key) {
    const auto a = original.Predict(key);
    const auto b = restored.Predict(key);
    ASSERT_EQ(a.has_value(), b.has_value()) << key;
    if (a) {
      EXPECT_DOUBLE_EQ(*a, *b) << key;
    }
  }
}

TEST(ShardedCacheCheckpointTest, LoadRejectsShardCountMismatch) {
  cache::ShardedExecTimeCacheConfig two;
  two.cache.capacity = 30;
  two.num_shards = 2;
  cache::ShardedExecTimeCache original(two);
  for (uint64_t key = 0; key < 10; ++key) original.Observe(key, 1.0, key);
  std::stringstream buffer;
  original.Save(buffer);

  cache::ShardedExecTimeCacheConfig three = two;
  three.num_shards = 3;
  cache::ShardedExecTimeCache restored(three);
  EXPECT_FALSE(restored.Load(buffer));
  EXPECT_EQ(restored.size(), 0u);
}

// ---------------------------------------------------------------------------
// Warm-restart equivalence (the acceptance bar): snapshot mid-replay,
// restore into a fresh object, and the remainder of the replay must produce
// bit-for-bit identical predictions and routing decisions.

TEST(StagePredictorCheckpointTest, WarmRestartContinuesReplayBitForBit) {
  const fleet::InstanceTrace instance = MakeTrace(400);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);
  const size_t cut = contexts.size() / 2;

  // Reference: one predictor replays everything, recording the tail. One
  // cache shard: the shape every single-threaded replay uses.
  fleet_serve::TenantStack reference(StackConfig(1),
                                     {.instance = &instance.config});
  std::vector<core::Prediction> expected;
  for (size_t i = 0; i < contexts.size(); ++i) {
    const core::Prediction p = reference.Predict(contexts[i]);
    if (i >= cut) expected.push_back(p);
    reference.Observe(contexts[i], instance.trace[i].exec_seconds);
  }

  // Subject: replay the prefix, snapshot, restore into a fresh predictor,
  // replay the tail there.
  fleet_serve::TenantStack prefix(StackConfig(1),
                                  {.instance = &instance.config});
  for (size_t i = 0; i < cut; ++i) {
    prefix.Predict(contexts[i]);
    prefix.Observe(contexts[i], instance.trace[i].exec_seconds);
  }
  std::stringstream buffer;
  ASSERT_TRUE(prefix.SaveState(buffer));
  fleet_serve::TenantStack resumed(StackConfig(1),
                                   {.instance = &instance.config});
  ASSERT_TRUE(resumed.LoadState(buffer));

  for (size_t i = cut; i < contexts.size(); ++i) {
    const core::Prediction got = resumed.Predict(contexts[i]);
    const core::Prediction& want = expected[i - cut];
    EXPECT_EQ(want.source, got.source) << i;
    EXPECT_DOUBLE_EQ(want.seconds, got.seconds) << i;
    EXPECT_DOUBLE_EQ(want.uncertainty_log_std, got.uncertainty_log_std) << i;
    resumed.Observe(contexts[i], instance.trace[i].exec_seconds);
  }
  EXPECT_EQ(resumed.exec_time_cache().size(),
            reference.exec_time_cache().size());
}

TEST(ServiceCheckpointTest, WarmRestartContinuesReplayBitForBit) {
  const fleet::InstanceTrace instance = MakeTrace(400);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);
  const size_t cut = contexts.size() / 2;

  fleet_serve::TenantStack reference(StackConfig(2),
                                     {.instance = &instance.config});
  std::vector<core::Prediction> expected;
  for (size_t i = 0; i < contexts.size(); ++i) {
    const core::Prediction p = reference.Predict(contexts[i]);
    if (i >= cut) expected.push_back(p);
    reference.Observe(contexts[i], instance.trace[i].exec_seconds);
  }

  fleet_serve::TenantStack prefix(StackConfig(2),
                                  {.instance = &instance.config});
  for (size_t i = 0; i < cut; ++i) {
    prefix.Predict(contexts[i]);
    prefix.Observe(contexts[i], instance.trace[i].exec_seconds);
  }
  std::stringstream buffer;
  ASSERT_TRUE(prefix.SaveState(buffer));
  fleet_serve::TenantStack resumed(StackConfig(2),
                                   {.instance = &instance.config});
  ASSERT_TRUE(resumed.LoadState(buffer));

  for (size_t i = cut; i < contexts.size(); ++i) {
    const core::Prediction got = resumed.Predict(contexts[i]);
    const core::Prediction& want = expected[i - cut];
    EXPECT_EQ(want.source, got.source) << i;
    EXPECT_DOUBLE_EQ(want.seconds, got.seconds) << i;
    EXPECT_DOUBLE_EQ(want.uncertainty_log_std, got.uncertainty_log_std) << i;
    resumed.Observe(contexts[i], instance.trace[i].exec_seconds);
  }
  // The retrain cadence was restored too: both stacks end the replay with
  // the same number of completed trainings and cache population.
  EXPECT_EQ(resumed.trainings(), reference.trainings());
  EXPECT_EQ(resumed.exec_time_cache().size(),
            reference.exec_time_cache().size());
}

TEST(ServiceCheckpointTest, FileHelpersRoundTrip) {
  const fleet::InstanceTrace instance = MakeTrace(200);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);
  fleet_serve::TenantStack original(StackConfig(2),
                                    {.instance = &instance.config});
  for (size_t i = 0; i < contexts.size(); ++i) {
    original.Observe(contexts[i], instance.trace[i].exec_seconds);
  }

  const std::string path = TempPath("service.snap");
  std::string error;
  ASSERT_TRUE(SaveServiceSnapshot(original, path, &error)) << error;
  fleet_serve::TenantStack restored(StackConfig(2),
                                    {.instance = &instance.config});
  ASSERT_TRUE(LoadServiceSnapshot(&restored, path, &error)) << error;

  for (const core::QueryContext& context : contexts) {
    const core::Prediction a = original.Predict(context);
    const core::Prediction b = restored.Predict(context);
    EXPECT_EQ(a.source, b.source);
    EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
  }
  std::remove(path.c_str());
}

TEST(ServiceCheckpointTest, LoadRejectsShardCountMismatch) {
  const fleet::InstanceTrace instance = MakeTrace(100);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);
  fleet_serve::TenantStack original(StackConfig(2),
                                    {.instance = &instance.config});
  for (size_t i = 0; i < contexts.size(); ++i) {
    original.Observe(contexts[i], instance.trace[i].exec_seconds);
  }
  std::stringstream buffer;
  ASSERT_TRUE(original.SaveState(buffer));

  fleet_serve::TenantStack mismatched(StackConfig(3),
                                      {.instance = &instance.config});
  EXPECT_FALSE(mismatched.LoadState(buffer));
}

// Kind 4 named the retired "SPRD" stream and is never reused: an envelope
// of that kind — even around a valid SSRV payload — is a kind mismatch for
// LoadServiceSnapshot, which reports it and leaves the target untouched.
TEST(ServiceCheckpointTest, RetiredKindFourEnvelopeIsRejected) {
  const fleet::InstanceTrace instance = MakeTrace(200);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);
  fleet_serve::TenantStack original(StackConfig(2),
                                    {.instance = &instance.config});
  for (size_t i = 0; i < contexts.size(); ++i) {
    original.Observe(contexts[i], instance.trace[i].exec_seconds);
  }
  std::ostringstream payload;
  ASSERT_TRUE(original.SaveState(payload));
  const std::string path = TempPath("kind4.snap");
  ASSERT_TRUE(WriteSnapshotFile(path, static_cast<SnapshotKind>(4),
                                payload.str()));

  fleet_serve::TenantStack target(StackConfig(2),
                                  {.instance = &instance.config});
  std::string error;
  EXPECT_FALSE(LoadServiceSnapshot(&target, path, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(target.exec_time_cache().size(), 0u);
  EXPECT_EQ(target.pool_size(), 0u);
  EXPECT_EQ(target.local_model_snapshot(), nullptr);
  fleet_serve::TenantStack fresh(StackConfig(2),
                                 {.instance = &instance.config});
  for (const core::QueryContext& context : contexts) {
    const core::Prediction a = target.Predict(context);
    const core::Prediction b = fresh.Predict(context);
    EXPECT_EQ(a.source, b.source);
    EXPECT_EQ(a.seconds, b.seconds);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Periodic background checkpointer.

TEST(PeriodicCheckpointerTest, WritesPeriodicallyAndSnapshotRestores) {
  const fleet::InstanceTrace instance = MakeTrace(150);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);
  fleet_serve::TenantStack stack(StackConfig(2),
                                 {.instance = &instance.config});
  for (size_t i = 0; i < contexts.size(); ++i) {
    stack.Observe(contexts[i], instance.trace[i].exec_seconds);
  }

  const std::string path = TempPath("periodic.snap");
  obs::MetricsRegistry registry;
  PeriodicCheckpointer::Options options;
  options.path = path;
  options.interval = std::chrono::milliseconds(5);
  options.checkpoint_on_start = true;
  options.metrics = &registry;
  PeriodicCheckpointer checkpointer(stack, options);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (checkpointer.completed() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  checkpointer.Stop();
  ASSERT_GE(checkpointer.completed(), 3u);
  EXPECT_EQ(checkpointer.failed(), 0u);
  EXPECT_TRUE(checkpointer.last_error().empty());
  // The checkpointer's families render under the fixed stage_ckpt_ prefix.
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("\nstage_ckpt_snapshots_total{result=\"ok\"} "),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\nstage_ckpt_bytes_written_total "), std::string::npos)
      << text;

  fleet_serve::TenantStack restored(StackConfig(2),
                                    {.instance = &instance.config});
  std::string error;
  ASSERT_TRUE(LoadServiceSnapshot(&restored, path, &error)) << error;
  for (const core::QueryContext& context : contexts) {
    const core::Prediction a = stack.Predict(context);
    const core::Prediction b = restored.Predict(context);
    EXPECT_EQ(a.source, b.source);
    EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
  }
  std::remove(path.c_str());
}

TEST(PeriodicCheckpointerTest, ReportsFailures) {
  const fleet::InstanceTrace instance = MakeTrace(50);
  fleet_serve::TenantStack stack(StackConfig(1),
                                 {.instance = &instance.config});

  PeriodicCheckpointer::Options options;
  options.path = TempPath("no_such_dir/") + "unwritable.snap";
  options.interval = std::chrono::hours(1);  // Only TriggerNow fires.
  PeriodicCheckpointer checkpointer(stack, options);
  std::string error;
  EXPECT_FALSE(checkpointer.TriggerNow(&error));
  EXPECT_FALSE(error.empty());
  checkpointer.Stop();
  EXPECT_GE(checkpointer.failed(), 1u);
  EXPECT_FALSE(checkpointer.last_error().empty());
  EXPECT_EQ(checkpointer.completed(), 0u);
}

// ---------------------------------------------------------------------------
// Corruption fault-injection suite. tools/check.sh runs these standalone
// under AddressSanitizer (--gtest_filter='CorruptionSuite*'): every
// truncation and every bit flip must make the load return false without
// crashing, without unbounded allocation, and without leaving a usable
// (trained) object behind.

struct KindFile {
  SnapshotKind kind;
  std::string bytes;  // The full published envelope file image.
};

std::string EnvelopeBytes(SnapshotKind kind, const std::string& payload) {
  std::stringstream buffer;
  WriteSnapshotStream(buffer, kind, payload);
  return buffer.str();
}

// One canonical published snapshot file per SnapshotKind, built from real
// (small) trained state so corrupted loads exercise every payload parser.
std::vector<KindFile> AllKindFiles() {
  std::vector<KindFile> files;

  {
    std::stringstream payload;
    MakeTrainedModel().Save(payload);
    files.push_back({SnapshotKind::kLocalModel,
                     EnvelopeBytes(SnapshotKind::kLocalModel, payload.str())});
  }
  {
    cache::ExecTimeCacheConfig config;
    config.capacity = 24;
    cache::ExecTimeCache cache(config);
    Rng rng(31);
    for (uint64_t tick = 0; tick < 100; ++tick) {
      cache.Observe(rng.NextBelow(40), rng.NextDouble() * 30, tick);
    }
    std::stringstream payload;
    cache.Save(payload);
    files.push_back(
        {SnapshotKind::kExecTimeCache,
         EnvelopeBytes(SnapshotKind::kExecTimeCache, payload.str())});
  }
  {
    std::stringstream payload;
    MakeFilledPool().Save(payload);
    files.push_back(
        {SnapshotKind::kTrainingPool,
         EnvelopeBytes(SnapshotKind::kTrainingPool, payload.str())});
  }

  const fleet::InstanceTrace instance = MakeTrace(160);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);
  {
    fleet_serve::TenantStack stack(StackConfig(2),
                                   {.instance = &instance.config});
    for (size_t i = 0; i < contexts.size(); ++i) {
      stack.Observe(contexts[i], instance.trace[i].exec_seconds);
    }
    std::stringstream payload;
    EXPECT_TRUE(stack.SaveState(payload));
    files.push_back(
        {SnapshotKind::kPredictionService,
         EnvelopeBytes(SnapshotKind::kPredictionService, payload.str())});
  }
  return files;
}

// Attempts a full file-level load of `bytes` as `kind`. On failure, also
// asserts the target object was left unusable/untouched (never a trained
// model, never a populated cache).
bool TryLoadKind(SnapshotKind kind, const std::string& bytes,
                 const std::string& path) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  switch (kind) {
    case SnapshotKind::kLocalModel: {
      local::LocalModel model{local::LocalModelConfig{}};
      const bool ok = LoadLocalModelSnapshot(&model, path);
      if (!ok) {
        EXPECT_FALSE(model.trained());
      }
      return ok;
    }
    case SnapshotKind::kExecTimeCache: {
      std::string payload;
      if (!ReadSnapshotFile(path, kind, &payload)) return false;
      cache::ExecTimeCacheConfig config;
      config.capacity = 24;
      cache::ExecTimeCache cache(config);
      std::istringstream in(payload);
      const bool ok = cache.Load(in);
      if (!ok) {
        EXPECT_EQ(cache.size(), 0u);
      }
      return ok;
    }
    case SnapshotKind::kTrainingPool: {
      std::string payload;
      if (!ReadSnapshotFile(path, kind, &payload)) return false;
      local::TrainingPoolConfig config;
      config.capacity = 48;
      local::TrainingPool pool(config);
      std::istringstream in(payload);
      const bool ok = pool.Load(in);
      if (!ok) {
        EXPECT_EQ(pool.size(), 0u);
      }
      return ok;
    }
    case SnapshotKind::kPredictionService: {
      fleet_serve::TenantStack stack(StackConfig(2));
      return LoadServiceSnapshot(&stack, path);
    }
    case SnapshotKind::kFleetService:
      // Fleet snapshots use the indexed SFLT layout (stage/fleet_serve),
      // not the stream envelope; their corruption suite lives in
      // fleet_serve_test. The kind never appears in AllKindFiles.
      return false;
  }
  return false;
}

TEST(CorruptionSuite, SanityUncorruptedFilesLoad) {
  const std::string path = TempPath("corruption_sanity.snap");
  for (const KindFile& file : AllKindFiles()) {
    EXPECT_TRUE(TryLoadKind(file.kind, file.bytes, path))
        << SnapshotKindName(file.kind);
  }
  std::remove(path.c_str());
}

TEST(CorruptionSuite, TruncationAtEveryBoundaryFailsCleanly) {
  const std::string path = TempPath("corruption_truncate.snap");
  for (const KindFile& file : AllKindFiles()) {
    for (size_t cut = 0; cut < file.bytes.size(); cut += 64) {
      EXPECT_FALSE(TryLoadKind(file.kind, file.bytes.substr(0, cut), path))
          << SnapshotKindName(file.kind) << " truncated at " << cut;
    }
    // And the worst case: one byte short of complete.
    EXPECT_FALSE(TryLoadKind(
        file.kind, file.bytes.substr(0, file.bytes.size() - 1), path))
        << SnapshotKindName(file.kind);
  }
  std::remove(path.c_str());
}

TEST(CorruptionSuite, RandomByteFlipsFailCleanly) {
  const std::string path = TempPath("corruption_flip.snap");
  for (const KindFile& file : AllKindFiles()) {
    Rng rng(1000 + static_cast<uint64_t>(file.kind));
    for (int trial = 0; trial < 64; ++trial) {
      std::string corrupted = file.bytes;
      const size_t offset = rng.NextBelow(corrupted.size());
      // XOR with a nonzero mask always changes the byte; the envelope CRC
      // must catch every payload flip, the header checks every other one.
      corrupted[offset] =
          static_cast<char>(corrupted[offset] ^ (1 + rng.NextBelow(255)));
      EXPECT_FALSE(TryLoadKind(file.kind, corrupted, path))
          << SnapshotKindName(file.kind) << " flipped byte " << offset;
    }
  }
  std::remove(path.c_str());
}

// Raw (un-enveloped) streams reach component Load()s through
// kPredictionService payloads, so those parsers must also
// survive truncation on their own: no crash, no giant allocation from a
// half-read size field, and never a trained model.
TEST(CorruptionSuite, TruncatedRawLocalModelStreamNeverYieldsTrainedModel) {
  std::stringstream buffer;
  MakeTrainedModel().Save(buffer);
  const std::string bytes = buffer.str();
  for (size_t cut = 0; cut < bytes.size(); cut += 64) {
    local::LocalModel model{local::LocalModelConfig{}};
    std::istringstream in(bytes.substr(0, cut));
    EXPECT_FALSE(model.Load(in)) << "truncated at " << cut;
    EXPECT_FALSE(model.trained()) << "truncated at " << cut;
  }
}

TEST(CorruptionSuite, TruncatedRawCacheAndPoolStreamsFailCleanly) {
  cache::ExecTimeCacheConfig cache_config;
  cache_config.capacity = 24;
  cache::ExecTimeCache cache(cache_config);
  Rng rng(41);
  for (uint64_t tick = 0; tick < 80; ++tick) {
    cache.Observe(rng.NextBelow(30), rng.NextDouble() * 5, tick);
  }
  std::stringstream cache_buffer;
  cache.Save(cache_buffer);
  const std::string cache_bytes = cache_buffer.str();
  for (size_t cut = 0; cut < cache_bytes.size(); cut += 64) {
    cache::ExecTimeCache target(cache_config);
    std::istringstream in(cache_bytes.substr(0, cut));
    EXPECT_FALSE(target.Load(in)) << "cache truncated at " << cut;
    EXPECT_EQ(target.size(), 0u);
  }

  std::stringstream pool_buffer;
  MakeFilledPool().Save(pool_buffer);
  const std::string pool_bytes = pool_buffer.str();
  local::TrainingPoolConfig pool_config;
  pool_config.capacity = 48;
  for (size_t cut = 0; cut < pool_bytes.size(); cut += 64) {
    local::TrainingPool target(pool_config);
    std::istringstream in(pool_bytes.substr(0, cut));
    EXPECT_FALSE(target.Load(in)) << "pool truncated at " << cut;
    EXPECT_EQ(target.size(), 0u);
  }
}

}  // namespace
}  // namespace stage::ckpt
