// Tests for the stage::fleet_serve registry: single-tenant equivalence
// with a bare TenantStack, eviction/cold-activation round-trips (bit-for-bit
// predictions AND attribution counters), LRU order under a byte budget, the
// indexed fleet snapshot format, and the tenant-churn concurrency stress
// test (run under STAGE_SANITIZE=thread to prove the synchronization).
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "stage/core/replay.h"
#include "stage/fleet/fleet.h"
#include "stage/fleet_serve/fleet_service.h"
#include "stage/fleet_serve/fleet_snapshot.h"
#include "stage/fleet_serve/tenant_stack.h"
#include "stage/obs/metrics.h"
#include "stage/obs/trace.h"
#include "test_temp_dir.h"

namespace stage::fleet_serve {
namespace {

core::StagePredictorConfig FastStage() {
  core::StagePredictorConfig config;
  config.local.ensemble.num_members = 4;
  config.local.ensemble.member.num_rounds = 40;
  config.min_train_size = 20;
  config.retrain_interval = 100;
  return config;
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

// Deterministic fleet config: inline retrains, one cache shard.
FleetServiceConfig DeterministicFleet() {
  FleetServiceConfig config;
  config.stack.predictor = FastStage();
  config.stack.cache_shards = 1;
  config.async_retrain = false;
  return config;
}

using testing_util::TempPath;

TEST(FleetServiceConfigTest, ValidateRejectsNonsense) {
  FleetServiceConfig config;
  EXPECT_TRUE(config.Validate().empty());

  config.max_concurrent_trainings = 0;
  EXPECT_FALSE(config.Validate().empty());
  config.async_retrain = false;  // Cap only matters for the worker pool.
  EXPECT_TRUE(config.Validate().empty());
  config.async_retrain = true;
  config.max_concurrent_trainings = 2;

  config.stack.cache_shards = 0;
  EXPECT_FALSE(config.Validate().empty());
  config.stack.cache_shards = 8;

  config.stack.predictor.retrain_interval = 0;
  EXPECT_FALSE(config.Validate().empty());
}

// A replay through FleetService under one tenant (sync retrain: the fleet
// calls the stack's deferred-retrain Observe and trains inline) is
// bit-for-bit the replay through a bare stack whose own Observe retrains.
TEST(FleetServiceTest, SingleTenantReplayMatchesBareStack) {
  const fleet::InstanceTrace instance = MakeTrace(800);

  TenantStack service(DeterministicFleet().stack,
                      {.instance = &instance.config});

  FleetService fleet(DeterministicFleet());
  constexpr TenantId kTenant = 42;
  fleet.RegisterTenant(kTenant, {.instance = &instance.config});

  const core::ReplayResult expected =
      core::ReplayTrace(instance.trace, service);
  for (size_t i = 0; i < instance.trace.size(); ++i) {
    const auto context = core::MakeQueryContext(
        instance.trace[i].plan, instance.trace[i].concurrent_queries,
        static_cast<uint64_t>(instance.trace[i].arrival_ms));
    const core::Prediction got = fleet.Predict(kTenant, context);
    EXPECT_EQ(expected.records[i].source, got.source) << i;
    EXPECT_DOUBLE_EQ(expected.records[i].predicted_seconds, got.seconds) << i;
    fleet.Observe(kTenant, context, instance.trace[i].exec_seconds);
  }
  for (int s = 0; s < core::kNumPredictionSources; ++s) {
    const auto source = static_cast<core::PredictionSource>(s);
    EXPECT_EQ(service.predictions_from(source),
              fleet.SourceCounts(kTenant)[static_cast<size_t>(s)])
        << core::PredictionSourceName(source);
  }
}

// The eviction-correctness bar: a tenant evicted mid-replay and
// cold-activated from its parked snapshot must finish the replay with
// bit-for-bit identical predictions AND attribution counters to a tenant
// that was never evicted.
TEST(FleetServiceTest, EvictColdActivateIsBitForBit) {
  const fleet::InstanceTrace instance = MakeTrace(900);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);

  FleetService control(DeterministicFleet());
  FleetService churned(DeterministicFleet());
  constexpr TenantId kTenant = 7;
  control.RegisterTenant(kTenant, {.instance = &instance.config});
  churned.RegisterTenant(kTenant, {.instance = &instance.config});

  const size_t half = contexts.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    control.Predict(kTenant, contexts[i]);
    control.Observe(kTenant, contexts[i], instance.trace[i].exec_seconds);
    churned.Predict(kTenant, contexts[i]);
    churned.Observe(kTenant, contexts[i], instance.trace[i].exec_seconds);
  }

  // Park the churned tenant; the control fleet stays warm throughout.
  std::string error;
  ASSERT_TRUE(churned.EvictTenant(kTenant, &error)) << error;
  EXPECT_FALSE(churned.IsWarm(kTenant));
  EXPECT_EQ(churned.evictions(), 1u);
  // Attribution counters survive the eviction (read from parked state).
  EXPECT_EQ(control.SourceCounts(kTenant), churned.SourceCounts(kTenant));

  for (size_t i = half; i < contexts.size(); ++i) {
    const core::Prediction want = control.Predict(kTenant, contexts[i]);
    bool cold = false;
    const core::Prediction got = churned.Predict(kTenant, contexts[i], &cold);
    if (i == half) {
      EXPECT_TRUE(cold);  // First touch after eviction pays the activation.
    } else {
      EXPECT_FALSE(cold);
    }
    EXPECT_EQ(want.source, got.source) << i;
    EXPECT_DOUBLE_EQ(want.seconds, got.seconds) << i;
    control.Observe(kTenant, contexts[i], instance.trace[i].exec_seconds);
    churned.Observe(kTenant, contexts[i], instance.trace[i].exec_seconds);
  }
  // One fresh activation at first touch (the control pays it too) plus the
  // parked reactivation after the eviction.
  EXPECT_EQ(control.cold_activations(), 1u);
  EXPECT_EQ(churned.cold_activations(), 2u);
  EXPECT_EQ(control.SourceCounts(kTenant), churned.SourceCounts(kTenant));
  EXPECT_EQ(control.TotalPredictions(kTenant),
            churned.TotalPredictions(kTenant));
}

// LRU-order property under a tight byte budget: after enforcement, every
// still-warm tenant was used more recently than every evicted one.
TEST(FleetServiceTest, BudgetEvictsInLruOrder) {
  FleetServiceConfig config = DeterministicFleet();
  FleetService fleet(config);

  constexpr int kTenants = 6;
  const fleet::InstanceTrace instance = MakeTrace(40);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);
  for (TenantId t = 0; t < kTenants; ++t) {
    fleet.RegisterTenant(t, {.instance = &instance.config});
  }
  // Warm every tenant with identical state (identical resident bytes).
  for (TenantId t = 0; t < kTenants; ++t) {
    for (size_t i = 0; i < contexts.size(); ++i) {
      fleet.Observe(t, contexts[i], instance.trace[i].exec_seconds);
    }
  }
  ASSERT_EQ(fleet.WarmCount(), static_cast<size_t>(kTenants));

  // Touch in a scrambled, known order; recency is now 3 < 0 < 4 < 1 < 5 < 2.
  const std::vector<TenantId> touch_order = {3, 0, 4, 1, 5, 2};
  for (const TenantId t : touch_order) fleet.Predict(t, contexts[0]);

  // Budget for roughly half the fleet: eviction must shed the least
  // recently touched tenants first.
  fleet.SetResidentBytesBudget(fleet.ResidentBytes() / 2);
  ASSERT_LT(fleet.WarmCount(), static_cast<size_t>(kTenants));
  ASSERT_GT(fleet.evictions(), 0u);

  // Property: the warm set is exactly a suffix of the touch order.
  size_t first_warm = touch_order.size();
  for (size_t i = 0; i < touch_order.size(); ++i) {
    if (fleet.IsWarm(touch_order[i])) {
      first_warm = i;
      break;
    }
  }
  for (size_t i = 0; i < touch_order.size(); ++i) {
    EXPECT_EQ(fleet.IsWarm(touch_order[i]), i >= first_warm)
        << "tenant " << touch_order[i] << " at touch position " << i;
  }

  // Raising the budget stops eviction; touching a cold tenant reactivates.
  fleet.SetResidentBytesBudget(0);
  bool cold = false;
  fleet.Predict(touch_order[0], contexts[0], &cold);
  EXPECT_TRUE(cold);
  EXPECT_TRUE(fleet.IsWarm(touch_order[0]));
}

// A pinned tenant is never evicted, explicitly or by budget pressure.
TEST(FleetServiceTest, PinnedTenantSurvivesBudgetPressure) {
  FleetService fleet(DeterministicFleet());
  const fleet::InstanceTrace instance = MakeTrace(40);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);
  fleet.RegisterTenant(0, {.instance = &instance.config});
  fleet.RegisterTenant(1, {.instance = &instance.config});
  const std::shared_ptr<TenantStack> pinned = fleet.PinTenant(0);
  for (TenantId t = 0; t < 2; ++t) {
    for (size_t i = 0; i < contexts.size(); ++i) {
      fleet.Observe(t, contexts[i], instance.trace[i].exec_seconds);
    }
  }
  std::string error;
  EXPECT_FALSE(fleet.EvictTenant(0, &error));
  EXPECT_EQ(error, "tenant is pinned");
  fleet.SetResidentBytesBudget(1);  // Absurdly tight: evict all evictable.
  EXPECT_TRUE(fleet.IsWarm(0));
  EXPECT_FALSE(fleet.IsWarm(1));
  // The pinned pointer is the live stack.
  EXPECT_GT(pinned->total_predictions() + pinned->pool_size(), 0u);
}

// Concurrency: N threads predicting/observing across disjoint tenants
// while an evictor thread churns the registry. TSan-clean, no lost
// observations or predictions, and the obs owner tags of evicted tenants
// are fully unregistered (no metric leak).
TEST(FleetServiceTest, ConcurrentDisjointTenantsWithEvictorChurn) {
  constexpr int kTenants = 4;
  constexpr int kEventsPerTenant = 400;
  const fleet::InstanceTrace instance = MakeTrace(kEventsPerTenant);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);

  obs::MetricsRegistry registry;
  FleetServiceConfig config;
  config.stack.predictor = FastStage();
  config.stack.cache_shards = 4;
  config.async_retrain = true;
  config.max_concurrent_trainings = 2;
  FleetService* fleet = new FleetService(config, {.metrics = &registry});
  const size_t fleet_only_metrics = registry.size();

  for (TenantId t = 0; t < kTenants; ++t) {
    fleet->RegisterTenant(t, {.instance = &instance.config});
  }

  std::atomic<bool> stop_evictor{false};
  std::vector<std::thread> workers;
  workers.reserve(kTenants + 1);
  for (int t = 0; t < kTenants; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kEventsPerTenant; ++i) {
        fleet->Predict(static_cast<TenantId>(t), contexts[i]);
        fleet->Observe(static_cast<TenantId>(t), contexts[i],
                       instance.trace[i].exec_seconds);
      }
    });
  }
  workers.emplace_back([&] {
    TenantId next = 0;
    while (!stop_evictor.load(std::memory_order_relaxed)) {
      // Busy tenants refuse eviction; idle ones park and later cold-start.
      fleet->EvictTenant(next % kTenants, nullptr);
      next++;
      std::this_thread::yield();
    }
  });
  for (int t = 0; t < kTenants; ++t) workers[t].join();
  stop_evictor.store(true, std::memory_order_relaxed);
  workers.back().join();
  fleet->WaitForRetrain();

  // No lost work: every prediction and observation of every tenant is
  // accounted, across however many evict/activate cycles the churn caused.
  for (TenantId t = 0; t < kTenants; ++t) {
    EXPECT_EQ(fleet->TotalPredictions(t),
              static_cast<uint64_t>(kEventsPerTenant))
        << "tenant " << t;
    bool cold = false;
    // Replaying an already-observed key must hit the tenant's cache: its
    // observations survived the churn.
    const core::Prediction probe = fleet->Predict(t, contexts[0], &cold);
    EXPECT_EQ(probe.source, core::PredictionSource::kCache) << "tenant " << t;
  }

  // Park everything: all per-tenant owner tags must unregister.
  for (TenantId t = 0; t < kTenants; ++t) {
    std::string error;
    ASSERT_TRUE(fleet->EvictTenant(t, &error)) << error;
  }
  EXPECT_EQ(registry.size(), fleet_only_metrics);
  const std::string text = registry.RenderText();
  std::string exposition_error;
  EXPECT_TRUE(obs::ValidateTextExposition(text, &exposition_error))
      << exposition_error;
  // The fleet's own families render under the fixed stage_ prefix.
  EXPECT_NE(text.find("\nstage_fleet_evictions_total "), std::string::npos);
  EXPECT_NE(text.find("\nstage_fleet_activation_latency_ns_count"
                      "{source=\"parked\"} "),
            std::string::npos);

  delete fleet;
  EXPECT_EQ(registry.size(), 0u);  // Fleet-level tags dropped too.
}

// Async retrain through the fleet worker pool: trainings complete and the
// coalescing semantics hold (WaitForRetrain drains the queue).
TEST(FleetServiceTest, AsyncRetrainTrainsTenants) {
  FleetServiceConfig config;
  config.stack.predictor = FastStage();
  config.async_retrain = true;
  config.max_concurrent_trainings = 2;
  FleetService fleet(config);
  const fleet::InstanceTrace instance = MakeTrace(300);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);
  for (TenantId t = 0; t < 3; ++t) {
    fleet.RegisterTenant(t, {.instance = &instance.config});
    for (size_t i = 0; i < contexts.size(); ++i) {
      fleet.Observe(t, contexts[i], instance.trace[i].exec_seconds);
    }
  }
  fleet.WaitForRetrain();
  for (TenantId t = 0; t < 3; ++t) {
    bool cold = false;
    fleet.Predict(t, contexts[0], &cold);
    EXPECT_FALSE(cold);
  }
}

TEST(FleetSnapshotTest, RoundTripsEveryTenant) {
  const std::string path = TempPath("fleet_snapshot_roundtrip.sflt");
  std::vector<std::pair<TenantId, std::string>> payloads = {
      {11, "tenant eleven payload"},
      {3, std::string(1000, 'x')},
      {900, ""},
  };
  std::string error;
  ASSERT_TRUE(WriteFleetSnapshotFile(path, payloads, &error)) << error;

  FleetSnapshotReader reader;
  ASSERT_TRUE(reader.Open(path, &error)) << error;
  ASSERT_EQ(reader.entries().size(), payloads.size());
  EXPECT_TRUE(reader.Contains(11));
  EXPECT_TRUE(reader.Contains(900));
  EXPECT_FALSE(reader.Contains(12));
  for (const auto& [tenant, want] : payloads) {
    std::string got;
    ASSERT_TRUE(reader.ReadTenant(tenant, &got, &error)) << error;
    EXPECT_EQ(got, want);
  }
  std::string unused;
  EXPECT_FALSE(reader.ReadTenant(12, &unused, &error));
  std::remove(path.c_str());
}

// Per-tenant isolation of corruption: flipping a byte inside ONE tenant's
// payload fails only that tenant's read — proof that activation verifies
// (and therefore reads) just the requested payload, not the whole file.
TEST(FleetSnapshotTest, CorruptionIsDetectedPerTenant) {
  const std::string path = TempPath("fleet_snapshot_corrupt.sflt");
  std::vector<std::pair<TenantId, std::string>> payloads = {
      {1, std::string(500, 'a')},
      {2, std::string(500, 'b')},
  };
  std::string error;
  ASSERT_TRUE(WriteFleetSnapshotFile(path, payloads, &error)) << error;

  FleetSnapshotReader reader;
  ASSERT_TRUE(reader.Open(path, &error)) << error;
  uint64_t tenant2_offset = 0;
  for (const FleetSnapshotEntry& entry : reader.entries()) {
    if (entry.tenant_id == 2) tenant2_offset = entry.offset;
  }
  ASSERT_GT(tenant2_offset, 0u);
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    // +8 skips the length prefix; +100 lands mid-payload.
    file.seekp(static_cast<std::streamoff>(tenant2_offset + 8 + 100));
    file.put('Z');
  }
  ASSERT_TRUE(reader.Open(path, &error)) << error;  // Index still intact.
  std::string payload;
  EXPECT_TRUE(reader.ReadTenant(1, &payload, &error)) << error;
  EXPECT_EQ(payload, payloads[0].second);
  EXPECT_FALSE(reader.ReadTenant(2, &payload, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;

  // Corrupting the index is caught at Open.
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(4 * 4 + 8 + 3);  // Inside the first index entry.
    file.put('Z');
  }
  EXPECT_FALSE(reader.Open(path, &error));
  EXPECT_NE(error.find("index"), std::string::npos) << error;
  std::remove(path.c_str());
}

// Full fleet round-trip through disk: save a serving fleet, attach the file
// to a fresh process's fleet, and cold-activate tenants one by one. The
// activated predictor state is bit-for-bit (telemetry restarts at zero by
// the documented contract).
TEST(FleetSnapshotTest, SaveAttachActivateRoundTrip) {
  const std::string path = TempPath("fleet_snapshot_roundtrip_full.sflt");
  constexpr int kTenants = 3;
  const fleet::InstanceTrace instance = MakeTrace(300);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);

  FleetService original(DeterministicFleet());
  for (TenantId t = 0; t < kTenants; ++t) {
    original.RegisterTenant(t, {.instance = &instance.config});
    for (size_t i = 0; i < contexts.size(); ++i) {
      original.Observe(t, contexts[i], instance.trace[i].exec_seconds);
    }
  }
  // A never-activated tenant stays out of the file and activates fresh.
  original.RegisterTenant(99, {.instance = &instance.config});
  std::string error;
  ASSERT_TRUE(original.SaveSnapshot(path, &error)) << error;

  FleetService restored(DeterministicFleet());
  for (TenantId t = 0; t < kTenants; ++t) {
    restored.RegisterTenant(t, {.instance = &instance.config});
  }
  restored.RegisterTenant(99, {.instance = &instance.config});
  ASSERT_TRUE(restored.AttachSnapshot(path, &error)) << error;

  const fleet::InstanceTrace probe_trace = MakeTrace(50, /*seed=*/77);
  const std::vector<core::QueryContext> probes = MakeContexts(probe_trace);
  for (TenantId t = 0; t < kTenants; ++t) {
    for (const core::QueryContext& probe : probes) {
      const core::Prediction want = original.Predict(t, probe);
      const core::Prediction got = restored.Predict(t, probe);
      EXPECT_EQ(want.source, got.source);
      EXPECT_DOUBLE_EQ(want.seconds, got.seconds);
    }
  }
  EXPECT_EQ(restored.cold_activations(), static_cast<uint64_t>(kTenants));
  bool cold = false;
  restored.Predict(99, probes[0], &cold);  // Fresh activation, no payload.
  EXPECT_TRUE(cold);
  std::remove(path.c_str());
}

// Cold activations of DIFFERENT tenants from one attached file run side by
// side: the snapshot lock covers only the payload read, and each thread
// decodes its own payload outside it. Every tenant must come back exactly
// once, with the state it was saved with (run under STAGE_SANITIZE=thread
// this also proves the read/decode split is race-free).
TEST(FleetSnapshotTest, ConcurrentActivationsOfDistinctTenants) {
  const std::string path = TempPath("fleet_snapshot_concurrent.sflt");
  constexpr int kTenants = 4;
  const fleet::InstanceTrace instance = MakeTrace(300);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);

  FleetService original(DeterministicFleet());
  for (TenantId t = 0; t < kTenants; ++t) {
    original.RegisterTenant(t, {.instance = &instance.config});
    // Tenant t sees a prefix of its own length, so payloads differ.
    const size_t observed = contexts.size() - 40 * static_cast<size_t>(t);
    for (size_t i = 0; i < observed; ++i) {
      original.Observe(t, contexts[i], instance.trace[i].exec_seconds);
    }
  }
  std::string error;
  ASSERT_TRUE(original.SaveSnapshot(path, &error)) << error;

  FleetService restored(DeterministicFleet());
  for (TenantId t = 0; t < kTenants; ++t) {
    restored.RegisterTenant(t, {.instance = &instance.config});
  }
  ASSERT_TRUE(restored.AttachSnapshot(path, &error)) << error;

  const fleet::InstanceTrace probe_trace = MakeTrace(20, /*seed=*/78);
  const std::vector<core::QueryContext> probes = MakeContexts(probe_trace);
  std::vector<std::vector<double>> got(kTenants);
  std::vector<int> cold_flags(kTenants, 0);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (TenantId t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kTenants) std::this_thread::yield();
      bool cold = false;
      for (const core::QueryContext& probe : probes) {
        got[t].push_back(restored.Predict(t, probe, &cold).seconds);
        cold_flags[t] += cold ? 1 : 0;
        cold = false;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(restored.cold_activations(), static_cast<uint64_t>(kTenants));
  for (TenantId t = 0; t < kTenants; ++t) {
    EXPECT_EQ(cold_flags[t], 1) << "tenant " << t;
    for (size_t i = 0; i < probes.size(); ++i) {
      EXPECT_EQ(got[t][i], original.Predict(t, probes[i]).seconds)
          << "tenant " << t << " probe " << i;
    }
  }
  std::remove(path.c_str());
}

// The symmetric status-returning save/load contract on the stack itself.
TEST(TenantStackTest, SaveLoadStatusContract) {
  TenantStackConfig config;
  config.predictor = FastStage();
  config.cache_shards = 1;
  TenantStack stack(config);
  const fleet::InstanceTrace instance = MakeTrace(100);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);
  for (size_t i = 0; i < contexts.size(); ++i) {
    stack.Observe(contexts[i], instance.trace[i].exec_seconds);
  }

  std::ostringstream out;
  std::string error;
  ASSERT_TRUE(stack.SaveState(out, &error)) << error;
  const std::string bytes = std::move(out).str();

  // A truncated stream loads as false with a diagnostic, not a crash.
  TenantStack truncated(config);
  std::istringstream half(bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(truncated.LoadState(half, &error));
  EXPECT_FALSE(error.empty());

  // A failing sink reports false instead of silently writing garbage.
  std::ofstream bad_sink("/nonexistent-dir/nope");
  EXPECT_FALSE(stack.SaveState(bad_sink, &error));

  // The full stream round-trips.
  TenantStack loaded(config);
  std::istringstream in(bytes);
  ASSERT_TRUE(loaded.LoadState(in, &error)) << error;
  for (const core::QueryContext& context : contexts) {
    const core::Prediction want = stack.Predict(context);
    const core::Prediction got = loaded.Predict(context);
    EXPECT_EQ(want.source, got.source);
    EXPECT_DOUBLE_EQ(want.seconds, got.seconds);
  }
}

// A traced predict served by the local model reports where its time went:
// the stage-1 cache probe and the routing (model inference) split, which
// together account for the total.
TEST(TenantStackTest, TracedLocalPredictSplitsCacheAndRouteNanos) {
  TenantStackConfig config;
  config.predictor = FastStage();
  config.cache_shards = 4;
  TenantStack stack(config);
  const fleet::InstanceTrace instance = MakeTrace(200);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);
  for (size_t i = 0; i < contexts.size(); ++i) {
    stack.Observe(contexts[i], instance.trace[i].exec_seconds);
  }
  ASSERT_NE(stack.local_model_snapshot(), nullptr);

  // Unseen plans miss the cache and are answered by the local model.
  const std::vector<core::QueryContext> probes =
      MakeContexts(MakeTrace(60, /*seed=*/777));
  uint64_t cache_nanos = 0;
  uint64_t route_nanos = 0;
  int local = 0;
  for (const core::QueryContext& probe : probes) {
    obs::PredictionTrace trace;
    const core::Prediction out = stack.PredictTraced(probe, &trace);
    if (out.source != core::PredictionSource::kLocal) continue;
    ++local;
    EXPECT_EQ(trace.stage, obs::TraceStage::kLocal);
    EXPECT_EQ(trace.cache_shard, probe.feature_hash % 4);
    EXPECT_LE(trace.cache_nanos + trace.route_nanos, trace.total_nanos);
    cache_nanos += trace.cache_nanos;
    route_nanos += trace.route_nanos;
  }
  ASSERT_GT(local, 0);
  EXPECT_GT(cache_nanos, 0u);
  EXPECT_GT(route_nanos, 0u);
}

}  // namespace
}  // namespace stage::fleet_serve
