#ifndef STAGE_FLEET_SERVE_FLEET_SERVICE_H_
#define STAGE_FLEET_SERVE_FLEET_SERVICE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "stage/core/predictor.h"
#include "stage/core/stage_predictor.h"
#include "stage/fleet_serve/fleet_snapshot.h"
#include "stage/fleet_serve/tenant_stack.h"
#include "stage/obs/metrics.h"
#include "stage/obs/trace.h"

namespace stage::fleet_serve {

struct FleetServiceConfig {
  // Default stack shape for every tenant (RegisterTenant can override).
  TenantStackConfig stack;

  // Resident-bytes budget across all warm stacks; 0 means unbounded. When
  // an activation or observation pushes the fleet over budget, the least
  // recently used idle, unpinned stacks are evicted — serialized to parked
  // in-memory state — until the fleet fits again. Adjustable at runtime
  // via SetResidentBytesBudget.
  size_t resident_bytes_budget = 0;

  // When true (production), tenant retrains run on the fleet's bounded
  // worker pool and Observe never blocks on training. When false
  // (deterministic replay / tests), Observe trains inline, exactly like
  // TenantStack::Observe(query, exec_seconds) on a bare stack.
  bool async_retrain = true;

  // Fairness cap: at most this many tenant trainings run concurrently, and
  // a tenant holds at most ONE slot at a time (repeat requests coalesce
  // into a single follow-up run). A flooding tenant therefore cannot
  // monopolize ThreadPool::Shared() — other tenants' trainings interleave
  // FIFO through the remaining slots.
  size_t max_concurrent_trainings = 2;

  // Empty when usable, else a description of the first problem.
  std::string Validate() const;
};

// Fleet-level observability knobs. Per-tenant stack metrics (the full
// per-stack families) come from the per-tenant StagePredictorOptions passed
// to RegisterTenant; this registry carries the REGISTRY's own telemetry
// under the stage_ prefix: evictions, cold activations, activation
// latency, resident bytes, and per-tenant owner-tagged prediction counts
// (registered at activation, UnregisterAll-ed at eviction, so an evicted
// tenant leaks no callbacks).
struct FleetServiceOptions {
  obs::MetricsRegistry* metrics = nullptr;
};

// The tenant-keyed serving API: one process serves many instances'
// predictor stacks out of a memory-bounded registry. The paper operates
// Stage this way — per-instance models, fleet-scale pipeline (§2/§6). A
// single-instance caller that needs concurrent reads with background
// retrains registers one tenant and pins it (PinTenant). A single-threaded
// caller needs no fleet: a bare TenantStack retrains inline.
//
// Tenant lifecycle:
//
//   RegisterTenant ─► cold ──(first op / PinTenant)──► warm
//        ▲                                              │
//        │            park (serialize + UnregisterAll)  │ LRU eviction,
//        └── parked ◄───────────────────────────────────┘ budget pressure
//              │
//              └──(next op: LoadState + SeedSourceCounts)──► warm again
//
// Cold activation sources, in order: parked in-process state (eviction
// round-trip, attribution counters preserved), an attached indexed fleet
// snapshot (one seek+read of that tenant's payload — never a whole-fleet
// deserialize), else a fresh empty stack.
//
// Concurrency design:
//  * The registry is a shared_mutex-guarded map of stable entries. Warm
//    ops take the lock shared — a pointer copy, an LRU-tick store, and an
//    active-op pin — then run on the stack outside the lock.
//  * Activation and eviction are entry "transitions": marked under the
//    exclusive lock, executed (serialize / deserialize) outside it, and
//    completed under the lock again with waiters notified. An entry never
//    transitions while ops are pinned on it.
//  * Retrains run on an owned worker pool of max_concurrent_trainings
//    threads over a FIFO of tenant ids with per-tenant coalescing.
class FleetService {
 public:
  explicit FleetService(const FleetServiceConfig& config,
                        const FleetServiceOptions& options = {});
  ~FleetService();

  FleetService(const FleetService&) = delete;
  FleetService& operator=(const FleetService&) = delete;

  // Adds a cold tenant. `options` are the tenant's predictor collaborators
  // (global model, instance hardware, optional per-stack metrics) and must
  // outlive the service; `config_override` replaces the fleet default
  // stack shape when non-null. Registering an existing id is fatal.
  void RegisterTenant(TenantId tenant,
                      const core::StagePredictorOptions& options = {},
                      const TenantStackConfig* config_override = nullptr);

  bool IsRegistered(TenantId tenant) const;
  std::vector<TenantId> TenantIds() const;

  // The serving API. Unknown tenants are fatal (registration is the
  // admission decision; prediction is the hot path). All four activate a
  // cold tenant on demand; `cold_activated`, when non-null, reports
  // whether THIS call paid a cold activation (bench warm/cold split).
  core::Prediction Predict(TenantId tenant, const core::QueryContext& query,
                           bool* cold_activated = nullptr);
  std::vector<core::Prediction> PredictBatch(
      TenantId tenant, std::span<const core::QueryContext> queries,
      bool* cold_activated = nullptr);
  core::Prediction PredictTraced(TenantId tenant,
                                 const core::QueryContext& query,
                                 obs::PredictionTrace* trace,
                                 bool* cold_activated = nullptr);
  void Observe(TenantId tenant, const core::QueryContext& query,
               double exec_seconds);

  // Activates `tenant` and pins it warm for the service's lifetime: the
  // returned stack stays valid and the evictor skips the tenant. The
  // single-instance serving shape: the caller predicts straight on the
  // pinned stack, bypassing the registry lock entirely, and observes
  // through the fleet (Observe) so retrains follow async_retrain.
  std::shared_ptr<TenantStack> PinTenant(TenantId tenant);

  // Explicit eviction (tests / admin). Fails — returning false and filling
  // `error` — when the tenant is cold, pinned, or has ops in flight.
  bool EvictTenant(TenantId tenant, std::string* error = nullptr);

  // Attaches an indexed fleet snapshot as the cold-activation source for
  // tenants without parked state. Verifies the header + index only.
  bool AttachSnapshot(const std::string& path, std::string* error = nullptr);

  // Writes every tenant with state (warm stacks serialized in place,
  // parked payloads as-is, attached-snapshot payloads passed through) into
  // an indexed fleet snapshot at `path`. Tenants that never served stay
  // out of the file — they activate fresh. Symmetric, status-returning
  // contract with AttachSnapshot/LoadState.
  bool SaveSnapshot(const std::string& path, std::string* error = nullptr);

  // Blocks until no retraining is queued or in flight (all tenants).
  // Test/shutdown sync point; never needed on the serving path.
  void WaitForRetrain();

  // Runtime budget adjustment; shrinking below current residency evicts
  // immediately (LRU order). 0 = unbounded.
  void SetResidentBytesBudget(size_t budget);

  // Registry observability.
  size_t ResidentBytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }
  size_t WarmCount() const {
    return warm_count_.load(std::memory_order_relaxed);
  }
  size_t TenantCount() const {
    return tenant_count_.load(std::memory_order_relaxed);
  }
  bool IsWarm(TenantId tenant) const;
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  uint64_t cold_activations() const {
    return cold_activations_.load(std::memory_order_relaxed);
  }
  // Activation latency histogram slots (parked vs snapshot-file sources).
  static constexpr size_t kActivationFromParked = 0;
  static constexpr size_t kActivationFromFile = 1;
  static constexpr size_t kActivationFresh = 2;
  const obs::LatencyHistograms& activation_latency() const {
    return activation_latency_;
  }

  // Per-tenant attribution counters: live from the warm stack, else the
  // parked values (bit-for-bit preserved across evict/activate cycles).
  std::array<uint64_t, core::kNumPredictionSources> SourceCounts(
      TenantId tenant) const;
  uint64_t TotalPredictions(TenantId tenant) const;

 private:
  struct Entry {
    TenantId id = 0;
    TenantStackConfig config;
    core::StagePredictorOptions options;  // Borrowed pointers, nullable.

    // Warm state; null while cold. Guarded by registry_mutex_.
    std::shared_ptr<TenantStack> stack;
    // True while an activation or eviction runs outside the lock; waiters
    // block on transition_cv_ until it clears. Guarded by registry_mutex_.
    bool transitioning = false;
    bool pinned = false;  // PinTenant: evictor must skip. Guarded as above.

    // Parked state from the last eviction (empty when none). Guarded by
    // registry_mutex_ plus the transitioning flag (the transition owner
    // touches these outside the lock while everyone else waits).
    std::string parked_state;
    std::array<uint64_t, core::kNumPredictionSources> parked_counts{};
    bool has_parked = false;

    // Ops currently executing on the warm stack. Incremented only under
    // the registry lock (shared suffices) while `stack` is non-null, so an
    // evictor holding the exclusive lock and observing zero knows no op
    // can appear until it releases.
    std::atomic<int> active_ops{0};
    // LRU clock value of the most recent op.
    std::atomic<uint64_t> last_used_tick{0};

    // Fleet-side accounting (atomics: sampled by metric callbacks).
    std::atomic<size_t> resident_bytes{0};
    std::atomic<uint64_t> predictions{0};
    std::atomic<uint64_t> tenant_cold_activations{0};
  };

  // RAII op pin: holds the stack alive and decrements active_ops on exit.
  struct OpGuard {
    std::shared_ptr<TenantStack> stack;
    Entry* entry = nullptr;
    OpGuard() = default;
    OpGuard(std::shared_ptr<TenantStack> s, Entry* e)
        : stack(std::move(s)), entry(e) {}
    OpGuard(OpGuard&& other) noexcept
        : stack(std::move(other.stack)), entry(other.entry) {
      other.entry = nullptr;
    }
    OpGuard& operator=(OpGuard&&) = delete;
    ~OpGuard() {
      if (entry != nullptr) {
        entry->active_ops.fetch_sub(1, std::memory_order_release);
      }
    }
  };

  // Map lookup; any flavor of registry_mutex_ must be held. Null when the
  // tenant is unknown (entries are never erased, so the pointer is stable
  // after the lock drops).
  Entry* FindEntryLocked(TenantId tenant) const;
  // Returns a pinned warm stack for `tenant`, activating it if cold.
  OpGuard AcquireWarm(TenantId tenant, bool* cold_activated);
  // Like AcquireWarm but returns an empty guard instead of activating a
  // cold tenant (the retrain worker has no business waking evicted state).
  OpGuard TryAcquireWarm(TenantId tenant);
  // Builds + loads a stack for `entry` (caller owns the transition).
  std::shared_ptr<TenantStack> ActivateLocked(
      std::unique_lock<std::shared_mutex>& lock, Entry& entry);
  // Evicts LRU idle stacks until resident bytes fit `budget`. Requires the
  // exclusive lock; releases/reacquires it around serialization.
  void EnforceBudgetLocked(std::unique_lock<std::shared_mutex>& lock,
                           size_t budget);
  // Parks one warm entry. Requires the exclusive lock (released around the
  // serialize); the entry must be idle, unpinned, not transitioning.
  bool EvictLocked(std::unique_lock<std::shared_mutex>& lock, Entry& entry,
                   std::string* error);
  void AccountResidentBytes(Entry& entry, size_t fresh_bytes);
  void MaybeEnforceBudget();
  void RegisterFleetMetrics();
  void RegisterTenantMetrics(Entry& entry);

  // Retrain worker pool.
  void ScheduleRetrain(TenantId tenant);
  void TrainWorkerLoop();

  FleetServiceConfig config_;
  FleetServiceOptions options_;

  mutable std::shared_mutex registry_mutex_;
  mutable std::condition_variable_any transition_cv_;
  std::unordered_map<TenantId, std::unique_ptr<Entry>> tenants_;

  std::atomic<size_t> budget_;  // 0 = unbounded.
  // Atomic mirrors of registry state, readable from metric callbacks
  // without registry_mutex_ (a render-time callback taking it would invert
  // lock order against registration, which runs during entry transitions).
  std::atomic<size_t> warm_count_{0};
  std::atomic<size_t> tenant_count_{0};
  std::atomic<size_t> resident_bytes_{0};
  std::atomic<uint64_t> lru_clock_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> cold_activations_{0};
  obs::LatencyHistograms activation_latency_{3};

  // Attached cold-activation source. snapshot_mutex_ guards the reader's
  // single seek cursor.
  mutable std::mutex snapshot_mutex_;
  FleetSnapshotReader snapshot_;
  bool has_snapshot_ = false;

  // Retrain pool plumbing. Per-tenant coalescing: a tenant is in at most
  // one of queued/running; a request landing while it runs sets the
  // rerequest flag, producing exactly one follow-up run.
  std::mutex train_mutex_;
  std::condition_variable train_cv_;   // Wakes workers.
  std::condition_variable train_idle_cv_;  // Wakes WaitForRetrain.
  std::deque<TenantId> train_queue_;
  std::unordered_set<TenantId> train_queued_;
  std::unordered_set<TenantId> train_running_;
  std::unordered_set<TenantId> train_rerequested_;
  size_t trainings_in_flight_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> train_workers_;
};

}  // namespace stage::fleet_serve

#endif  // STAGE_FLEET_SERVE_FLEET_SERVICE_H_
