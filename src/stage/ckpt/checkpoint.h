#ifndef STAGE_CKPT_CHECKPOINT_H_
#define STAGE_CKPT_CHECKPOINT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "stage/calib/conformal.h"
#include "stage/ckpt/snapshot_file.h"
#include "stage/fleet_serve/tenant_stack.h"
#include "stage/local/local_model.h"
#include "stage/obs/metrics.h"

namespace stage::ckpt {

// Crash-safe snapshot/warm-restart entry points (the deployment story of
// paper §4.4 extended to the whole predictor: "train once, ship the
// checkpoint to every instance" only works if the checkpoint is complete
// and restarts are warm). Each helper serializes the object's SaveState /
// Save stream into the CRC-checked envelope and publishes it with the
// write-tmp-then-rename protocol of snapshot_file.h.

// Full predictor-stack state (sharded cache, pool, cadence, local model,
// recalibrator when calibration is on), as SnapshotKind::kPredictionService.
// The load target's config must match the writer's; on failure the target
// is untouched and must not serve.
bool SaveServiceSnapshot(const fleet_serve::TenantStack& stack,
                         const std::string& path,
                         std::string* error = nullptr);
bool LoadServiceSnapshot(fleet_serve::TenantStack* stack,
                         const std::string& path,
                         std::string* error = nullptr);

// Bare local model (the §4.3 ensemble, including the MAE member).
bool SaveLocalModelSnapshot(const local::LocalModel& model,
                            const std::string& path,
                            std::string* error = nullptr);
bool LoadLocalModelSnapshot(local::LocalModel* model, const std::string& path,
                            std::string* error = nullptr);

// Bare §4.8 conformal recalibrator (sliding residual window + published
// scale). The target's window_capacity must match the writer's; Load is
// transactional (false on mismatch/corruption, target untouched).
bool SaveRecalibratorSnapshot(const calib::ConformalRecalibrator& recalibrator,
                              const std::string& path,
                              std::string* error = nullptr);
bool LoadRecalibratorSnapshot(calib::ConformalRecalibrator* recalibrator,
                              const std::string& path,
                              std::string* error = nullptr);

// Background checkpointer: snapshots a predictor stack to `path` every
// `interval`, on a dedicated thread, using the atomic-rename protocol — a
// crash at any instant leaves the last published snapshot loadable. The
// stack's SaveState pauses writers (never readers) for the duration of the
// state serialization, so periodic checkpointing does not stall the
// prediction path. The stack must outlive the checkpointer.
class PeriodicCheckpointer {
 public:
  struct Options {
    std::string path;
    std::chrono::milliseconds interval{60000};
    // When true, write one snapshot immediately on construction.
    bool checkpoint_on_start = false;
    // Optional observability sink: snapshots written/failed, bytes
    // published, and write duration are exposed as stage_ckpt_* metrics.
    // Must outlive the checkpointer (callbacks unregister on destruction).
    obs::MetricsRegistry* metrics = nullptr;
  };

  PeriodicCheckpointer(const fleet_serve::TenantStack& stack,
                       Options options);
  ~PeriodicCheckpointer();

  PeriodicCheckpointer(const PeriodicCheckpointer&) = delete;
  PeriodicCheckpointer& operator=(const PeriodicCheckpointer&) = delete;

  // Writes one snapshot synchronously on the calling thread (safe to race
  // the background thread; the rename publication serializes in the
  // filesystem). Returns false and fills `error` on failure.
  bool TriggerNow(std::string* error = nullptr);

  // Stops the background thread after at most one more in-flight snapshot.
  // Idempotent; also called by the destructor.
  void Stop();

  uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  uint64_t failed() const { return failed_.load(std::memory_order_relaxed); }
  // Last failure message; empty when every snapshot so far succeeded.
  std::string last_error() const;

  // Bytes published across all successful snapshots, and the size of the
  // most recent one (0 before the first success).
  uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }
  uint64_t last_snapshot_bytes() const {
    return last_snapshot_bytes_.load(std::memory_order_relaxed);
  }

 private:
  void Loop();
  void RegisterMetrics();
  bool WriteOnce(std::string* error);

  const fleet_serve::TenantStack& stack_;
  const Options options_;
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> last_snapshot_bytes_{0};
  obs::Histogram* write_duration_ns_ = nullptr;  // Owned by the registry.
  mutable std::mutex error_mutex_;
  std::string last_error_;
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  std::thread worker_;
};

}  // namespace stage::ckpt

#endif  // STAGE_CKPT_CHECKPOINT_H_
