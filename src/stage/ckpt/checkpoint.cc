#include "stage/ckpt/checkpoint.h"

#include <filesystem>
#include <sstream>
#include <system_error>
#include <type_traits>
#include <utility>

namespace stage::ckpt {

namespace {

void SetError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

// `save` either returns void (legacy Save(ostream&) writers) or bool (the
// status-returning SaveState contract); a false status fails
// the wrap before any file is touched.
template <typename SaveFn>
bool SaveWrapped(const std::string& path, SnapshotKind kind, SaveFn&& save,
                 std::string* error) {
  std::ostringstream payload;
  if constexpr (std::is_same_v<decltype(save(payload)), bool>) {
    if (!save(payload)) {
      SetError(error, "serialization failed");
      return false;
    }
  } else {
    save(payload);
  }
  if (!payload) {
    SetError(error, "serialization failed");
    return false;
  }
  return WriteSnapshotFile(path, kind, payload.view(), error);
}

template <typename LoadFn>
bool LoadWrapped(const std::string& path, SnapshotKind kind, LoadFn&& load,
                 std::string* error) {
  std::string payload;
  if (!ReadSnapshotFile(path, kind, &payload, error)) return false;
  std::istringstream in(std::move(payload));
  if (!load(in)) {
    SetError(error, std::string(SnapshotKindName(kind)) +
                        " snapshot payload is malformed");
    return false;
  }
  return true;
}

}  // namespace

bool SaveServiceSnapshot(const fleet_serve::TenantStack& stack,
                         const std::string& path, std::string* error) {
  return SaveWrapped(
      path, SnapshotKind::kPredictionService,
      [&](std::ostream& out) { return stack.SaveState(out); }, error);
}

bool LoadServiceSnapshot(fleet_serve::TenantStack* stack,
                         const std::string& path, std::string* error) {
  return LoadWrapped(
      path, SnapshotKind::kPredictionService,
      [&](std::istream& in) { return stack->LoadState(in); }, error);
}

bool SaveLocalModelSnapshot(const local::LocalModel& model,
                            const std::string& path, std::string* error) {
  return SaveWrapped(
      path, SnapshotKind::kLocalModel,
      [&](std::ostream& out) { model.Save(out); }, error);
}

bool LoadLocalModelSnapshot(local::LocalModel* model, const std::string& path,
                            std::string* error) {
  return LoadWrapped(
      path, SnapshotKind::kLocalModel,
      [&](std::istream& in) { return model->Load(in); }, error);
}

bool SaveRecalibratorSnapshot(const calib::ConformalRecalibrator& recalibrator,
                              const std::string& path, std::string* error) {
  return SaveWrapped(
      path, SnapshotKind::kConformalRecalibrator,
      [&](std::ostream& out) { recalibrator.Save(out); }, error);
}

bool LoadRecalibratorSnapshot(calib::ConformalRecalibrator* recalibrator,
                              const std::string& path, std::string* error) {
  return LoadWrapped(
      path, SnapshotKind::kConformalRecalibrator,
      [&](std::istream& in) { return recalibrator->Load(in); }, error);
}

PeriodicCheckpointer::PeriodicCheckpointer(
    const fleet_serve::TenantStack& stack, Options options)
    : stack_(stack), options_(std::move(options)) {
  if (options_.metrics != nullptr) RegisterMetrics();
  if (options_.checkpoint_on_start) TriggerNow();
  worker_ = std::thread([this] { Loop(); });
}

PeriodicCheckpointer::~PeriodicCheckpointer() {
  Stop();
  // After Stop no snapshot is in flight, so the callbacks reading our
  // counters can be dropped safely.
  if (options_.metrics != nullptr) options_.metrics->UnregisterAll(this);
}

void PeriodicCheckpointer::RegisterMetrics() {
  obs::MetricsRegistry* registry = options_.metrics;
  const std::string prefix = "stage_ckpt_";
  registry->RegisterCounterCallback(
      this, prefix + "snapshots_total{result=\"ok\"}",
      [this] { return completed(); });
  registry->RegisterCounterCallback(
      this, prefix + "snapshots_total{result=\"fail\"}",
      [this] { return failed(); });
  registry->RegisterCounterCallback(this, prefix + "bytes_written_total",
                                    [this] { return bytes_written(); });
  registry->RegisterGaugeCallback(
      this, prefix + "last_snapshot_bytes",
      [this] { return static_cast<double>(last_snapshot_bytes()); });
  write_duration_ns_ = &registry->GetHistogram(
      prefix + "write_duration_ns", obs::Histogram::LatencyBucketsNanos());
}

void PeriodicCheckpointer::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    if (stopping_ && !worker_.joinable()) return;
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

bool PeriodicCheckpointer::TriggerNow(std::string* error) {
  std::string local_error;
  if (WriteOnce(&local_error)) {
    completed_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  failed_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    last_error_ = local_error;
  }
  SetError(error, std::move(local_error));
  return false;
}

std::string PeriodicCheckpointer::last_error() const {
  std::lock_guard<std::mutex> lock(error_mutex_);
  return last_error_;
}

void PeriodicCheckpointer::Loop() {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  while (!stopping_) {
    if (stop_cv_.wait_for(lock, options_.interval,
                          [this] { return stopping_; })) {
      return;
    }
    lock.unlock();
    TriggerNow();
    lock.lock();
  }
}

bool PeriodicCheckpointer::WriteOnce(std::string* error) {
  const auto start = std::chrono::steady_clock::now();
  const bool ok = SaveServiceSnapshot(stack_, options_.path, error);
  if (write_duration_ns_ != nullptr) {
    write_duration_ns_->Record(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
  }
  if (ok) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(options_.path, ec);
    if (!ec) {
      last_snapshot_bytes_.store(size, std::memory_order_relaxed);
      bytes_written_.fetch_add(size, std::memory_order_relaxed);
    }
  }
  return ok;
}

}  // namespace stage::ckpt
