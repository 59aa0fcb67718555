#ifndef STAGE_OBS_METRICS_H_
#define STAGE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace stage::obs {

// Process-observability primitives for the serving path (the §4.1 claim —
// "most queries short-circuit at the cache or local model" — is only
// operable if hit rates, routing decisions, and per-stage latency are
// visible in a running service). Everything here is lock-cheap by design:
//
//  * Counter / Gauge / Histogram updates are a handful of relaxed atomic
//    RMWs — no locks, no allocation — so they are safe on the prediction
//    hot path.
//  * MetricsRegistry takes a mutex only to register metrics (startup) and
//    to render (scrape time); handles returned by Get* are stable for the
//    registry's lifetime, so steady-state writers never touch the lock.

// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-written instantaneous value.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram: upper bounds are set at construction and an
// implicit +Inf overflow bucket catches the tail. Record is one bucket
// fetch_add plus a sum/max update; no per-record allocation. Quantiles are
// estimated by linear interpolation inside the containing bucket, so
// bucket bounds should bracket the range of interest (see the
// LatencyBucketsNanos / UncertaintyBuckets presets).
class Histogram {
 public:
  // `upper_bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> upper_bounds);

  void Record(double value);

  // A coherent-enough copy of the histogram state (buckets are read
  // individually with relaxed loads; `count` is defined as their sum so a
  // snapshot is always internally consistent: cumulative bucket counts end
  // exactly at `count`).
  struct Snapshot {
    std::vector<double> bounds;     // Finite upper bounds, ascending.
    std::vector<uint64_t> buckets;  // Per-bucket counts; bounds.size() + 1
                                    // entries, last is the +Inf bucket.
    uint64_t count = 0;             // Sum of buckets.
    double sum = 0.0;
    double max = 0.0;               // Largest recorded value; 0 when empty.

    // Interpolated quantile, q in [0, 1]. Values landing in the overflow
    // bucket report `max`. Interpolation assumes non-negative values (the
    // first bucket's lower edge is taken as 0).
    double Quantile(double q) const;
  };
  Snapshot TakeSnapshot() const;

  uint64_t count() const;
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  size_t num_buckets() const { return bounds_.size() + 1; }
  const std::vector<double>& bounds() const { return bounds_; }

  // Preset bounds: serving-path latency, 250ns .. 1s (exponential-ish).
  static std::vector<double> LatencyBucketsNanos();
  // Preset bounds: local-model log-space uncertainty (§4.1 routing signal).
  static std::vector<double> UncertaintyBuckets();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1.
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

// A fixed set of latency histograms on LatencyBucketsNanos, one per slot
// (the server's per-op frame latency, the fleet's per-source activation
// latency). Slots are caller-defined indices; Record is exactly one
// Histogram::Record, so it is lock-free and allocation-free.
class LatencyHistograms {
 public:
  explicit LatencyHistograms(size_t num_slots);

  void Record(size_t slot, uint64_t nanos);
  Histogram::Snapshot histogram_snapshot(size_t slot) const;

 private:
  std::vector<std::unique_ptr<Histogram>> slots_;
};

// A process-wide named metric registry with Prometheus-style text
// exposition and a JSON dump.
//
// Two metric flavours coexist:
//  * Owned metrics (GetCounter/GetGauge/GetHistogram): the registry
//    allocates them; the returned reference is stable for the registry's
//    lifetime and callers update it lock-free.
//  * Callback metrics (Register*Callback): sampled at render time. These
//    wire pre-existing component counters (cache hit atomics, pool sizes,
//    thread-pool depth) into the exposition without double-counting on the
//    hot path. Callbacks are tagged with an `owner` so a component can
//    UnregisterAll(this) in its destructor before its state dies.
//
// Naming: a metric name may carry Prometheus labels inline, e.g.
// "stage_predictions_total{source=\"cache\"}". The text renderer groups
// label variants under one `# TYPE` family line and merges histogram `le`
// labels into an existing label set.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Creates (or returns the existing) owned metric under `name`. It is a
  // fatal error to reuse a name with a different metric type; GetHistogram
  // on an existing name ignores `upper_bounds`.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> upper_bounds);

  // Render-time sampled metrics. The name must be unused.
  void RegisterCounterCallback(const void* owner, const std::string& name,
                               std::function<uint64_t()> fn);
  void RegisterGaugeCallback(const void* owner, const std::string& name,
                             std::function<double()> fn);
  void RegisterHistogramCallback(const void* owner, const std::string& name,
                                 std::function<Histogram::Snapshot()> fn);
  // Drops every callback registered with `owner`. Owned metrics persist.
  void UnregisterAll(const void* owner);

  // Prometheus text exposition format: `# TYPE` per family, counter/gauge
  // sample lines, histogram `_bucket{le=...}` lines with *cumulative*
  // counts plus `_sum` and `_count`.
  std::string RenderText() const;
  // The same content as a single JSON object keyed by metric name.
  std::string RenderJson() const;

  size_t size() const;

 private:
  enum class Type { kCounter, kGauge, kHistogram };
  struct Entry {
    Type type;
    const void* owner = nullptr;  // Null for owned metrics.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<uint64_t()> counter_fn;
    std::function<double()> gauge_fn;
    std::function<Histogram::Snapshot()> histogram_fn;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

// Structural validator for RenderText output (used by tests and the
// tools/check.sh gate): every sample line must parse, counter samples must
// be non-negative and finite, histogram `le` bounds must be strictly
// increasing per series, cumulative bucket counts must be non-decreasing,
// and the `+Inf` bucket must equal the series' `_count`. Returns false and
// fills `error` with the first violation.
bool ValidateTextExposition(std::string_view text, std::string* error);

}  // namespace stage::obs

#endif  // STAGE_OBS_METRICS_H_
