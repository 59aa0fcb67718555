#ifndef STAGE_CALIB_CONFORMAL_H_
#define STAGE_CALIB_CONFORMAL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace stage::calib {

// Knobs of the online conformal recalibrator below. Defaults follow the
// split-conformal literature: a window large enough that the empirical
// 90% quantile is stable (~50 samples per tail point), refreshed often
// enough to track drift within one retrain interval.
struct ConformalConfig {
  // Sliding window of the most recent normalized residuals.
  size_t window_capacity = 512;

  // Observations required before the recalibrator starts rescaling; the
  // scale stays 1.0 (identity) until the window holds this many residuals.
  size_t min_window = 32;

  // The nominal central-interval confidence level the window quantile is
  // anchored at. 0.9 targets the 90% interval the routing threshold is
  // judged on.
  double anchor_confidence = 0.9;

  // Recompute the scale every this many accepted residuals (after the
  // window has min_window entries). The recompute is an O(window)
  // nth_element on a preallocated scratch, so Observe stays O(1) amortized
  // and allocation-free.
  size_t refresh_interval = 16;

  // Clamp on the published scale: guards against a degenerate window (all
  // residuals ~0, or a burst of outliers) collapsing or exploding sigma.
  double min_scale = 0.125;
  double max_scale = 8.0;

  // Empty when usable, else a description of the first problem found.
  std::string Validate() const;
};

// Online conformal recalibrator (Wu et al., "Uncertainty Aware Query
// Execution Time Prediction"): maintains a sliding window of normalized
// residuals z = |log1p(y) - log1p(mu)| / sigma and publishes a
// multiplicative correction for sigma,
//
//   scale = window_quantile(anchor_confidence) / gaussian_z(anchor),
//
// so that, after rescaling, the centered anchor-level interval has
// empirical coverage ~= anchor_confidence on recent data regardless of how
// miscalibrated the raw ensemble sigma is.
//
// Thread-safety contract (mirrors the predictor stack): scale(),
// window_size(), and observations() are lock-free atomic reads, safe
// against a concurrent Observe. Observe mutates the window and must be
// serialized by the owner (TenantStack's observe_mutex_). Save/Load follow
// the same rules as Observe.
class ConformalRecalibrator {
 public:
  explicit ConformalRecalibrator(const ConformalConfig& config);

  // Feeds one normalized residual. Non-finite or negative values (the
  // NormalizedResidual sentinel for "sigma unavailable") are ignored, so
  // cache/global-sourced observations can never poison the window. O(1)
  // amortized, zero allocations.
  void Observe(double normalized_residual);

  // Current multiplicative sigma correction; 1.0 until min_window residuals
  // have been observed. Lock-free, hot-path safe.
  double scale() const { return scale_.load(std::memory_order_relaxed); }

  // Residuals currently held (saturates at window_capacity).
  size_t window_size() const {
    return size_.load(std::memory_order_relaxed);
  }

  // Residuals accepted over the recalibrator's lifetime (ignored
  // sentinel/NaN inputs are not counted).
  uint64_t observations() const {
    return observations_.load(std::memory_order_relaxed);
  }

  // Completed scale recomputations.
  uint64_t refreshes() const { return refreshes_; }

  const ConformalConfig& config() const { return config_; }

  // Bit-for-bit state serialization ("SCNF" stream: ring contents, head,
  // fill, refresh phase, counters, published scale). A recalibrator
  // restored by Load continues exactly as one that never stopped. Load is
  // transactional: on a malformed stream it returns false and leaves the
  // target untouched. The stream's window_capacity must match config()'s.
  void Save(std::ostream& out) const;
  bool Load(std::istream& in);

 private:
  void RefreshScale();

  ConformalConfig config_;
  double anchor_z_ = 1.0;  // Gaussian z for the anchor level, precomputed.
  std::vector<double> ring_;     // window_capacity slots, storage order.
  std::vector<double> scratch_;  // Preallocated for the quantile select.
  size_t head_ = 0;              // Next ring slot to overwrite.
  size_t since_refresh_ = 0;
  uint64_t refreshes_ = 0;
  std::atomic<size_t> size_{0};
  std::atomic<uint64_t> observations_{0};
  std::atomic<double> scale_{1.0};
};

}  // namespace stage::calib

#endif  // STAGE_CALIB_CONFORMAL_H_
