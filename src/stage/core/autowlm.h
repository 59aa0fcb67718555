#ifndef STAGE_CORE_AUTOWLM_H_
#define STAGE_CORE_AUTOWLM_H_

#include <deque>

#include "stage/core/predictor.h"
#include "stage/gbt/gbdt.h"

namespace stage::core {

// The prior Redshift predictor ([50], §2.1) used as the paper's baseline:
// a single lightweight GBT model over the flattened plan vector, trained
// with absolute error on each instance's executed queries. Its training
// pool is a plain FIFO — no cache deduplication, no duration buckets —
// which is exactly the set of §4.3 pathologies the Stage pool fixes.
struct AutoWlmConfig {
  gbt::GbdtConfig gbdt;  // Same hyper-parameters as one local-model member.
  size_t pool_capacity = 2000;
  size_t retrain_interval = 400;  // Observations between retrains.
  size_t min_train_size = 30;
  // The production AutoWLM trains absolute error on raw seconds (§5.1's
  // baseline "is trained with the mean absolute error" on the evaluation
  // metric); sign-gradient boosting on raw seconds is coarse (~lr-sized
  // steps) and cannot reach the 1000s+ tail — both visible in the paper's
  // Tables 1-3. Set true for a strictly stronger log-space variant.
  bool log_target = false;
};

class AutoWlmPredictor final : public ExecTimePredictor {
 public:
  explicit AutoWlmPredictor(const AutoWlmConfig& config);

  Prediction Predict(const QueryContext& query) const override;
  void Observe(const QueryContext& query, double exec_seconds) override;

  bool trained() const { return trained_; }
  int trainings() const { return trainings_; }
  size_t MemoryBytes() const { return model_.MemoryBytes(); }

 private:
  void MaybeRetrain();

  AutoWlmConfig config_;
  std::deque<std::pair<plan::PlanFeatures, double>> pool_;
  gbt::GbdtModel model_;
  bool trained_ = false;
  int trainings_ = 0;
  size_t observed_since_train_ = 0;
};

}  // namespace stage::core

#endif  // STAGE_CORE_AUTOWLM_H_
