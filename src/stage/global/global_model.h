#ifndef STAGE_GLOBAL_GLOBAL_MODEL_H_
#define STAGE_GLOBAL_GLOBAL_MODEL_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <vector>

#include "stage/common/rng.h"
#include "stage/common/thread_pool.h"
#include "stage/fleet/instance.h"
#include "stage/nn/mlp.h"
#include "stage/nn/tree_gcn.h"
#include "stage/plan/featurizer.h"
#include "stage/plan/plan.h"

namespace stage::global {

// Width of the system feature vector concatenated with the GCN's root
// representation (§4.4): node-type one-hot, cluster shape, concurrency,
// and a summarization of the query plan.
inline constexpr int kSystemFeatureDim =
    static_cast<int>(fleet::NodeType::kNumNodeTypes) + 7;

// Builds the system vector from the *observable* instance properties plus
// the per-query concurrency. Never touches the hidden ground-truth fields.
std::vector<float> SystemFeatures(const fleet::InstanceConfig& instance,
                                  const plan::Plan& plan,
                                  int concurrent_queries);

// Same, written into `out` (exactly kSystemFeatureDim floats) — the
// allocation-free form the serving path uses.
void SystemFeaturesInto(const fleet::InstanceConfig& instance,
                        const plan::Plan& plan, int concurrent_queries,
                        float* out);

// One prepared training example (featurized once, reused every epoch).
struct GlobalExample {
  std::vector<float> node_features;  // [n x kNodeFeatureDim].
  std::vector<std::vector<int32_t>> children;
  std::vector<float> system_features;  // [kSystemFeatureDim].
  double target = 0.0;                 // log1p(exec seconds).
};

GlobalExample MakeGlobalExample(const plan::Plan& plan,
                                const fleet::InstanceConfig& instance,
                                int concurrent_queries, double exec_seconds);

// One inference request for PredictBatch: the (plan, concurrency) pair of
// PredictSeconds, featurized inside the batch call.
struct GlobalQuery {
  const plan::Plan* plan = nullptr;
  int concurrent_queries = 0;
};

struct GlobalModelConfig {
  // Architecture. The paper trains hidden 512 x 8 layers on GPUs; the CPU
  // default here keeps fleet-scale training minutes-scale while preserving
  // the architecture (documented in DESIGN.md).
  int hidden_dim = 48;
  int num_layers = 3;
  float dropout = 0.2f;
  std::vector<int> head_hidden = {64, 32};

  // Optimization.
  nn::AdamConfig adam;
  int epochs = 8;
  int batch_size = 16;
  double huber_delta = 1.0;  // Huber loss on log1p targets.
  uint64_t seed = 7;
  // When > 0, hold out this fraction for a validation metric.
  double validation_fraction = 0.1;

  // Fan each minibatch's GEMMs out across a thread pool (the `pool`
  // argument of Train, ThreadPool::Shared() when unset). Gradient
  // accumulation is tiled per output element, so trained bytes are
  // IDENTICAL for every pool width and for the serial path (this flag
  // off) — the flag is a scheduling choice, never a results choice.
  bool parallel_train = true;
};

// Stage 3 (§4.4): the fleet-trained, instance-independent graph
// convolutional network over physical plan trees.
//
// Thread-safety: all Predict* methods are const and keep their scratch in
// thread-local arenas, so concurrent calls from any number of threads are
// safe (and allocation-free once each thread's scratch has warmed up).
class GlobalModel {
 public:
  GlobalModel() = default;

  // Trains on examples pooled across many instances. Returns the trained
  // model; `val_mae_log` (optional) receives the final held-out MAE in
  // log space. Minibatches run level-order batched over the whole forest
  // (one GEMM per layer per transform); with config.parallel_train the
  // GEMMs fan out on `pool` (ThreadPool::Shared() when null) with bytes
  // identical to the serial path.
  static GlobalModel Train(const std::vector<GlobalExample>& examples,
                           const GlobalModelConfig& config,
                           double* val_mae_log = nullptr,
                           ThreadPool* pool = nullptr);

  bool trained() const { return trained_; }

  // Predicted exec-time in seconds for a (plan, instance, load) triple.
  // Allocation-free once this thread's scratch is warm.
  double PredictSeconds(const plan::Plan& plan,
                        const fleet::InstanceConfig& instance,
                        int concurrent_queries) const;

  // Prediction from a prepared example (no refeaturization).
  double PredictSecondsFromExample(const GlobalExample& example) const;

  // Batched PredictSeconds: featurizes every query once, then runs ONE
  // level-order GCN pass over the whole forest (each layer only over the
  // nodes some root can still see) and one batched head pass.
  // out_seconds[i] is bit-for-bit identical to
  // PredictSeconds(*queries[i].plan, instance, queries[i].concurrent_queries)
  // for every batch size; `pool` only fans out the GEMMs. Requires
  // out_seconds.size() == queries.size().
  void PredictBatch(std::span<const GlobalQuery> queries,
                    const fleet::InstanceConfig& instance,
                    std::span<double> out_seconds,
                    ThreadPool* pool = nullptr) const;

  size_t MemoryBytes() const;

  // Checkpointing: train once on the fleet, ship the file to every
  // instance (the paper deploys the global model as a shared service).
  // Save requires trained(); Load yields a trained, inference-ready model.
  void Save(std::ostream& out) const;
  bool Load(std::istream& in);

 private:
  struct Scratch;  // Per-thread inference scratch (global_model.cc).
  static Scratch& TlsScratch();

  double ForwardTarget(const GlobalExample& example) const;
  // Shared tail of every predict path: with scratch.batch built
  // (tree-major, by AddTree), re-lays it out in level order, runs the
  // receptive-field-pruned GCN + head in eval mode and returns the head
  // output [num_trees x 1] inside scratch. `system_rows` is
  // [num_trees x kSystemFeatureDim].
  const float* ForwardPrepared(Scratch& scratch, const float* system_rows,
                               ThreadPool* pool) const;

  GlobalModelConfig config_;
  nn::TreeGcn gcn_;
  nn::Mlp head_;
  bool trained_ = false;
};

}  // namespace stage::global

#endif  // STAGE_GLOBAL_GLOBAL_MODEL_H_
