#include "stage/global/global_model.h"

#include <algorithm>
#include <cmath>

#include "stage/common/macros.h"
#include "stage/common/serialize.h"
#include "stage/nn/tree_batch.h"

namespace stage::global {

namespace {

float Log1p(double v) { return static_cast<float>(std::log1p(v < 0 ? 0 : v)); }

// Huber loss derivative w.r.t. the residual r = pred - target.
double HuberGrad(double r, double delta) {
  if (r > delta) return delta;
  if (r < -delta) return -delta;
  return r;
}

// log-space model output -> seconds (clamped to keep expm1 sane).
double TargetToSeconds(double target) {
  return std::max(0.0, std::expm1(std::clamp(target, 0.0, 14.0)));
}

}  // namespace

void SystemFeaturesInto(const fleet::InstanceConfig& instance,
                        const plan::Plan& plan, int concurrent_queries,
                        float* out) {
  std::fill(out, out + kSystemFeatureDim, 0.0f);
  const int type_slot = static_cast<int>(instance.node_type);
  STAGE_CHECK(type_slot <
              static_cast<int>(fleet::NodeType::kNumNodeTypes));
  out[type_slot] = 1.0f;
  int i = static_cast<int>(fleet::NodeType::kNumNodeTypes);
  out[i++] = Log1p(instance.num_nodes);
  out[i++] = Log1p(instance.memory_gb);
  out[i++] = Log1p(concurrent_queries);
  // Plan summarization (§4.4: "a summarization of the query plan").
  out[i++] = Log1p(plan.node_count());
  out[i++] = Log1p(plan.Depth());
  out[i++] = Log1p(plan.TotalEstimatedCost());
  out[i++] = Log1p(plan.node(plan.root()).estimated_cardinality);
  STAGE_CHECK(i == kSystemFeatureDim);
}

std::vector<float> SystemFeatures(const fleet::InstanceConfig& instance,
                                  const plan::Plan& plan,
                                  int concurrent_queries) {
  std::vector<float> features(kSystemFeatureDim, 0.0f);
  SystemFeaturesInto(instance, plan, concurrent_queries, features.data());
  return features;
}

GlobalExample MakeGlobalExample(const plan::Plan& plan,
                                const fleet::InstanceConfig& instance,
                                int concurrent_queries, double exec_seconds) {
  GlobalExample example;
  example.node_features = plan::NodeFeatures(plan);
  example.children.reserve(plan.node_count());
  for (const plan::PlanNode& node : plan.nodes()) {
    example.children.push_back(node.children);
  }
  example.system_features =
      SystemFeatures(instance, plan, concurrent_queries);
  example.target = std::log1p(std::max(0.0, exec_seconds));
  return example;
}

GlobalModel GlobalModel::Train(const std::vector<GlobalExample>& examples,
                               const GlobalModelConfig& config,
                               double* val_mae_log, ThreadPool* pool) {
  STAGE_CHECK(!examples.empty());
  GlobalModel model;
  model.config_ = config;
  // The pool only distributes GEMM tiles; every gradient element is
  // accumulated by one owner in a fixed order (nn/gemm.h), and all dropout
  // draws happen on this thread, so trained bytes are identical for every
  // pool width and for the serial path.
  ThreadPool* gemm_pool =
      config.parallel_train ? (pool != nullptr ? pool : &ThreadPool::Shared())
                            : nullptr;

  Rng rng(config.seed);
  nn::TreeGcn::Config gcn_config;
  gcn_config.input_dim = plan::kNodeFeatureDim;
  gcn_config.hidden_dim = config.hidden_dim;
  gcn_config.num_layers = config.num_layers;
  gcn_config.dropout = config.dropout;
  model.gcn_.Init(gcn_config, rng);

  std::vector<int> head_dims;
  head_dims.push_back(config.hidden_dim + kSystemFeatureDim);
  for (int h : config.head_hidden) head_dims.push_back(h);
  head_dims.push_back(1);
  model.head_.Init(head_dims, rng);

  // Train/validation split.
  std::vector<size_t> order = rng.Permutation(examples.size());
  size_t num_val = 0;
  if (config.validation_fraction > 0.0 && examples.size() >= 20) {
    num_val = static_cast<size_t>(config.validation_fraction *
                                  static_cast<double>(examples.size()));
  }
  std::vector<size_t> val_rows(order.begin(), order.begin() + num_val);
  std::vector<size_t> train_rows(order.begin() + num_val, order.end());
  STAGE_CHECK(!train_rows.empty());

  const int h = config.hidden_dim;
  const int concat_dim = h + kSystemFeatureDim;
  // Each minibatch runs as ONE forest: every example's plan tree goes into
  // a shared TreeBatch and the whole batch moves through the GCN + head as
  // two handfuls of GEMMs. All scratch below is reused across batches.
  nn::TreeBatch batch;
  nn::TreeGcn::Workspace gcn_ws;
  nn::Mlp::Workspace head_ws;
  std::vector<float> concat;
  std::vector<float> douts;
  std::vector<float> dconcat;
  std::vector<float> droots;

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    train_rows = [&] {
      // Reshuffle each epoch.
      std::vector<size_t> shuffled;
      shuffled.reserve(train_rows.size());
      for (size_t i : rng.Permutation(train_rows.size())) {
        shuffled.push_back(train_rows[i]);
      }
      return shuffled;
    }();

    size_t index = 0;
    while (index < train_rows.size()) {
      const size_t batch_end = std::min(
          index + static_cast<size_t>(config.batch_size), train_rows.size());
      const int b = static_cast<int>(batch_end - index);
      model.gcn_.ZeroGrad();
      model.head_.ZeroGrad();

      batch.Clear(plan::kNodeFeatureDim);
      for (size_t r = index; r < batch_end; ++r) {
        const GlobalExample& example = examples[train_rows[r]];
        batch.AddTree(example.node_features.data(),
                      static_cast<int>(example.children.size()),
                      example.children);
      }
      const float* roots =
          model.gcn_.ForwardBatch(batch, &gcn_ws, /*train=*/true, &rng,
                                  gemm_pool);
      concat.resize(static_cast<size_t>(b) * concat_dim);
      for (int r = 0; r < b; ++r) {
        float* row = concat.data() + static_cast<size_t>(r) * concat_dim;
        std::copy(roots + static_cast<size_t>(r) * h,
                  roots + static_cast<size_t>(r + 1) * h, row);
        const GlobalExample& example = examples[train_rows[index + r]];
        std::copy(example.system_features.begin(),
                  example.system_features.end(), row + h);
      }
      const float* out =
          model.head_.ForwardBatch(concat.data(), b, &head_ws, /*train=*/true,
                                   config.dropout, &rng, gemm_pool);

      douts.resize(b);
      for (int r = 0; r < b; ++r) {
        const GlobalExample& example = examples[train_rows[index + r]];
        const double residual =
            static_cast<double>(out[r]) - example.target;
        douts[r] =
            static_cast<float>(HuberGrad(residual, config.huber_delta));
      }

      dconcat.assign(static_cast<size_t>(b) * concat_dim, 0.0f);
      model.head_.BackwardBatch(douts.data(), head_ws, dconcat.data(),
                                gemm_pool);
      // Only the first h columns flow back into the GCN; the system slice
      // is input, its gradient is discarded.
      droots.resize(static_cast<size_t>(b) * h);
      for (int r = 0; r < b; ++r) {
        const float* src = dconcat.data() + static_cast<size_t>(r) * concat_dim;
        std::copy(src, src + h, droots.data() + static_cast<size_t>(r) * h);
      }
      model.gcn_.BackwardBatch(droots.data(), batch, gcn_ws, gemm_pool);

      model.gcn_.Step(config.adam,
                      static_cast<double>(batch_end - index));
      model.head_.Step(config.adam,
                       static_cast<double>(batch_end - index));
      index = batch_end;
    }
  }
  model.trained_ = true;

  if (val_mae_log != nullptr) {
    double total = 0.0;
    const std::vector<size_t>& rows = num_val > 0 ? val_rows : train_rows;
    for (size_t row : rows) {
      total += std::abs(model.ForwardTarget(examples[row]) -
                        examples[row].target);
    }
    *val_mae_log = rows.empty() ? 0.0
                                : total / static_cast<double>(rows.size());
  }
  return model;
}

// Per-thread inference scratch: every Predict* path builds its forest and
// runs the workspaces in here, so const concurrent prediction is safe and
// allocation-free once a thread has seen its largest batch.
struct GlobalModel::Scratch {
  nn::TreeBatch batch;
  nn::TreeGcn::Workspace gcn_ws;
  nn::Mlp::Workspace head_ws;
  std::vector<float> node_features;
  std::vector<float> system;  // [num_trees x kSystemFeatureDim].
  std::vector<float> concat;  // [num_trees x (hidden + system)].
};

GlobalModel::Scratch& GlobalModel::TlsScratch() {
  thread_local Scratch scratch;
  return scratch;
}

const float* GlobalModel::ForwardPrepared(Scratch& scratch,
                                          const float* system_rows,
                                          ThreadPool* pool) const {
  const int num_trees = scratch.batch.num_trees();
  const int h = config_.hidden_dim;
  const int concat_dim = h + kSystemFeatureDim;
  // Inference layout: the GCN then computes only each root's receptive
  // field, with roots bit-identical to the full pass (nn/tree_gcn.h).
  scratch.batch.ToLevelOrder();
  const float* roots =
      gcn_.ForwardBatch(scratch.batch, &scratch.gcn_ws, /*train=*/false,
                        nullptr, pool);
  scratch.concat.resize(static_cast<size_t>(num_trees) * concat_dim);
  for (int t = 0; t < num_trees; ++t) {
    float* row = scratch.concat.data() + static_cast<size_t>(t) * concat_dim;
    std::copy(roots + static_cast<size_t>(t) * h,
              roots + static_cast<size_t>(t + 1) * h, row);
    std::copy(system_rows + static_cast<size_t>(t) * kSystemFeatureDim,
              system_rows + static_cast<size_t>(t + 1) * kSystemFeatureDim,
              row + h);
  }
  return head_.ForwardBatch(scratch.concat.data(), num_trees,
                            &scratch.head_ws, /*train=*/false, 0.0f, nullptr,
                            pool);
}

double GlobalModel::ForwardTarget(const GlobalExample& example) const {
  Scratch& scratch = TlsScratch();
  scratch.batch.Clear(plan::kNodeFeatureDim);
  scratch.batch.AddTree(example.node_features.data(),
                        static_cast<int>(example.children.size()),
                        example.children);
  STAGE_DCHECK(example.system_features.size() ==
               static_cast<size_t>(kSystemFeatureDim));
  const float* out =
      ForwardPrepared(scratch, example.system_features.data(), nullptr);
  return static_cast<double>(out[0]);
}

double GlobalModel::PredictSecondsFromExample(
    const GlobalExample& example) const {
  STAGE_CHECK(trained_);
  return TargetToSeconds(ForwardTarget(example));
}

double GlobalModel::PredictSeconds(const plan::Plan& plan,
                                   const fleet::InstanceConfig& instance,
                                   int concurrent_queries) const {
  STAGE_CHECK(trained_);
  Scratch& scratch = TlsScratch();
  scratch.batch.Clear(plan::kNodeFeatureDim);
  plan::NodeFeaturesInto(plan, &scratch.node_features);
  scratch.batch.AddTree(
      scratch.node_features.data(), plan.node_count(),
      [&plan](int32_t i) -> const std::vector<int32_t>& {
        return plan.node(i).children;
      });
  scratch.system.resize(kSystemFeatureDim);
  SystemFeaturesInto(instance, plan, concurrent_queries,
                     scratch.system.data());
  const float* out = ForwardPrepared(scratch, scratch.system.data(), nullptr);
  return TargetToSeconds(static_cast<double>(out[0]));
}

void GlobalModel::PredictBatch(std::span<const GlobalQuery> queries,
                               const fleet::InstanceConfig& instance,
                               std::span<double> out_seconds,
                               ThreadPool* pool) const {
  STAGE_CHECK(trained_);
  STAGE_CHECK(queries.size() == out_seconds.size());
  if (queries.empty()) return;
  Scratch& scratch = TlsScratch();
  scratch.batch.Clear(plan::kNodeFeatureDim);
  scratch.system.resize(queries.size() *
                        static_cast<size_t>(kSystemFeatureDim));
  for (size_t q = 0; q < queries.size(); ++q) {
    const plan::Plan* plan = queries[q].plan;
    STAGE_CHECK(plan != nullptr);
    plan::NodeFeaturesInto(*plan, &scratch.node_features);
    scratch.batch.AddTree(
        scratch.node_features.data(), plan->node_count(),
        [plan](int32_t i) -> const std::vector<int32_t>& {
          return plan->node(i).children;
        });
    SystemFeaturesInto(instance, *plan, queries[q].concurrent_queries,
                       scratch.system.data() +
                           q * static_cast<size_t>(kSystemFeatureDim));
  }
  const float* out = ForwardPrepared(scratch, scratch.system.data(), pool);
  for (size_t q = 0; q < queries.size(); ++q) {
    out_seconds[q] = TargetToSeconds(static_cast<double>(out[q]));
  }
}

size_t GlobalModel::MemoryBytes() const {
  return gcn_.MemoryBytes() + head_.MemoryBytes();
}

namespace {
constexpr uint32_t kGlobalMagic = 0x53474d4c;  // "SGML".
constexpr uint32_t kGlobalVersion = 1;
}  // namespace

void GlobalModel::Save(std::ostream& out) const {
  STAGE_CHECK_MSG(trained_, "cannot save an untrained global model");
  WriteHeader(out, kGlobalMagic, kGlobalVersion);
  gcn_.Save(out);
  head_.Save(out);
}

bool GlobalModel::Load(std::istream& in) {
  if (!ReadHeader(in, kGlobalMagic, kGlobalVersion)) return false;
  if (!gcn_.Load(in) || !head_.Load(in)) return false;
  // The head must accept [gcn hidden + system features].
  if (head_.in_dim() != gcn_.hidden_dim() + kSystemFeatureDim) return false;
  config_.hidden_dim = gcn_.hidden_dim();
  trained_ = true;
  return true;
}

}  // namespace stage::global
