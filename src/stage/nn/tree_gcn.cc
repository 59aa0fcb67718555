#include "stage/nn/tree_gcn.h"

#include <algorithm>
#include <cmath>

#include "stage/common/macros.h"
#include "stage/common/serialize.h"

namespace stage::nn {

void TreeGcn::Init(const Config& config, Rng& rng) {
  STAGE_CHECK(config.input_dim > 0);
  STAGE_CHECK(config.hidden_dim > 0);
  STAGE_CHECK(config.num_layers >= 1);
  STAGE_CHECK(config.dropout >= 0.0f && config.dropout < 1.0f);
  config_ = config;
  self_.resize(config.num_layers);
  child_.resize(config.num_layers);
  for (int l = 0; l < config.num_layers; ++l) {
    self_[l].Init(LayerInDim(l), config.hidden_dim, rng);
    child_[l].Init(LayerInDim(l), config.hidden_dim, rng);
  }
}

const float* TreeGcn::Forward(
    const float* node_features, int num_nodes,
    const std::vector<std::vector<int32_t>>& children, Workspace* ws,
    bool train, Rng* rng) const {
  STAGE_CHECK(ws != nullptr);
  STAGE_CHECK(num_nodes > 0);
  ws->single.Clear(config_.input_dim);
  ws->single.AddTree(node_features, num_nodes, children);
  return ForwardBatch(ws->single, ws, train, rng);
}

void TreeGcn::Backward(const float* droot,
                       const std::vector<std::vector<int32_t>>& children,
                       Workspace& ws) {
  STAGE_CHECK(static_cast<int>(children.size()) == ws.single.num_nodes());
  BackwardBatch(droot, ws.single, ws);
}

const float* TreeGcn::ForwardBatch(const TreeBatch& batch, Workspace* ws,
                                   bool train, Rng* rng,
                                   ThreadPool* pool) const {
  STAGE_CHECK(ws != nullptr);
  STAGE_CHECK(batch.num_nodes() > 0);
  STAGE_CHECK(batch.feature_dim() == config_.input_dim);
  const int num_layers = config_.num_layers;
  const int h = config_.hidden_dim;
  const int n = batch.num_nodes();
  const bool masked = train && config_.dropout > 0.0f;
  if (masked) STAGE_CHECK(rng != nullptr);

  ws->arena.Reset();
  ws->num_nodes = n;
  ws->acts.assign(num_layers + 1, nullptr);
  ws->aggs.assign(num_layers, nullptr);
  ws->masks.assign(num_layers, nullptr);
  ws->layer_rows.assign(num_layers, 0);
  // The batch's gathered feature matrix IS layer 0 — read-only alias, no
  // copy. (The arena must not be reset between a batch build and Backward,
  // which Forward's structure guarantees.)
  ws->acts[0] = const_cast<float*>(batch.features());

  for (int l = 0; l < num_layers; ++l) {
    const int in_dim = LayerInDim(l);
    const float* in = ws->acts[l];
    // The rows this layer feeds to the root (tree_gcn.h). Their children
    // have depth <= num_layers - l, all inside the previous layer's rows.
    const int rows = batch.RowsThroughDepth(num_layers - 1 - l);
    ws->layer_rows[l] = rows;
    // Child aggregation: one streaming sweep. Each node's children occupy a
    // contiguous slot range (tree_batch.h), appended in original child-list
    // order, so every node's sum matches the naive walk term for term.
    float* agg =
        ws->arena.AllocZeroed(static_cast<size_t>(rows) * in_dim);
    ws->aggs[l] = agg;
    for (int s = 0; s < rows; ++s) {
      const int32_t count = batch.child_count(s);
      if (count == 0) continue;
      const float inv = 1.0f / static_cast<float>(count);
      float* row = agg + static_cast<size_t>(s) * in_dim;
      const float* cf =
          in + static_cast<size_t>(batch.child_start(s)) * in_dim;
      for (int32_t c = 0; c < count; ++c, cf += in_dim) {
        for (int j = 0; j < in_dim; ++j) row[j] += cf[j];
      }
      for (int j = 0; j < in_dim; ++j) row[j] *= inv;
    }

    // One GEMM per transform over the layer's rows of every tree: out =
    // self(in), then out += child(agg) — the same z[j] + child_part[j]
    // order as the naive walk.
    float* out = ws->arena.Alloc(static_cast<size_t>(rows) * h);
    float* child_out = ws->arena.Alloc(static_cast<size_t>(rows) * h);
    ws->acts[l + 1] = out;
    self_[l].ForwardBatch(in, rows, out, pool);
    child_[l].ForwardBatch(agg, rows, child_out, pool);

    const size_t count = static_cast<size_t>(rows) * h;
    if (masked) {
      const float scale = 1.0f / (1.0f - config_.dropout);
      float* mask = ws->arena.Alloc(count);
      ws->masks[l] = mask;
      // Mask draws happen here, serially, in slot-major order: the rng
      // stream — hence the trained model — never depends on the pool.
      for (size_t i = 0; i < count; ++i) {
        float v = out[i] + child_out[i];
        v = v > 0.0f ? v : 0.0f;  // ReLU.
        const float m = rng->NextBernoulli(config_.dropout) ? 0.0f : scale;
        mask[i] = m;
        out[i] = v * m;
      }
    } else {
      for (size_t i = 0; i < count; ++i) {
        const float v = out[i] + child_out[i];
        out[i] = v > 0.0f ? v : 0.0f;  // ReLU.
      }
    }
  }

  // Gather each tree's root row.
  const int num_trees = batch.num_trees();
  float* roots = ws->arena.Alloc(static_cast<size_t>(num_trees) * h);
  ws->roots = roots;
  const float* top = ws->acts[num_layers];
  for (int t = 0; t < num_trees; ++t) {
    const float* src = top + static_cast<size_t>(batch.root_slot(t)) * h;
    std::copy(src, src + h, roots + static_cast<size_t>(t) * h);
  }
  return roots;
}

void TreeGcn::BackwardBatch(const float* droots, const TreeBatch& batch,
                            Workspace& ws, ThreadPool* pool) {
  const int num_layers = config_.num_layers;
  const int h = config_.hidden_dim;
  const int n = ws.num_nodes;
  STAGE_CHECK(batch.num_nodes() == n);
  STAGE_CHECK(static_cast<int>(ws.acts.size()) == num_layers + 1);
  // Layer rows only shrink with depth, so the last layer covering every
  // row means every layer did.
  STAGE_CHECK_MSG(ws.layer_rows.back() == n,
                  "BackwardBatch after a pruned (level-order) forward");

  // dL/d acts[num_layers]: only root slots receive an external gradient.
  float* dcur = ws.arena.AllocZeroed(static_cast<size_t>(n) * h);
  for (int t = 0; t < batch.num_trees(); ++t) {
    const float* src = droots + static_cast<size_t>(t) * h;
    float* dst = dcur + static_cast<size_t>(batch.root_slot(t)) * h;
    std::copy(src, src + h, dst);
  }

  float* dz = ws.arena.Alloc(static_cast<size_t>(n) * h);
  for (int l = num_layers; l-- > 0;) {
    const int in_dim = LayerInDim(l);
    // Gate through dropout + ReLU into dz (dcur is reused below as the next
    // layer's gradient buffer only after dprev replaces it).
    const float* act_out = ws.acts[l + 1];
    const float* mask = ws.masks[l];
    const size_t count = static_cast<size_t>(n) * h;
    for (size_t i = 0; i < count; ++i) {
      float g = dcur[i];
      if (act_out[i] <= 0.0f) {
        g = 0.0f;  // ReLU cut it or dropout dropped it.
      } else if (mask != nullptr) {
        g *= mask[i];
      }
      dz[i] = g;
    }

    float* dprev =
        ws.arena.AllocZeroed(static_cast<size_t>(n) * in_dim);
    float* dagg =
        ws.arena.AllocZeroed(static_cast<size_t>(n) * in_dim);
    self_[l].BackwardBatch(ws.acts[l], dz, n, dprev, pool);
    child_[l].BackwardBatch(ws.aggs[l], dz, n, dagg, pool);

    // Fan the child-mean gradient out to the children. Every node has at
    // most one parent, so writes are disjoint; order is fixed (parent slots
    // ascending), so bytes never depend on scheduling.
    for (int s = 0; s < n; ++s) {
      const int32_t cnt = batch.child_count(s);
      if (cnt == 0) continue;
      const float inv = 1.0f / static_cast<float>(cnt);
      const float* da = dagg + static_cast<size_t>(s) * in_dim;
      float* dchild =
          dprev + static_cast<size_t>(batch.child_start(s)) * in_dim;
      for (int32_t c = 0; c < cnt; ++c, dchild += in_dim) {
        for (int j = 0; j < in_dim; ++j) dchild[j] += da[j] * inv;
      }
    }
    dcur = dprev;
  }
}

void TreeGcn::ZeroGrad() {
  for (Linear& layer : self_) layer.ZeroGrad();
  for (Linear& layer : child_) layer.ZeroGrad();
}

void TreeGcn::Step(const AdamConfig& config, double grad_divisor) {
  for (Linear& layer : self_) layer.Step(config, grad_divisor);
  for (Linear& layer : child_) layer.Step(config, grad_divisor);
}

size_t TreeGcn::MemoryBytes() const {
  size_t bytes = 0;
  for (const Linear& layer : self_) bytes += layer.MemoryBytes();
  for (const Linear& layer : child_) bytes += layer.MemoryBytes();
  return bytes;
}

void TreeGcn::Save(std::ostream& out) const {
  WritePod<int32_t>(out, config_.input_dim);
  WritePod<int32_t>(out, config_.hidden_dim);
  WritePod<int32_t>(out, config_.num_layers);
  WritePod<float>(out, config_.dropout);
  for (const Linear& layer : self_) layer.Save(out);
  for (const Linear& layer : child_) layer.Save(out);
}

bool TreeGcn::Load(std::istream& in) {
  Config config;
  int32_t input_dim = 0;
  int32_t hidden_dim = 0;
  int32_t num_layers = 0;
  if (!ReadPod(in, &input_dim) || !ReadPod(in, &hidden_dim) ||
      !ReadPod(in, &num_layers) || !ReadPod(in, &config.dropout)) {
    return false;
  }
  if (input_dim <= 0 || hidden_dim <= 0 || num_layers <= 0 ||
      num_layers > 256) {
    return false;
  }
  // Reject corrupted dropout exactly like Init does: training with a NaN or
  // out-of-range rate would silently poison every activation.
  if (!(config.dropout >= 0.0f && config.dropout < 1.0f)) return false;
  config.input_dim = input_dim;
  config.hidden_dim = hidden_dim;
  config.num_layers = num_layers;
  config_ = config;
  self_.assign(num_layers, Linear());
  child_.assign(num_layers, Linear());
  for (Linear& layer : self_) {
    if (!layer.Load(in)) return false;
  }
  for (Linear& layer : child_) {
    if (!layer.Load(in)) return false;
  }
  return true;
}

}  // namespace stage::nn
