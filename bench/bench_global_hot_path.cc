// Global-model hot-path microbenchmark: quantifies the level-batched GEMM
// inference rewrite and the minibatched parallel trainer against the
// original per-node matvec walk. The Naive* structs below replicate the
// pre-rewrite code exactly (fresh workspace vectors per predict, one
// matvec per node per transform, per-example forward/backward training);
// the batched path is the production PredictSeconds/PredictBatch/Train
// code. The naive inference baseline loads the SAME checkpoint bytes as
// the production model, so the bench also acts as a bit-equivalence gate:
// it exits non-zero if any prediction differs. It also counts the GCN
// rows the receptive-field-pruned inference computes on the batch against
// the full node x layer grid (`gcn_rows`). Emits machine-readable
// BENCH_global_hot_path.json in the working directory.
//
// STAGE_BENCH_FAST=1 shrinks the workload for CI smoke runs.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <vector>

#include "stage/common/rng.h"
#include "stage/common/serialize.h"
#include "stage/common/stats.h"
#include "stage/common/thread_pool.h"
#include "stage/fleet/fleet.h"
#include "stage/global/global_model.h"
#include "stage/nn/tree_batch.h"
#include "stage/nn/tree_gcn.h"
#include "stage/plan/featurizer.h"

namespace {

std::atomic<bool> g_count_allocations{false};
std::atomic<uint64_t> g_allocations{0};

}  // namespace

// Counting overrides: the default operator new[] / delete[] forward here,
// so replacing this pair is enough to see every heap allocation. GCC
// falsely pairs the replaced scalar forms with the untouched array/aligned
// forms, so silence that diagnostic for this file.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace stage;

struct BenchConfig {
  bool fast = false;
  int num_instances = 6;     // Last one is held out for eval plans.
  int queries_per_instance = 400;
  int epochs = 4;
  int hidden_dim = 48;
  int num_layers = 3;
  std::vector<int> head_hidden = {64, 32};
  int single_plan_iters = 2000;
  int batch_plans = 2048;
  int batch_iters = 6;
  int alloc_probe_iters = 256;
};

BenchConfig MakeBenchConfig() {
  BenchConfig config;
  const char* fast = std::getenv("STAGE_BENCH_FAST");
  if (fast != nullptr && fast[0] != '\0' && fast[0] != '0') {
    config.fast = true;
    config.num_instances = 3;
    config.queries_per_instance = 120;
    config.epochs = 1;
    config.hidden_dim = 24;
    config.num_layers = 2;
    config.head_hidden = {24};
    config.single_plan_iters = 300;
    config.batch_plans = 256;
    config.batch_iters = 2;
    config.alloc_probe_iters = 64;
  }
  return config;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// ----------------------------------------------------------------------
// Pre-rewrite reference, replicated verbatim: per-node matvecs, fresh
// workspace vectors every call, per-example training. Loads the SAME
// checkpoint bytes the production model saves.
// ----------------------------------------------------------------------

struct NaiveParam {
  std::vector<float> value, grad, m, v;
  int64_t step_count = 0;

  void Init(size_t size, float scale, Rng& rng) {
    value.resize(size);
    grad.assign(size, 0.0f);
    m.assign(size, 0.0f);
    v.assign(size, 0.0f);
    for (float& x : value) {
      x = static_cast<float>(rng.NextUniform(-scale, scale));
    }
    step_count = 0;
  }

  void ZeroGrad() {
    for (float& g : grad) g = 0.0f;
  }

  void Step(const nn::AdamConfig& config, double grad_divisor) {
    ++step_count;
    const float inv = static_cast<float>(1.0 / grad_divisor);
    const float bias1 =
        1.0f - std::pow(config.beta1, static_cast<float>(step_count));
    const float bias2 =
        1.0f - std::pow(config.beta2, static_cast<float>(step_count));
    for (size_t i = 0; i < value.size(); ++i) {
      float g = grad[i] * inv + config.weight_decay * value[i];
      m[i] = config.beta1 * m[i] + (1.0f - config.beta1) * g;
      v[i] = config.beta2 * v[i] + (1.0f - config.beta2) * g * g;
      const float m_hat = m[i] / bias1;
      const float v_hat = v[i] / bias2;
      value[i] -=
          config.learning_rate * m_hat / (std::sqrt(v_hat) + config.epsilon);
    }
  }

  bool Load(std::istream& in) {
    if (!ReadVector(in, &value)) return false;
    grad.assign(value.size(), 0.0f);
    m.assign(value.size(), 0.0f);
    v.assign(value.size(), 0.0f);
    step_count = 0;
    return true;
  }
};

struct NaiveLinear {
  int in_dim = 0;
  int out_dim = 0;
  NaiveParam w, b;

  void Init(int in, int out, Rng& rng) {
    in_dim = in;
    out_dim = out;
    const float scale = std::sqrt(6.0f / static_cast<float>(in));
    w.Init(static_cast<size_t>(in) * out, scale, rng);
    b.Init(static_cast<size_t>(out), 0.0f, rng);
  }

  void Forward(const float* x, float* y) const {
    for (int o = 0; o < out_dim; ++o) {
      const float* row = w.value.data() + static_cast<size_t>(o) * in_dim;
      float acc = b.value[o];
      for (int i = 0; i < in_dim; ++i) acc += row[i] * x[i];
      y[o] = acc;
    }
  }

  void Backward(const float* x, const float* dy, float* dx) {
    for (int o = 0; o < out_dim; ++o) {
      const float g = dy[o];
      if (g == 0.0f) continue;
      float* wg_row = w.grad.data() + static_cast<size_t>(o) * in_dim;
      const float* w_row = w.value.data() + static_cast<size_t>(o) * in_dim;
      b.grad[o] += g;
      for (int i = 0; i < in_dim; ++i) {
        wg_row[i] += g * x[i];
        if (dx != nullptr) dx[i] += g * w_row[i];
      }
    }
  }

  void ZeroGrad() {
    w.ZeroGrad();
    b.ZeroGrad();
  }

  void Step(const nn::AdamConfig& config, double grad_divisor) {
    w.Step(config, grad_divisor);
    b.Step(config, grad_divisor);
  }

  bool Load(std::istream& in) {
    int32_t in32 = 0;
    int32_t out32 = 0;
    if (!ReadPod(in, &in32) || !ReadPod(in, &out32)) return false;
    if (in32 <= 0 || out32 <= 0) return false;
    if (!w.Load(in) || !b.Load(in)) return false;
    in_dim = in32;
    out_dim = out32;
    return true;
  }
};

struct NaiveMlpWs {
  std::vector<std::vector<float>> acts;
  std::vector<std::vector<float>> masks;
};

struct NaiveMlp {
  std::vector<int> dims;
  std::vector<NaiveLinear> layers;

  void Init(const std::vector<int>& d, Rng& rng) {
    dims = d;
    layers.resize(dims.size() - 1);
    for (size_t l = 0; l < layers.size(); ++l) {
      layers[l].Init(dims[l], dims[l + 1], rng);
    }
  }

  const float* Forward(const float* x, NaiveMlpWs* ws, bool train = false,
                       float dropout = 0.0f, Rng* rng = nullptr) const {
    const size_t num_layers = layers.size();
    ws->acts.resize(num_layers + 1);
    ws->masks.assign(num_layers, {});
    ws->acts[0].assign(x, x + dims[0]);
    for (size_t l = 0; l < num_layers; ++l) {
      ws->acts[l + 1].resize(dims[l + 1]);
      layers[l].Forward(ws->acts[l].data(), ws->acts[l + 1].data());
      if (l + 1 >= num_layers) break;
      std::vector<float>& act = ws->acts[l + 1];
      for (float& a : act) {
        if (a < 0.0f) a = 0.0f;  // ReLU.
      }
      if (train && dropout > 0.0f) {
        const float scale = 1.0f / (1.0f - dropout);
        std::vector<float>& mask = ws->masks[l];
        mask.resize(act.size());
        for (size_t i = 0; i < act.size(); ++i) {
          mask[i] = rng->NextBernoulli(dropout) ? 0.0f : scale;
          act[i] *= mask[i];
        }
      }
    }
    return ws->acts.back().data();
  }

  void Backward(const float* dout, NaiveMlpWs& ws, float* dx) {
    const size_t num_layers = layers.size();
    std::vector<float> delta(dout, dout + dims.back());
    std::vector<float> dprev;
    for (size_t l = num_layers; l-- > 0;) {
      dprev.assign(dims[l], 0.0f);
      layers[l].Backward(ws.acts[l].data(), delta.data(), dprev.data());
      if (l > 0) {
        const std::vector<float>& act = ws.acts[l];
        const std::vector<float>& mask = ws.masks[l - 1];
        for (int i = 0; i < dims[l]; ++i) {
          if (act[i] <= 0.0f) {
            dprev[i] = 0.0f;
          } else if (!mask.empty()) {
            dprev[i] *= mask[i];
          }
        }
      }
      delta = dprev;
    }
    if (dx != nullptr) {
      for (int i = 0; i < dims[0]; ++i) dx[i] += delta[i];
    }
  }

  void ZeroGrad() {
    for (NaiveLinear& layer : layers) layer.ZeroGrad();
  }

  void Step(const nn::AdamConfig& config, double grad_divisor) {
    for (NaiveLinear& layer : layers) layer.Step(config, grad_divisor);
  }

  bool Load(std::istream& in) {
    std::vector<int32_t> d32;
    if (!ReadVector(in, &d32) || d32.size() < 2) return false;
    dims.assign(d32.begin(), d32.end());
    layers.assign(dims.size() - 1, NaiveLinear());
    for (NaiveLinear& layer : layers) {
      if (!layer.Load(in)) return false;
    }
    return true;
  }
};

struct NaiveGcnWs {
  int num_nodes = 0;
  std::vector<std::vector<float>> acts;
  std::vector<std::vector<float>> aggs;
  std::vector<std::vector<float>> masks;
};

struct NaiveTreeGcn {
  int input_dim = 0;
  int hidden_dim = 0;
  int num_layers = 0;
  float dropout = 0.0f;
  std::vector<NaiveLinear> self;
  std::vector<NaiveLinear> child;

  int LayerInDim(int l) const { return l == 0 ? input_dim : hidden_dim; }

  void Init(int in, int hidden, int layers, float drop, Rng& rng) {
    input_dim = in;
    hidden_dim = hidden;
    num_layers = layers;
    dropout = drop;
    self.resize(layers);
    child.resize(layers);
    for (int l = 0; l < layers; ++l) {
      self[l].Init(LayerInDim(l), hidden, rng);
      child[l].Init(LayerInDim(l), hidden, rng);
    }
  }

  const float* Forward(const float* node_features, int num_nodes,
                       const std::vector<std::vector<int32_t>>& children,
                       NaiveGcnWs* ws, bool train = false,
                       Rng* rng = nullptr) const {
    const int h = hidden_dim;
    ws->num_nodes = num_nodes;
    ws->acts.resize(num_layers + 1);
    ws->aggs.resize(num_layers);
    ws->masks.assign(num_layers, {});
    ws->acts[0].assign(node_features,
                       node_features +
                           static_cast<size_t>(num_nodes) * input_dim);
    std::vector<float> z(h);
    std::vector<float> child_part(h);
    for (int l = 0; l < num_layers; ++l) {
      const int in_dim = LayerInDim(l);
      const std::vector<float>& in = ws->acts[l];
      ws->aggs[l].assign(static_cast<size_t>(num_nodes) * in_dim, 0.0f);
      ws->acts[l + 1].resize(static_cast<size_t>(num_nodes) * h);
      if (train && dropout > 0.0f) {
        ws->masks[l].resize(static_cast<size_t>(num_nodes) * h);
      }
      for (int i = 0; i < num_nodes; ++i) {
        float* agg = &ws->aggs[l][static_cast<size_t>(i) * in_dim];
        if (!children[i].empty()) {
          const float inv = 1.0f / static_cast<float>(children[i].size());
          for (int32_t c : children[i]) {
            const float* cf = &in[static_cast<size_t>(c) * in_dim];
            for (int j = 0; j < in_dim; ++j) agg[j] += cf[j];
          }
          for (int j = 0; j < in_dim; ++j) agg[j] *= inv;
        }
        self[l].Forward(&in[static_cast<size_t>(i) * in_dim], z.data());
        child[l].Forward(agg, child_part.data());
        float* out = &ws->acts[l + 1][static_cast<size_t>(i) * h];
        for (int j = 0; j < h; ++j) {
          float v = z[j] + child_part[j];
          v = v > 0.0f ? v : 0.0f;  // ReLU.
          if (!ws->masks[l].empty() && rng != nullptr) {
            const float scale = 1.0f / (1.0f - dropout);
            const float mask = rng->NextBernoulli(dropout) ? 0.0f : scale;
            ws->masks[l][static_cast<size_t>(i) * h + j] = mask;
            v *= mask;
          }
          out[j] = v;
        }
      }
    }
    return &ws->acts[num_layers][0];  // Root is node 0.
  }

  void Backward(const float* droot,
                const std::vector<std::vector<int32_t>>& children,
                NaiveGcnWs& ws) {
    const int h = hidden_dim;
    const int n = ws.num_nodes;
    std::vector<float> dcur(static_cast<size_t>(n) * h, 0.0f);
    for (int j = 0; j < h; ++j) dcur[j] = droot[j];
    std::vector<float> dz(h);
    std::vector<float> dagg;
    std::vector<float> dprev;
    for (int l = num_layers; l-- > 0;) {
      const int in_dim = LayerInDim(l);
      dprev.assign(static_cast<size_t>(n) * in_dim, 0.0f);
      const std::vector<float>& act_out = ws.acts[l + 1];
      const std::vector<float>& mask = ws.masks[l];
      for (int i = 0; i < n; ++i) {
        bool any = false;
        for (int j = 0; j < h; ++j) {
          const size_t idx = static_cast<size_t>(i) * h + j;
          float g = dcur[idx];
          if (act_out[idx] <= 0.0f) {
            g = 0.0f;
          } else if (!mask.empty()) {
            g *= mask[idx];
          }
          dz[j] = g;
          any = any || g != 0.0f;
        }
        if (!any) continue;
        float* dself = &dprev[static_cast<size_t>(i) * in_dim];
        self[l].Backward(&ws.acts[l][static_cast<size_t>(i) * in_dim],
                         dz.data(), dself);
        dagg.assign(in_dim, 0.0f);
        child[l].Backward(&ws.aggs[l][static_cast<size_t>(i) * in_dim],
                          dz.data(), dagg.data());
        if (!children[i].empty()) {
          const float inv = 1.0f / static_cast<float>(children[i].size());
          for (int32_t c : children[i]) {
            float* dchild = &dprev[static_cast<size_t>(c) * in_dim];
            for (int j = 0; j < in_dim; ++j) dchild[j] += dagg[j] * inv;
          }
        }
      }
      dcur = dprev;
    }
  }

  void ZeroGrad() {
    for (NaiveLinear& layer : self) layer.ZeroGrad();
    for (NaiveLinear& layer : child) layer.ZeroGrad();
  }

  void Step(const nn::AdamConfig& config, double grad_divisor) {
    for (NaiveLinear& layer : self) layer.Step(config, grad_divisor);
    for (NaiveLinear& layer : child) layer.Step(config, grad_divisor);
  }

  bool Load(std::istream& in) {
    int32_t in32 = 0;
    int32_t hidden32 = 0;
    int32_t layers32 = 0;
    if (!ReadPod(in, &in32) || !ReadPod(in, &hidden32) ||
        !ReadPod(in, &layers32) || !ReadPod(in, &dropout)) {
      return false;
    }
    input_dim = in32;
    hidden_dim = hidden32;
    num_layers = layers32;
    self.assign(num_layers, NaiveLinear());
    child.assign(num_layers, NaiveLinear());
    for (NaiveLinear& layer : self) {
      if (!layer.Load(in)) return false;
    }
    for (NaiveLinear& layer : child) {
      if (!layer.Load(in)) return false;
    }
    return true;
  }
};

double HuberGrad(double r, double delta) {
  if (r > delta) return delta;
  if (r < -delta) return -delta;
  return r;
}

struct NaiveGlobalModel {
  NaiveTreeGcn gcn;
  NaiveMlp head;

  // The production Save() stream: header, gcn, head.
  bool Load(std::istream& in) {
    if (!ReadHeader(in, 0x53474d4c, 1)) return false;
    return gcn.Load(in) && head.Load(in);
  }

  double ForwardTarget(const global::GlobalExample& example) const {
    NaiveGcnWs gcn_ws;
    NaiveMlpWs head_ws;
    std::vector<float> concat(gcn.hidden_dim + global::kSystemFeatureDim);
    const int n = static_cast<int>(example.children.size());
    const float* root = gcn.Forward(example.node_features.data(), n,
                                    example.children, &gcn_ws);
    std::copy(root, root + gcn.hidden_dim, concat.begin());
    std::copy(example.system_features.begin(), example.system_features.end(),
              concat.begin() + gcn.hidden_dim);
    const float* out = head.Forward(concat.data(), &head_ws);
    return static_cast<double>(out[0]);
  }

  double PredictSeconds(const plan::Plan& plan,
                        const fleet::InstanceConfig& instance,
                        int concurrent_queries) const {
    const global::GlobalExample example =
        global::MakeGlobalExample(plan, instance, concurrent_queries, 0.0);
    const double target = std::clamp(ForwardTarget(example), 0.0, 14.0);
    return std::max(0.0, std::expm1(target));
  }

  // The pre-rewrite trainer: per-example forward/backward, one tree at a
  // time, fresh shuffles per epoch. Used only for the wall-clock baseline.
  static NaiveGlobalModel Train(
      const std::vector<global::GlobalExample>& examples,
      const global::GlobalModelConfig& config) {
    NaiveGlobalModel model;
    Rng rng(config.seed);
    model.gcn.Init(plan::kNodeFeatureDim, config.hidden_dim,
                   config.num_layers, config.dropout, rng);
    std::vector<int> head_dims;
    head_dims.push_back(config.hidden_dim + global::kSystemFeatureDim);
    for (int h : config.head_hidden) head_dims.push_back(h);
    head_dims.push_back(1);
    model.head.Init(head_dims, rng);

    std::vector<size_t> order = rng.Permutation(examples.size());
    size_t num_val = 0;
    if (config.validation_fraction > 0.0 && examples.size() >= 20) {
      num_val = static_cast<size_t>(config.validation_fraction *
                                    static_cast<double>(examples.size()));
    }
    std::vector<size_t> train_rows(order.begin() + num_val, order.end());

    const int concat_dim = config.hidden_dim + global::kSystemFeatureDim;
    std::vector<float> concat(concat_dim);
    std::vector<float> dconcat(concat_dim);
    NaiveGcnWs gcn_ws;
    NaiveMlpWs head_ws;
    for (int epoch = 0; epoch < config.epochs; ++epoch) {
      std::vector<size_t> shuffled;
      shuffled.reserve(train_rows.size());
      for (size_t i : rng.Permutation(train_rows.size())) {
        shuffled.push_back(train_rows[i]);
      }
      train_rows = shuffled;

      size_t index = 0;
      while (index < train_rows.size()) {
        const size_t batch_end =
            std::min(index + static_cast<size_t>(config.batch_size),
                     train_rows.size());
        const double batch_size = static_cast<double>(batch_end - index);
        model.gcn.ZeroGrad();
        model.head.ZeroGrad();
        for (; index < batch_end; ++index) {
          const global::GlobalExample& example = examples[train_rows[index]];
          const int n = static_cast<int>(example.children.size());
          const float* root =
              model.gcn.Forward(example.node_features.data(), n,
                                example.children, &gcn_ws, true, &rng);
          std::copy(root, root + config.hidden_dim, concat.begin());
          std::copy(example.system_features.begin(),
                    example.system_features.end(),
                    concat.begin() + config.hidden_dim);
          const float* out = model.head.Forward(concat.data(), &head_ws, true,
                                                config.dropout, &rng);
          const double residual =
              static_cast<double>(out[0]) - example.target;
          const float dout =
              static_cast<float>(HuberGrad(residual, config.huber_delta));
          std::fill(dconcat.begin(), dconcat.end(), 0.0f);
          model.head.Backward(&dout, head_ws, dconcat.data());
          model.gcn.Backward(dconcat.data(), example.children, gcn_ws);
        }
        model.gcn.Step(config.adam, batch_size);
        model.head.Step(config.adam, batch_size);
      }
    }
    return model;
  }
};

struct LatencyStats {
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double mean_ns = 0.0;
};

template <typename Fn>
LatencyStats MeasureSinglePlan(const BenchConfig& config,
                               const std::vector<const plan::Plan*>& plans,
                               Fn&& predict, double* checksum) {
  std::vector<double> nanos;
  nanos.reserve(static_cast<size_t>(config.single_plan_iters));
  double sum = 0.0;
  for (int i = 0; i < config.single_plan_iters; ++i) {
    const plan::Plan* plan =
        plans[static_cast<size_t>(i) % plans.size()];
    const auto start = std::chrono::steady_clock::now();
    sum += predict(*plan);
    nanos.push_back(SecondsSince(start) * 1e9);
  }
  *checksum += sum;
  LatencyStats stats;
  stats.p50_ns = Quantile(nanos, 0.5);
  stats.p99_ns = Quantile(nanos, 0.99);
  double total = 0.0;
  for (double v : nanos) total += v;
  stats.mean_ns = total / static_cast<double>(nanos.size());
  return stats;
}

// Best-of-N plans/sec for one full pass over the batch.
template <typename Fn>
double MeasureBatch(const BenchConfig& config, size_t num_plans, Fn&& run) {
  double best = 0.0;
  for (int i = 0; i < config.batch_iters; ++i) {
    const auto start = std::chrono::steady_clock::now();
    run();
    const double seconds = SecondsSince(start);
    best = std::max(best, static_cast<double>(num_plans) / seconds);
  }
  return best;
}

template <typename Fn>
double AllocationsPerCall(int iters, Fn&& call) {
  g_allocations.store(0, std::memory_order_relaxed);
  g_count_allocations.store(true, std::memory_order_relaxed);
  for (int i = 0; i < iters; ++i) call();
  g_count_allocations.store(false, std::memory_order_relaxed);
  return static_cast<double>(g_allocations.load(std::memory_order_relaxed)) /
         static_cast<double>(iters);
}

}  // namespace

int main() {
  const BenchConfig config = MakeBenchConfig();

  fleet::FleetConfig fleet_config;
  fleet_config.num_instances = config.num_instances;
  fleet_config.workload.num_queries = config.queries_per_instance;
  fleet_config.seed = 7;
  fleet::FleetGenerator generator(fleet_config);
  const auto fleet = generator.GenerateFleet();

  std::vector<global::GlobalExample> examples;
  for (size_t i = 0; i + 1 < fleet.size(); ++i) {
    for (const auto& event : fleet[i].trace) {
      examples.push_back(global::MakeGlobalExample(
          event.plan, fleet[i].config, event.concurrent_queries,
          event.exec_seconds));
    }
  }
  const auto& eval_instance = fleet.back();
  std::vector<const plan::Plan*> eval_plans;
  for (const auto& event : eval_instance.trace) {
    eval_plans.push_back(&event.plan);
  }

  global::GlobalModelConfig model_config;
  model_config.hidden_dim = config.hidden_dim;
  model_config.num_layers = config.num_layers;
  model_config.head_hidden = config.head_hidden;
  model_config.epochs = config.epochs;

  // -- Training --------------------------------------------------------
  const auto naive_train_start = std::chrono::steady_clock::now();
  const NaiveGlobalModel naive_trained =
      NaiveGlobalModel::Train(examples, model_config);
  const double naive_train_seconds = SecondsSince(naive_train_start);

  const auto train_start = std::chrono::steady_clock::now();
  double val_mae = -1.0;
  const global::GlobalModel model =
      global::GlobalModel::Train(examples, model_config, &val_mae);
  const double train_seconds = SecondsSince(train_start);
  const double train_speedup =
      train_seconds > 0.0 ? naive_train_seconds / train_seconds : 0.0;
  std::printf("train (%zu examples, %d epochs): naive %.3fs, batched %.3fs "
              "(%.2fx), val MAE(log) %.4f\n",
              examples.size(), config.epochs, naive_train_seconds,
              train_seconds, train_speedup, val_mae);

  // Keep the naive-trained model's weights alive as a sanity checksum so
  // the baseline trainer cannot be dead-code eliminated.
  double checksum = naive_trained.PredictSeconds(
      *eval_plans[0], eval_instance.config, 1);

  // -- Bit-equivalence gate -------------------------------------------
  // The naive inference path loads the production checkpoint bytes and
  // must reproduce every prediction exactly.
  std::stringstream checkpoint;
  model.Save(checkpoint);
  NaiveGlobalModel naive;
  if (!naive.Load(checkpoint)) {
    std::fprintf(stderr, "naive baseline failed to parse checkpoint\n");
    return 1;
  }
  size_t mismatches = 0;
  for (size_t i = 0; i < eval_plans.size(); ++i) {
    const int concurrency = static_cast<int>(i % 7);
    const double a =
        naive.PredictSeconds(*eval_plans[i], eval_instance.config,
                             concurrency);
    const double b = model.PredictSeconds(*eval_plans[i],
                                          eval_instance.config, concurrency);
    if (std::memcmp(&a, &b, sizeof(double)) != 0) ++mismatches;
  }
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "FAIL: %zu/%zu batched predictions differ from the naive "
                 "reference\n",
                 mismatches, eval_plans.size());
    return 1;
  }
  std::printf("bit-equivalence: %zu/%zu predictions identical to the naive "
              "reference\n",
              eval_plans.size(), eval_plans.size());

  // -- Single-plan latency --------------------------------------------
  const LatencyStats baseline = MeasureSinglePlan(
      config, eval_plans,
      [&](const plan::Plan& plan) {
        return naive.PredictSeconds(plan, eval_instance.config, 2);
      },
      &checksum);
  const LatencyStats batched = MeasureSinglePlan(
      config, eval_plans,
      [&](const plan::Plan& plan) {
        return model.PredictSeconds(plan, eval_instance.config, 2);
      },
      &checksum);
  const double single_plan_speedup =
      batched.p50_ns > 0.0 ? baseline.p50_ns / batched.p50_ns : 0.0;
  std::printf("single-plan p50: naive %.0fns, batched %.0fns (%.2fx); "
              "p99: naive %.0fns, batched %.0fns\n",
              baseline.p50_ns, batched.p50_ns, single_plan_speedup,
              baseline.p99_ns, batched.p99_ns);

  // -- Batch throughput ------------------------------------------------
  std::vector<global::GlobalQuery> queries;
  queries.reserve(static_cast<size_t>(config.batch_plans));
  for (int i = 0; i < config.batch_plans; ++i) {
    queries.push_back({eval_plans[static_cast<size_t>(i) % eval_plans.size()],
                       i % 7});
  }
  std::vector<double> batch_out(queries.size(), 0.0);
  const double naive_plans_per_sec =
      MeasureBatch(config, queries.size(), [&] {
        for (size_t i = 0; i < queries.size(); ++i) {
          batch_out[i] = naive.PredictSeconds(*queries[i].plan,
                                              eval_instance.config,
                                              queries[i].concurrent_queries);
        }
      });
  checksum += batch_out[queries.size() / 2];
  const double batched_plans_per_sec =
      MeasureBatch(config, queries.size(), [&] {
        model.PredictBatch(queries, eval_instance.config, batch_out,
                           &ThreadPool::Shared());
      });
  checksum += batch_out[queries.size() / 2];
  const double batch_speedup =
      naive_plans_per_sec > 0.0 ? batched_plans_per_sec / naive_plans_per_sec
                                : 0.0;
  std::printf("batch (%zu plans): naive %.0f plans/s, batched %.0f plans/s "
              "(%.2fx, pool of %zu)\n",
              queries.size(), naive_plans_per_sec, batched_plans_per_sec,
              batch_speedup, ThreadPool::Shared().num_threads());

  // -- Receptive-field pruning ---------------------------------------
  // Predict paths run the GCN over a level-order forest, where layer l
  // computes only nodes of depth <= L-1-l. Count the GEMM rows that
  // actually ran on the batch above against the full node x layer grid,
  // with the production checkpoint and batch layout.
  std::istringstream gcn_stream(checkpoint.str());
  nn::TreeGcn gcn;
  if (!ReadHeader(gcn_stream, 0x53474d4c, 1) || !gcn.Load(gcn_stream)) {
    std::fprintf(stderr, "cannot parse the GCN from the checkpoint\n");
    return 1;
  }
  nn::TreeBatch forest;
  forest.Clear(plan::kNodeFeatureDim);
  std::vector<float> node_features;
  for (const global::GlobalQuery& query : queries) {
    const plan::Plan& plan = *query.plan;
    plan::NodeFeaturesInto(plan, &node_features);
    forest.AddTree(node_features.data(), plan.node_count(),
                   [&plan](int32_t i) -> const std::vector<int32_t>& {
                     return plan.node(i).children;
                   });
  }
  forest.ToLevelOrder();
  nn::TreeGcn::Workspace gcn_ws;
  gcn.ForwardBatch(forest, &gcn_ws);
  size_t computed_rows = 0;
  for (const int rows : gcn_ws.layer_rows) {
    computed_rows += static_cast<size_t>(rows);
  }
  const size_t total_rows = static_cast<size_t>(forest.num_nodes()) *
                            static_cast<size_t>(config.num_layers);
  const double computed_frac =
      static_cast<double>(computed_rows) / static_cast<double>(total_rows);
  std::printf("gcn rows (%d plans, %d nodes): computed %zu of %zu "
              "node-layer rows (%.1f%%)\n",
              forest.num_trees(), forest.num_nodes(), computed_rows,
              total_rows, 100.0 * computed_frac);

  // -- Allocations per predict ----------------------------------------
  const plan::Plan* probe_plan = eval_plans[0];
  // Warm the thread-local scratch before counting.
  checksum += model.PredictSeconds(*probe_plan, eval_instance.config, 2);
  const double naive_allocs =
      AllocationsPerCall(config.alloc_probe_iters, [&] {
        checksum +=
            naive.PredictSeconds(*probe_plan, eval_instance.config, 2);
      });
  const double batched_allocs =
      AllocationsPerCall(config.alloc_probe_iters, [&] {
        checksum +=
            model.PredictSeconds(*probe_plan, eval_instance.config, 2);
      });
  std::printf("allocations/predict: naive %.1f, batched %.1f "
              "(checksum %.6f)\n",
              naive_allocs, batched_allocs, checksum);

  // -- JSON ------------------------------------------------------------
  std::FILE* json = std::fopen("BENCH_global_hot_path.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr,
                 "cannot open BENCH_global_hot_path.json for write\n");
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"config\": {\"fast\": %s, \"num_examples\": %zu, "
               "\"epochs\": %d, \"hidden_dim\": %d, \"num_layers\": %d, "
               "\"pool_threads\": %zu},\n"
               "  \"train\": {\"naive_seconds\": %.6f, "
               "\"batched_seconds\": %.6f, \"speedup\": %.3f, "
               "\"val_mae_log\": %.6f},\n"
               "  \"bit_identical\": true,\n"
               "  \"single_plan\": {\n"
               "    \"naive_p50_ns\": %.1f, \"naive_p99_ns\": %.1f, "
               "\"naive_mean_ns\": %.1f,\n"
               "    \"batched_p50_ns\": %.1f, \"batched_p99_ns\": %.1f, "
               "\"batched_mean_ns\": %.1f,\n"
               "    \"speedup_p50\": %.3f\n"
               "  },\n"
               "  \"batch\": {\"plans\": %zu, "
               "\"naive_plans_per_sec\": %.1f, "
               "\"batched_plans_per_sec\": %.1f, \"speedup\": %.3f},\n"
               "  \"gcn_rows\": {\"computed\": %zu, \"total\": %zu, "
               "\"computed_frac\": %.4f},\n"
               "  \"allocations_per_predict\": "
               "{\"naive\": %.2f, \"batched\": %.2f}\n"
               "}\n",
               config.fast ? "true" : "false", examples.size(), config.epochs,
               config.hidden_dim, config.num_layers,
               ThreadPool::Shared().num_threads(), naive_train_seconds,
               train_seconds, train_speedup, val_mae, baseline.p50_ns,
               baseline.p99_ns, baseline.mean_ns, batched.p50_ns,
               batched.p99_ns, batched.mean_ns, single_plan_speedup,
               queries.size(), naive_plans_per_sec, batched_plans_per_sec,
               batch_speedup, computed_rows, total_rows, computed_frac,
               naive_allocs, batched_allocs);
  std::fclose(json);
  std::printf("wrote BENCH_global_hot_path.json\n");
  return 0;
}
