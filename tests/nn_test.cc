#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stage/common/rng.h"
#include "stage/common/serialize.h"
#include "stage/common/thread_pool.h"
#include "stage/nn/gemm.h"
#include "stage/nn/linear.h"
#include "stage/nn/mlp.h"
#include "stage/nn/param.h"
#include "stage/nn/tree_batch.h"
#include "stage/nn/tree_gcn.h"

namespace {

std::atomic<bool> g_count_allocations{false};
std::atomic<uint64_t> g_allocations{0};

}  // namespace

// Counting overrides (the array forms forward here), so the warm-path
// allocation tests below see every heap allocation in the process.
// GCC pairs the replaced scalar forms against the untouched array/aligned
// forms and warns; both sides here are plain malloc/free.
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

namespace stage::nn {
namespace {

testing::AssertionResult BitEqual(const float* a, const float* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
      return testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return testing::AssertionSuccess();
}

void FillUniform(std::vector<float>* v, Rng& rng, double lo = -1.0,
                 double hi = 1.0) {
  for (float& f : *v) f = static_cast<float>(rng.NextUniform(lo, hi));
}

// ---- Naive references, parsed from the (stable) checkpoint streams ----
//
// The golden-equivalence tests below compare the batched GEMM execution
// against an independent reimplementation of the original per-element /
// per-node loops, with weights read back from Save(). If the kernels ever
// reassociate a reduction, these tests fail on the exact element.

struct ParsedLinear {
  int in = 0;
  int out = 0;
  std::vector<float> w;  // Row-major [out x in].
  std::vector<float> b;  // [out].

  bool Parse(std::istream& s) {
    int32_t in32 = 0;
    int32_t out32 = 0;
    if (!ReadPod(s, &in32) || !ReadPod(s, &out32)) return false;
    in = in32;
    out = out32;
    return ReadVector(s, &w) && ReadVector(s, &b);
  }

  void Forward(const float* x, float* y) const {
    for (int o = 0; o < out; ++o) {
      const float* row = w.data() + static_cast<size_t>(o) * in;
      float acc = b[o];
      for (int i = 0; i < in; ++i) acc += row[i] * x[i];
      y[o] = acc;
    }
  }
};

struct ParsedTreeGcn {
  int input_dim = 0;
  int hidden_dim = 0;
  int num_layers = 0;
  float dropout = 0.0f;
  std::vector<ParsedLinear> self;
  std::vector<ParsedLinear> child;

  bool Parse(std::istream& s) {
    int32_t in32 = 0;
    int32_t hidden32 = 0;
    int32_t layers32 = 0;
    if (!ReadPod(s, &in32) || !ReadPod(s, &hidden32) ||
        !ReadPod(s, &layers32) || !ReadPod(s, &dropout)) {
      return false;
    }
    input_dim = in32;
    hidden_dim = hidden32;
    num_layers = layers32;
    self.resize(static_cast<size_t>(num_layers));
    child.resize(static_cast<size_t>(num_layers));
    for (ParsedLinear& layer : self) {
      if (!layer.Parse(s)) return false;
    }
    for (ParsedLinear& layer : child) {
      if (!layer.Parse(s)) return false;
    }
    return true;
  }

  // The naive per-node walk (eval mode): for every layer, every node runs
  // two matrix-vector products against its own features and the mean of its
  // children's. Returns the root (node 0) representation.
  std::vector<float> Forward(
      const float* feats,
      const std::vector<std::vector<int32_t>>& children) const {
    const int n = static_cast<int>(children.size());
    std::vector<float> cur(feats, feats + static_cast<size_t>(n) * input_dim);
    std::vector<float> next;
    std::vector<float> agg;
    std::vector<float> z(static_cast<size_t>(hidden_dim));
    std::vector<float> c(static_cast<size_t>(hidden_dim));
    for (int l = 0; l < num_layers; ++l) {
      const int in_dim = l == 0 ? input_dim : hidden_dim;
      next.assign(static_cast<size_t>(n) * hidden_dim, 0.0f);
      agg.assign(static_cast<size_t>(in_dim), 0.0f);
      for (int node = 0; node < n; ++node) {
        std::fill(agg.begin(), agg.end(), 0.0f);
        if (!children[node].empty()) {
          for (int32_t ch : children[node]) {
            const float* cf = cur.data() + static_cast<size_t>(ch) * in_dim;
            for (int j = 0; j < in_dim; ++j) agg[j] += cf[j];
          }
          const float inv =
              1.0f / static_cast<float>(children[node].size());
          for (int j = 0; j < in_dim; ++j) agg[j] *= inv;
        }
        self[l].Forward(cur.data() + static_cast<size_t>(node) * in_dim,
                        z.data());
        child[l].Forward(agg.data(), c.data());
        float* out = next.data() + static_cast<size_t>(node) * hidden_dim;
        for (int j = 0; j < hidden_dim; ++j) {
          const float v = z[j] + c[j];
          out[j] = v > 0.0f ? v : 0.0f;  // ReLU.
        }
      }
      cur.swap(next);
    }
    return std::vector<float>(cur.begin(), cur.begin() + hidden_dim);
  }
};

// Random tree over n nodes rooted at 0; parents precede children, child
// lists stay in ascending (original) order.
std::vector<std::vector<int32_t>> RandomTree(int n, Rng& rng) {
  std::vector<std::vector<int32_t>> children(n);
  for (int i = 1; i < n; ++i) {
    int parent = static_cast<int>(rng.NextUniform(0.0, i));
    if (parent >= i) parent = i - 1;
    if (parent < 0) parent = 0;
    children[parent].push_back(i);
  }
  return children;
}

std::vector<std::vector<int32_t>> Chain(int n) {
  std::vector<std::vector<int32_t>> children(n);
  for (int i = 0; i + 1 < n; ++i) children[i] = {i + 1};
  return children;
}

std::vector<std::vector<int32_t>> Star(int fanout) {
  std::vector<std::vector<int32_t>> children(fanout + 1);
  for (int i = 1; i <= fanout; ++i) children[0].push_back(i);
  return children;
}

TEST(ParamTest, InitWithinScale) {
  Rng rng(1);
  Param param;
  param.Init(100, 0.5f, rng);
  for (size_t i = 0; i < param.size(); ++i) {
    EXPECT_LE(std::abs(param.data()[i]), 0.5f);
  }
}

TEST(ParamTest, AdamStepDescendsQuadratic) {
  // Minimize f(w) = (w - 3)^2 by feeding grad = 2(w - 3).
  Rng rng(2);
  Param param;
  param.Init(1, 0.1f, rng);
  AdamConfig config;
  config.learning_rate = 0.05f;
  for (int step = 0; step < 500; ++step) {
    param.ZeroGrad();
    param.grad()[0] = 2.0f * (param.data()[0] - 3.0f);
    param.Step(config, 1.0);
  }
  EXPECT_NEAR(param.data()[0], 3.0f, 0.05f);
}

TEST(LinearTest, ForwardMatchesManualComputation) {
  Rng rng(3);
  Linear layer;
  layer.Init(2, 1, rng);
  // Overwrite weights for determinism via a backward-free trick: run
  // forward on basis vectors to read the weights.
  const float e0[2] = {1.0f, 0.0f};
  const float e1[2] = {0.0f, 1.0f};
  const float zero[2] = {0.0f, 0.0f};
  float w0, w1, b;
  layer.Forward(zero, &b);
  layer.Forward(e0, &w0);
  layer.Forward(e1, &w1);
  const float x[2] = {2.0f, -3.0f};
  float y;
  layer.Forward(x, &y);
  EXPECT_NEAR(y, (w0 - b) * 2.0f + (w1 - b) * -3.0f + b, 1e-5);
}

TEST(LinearTest, ForwardBatchBitEqualsNaivePerRow) {
  Rng rng(21);
  Linear layer;
  layer.Init(19, 11, rng);
  // 147 rows: two full 64-row blocks plus a ragged tail.
  const int rows = 147;
  std::vector<float> x(static_cast<size_t>(rows) * 19);
  FillUniform(&x, rng, -2.0, 2.0);

  std::vector<float> naive(static_cast<size_t>(rows) * 11);
  for (int r = 0; r < rows; ++r) {
    layer.Forward(x.data() + static_cast<size_t>(r) * 19,
                  naive.data() + static_cast<size_t>(r) * 11);
  }
  std::vector<float> batched(naive.size(), -1.0f);
  layer.ForwardBatch(x.data(), rows, batched.data());
  EXPECT_TRUE(BitEqual(naive.data(), batched.data(), naive.size()));

  // The pool only schedules row blocks; bytes must not change.
  ThreadPool pool(3);
  std::vector<float> pooled(naive.size(), -1.0f);
  layer.ForwardBatch(x.data(), rows, pooled.data(), &pool);
  EXPECT_TRUE(BitEqual(naive.data(), pooled.data(), naive.size()));
}

TEST(LinearTest, BackwardBatchBitEqualsNaivePerRow) {
  Rng rng(23);
  Linear naive;
  naive.Init(13, 9, rng);
  std::stringstream snapshot;
  naive.Save(snapshot);
  Linear batched;
  ASSERT_TRUE(batched.Load(snapshot));

  const int rows = 131;
  std::vector<float> x(static_cast<size_t>(rows) * 13);
  std::vector<float> dy(static_cast<size_t>(rows) * 9);
  FillUniform(&x, rng);
  FillUniform(&dy, rng);
  // Exact zeros exercise the g == 0 skip both paths share.
  for (size_t i = 0; i < dy.size(); i += 5) dy[i] = 0.0f;

  std::vector<float> dx_naive(x.size(), 0.0f);
  std::vector<float> dx_batched(x.size(), 0.0f);
  naive.ZeroGrad();
  for (int r = 0; r < rows; ++r) {
    naive.Backward(x.data() + static_cast<size_t>(r) * 13,
                   dy.data() + static_cast<size_t>(r) * 9,
                   dx_naive.data() + static_cast<size_t>(r) * 13);
  }
  batched.ZeroGrad();
  batched.BackwardBatch(x.data(), dy.data(), rows, dx_batched.data());
  EXPECT_TRUE(BitEqual(dx_naive.data(), dx_batched.data(), dx_naive.size()));

  // Identical gradients => identical weights after an identical step.
  const AdamConfig adam;
  naive.Step(adam, rows);
  batched.Step(adam, rows);
  std::stringstream naive_bytes;
  std::stringstream batched_bytes;
  naive.Save(naive_bytes);
  batched.Save(batched_bytes);
  EXPECT_EQ(naive_bytes.str(), batched_bytes.str());
}

// Numerical gradient check for the MLP (and transitively Linear).
TEST(MlpTest, GradientsMatchFiniteDifferences) {
  Rng rng(5);
  Mlp mlp;
  mlp.Init({3, 4, 1}, rng);

  const float x[3] = {0.3f, -0.7f, 0.9f};
  const double target = 0.5;

  // Analytic input gradient: loss = 0.5*(out - target)^2.
  Mlp::Workspace ws;
  const float* out = mlp.Forward(x, &ws);
  const float dout = out[0] - static_cast<float>(target);
  float dx[3] = {0, 0, 0};
  mlp.ZeroGrad();
  mlp.Backward(&dout, ws, dx);

  const double eps = 1e-3;
  for (int i = 0; i < 3; ++i) {
    float xp[3] = {x[0], x[1], x[2]};
    float xm[3] = {x[0], x[1], x[2]};
    xp[i] += eps;
    xm[i] -= eps;
    Mlp::Workspace wsp;
    Mlp::Workspace wsm;
    const double lp = 0.5 * std::pow(mlp.Forward(xp, &wsp)[0] - target, 2);
    const double lm = 0.5 * std::pow(mlp.Forward(xm, &wsm)[0] - target, 2);
    EXPECT_NEAR(dx[i], (lp - lm) / (2 * eps), 2e-3) << "input " << i;
  }
}

TEST(MlpTest, LearnsNonlinearFunction) {
  // y = x0^2 + sin(3*x1), a smooth nonlinear target.
  Rng rng(7);
  Mlp mlp;
  mlp.Init({2, 24, 24, 1}, rng);
  AdamConfig adam;
  adam.learning_rate = 3e-3f;

  for (int step = 0; step < 3000; ++step) {
    mlp.ZeroGrad();
    const int batch = 16;
    for (int b = 0; b < batch; ++b) {
      const float x[2] = {static_cast<float>(rng.NextUniform(-1, 1)),
                          static_cast<float>(rng.NextUniform(-1, 1))};
      const double y = x[0] * x[0] + std::sin(3.0 * x[1]);
      Mlp::Workspace ws;
      const float* out = mlp.Forward(x, &ws);
      const float dout = out[0] - static_cast<float>(y);
      mlp.Backward(&dout, ws, nullptr);
    }
    mlp.Step(adam, 16.0);
  }

  double total = 0.0;
  for (int i = 0; i < 200; ++i) {
    const float x[2] = {static_cast<float>(rng.NextUniform(-0.9, 0.9)),
                        static_cast<float>(rng.NextUniform(-0.9, 0.9))};
    const double y = x[0] * x[0] + std::sin(3.0 * x[1]);
    Mlp::Workspace ws;
    total += std::abs(mlp.Forward(x, &ws)[0] - y);
  }
  EXPECT_LT(total / 200.0, 0.12);
}

TEST(MlpTest, DropoutZerosSomeActivationsInTrainOnly) {
  Rng rng(9);
  Mlp mlp;
  mlp.Init({4, 32, 1}, rng);
  const float x[4] = {1.0f, 1.0f, 1.0f, 1.0f};
  Mlp::Workspace eval_ws;
  mlp.Forward(x, &eval_ws);
  EXPECT_EQ(eval_ws.masks[0], nullptr);

  Mlp::Workspace train_ws;
  mlp.Forward(x, &train_ws, /*train=*/true, 0.5f, &rng);
  ASSERT_NE(train_ws.masks[0], nullptr);
  int dropped = 0;
  for (int i = 0; i < 32; ++i) {
    dropped += train_ws.masks[0][i] == 0.0f ? 1 : 0;
  }
  EXPECT_GT(dropped, 4);
  EXPECT_LT(dropped, 28);
}

TEST(MlpTest, ForwardBatchBitEqualsPerRowForward) {
  Rng rng(25);
  Mlp mlp;
  mlp.Init({6, 17, 9, 2}, rng);
  const int rows = 83;
  std::vector<float> x(static_cast<size_t>(rows) * 6);
  FillUniform(&x, rng);

  std::vector<float> per_row(static_cast<size_t>(rows) * 2);
  Mlp::Workspace single_ws;
  for (int r = 0; r < rows; ++r) {
    const float* out =
        mlp.Forward(x.data() + static_cast<size_t>(r) * 6, &single_ws);
    per_row[static_cast<size_t>(r) * 2] = out[0];
    per_row[static_cast<size_t>(r) * 2 + 1] = out[1];
  }

  Mlp::Workspace batch_ws;
  const float* batched = mlp.ForwardBatch(x.data(), rows, &batch_ws);
  EXPECT_TRUE(BitEqual(per_row.data(), batched, per_row.size()));

  ThreadPool pool(2);
  Mlp::Workspace pool_ws;
  const float* pooled = mlp.ForwardBatch(x.data(), rows, &pool_ws,
                                         /*train=*/false, 0.0f, nullptr,
                                         &pool);
  EXPECT_TRUE(BitEqual(per_row.data(), pooled, per_row.size()));
}

TEST(MlpTest, BackwardBatchBitEqualAcrossPoolWidths) {
  Rng rng(27);
  Mlp reference;
  reference.Init({5, 16, 8, 1}, rng);
  std::stringstream snapshot;
  reference.Save(snapshot);

  const int rows = 97;
  std::vector<float> x(static_cast<size_t>(rows) * 5);
  std::vector<float> dout(static_cast<size_t>(rows));
  FillUniform(&x, rng);
  FillUniform(&dout, rng);

  // Serial run is the reference; every pool width must produce identical
  // gradient bytes (hence identical weights after an identical step) and
  // identical input gradients.
  const AdamConfig adam;
  std::string expected_bytes;
  std::vector<float> expected_dx;
  for (const int width : {0, 1, 2, 8}) {
    Mlp mlp;
    std::stringstream copy(snapshot.str());
    ASSERT_TRUE(mlp.Load(copy));
    ThreadPool pool(width == 0 ? 1 : width);
    ThreadPool* pool_ptr = width == 0 ? nullptr : &pool;
    Mlp::Workspace ws;
    mlp.ForwardBatch(x.data(), rows, &ws, false, 0.0f, nullptr, pool_ptr);
    std::vector<float> dx(x.size(), 0.0f);
    mlp.ZeroGrad();
    mlp.BackwardBatch(dout.data(), ws, dx.data(), pool_ptr);
    mlp.Step(adam, rows);
    std::stringstream bytes;
    mlp.Save(bytes);
    if (width == 0) {
      expected_bytes = bytes.str();
      expected_dx = dx;
    } else {
      EXPECT_EQ(expected_bytes, bytes.str()) << "pool width " << width;
      EXPECT_TRUE(BitEqual(expected_dx.data(), dx.data(), dx.size()))
          << "pool width " << width;
    }
  }
}

TEST(TreeGcnTest, GradientsMatchFiniteDifferences) {
  Rng rng(11);
  TreeGcn::Config config;
  config.input_dim = 3;
  config.hidden_dim = 5;
  config.num_layers = 2;
  config.dropout = 0.0f;
  TreeGcn gcn;
  gcn.Init(config, rng);

  // A 4-node tree: 0 -> {1, 2}, 2 -> {3}.
  const std::vector<std::vector<int32_t>> children = {{1, 2}, {}, {3}, {}};
  std::vector<float> feats(4 * 3);
  for (float& f : feats) f = static_cast<float>(rng.NextUniform(-1, 1));

  // Loss = 0.5 * ||root||^2 so droot = root.
  TreeGcn::Workspace ws;
  const float* root = gcn.Forward(feats.data(), 4, children, &ws);
  std::vector<float> droot(root, root + 5);
  gcn.ZeroGrad();
  gcn.Backward(droot.data(), children, ws);

  // The backward pass does not return input grads, so check that a
  // parameter step reduces the loss (descent direction sanity).
  auto loss_of = [&]() {
    TreeGcn::Workspace w2;
    const float* r = gcn.Forward(feats.data(), 4, children, &w2);
    double loss = 0.0;
    for (int j = 0; j < 5; ++j) loss += 0.5 * r[j] * r[j];
    return loss;
  };
  const double before = loss_of();
  AdamConfig adam;
  adam.learning_rate = 1e-2f;
  gcn.Step(adam, 1.0);
  const double after = loss_of();
  EXPECT_LT(after, before);
}

TEST(TreeGcnTest, OverfitsTinyRegressionSet) {
  // Distinguish three small trees by structure/features alone.
  Rng rng(13);
  TreeGcn::Config config;
  config.input_dim = 2;
  config.hidden_dim = 16;
  config.num_layers = 2;
  config.dropout = 0.0f;
  TreeGcn gcn;
  gcn.Init(config, rng);
  Mlp head;
  head.Init({16, 16, 1}, rng);

  struct Example {
    std::vector<float> feats;
    std::vector<std::vector<int32_t>> children;
    double target;
  };
  const std::vector<Example> examples = {
      {{1, 0, 0, 1}, {{1}, {}}, 1.0},
      {{0, 1, 1, 0}, {{1}, {}}, -1.0},
      {{1, 1, 0.5, 0.5, 0.2, 0.8}, {{1, 2}, {}, {}}, 0.5},
  };

  AdamConfig adam;
  adam.learning_rate = 5e-3f;
  for (int step = 0; step < 1500; ++step) {
    gcn.ZeroGrad();
    head.ZeroGrad();
    for (const Example& example : examples) {
      TreeGcn::Workspace gws;
      Mlp::Workspace hws;
      const int n = static_cast<int>(example.children.size());
      const float* root =
          gcn.Forward(example.feats.data(), n, example.children, &gws);
      const float* out = head.Forward(root, &hws);
      const float dout = out[0] - static_cast<float>(example.target);
      std::vector<float> droot(16, 0.0f);
      head.Backward(&dout, hws, droot.data());
      gcn.Backward(droot.data(), example.children, gws);
    }
    gcn.Step(adam, examples.size());
    head.Step(adam, examples.size());
  }

  for (const Example& example : examples) {
    TreeGcn::Workspace gws;
    Mlp::Workspace hws;
    const int n = static_cast<int>(example.children.size());
    const float* root =
        gcn.Forward(example.feats.data(), n, example.children, &gws);
    EXPECT_NEAR(head.Forward(root, &hws)[0], example.target, 0.1);
  }
}

TEST(TreeGcnTest, DeepChainPropagatesLeafInformation) {
  // With L layers, information from depth <= L reaches the root: changing
  // the leaf of a chain of length <= num_layers+1 must change the root.
  Rng rng(17);
  TreeGcn::Config config;
  config.input_dim = 1;
  config.hidden_dim = 8;
  config.num_layers = 3;
  config.dropout = 0.0f;
  TreeGcn gcn;
  gcn.Init(config, rng);

  const int n = 4;  // Chain 0->1->2->3; leaf at depth 4 reachable by 3 hops.
  const auto children = Chain(n);
  std::vector<float> base(n, 0.5f);
  std::vector<float> modified = base;
  modified[n - 1] = 5.0f;

  TreeGcn::Workspace ws1;
  TreeGcn::Workspace ws2;
  const float* r1 = gcn.Forward(base.data(), n, children, &ws1);
  std::vector<float> saved(r1, r1 + 8);
  const float* r2 = gcn.Forward(modified.data(), n, children, &ws2);
  double diff = 0.0;
  for (int j = 0; j < 8; ++j) diff += std::abs(saved[j] - r2[j]);
  EXPECT_GT(diff, 1e-4);
}

TEST(TreeGcnTest, SingleNodeTreeWorks) {
  Rng rng(19);
  TreeGcn::Config config;
  config.input_dim = 4;
  config.hidden_dim = 8;
  config.num_layers = 2;
  TreeGcn gcn;
  gcn.Init(config, rng);
  const std::vector<float> feats = {1.0f, 2.0f, 3.0f, 4.0f};
  const std::vector<std::vector<int32_t>> children = {{}};
  TreeGcn::Workspace ws;
  const float* root = gcn.Forward(feats.data(), 1, children, &ws);
  for (int j = 0; j < 8; ++j) {
    EXPECT_TRUE(std::isfinite(root[j]));
  }
}

TEST(TreeGcnTest, ForwardBitEqualsNaiveReference) {
  Rng rng(31);
  TreeGcn::Config config;
  config.input_dim = 6;
  config.hidden_dim = 12;
  config.num_layers = 3;
  config.dropout = 0.0f;
  TreeGcn gcn;
  gcn.Init(config, rng);
  std::stringstream snapshot;
  gcn.Save(snapshot);
  ParsedTreeGcn naive;
  ASSERT_TRUE(naive.Parse(snapshot));

  std::vector<std::vector<std::vector<int32_t>>> shapes;
  shapes.push_back({{}});        // Single node.
  shapes.push_back(Chain(3));    // Depth 2 < num_layers.
  shapes.push_back(Chain(4));    // Depth 3 = num_layers.
  shapes.push_back(Chain(12));   // Deeper than num_layers.
  shapes.push_back(Star(32));    // Wide fan-out.
  for (const int n : {2, 7, 19, 40}) shapes.push_back(RandomTree(n, rng));

  TreeGcn::Workspace ws;
  TreeBatch forest;
  forest.Clear(6);
  std::vector<float> all_expected;
  for (size_t s = 0; s < shapes.size(); ++s) {
    const auto& children = shapes[s];
    const int n = static_cast<int>(children.size());
    std::vector<float> feats(static_cast<size_t>(n) * 6);
    FillUniform(&feats, rng, -1.5, 1.5);
    const float* root = gcn.Forward(feats.data(), n, children, &ws);
    const std::vector<float> expected = naive.Forward(feats.data(), children);
    EXPECT_TRUE(BitEqual(expected.data(), root, expected.size()))
        << "shape " << s << " (" << n << " nodes)";
    forest.AddTree(feats.data(), n, children);
    all_expected.insert(all_expected.end(), expected.begin(), expected.end());
  }

  // The same trees as one level-order forest, the inference layout: each
  // layer computes only the nodes a root can still see, the last layer
  // only the roots, and every root still matches the naive walk.
  const int num_nodes = forest.num_nodes();
  forest.ToLevelOrder();
  const float* roots = gcn.ForwardBatch(forest, &ws);
  EXPECT_TRUE(BitEqual(all_expected.data(), roots, all_expected.size()));
  for (int l = 0; l < 3; ++l) {
    EXPECT_EQ(ws.layer_rows[static_cast<size_t>(l)],
              forest.RowsThroughDepth(2 - l));
  }
  EXPECT_LT(ws.layer_rows[0], num_nodes);
  EXPECT_EQ(ws.layer_rows[2], forest.num_trees());
  ThreadPool pool(3);
  TreeGcn::Workspace pool_ws;
  const float* pooled =
      gcn.ForwardBatch(forest, &pool_ws, false, nullptr, &pool);
  EXPECT_TRUE(BitEqual(all_expected.data(), pooled, all_expected.size()));
}

TEST(TreeGcnTest, ForwardBatchBitEqualsPerTreeForward) {
  Rng rng(33);
  TreeGcn::Config config;
  config.input_dim = 5;
  config.hidden_dim = 10;
  config.num_layers = 2;
  config.dropout = 0.0f;
  TreeGcn gcn;
  gcn.Init(config, rng);

  std::vector<std::vector<std::vector<int32_t>>> shapes;
  shapes.push_back({{}});
  shapes.push_back(Chain(9));
  shapes.push_back(Star(17));
  for (const int n : {3, 11, 28}) shapes.push_back(RandomTree(n, rng));

  std::vector<std::vector<float>> feats;
  TreeBatch batch;
  batch.Clear(5);
  for (const auto& children : shapes) {
    const int n = static_cast<int>(children.size());
    std::vector<float> f(static_cast<size_t>(n) * 5);
    FillUniform(&f, rng);
    batch.AddTree(f.data(), n, children);
    feats.push_back(std::move(f));
  }

  std::vector<float> expected;
  TreeGcn::Workspace single_ws;
  for (size_t t = 0; t < shapes.size(); ++t) {
    const float* root =
        gcn.Forward(feats[t].data(), static_cast<int>(shapes[t].size()),
                    shapes[t], &single_ws);
    expected.insert(expected.end(), root, root + 10);
  }

  TreeGcn::Workspace batch_ws;
  const float* roots = gcn.ForwardBatch(batch, &batch_ws);
  EXPECT_TRUE(BitEqual(expected.data(), roots, expected.size()));

  ThreadPool pool(3);
  TreeGcn::Workspace pool_ws;
  const float* pooled =
      gcn.ForwardBatch(batch, &pool_ws, false, nullptr, &pool);
  EXPECT_TRUE(BitEqual(expected.data(), pooled, expected.size()));
}

TEST(TreeGcnTest, BackwardBatchBitEqualAcrossPoolWidths) {
  Rng rng(35);
  TreeGcn::Config config;
  config.input_dim = 4;
  config.hidden_dim = 9;
  config.num_layers = 2;
  config.dropout = 0.0f;
  TreeGcn reference;
  reference.Init(config, rng);
  std::stringstream snapshot;
  reference.Save(snapshot);

  TreeBatch batch;
  batch.Clear(4);
  std::vector<std::vector<std::vector<int32_t>>> shapes;
  shapes.push_back(Chain(6));
  shapes.push_back(Star(8));
  shapes.push_back(RandomTree(15, rng));
  for (const auto& children : shapes) {
    const int n = static_cast<int>(children.size());
    std::vector<float> f(static_cast<size_t>(n) * 4);
    FillUniform(&f, rng);
    batch.AddTree(f.data(), n, children);
  }
  std::vector<float> droots(static_cast<size_t>(batch.num_trees()) * 9);
  FillUniform(&droots, rng);

  const AdamConfig adam;
  std::string expected_bytes;
  for (const int width : {0, 1, 2, 8}) {
    TreeGcn gcn;
    std::stringstream copy(snapshot.str());
    ASSERT_TRUE(gcn.Load(copy));
    ThreadPool pool(width == 0 ? 1 : width);
    ThreadPool* pool_ptr = width == 0 ? nullptr : &pool;
    TreeGcn::Workspace ws;
    gcn.ForwardBatch(batch, &ws, false, nullptr, pool_ptr);
    gcn.ZeroGrad();
    gcn.BackwardBatch(droots.data(), batch, ws, pool_ptr);
    gcn.Step(adam, batch.num_trees());
    std::stringstream bytes;
    gcn.Save(bytes);
    if (width == 0) {
      expected_bytes = bytes.str();
    } else {
      EXPECT_EQ(expected_bytes, bytes.str()) << "pool width " << width;
    }
  }
}

TEST(TreeBatchTest, LevelOrderPutsRootsFirstAndDepthsInPrefixes) {
  // Tree 0: 0 -> {1, 2}, 2 -> {3}. Tree 1: single node. Tree 2: chain of 3.
  const std::vector<std::vector<std::vector<int32_t>>> shapes = {
      {{1, 2}, {}, {3}, {}}, {{}}, Chain(3)};
  TreeBatch batch;
  batch.Clear(1);
  float next = 0.0f;
  for (const auto& children : shapes) {
    std::vector<float> f(children.size());
    for (float& v : f) v = next++;  // Feature = global tree-major index.
    batch.AddTree(f.data(), static_cast<int>(children.size()), children);
  }
  EXPECT_EQ(batch.RowsThroughDepth(0), 8);  // Tree-major: every row.
  batch.ToLevelOrder();

  // Roots, then depth 1 (tree 0's {1, 2}, tree 2's second node), then
  // depth 2 (tree 0's 3, tree 2's third node).
  const std::vector<float> expected = {0, 4, 5, 1, 2, 6, 3, 7};
  for (int s = 0; s < 8; ++s) {
    EXPECT_EQ(batch.features()[s], expected[static_cast<size_t>(s)])
        << "slot " << s;
  }
  for (int t = 0; t < 3; ++t) EXPECT_EQ(batch.root_slot(t), t);
  EXPECT_EQ(batch.RowsThroughDepth(0), 3);
  EXPECT_EQ(batch.RowsThroughDepth(1), 6);
  EXPECT_EQ(batch.RowsThroughDepth(2), 8);
  EXPECT_EQ(batch.RowsThroughDepth(9), 8);
  // Child ranges stay contiguous and in list order.
  EXPECT_EQ(batch.child_start(0), 3);
  EXPECT_EQ(batch.child_count(0), 2);
  EXPECT_EQ(batch.child_count(1), 0);
  EXPECT_EQ(batch.child_start(2), 5);
  EXPECT_EQ(batch.child_count(2), 1);
  EXPECT_EQ(batch.child_start(4), 6);  // Node 2 of tree 0 -> node 3.
  EXPECT_EQ(batch.child_start(5), 7);  // Tree 2's chain.
}

TEST(TreeGcnDeathTest, BackwardAfterLevelOrderForwardDies) {
  Rng rng(43);
  TreeGcn::Config config;
  config.input_dim = 4;
  config.hidden_dim = 8;
  config.num_layers = 3;
  config.dropout = 0.0f;
  TreeGcn gcn;
  gcn.Init(config, rng);

  TreeBatch batch;
  batch.Clear(4);
  for (const auto& children : {Chain(6), Star(5), RandomTree(12, rng)}) {
    const int n = static_cast<int>(children.size());
    std::vector<float> f(static_cast<size_t>(n) * 4);
    FillUniform(&f, rng);
    batch.AddTree(f.data(), n, children);
  }
  batch.ToLevelOrder();
  TreeGcn::Workspace ws;
  gcn.ForwardBatch(batch, &ws);
  std::vector<float> droots(static_cast<size_t>(batch.num_trees()) * 8, 1.0f);
  EXPECT_DEATH(gcn.BackwardBatch(droots.data(), batch, ws),
               "pruned \\(level-order\\) forward");
}

TEST(TreeGcnTest, RepeatedForwardIsAllocationFreeOnceWarm) {
  Rng rng(37);
  TreeGcn::Config config;
  config.input_dim = 7;
  config.hidden_dim = 16;
  config.num_layers = 3;
  config.dropout = 0.0f;
  TreeGcn gcn;
  gcn.Init(config, rng);
  Mlp head;
  head.Init({16, 24, 1}, rng);

  const auto children = RandomTree(21, rng);
  std::vector<float> feats(21 * 7);
  FillUniform(&feats, rng);

  // The inference path rebuilds its level-order forest on every call, as
  // GlobalModel's predict paths do.
  const std::vector<std::vector<std::vector<int32_t>>> shapes = {
      children, Chain(9), Star(6)};
  std::vector<std::vector<float>> forest_feats;
  for (const auto& shape : shapes) {
    forest_feats.emplace_back(shape.size() * 7);
    FillUniform(&forest_feats.back(), rng);
  }
  TreeBatch forest;
  TreeGcn::Workspace iws;
  const auto infer = [&] {
    forest.Clear(7);
    for (size_t t = 0; t < shapes.size(); ++t) {
      forest.AddTree(forest_feats[t].data(),
                     static_cast<int>(shapes[t].size()), shapes[t]);
    }
    forest.ToLevelOrder();
    gcn.ForwardBatch(forest, &iws);
  };

  // Warm up: the first calls grow the arenas to the high-water mark (and
  // this thread's GEMM pack scratch).
  TreeGcn::Workspace gws;
  Mlp::Workspace hws;
  for (int i = 0; i < 3; ++i) {
    const float* root = gcn.Forward(feats.data(), 21, children, &gws);
    head.Forward(root, &hws);
    infer();
  }
  const size_t gcn_capacity = gws.CapacityFloats();
  const size_t head_capacity = hws.CapacityFloats();
  const size_t infer_capacity = iws.CapacityFloats();

  // Steady state: the arenas stop growing...
  g_allocations.store(0, std::memory_order_relaxed);
  g_count_allocations.store(true, std::memory_order_relaxed);
  for (int i = 0; i < 200; ++i) {
    const float* root = gcn.Forward(feats.data(), 21, children, &gws);
    head.Forward(root, &hws);
    infer();
  }
  g_count_allocations.store(false, std::memory_order_relaxed);
  const uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(gws.CapacityFloats(), gcn_capacity);
  EXPECT_EQ(hws.CapacityFloats(), head_capacity);
  EXPECT_EQ(iws.CapacityFloats(), infer_capacity);
  // ...and (sanitizers instrument allocation paths, so only assert the hard
  // zero on plain builds) the warm path touches the heap not even once.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  EXPECT_EQ(allocations, 0u);
#else
  (void)allocations;
#endif
}

TEST(TreeGcnTest, LoadRejectsCorruptedDropout) {
  Rng rng(39);
  TreeGcn::Config config;
  config.input_dim = 3;
  config.hidden_dim = 6;
  config.num_layers = 2;
  config.dropout = 0.1f;
  TreeGcn gcn;
  gcn.Init(config, rng);
  std::stringstream buffer;
  gcn.Save(buffer);
  const std::string bytes = buffer.str();

  // The stream starts with three int32 dims, then the float dropout.
  const size_t dropout_offset = 3 * sizeof(int32_t);
  const float corrupted[] = {std::nanf(""), -1.0f, -0.001f, 1.0f, 2.0f};
  for (const float bad : corrupted) {
    std::string patched = bytes;
    std::memcpy(patched.data() + dropout_offset, &bad, sizeof(float));
    std::istringstream in(patched);
    TreeGcn loaded;
    EXPECT_FALSE(loaded.Load(in)) << "dropout " << bad;
  }

  // The untouched stream still round-trips.
  std::istringstream in(bytes);
  TreeGcn loaded;
  EXPECT_TRUE(loaded.Load(in));
}

TEST(SerializationTest, MlpRoundTripPreservesOutputs) {
  Rng rng(71);
  Mlp original;
  original.Init({4, 8, 2}, rng);
  std::stringstream buffer;
  original.Save(buffer);
  Mlp restored;
  ASSERT_TRUE(restored.Load(buffer));
  EXPECT_EQ(restored.in_dim(), 4);
  EXPECT_EQ(restored.out_dim(), 2);
  const float x[4] = {0.1f, -0.2f, 0.3f, -0.4f};
  Mlp::Workspace ws1;
  Mlp::Workspace ws2;
  const float* a = original.Forward(x, &ws1);
  const float* b = restored.Forward(x, &ws2);
  for (int j = 0; j < 2; ++j) EXPECT_FLOAT_EQ(a[j], b[j]);
}

TEST(SerializationTest, TreeGcnRoundTripPreservesOutputs) {
  Rng rng(73);
  TreeGcn::Config config;
  config.input_dim = 3;
  config.hidden_dim = 6;
  config.num_layers = 2;
  TreeGcn original;
  original.Init(config, rng);
  std::stringstream buffer;
  original.Save(buffer);
  TreeGcn restored;
  ASSERT_TRUE(restored.Load(buffer));
  EXPECT_EQ(restored.hidden_dim(), 6);

  const std::vector<std::vector<int32_t>> children = {{1, 2}, {}, {}};
  std::vector<float> feats(9, 0.3f);
  TreeGcn::Workspace ws1;
  TreeGcn::Workspace ws2;
  const float* a = original.Forward(feats.data(), 3, children, &ws1);
  std::vector<float> saved(a, a + 6);
  const float* b = restored.Forward(feats.data(), 3, children, &ws2);
  for (int j = 0; j < 6; ++j) EXPECT_FLOAT_EQ(saved[j], b[j]);
}

TEST(SerializationTest, MlpRejectsGarbage) {
  Mlp mlp;
  std::stringstream garbage("garbage bytes here");
  EXPECT_FALSE(mlp.Load(garbage));
}

}  // namespace
}  // namespace stage::nn
