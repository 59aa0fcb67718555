#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "stage/common/serialize.h"
#include "stage/fleet/fleet.h"
#include "stage/global/global_model.h"
#include "stage/metrics/error_metrics.h"
#include "stage/nn/mlp.h"
#include "stage/nn/tree_batch.h"
#include "stage/nn/tree_gcn.h"
#include "stage/plan/featurizer.h"

namespace stage::global {
namespace {

fleet::FleetConfig SmallFleet() {
  fleet::FleetConfig config;
  config.num_instances = 5;
  config.workload.num_queries = 250;
  config.seed = 7;
  return config;
}

GlobalModelConfig FastConfig() {
  GlobalModelConfig config;
  config.hidden_dim = 24;
  config.num_layers = 2;
  config.head_hidden = {24};
  config.epochs = 4;
  return config;
}

TEST(SystemFeaturesTest, LayoutAndObservablesOnly) {
  fleet::FleetGenerator generator(SmallFleet());
  const fleet::InstanceConfig instance = generator.MakeInstance(0);
  plan::PlanNode node;
  node.op = plan::OperatorType::kSeqScanLocal;
  node.estimated_cost = 5.0;
  node.estimated_cardinality = 10.0;
  const plan::Plan plan(plan::QueryType::kSelect, {node});

  const std::vector<float> features = SystemFeatures(instance, plan, 3);
  ASSERT_EQ(features.size(), static_cast<size_t>(kSystemFeatureDim));
  // Node-type one-hot sums to exactly 1.
  float onehot = 0.0f;
  const int type_slots = static_cast<int>(fleet::NodeType::kNumNodeTypes);
  for (int i = 0; i < type_slots; ++i) onehot += features[i];
  EXPECT_EQ(onehot, 1.0f);
  EXPECT_FLOAT_EQ(features[type_slots],
                  std::log1p(static_cast<float>(instance.num_nodes)));
  EXPECT_FLOAT_EQ(features[type_slots + 2], std::log1p(3.0f));

  // The latent speed factor must NOT leak: two instances differing only in
  // hidden parameters produce identical system features.
  fleet::InstanceConfig shadow = instance;
  shadow.latent_speed_factor *= 10.0;
  shadow.noise_sigma = 0.9;
  EXPECT_EQ(SystemFeatures(shadow, plan, 3), features);
}

TEST(GlobalExampleTest, TargetIsLogSpace) {
  fleet::FleetGenerator generator(SmallFleet());
  const fleet::InstanceConfig instance = generator.MakeInstance(0);
  plan::PlanNode node;
  node.op = plan::OperatorType::kSeqScanLocal;
  const plan::Plan plan(plan::QueryType::kSelect, {node});
  const GlobalExample example = MakeGlobalExample(plan, instance, 0, 10.0);
  EXPECT_NEAR(example.target, std::log1p(10.0), 1e-12);
  EXPECT_EQ(example.children.size(), 1u);
  EXPECT_EQ(example.node_features.size(),
            static_cast<size_t>(plan::kNodeFeatureDim));
}

TEST(GlobalModelTest, TrainsAndPredictsFinitePositive) {
  fleet::FleetGenerator generator(SmallFleet());
  const auto fleet = generator.GenerateFleet();
  std::vector<GlobalExample> examples;
  for (int i = 0; i < 3; ++i) {
    for (const auto& event : fleet[i].trace) {
      examples.push_back(MakeGlobalExample(event.plan, fleet[i].config,
                                           event.concurrent_queries,
                                           event.exec_seconds));
    }
  }
  double val_mae = -1.0;
  const GlobalModel model = GlobalModel::Train(examples, FastConfig(), &val_mae);
  EXPECT_TRUE(model.trained());
  EXPECT_GE(val_mae, 0.0);

  for (const auto& event : fleet[4].trace) {
    const double prediction = model.PredictSeconds(
        event.plan, fleet[4].config, event.concurrent_queries);
    EXPECT_TRUE(std::isfinite(prediction));
    EXPECT_GE(prediction, 0.0);
  }
}

TEST(GlobalModelTest, ZeroShotBeatsConstantBaseline) {
  // Train on 6 instances, evaluate pooled over 4 unseen ones: the
  // transferable model must beat predicting a constant (the paper's
  // zero-shot premise). Pooling matters: any single instance's hidden
  // latent factor makes a one-instance comparison a coin flip.
  fleet::FleetConfig config = SmallFleet();
  config.num_instances = 10;
  config.workload.num_queries = 400;
  fleet::FleetGenerator generator(config);
  const auto fleet = generator.GenerateFleet();

  std::vector<GlobalExample> examples;
  for (int i = 0; i < 6; ++i) {
    for (const auto& event : fleet[i].trace) {
      examples.push_back(MakeGlobalExample(event.plan, fleet[i].config,
                                           event.concurrent_queries,
                                           event.exec_seconds));
    }
  }
  GlobalModelConfig model_config = FastConfig();
  model_config.epochs = 8;
  const GlobalModel model = GlobalModel::Train(examples, model_config);

  std::vector<double> actual;
  std::vector<double> predicted;
  for (size_t held_out = 6; held_out < fleet.size(); ++held_out) {
    for (const auto& event : fleet[held_out].trace) {
      actual.push_back(event.exec_seconds);
      predicted.push_back(model.PredictSeconds(
          event.plan, fleet[held_out].config, event.concurrent_queries));
    }
  }
  const std::vector<double> constant(actual.size(), 1.0);
  const double model_q50 =
      metrics::Summarize(metrics::QErrors(actual, predicted)).p50;
  const double const_q50 =
      metrics::Summarize(metrics::QErrors(actual, constant)).p50;
  EXPECT_LT(model_q50, const_q50);
}

TEST(GlobalModelTest, MoreEpochsReduceValidationError) {
  fleet::FleetGenerator generator(SmallFleet());
  const auto fleet = generator.GenerateFleet();
  std::vector<GlobalExample> examples;
  for (int i = 0; i < 4; ++i) {
    for (const auto& event : fleet[i].trace) {
      examples.push_back(MakeGlobalExample(event.plan, fleet[i].config,
                                           event.concurrent_queries,
                                           event.exec_seconds));
    }
  }
  GlobalModelConfig short_config = FastConfig();
  short_config.epochs = 1;
  GlobalModelConfig long_config = FastConfig();
  long_config.epochs = 8;
  double short_mae = 0.0;
  double long_mae = 0.0;
  GlobalModel::Train(examples, short_config, &short_mae);
  GlobalModel::Train(examples, long_config, &long_mae);
  EXPECT_LT(long_mae, short_mae * 1.05);  // Usually strictly better.
}

TEST(GlobalModelTest, PredictFromExampleMatchesPredictSeconds) {
  fleet::FleetGenerator generator(SmallFleet());
  const auto fleet = generator.GenerateFleet();
  std::vector<GlobalExample> examples;
  for (const auto& event : fleet[0].trace) {
    examples.push_back(MakeGlobalExample(event.plan, fleet[0].config,
                                         event.concurrent_queries,
                                         event.exec_seconds));
  }
  const GlobalModel model = GlobalModel::Train(examples, FastConfig());
  const auto& event = fleet[0].trace[5];
  const GlobalExample example = MakeGlobalExample(
      event.plan, fleet[0].config, event.concurrent_queries, 0.0);
  EXPECT_DOUBLE_EQ(
      model.PredictSecondsFromExample(example),
      model.PredictSeconds(event.plan, fleet[0].config,
                           event.concurrent_queries));
}

TEST(GlobalModelTest, SaveLoadRoundTripPreservesPredictions) {
  fleet::FleetGenerator generator(SmallFleet());
  const auto fleet = generator.GenerateFleet();
  std::vector<GlobalExample> examples;
  for (const auto& event : fleet[0].trace) {
    examples.push_back(MakeGlobalExample(event.plan, fleet[0].config,
                                         event.concurrent_queries,
                                         event.exec_seconds));
  }
  const GlobalModel original = GlobalModel::Train(examples, FastConfig());

  std::stringstream buffer;
  original.Save(buffer);
  GlobalModel restored;
  ASSERT_TRUE(restored.Load(buffer));
  EXPECT_TRUE(restored.trained());
  EXPECT_EQ(restored.MemoryBytes(), original.MemoryBytes());

  for (int i = 0; i < 20; ++i) {
    const auto& event = fleet[1].trace[i];
    EXPECT_DOUBLE_EQ(
        original.PredictSeconds(event.plan, fleet[1].config,
                                event.concurrent_queries),
        restored.PredictSeconds(event.plan, fleet[1].config,
                                event.concurrent_queries));
  }
}

TEST(GlobalModelTest, PredictBatchBitEqualsPredictSeconds) {
  fleet::FleetGenerator generator(SmallFleet());
  const auto fleet = generator.GenerateFleet();
  std::vector<GlobalExample> examples;
  for (const auto& event : fleet[0].trace) {
    examples.push_back(MakeGlobalExample(event.plan, fleet[0].config,
                                         event.concurrent_queries,
                                         event.exec_seconds));
  }
  const GlobalModelConfig config = FastConfig();
  const GlobalModel model = GlobalModel::Train(examples, config);

  // Predict paths prune every layer to the nodes a root can still see, so
  // the batch must hold plans whose GCN depth (root = 0, Plan::Depth() - 1)
  // lies below, at and beyond num_layers.
  std::vector<GlobalQuery> queries;
  int deep = 0;
  int shallow = 0;
  for (int i = 0; i < 60; ++i) {
    const auto& event = fleet[1].trace[i];
    queries.push_back({&event.plan, event.concurrent_queries});
    const int depth = event.plan.Depth() - 1;
    deep += depth > config.num_layers ? 1 : 0;
    shallow += depth <= config.num_layers ? 1 : 0;
  }
  ASSERT_GT(deep, 0);
  ASSERT_GT(shallow, 0);
  std::vector<double> batched(queries.size(), -1.0);
  model.PredictBatch(queries, fleet[1].config, batched);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batched[i],
              model.PredictSeconds(*queries[i].plan, fleet[1].config,
                                   queries[i].concurrent_queries))
        << "query " << i;
  }

  // Unpruned reference: the same checkpoint run as a tree-major forest,
  // whose forward computes every node at every layer.
  std::stringstream checkpoint;
  model.Save(checkpoint);
  ASSERT_TRUE(ReadHeader(checkpoint, 0x53474d4c, 1));  // "SGML" v1.
  nn::TreeGcn gcn;
  nn::Mlp head;
  ASSERT_TRUE(gcn.Load(checkpoint));
  ASSERT_TRUE(head.Load(checkpoint));
  nn::TreeBatch full;
  full.Clear(plan::kNodeFeatureDim);
  for (const GlobalQuery& query : queries) {
    const plan::Plan& plan = *query.plan;
    const std::vector<float> features = plan::NodeFeatures(plan);
    full.AddTree(features.data(), plan.node_count(),
                 [&plan](int32_t i) -> const std::vector<int32_t>& {
                   return plan.node(i).children;
                 });
  }
  nn::TreeGcn::Workspace gcn_ws;
  const float* roots = gcn.ForwardBatch(full, &gcn_ws);
  ASSERT_EQ(gcn_ws.layer_rows.back(), full.num_nodes());
  const int h = config.hidden_dim;
  nn::Mlp::Workspace head_ws;
  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<float> concat(roots + i * h, roots + (i + 1) * h);
    const std::vector<float> system = SystemFeatures(
        fleet[1].config, *queries[i].plan, queries[i].concurrent_queries);
    concat.insert(concat.end(), system.begin(), system.end());
    const double target = head.Forward(concat.data(), &head_ws)[0];
    EXPECT_EQ(batched[i],
              std::max(0.0, std::expm1(std::clamp(target, 0.0, 14.0))))
        << "query " << i;
  }

  // The pool only fans out GEMM row blocks; bytes must not change.
  ThreadPool pool(3);
  std::vector<double> pooled(queries.size(), -1.0);
  model.PredictBatch(queries, fleet[1].config, pooled, &pool);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batched[i], pooled[i]) << "query " << i;
  }

  // Single-query batches are the degenerate case.
  std::vector<double> one(1, -1.0);
  model.PredictBatch(std::span<const GlobalQuery>(queries.data(), 1),
                     fleet[1].config, one);
  EXPECT_EQ(one[0], batched[0]);
}

TEST(GlobalModelTest, TrainBytesIdenticalAcrossPoolWidths) {
  fleet::FleetGenerator generator(SmallFleet());
  const auto fleet = generator.GenerateFleet();
  std::vector<GlobalExample> examples;
  for (const auto& event : fleet[0].trace) {
    examples.push_back(MakeGlobalExample(event.plan, fleet[0].config,
                                         event.concurrent_queries,
                                         event.exec_seconds));
  }
  GlobalModelConfig config = FastConfig();
  config.epochs = 2;

  // Serial reference: parallelism off entirely.
  config.parallel_train = false;
  double serial_mae = -1.0;
  const GlobalModel serial = GlobalModel::Train(examples, config, &serial_mae);
  std::stringstream serial_bytes;
  serial.Save(serial_bytes);

  // Every pool width must yield the identical checkpoint: gradient
  // accumulation is tiled per output element, never reassociated.
  config.parallel_train = true;
  for (const int width : {1, 2, 8}) {
    ThreadPool pool(width);
    double mae = -1.0;
    const GlobalModel parallel =
        GlobalModel::Train(examples, config, &mae, &pool);
    std::stringstream bytes;
    parallel.Save(bytes);
    EXPECT_EQ(serial_bytes.str(), bytes.str()) << "pool width " << width;
    EXPECT_EQ(serial_mae, mae) << "pool width " << width;
  }
}

TEST(GlobalModelTest, LoadRejectsGarbage) {
  GlobalModel model;
  std::stringstream garbage("this is not a checkpoint");
  EXPECT_FALSE(model.Load(garbage));
  EXPECT_FALSE(model.trained());
}

}  // namespace
}  // namespace stage::global
