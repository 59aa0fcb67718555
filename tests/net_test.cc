// Tests for the stage::net network edge: config validation (including
// death tests for the STAGE_CHECK-on-construction contract), the JSON
// writer/parser pair, wire round-trips (and the ground-truth fields that
// must NOT survive a round-trip), hostile-plan rejection, the adaptive
// MicroBatcher policy (full/timeout/drain flushes, window shrink/grow,
// deterministic overload via a blocked flush callback), and the server
// itself: socket predictions bit-for-bit identical to in-process
// FleetService::Predict across binary-batched, binary-inline, and JSON
// modes; observes applied over the socket match an in-process twin; error
// replies for unknown tenants / malformed payloads / corrupt frames;
// graceful-shutdown drain (every queued request answered, then a shutdown
// frame, then EOF); metrics exposition; and a multi-connection stress run
// for the TSan lane (NetStressTest.*).
#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "stage/common/rng.h"
#include "stage/core/stage_predictor.h"
#include "stage/fleet/fleet.h"
#include "stage/fleet_serve/fleet_service.h"
#include "stage/global/global_model.h"
#include "stage/net/batcher.h"
#include "stage/net/client.h"
#include "stage/net/json.h"
#include "stage/net/loadgen.h"
#include "stage/net/server.h"
#include "stage/net/wire.h"
#include "stage/obs/metrics.h"

namespace stage::net {
namespace {

core::StagePredictorConfig FastStage() {
  core::StagePredictorConfig config;
  config.local.ensemble.num_members = 4;
  config.local.ensemble.member.num_rounds = 40;
  config.min_train_size = 20;
  config.retrain_interval = 100;
  return config;
}

fleet_serve::FleetServiceConfig DeterministicFleet() {
  fleet_serve::FleetServiceConfig config;
  config.stack.predictor = FastStage();
  config.stack.cache_shards = 1;
  config.async_retrain = false;
  return config;
}

// A deterministic three-node plan tree (join over two scans) whose feature
// vector varies with `knob`.
plan::Plan MakeWirePlan(double knob) {
  plan::PlanNode join;
  join.op = plan::OperatorType::kHashJoinLocal;
  join.estimated_cost = 100.0 + knob;
  join.estimated_cardinality = 50.0 * knob;
  join.tuple_width = 24.0;
  join.children = {1, 2};
  plan::PlanNode scan_a;
  scan_a.op = plan::OperatorType::kSeqScanLocal;
  scan_a.estimated_cost = knob;
  scan_a.estimated_cardinality = knob * 10.0;
  scan_a.tuple_width = 16.0;
  scan_a.s3_format = plan::S3Format::kLocal;
  scan_a.table_rows = 1000.0 * knob;
  plan::PlanNode scan_b;
  scan_b.op = plan::OperatorType::kSeqScanS3;
  scan_b.estimated_cost = 2.0 * knob;
  scan_b.estimated_cardinality = knob * 3.0;
  scan_b.tuple_width = 8.0;
  scan_b.s3_format = plan::S3Format::kParquet;
  scan_b.table_rows = 500.0;
  return plan::Plan(plan::QueryType::kSelect, {join, scan_a, scan_b});
}

// ---- Config validation --------------------------------------------------

TEST(ServerConfigTest, ValidateRejectsNonsense) {
  ServerConfig config;
  EXPECT_TRUE(config.Validate().empty());

  config.port = -1;
  EXPECT_FALSE(config.Validate().empty());
  config.port = 70000;
  EXPECT_FALSE(config.Validate().empty());
  config.port = 0;

  config.num_workers = 0;
  EXPECT_FALSE(config.Validate().empty());
  config.num_workers = 2;

  config.batch_window_us = -1;
  EXPECT_FALSE(config.Validate().empty());
  config.batch_window_us = 0;  // 0 is legal: batching disabled.
  EXPECT_TRUE(config.Validate().empty());
  config.batch_window_us = 20'000'000;  // > 10s: nonsense latency budget.
  EXPECT_FALSE(config.Validate().empty());
  config.batch_window_us = 200;

  config.max_batch = 0;
  EXPECT_FALSE(config.Validate().empty());
  config.max_batch = 64;

  config.queue_bound = 32;  // A full batch must fit.
  EXPECT_FALSE(config.Validate().empty());
  config.queue_bound = 1024;

  config.max_connections = 0;
  EXPECT_FALSE(config.Validate().empty());
  config.max_connections = 256;

  config.max_frame_payload_bytes = 0;
  EXPECT_FALSE(config.Validate().empty());
  config.max_frame_payload_bytes =
      static_cast<int64_t>(kMaxWirePayloadBytes) + 1;
  EXPECT_FALSE(config.Validate().empty());
  config.max_frame_payload_bytes = 1 << 20;

  config.max_json_line_bytes = 1;
  EXPECT_FALSE(config.Validate().empty());
  config.max_json_line_bytes = 1 << 20;
  EXPECT_TRUE(config.Validate().empty());
}

TEST(MicroBatcherConfigTest, ValidateRejectsNonsense) {
  MicroBatcherConfig config;
  EXPECT_TRUE(config.Validate().empty());

  config.window_us = 0;
  EXPECT_FALSE(config.Validate().empty());
  config.window_us = 200;

  config.max_batch = 0;
  EXPECT_FALSE(config.Validate().empty());
  config.max_batch = 64;

  config.queue_bound = 63;  // < max_batch: a full batch could never queue.
  EXPECT_FALSE(config.Validate().empty());
  config.queue_bound = 64;
  EXPECT_TRUE(config.Validate().empty());
}

TEST(LoadgenConfigTest, ValidateRejectsNonsense) {
  LoadgenConfig config;
  config.port = 1234;
  EXPECT_TRUE(config.Validate().empty());

  config.host.clear();
  EXPECT_FALSE(config.Validate().empty());
  config.host = "127.0.0.1";

  config.port = 0;  // Loadgen needs a real endpoint, not "pick one".
  EXPECT_FALSE(config.Validate().empty());
  config.port = 1234;

  config.connections = 0;
  EXPECT_FALSE(config.Validate().empty());
  config.connections = 5000;
  EXPECT_FALSE(config.Validate().empty());
  config.connections = 16;

  config.pipeline = 0;
  EXPECT_FALSE(config.Validate().empty());
  config.pipeline = 8;

  config.requests_per_connection = 0;
  EXPECT_FALSE(config.Validate().empty());
  config.requests_per_connection = 10;

  config.tenants = 0;
  EXPECT_FALSE(config.Validate().empty());
  config.tenants = 2;

  config.concurrent_queries = -1;
  EXPECT_FALSE(config.Validate().empty());
  config.concurrent_queries = 0;
  EXPECT_TRUE(config.Validate().empty());
}

using NetDeathTest = ::testing::Test;

TEST(NetDeathTest, MicroBatcherAbortsOnInvalidConfig) {
  MicroBatcherConfig config;
  config.window_us = 0;
  EXPECT_DEATH(MicroBatcher(config, [](std::vector<BatchItem>, FlushReason) {}),
               "window_us");
}

TEST(NetDeathTest, ServerAbortsOnInvalidConfig) {
  EXPECT_DEATH(
      {
        fleet_serve::FleetService fleet(DeterministicFleet());
        ServerConfig config;
        config.num_workers = 0;
        Server server(&fleet, config);
      },
      "num_workers");
}

// ---- JSON writer / parser ----------------------------------------------

TEST(JsonWriterTest, WritesNestedStructures) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("id").UInt(7);
  w.Key("name").String("a\"b\\c\nd");
  w.Key("xs").BeginArray();
  w.Int(-3);
  w.Bool(true);
  w.Null();
  w.EndArray();
  w.Key("nested").BeginObject().Key("k").Double(0.25).EndObject();
  w.EndObject();
  EXPECT_EQ(out,
            "{\"id\":7,\"name\":\"a\\\"b\\\\c\\nd\",\"xs\":[-3,true,null],"
            "\"nested\":{\"k\":0.25}}");
}

TEST(JsonWriterTest, DoublesRoundTripExactly) {
  const double values[] = {0.1, 1.0 / 3.0, 1e-300, 123456789.123456789,
                           -0.0};
  for (const double v : values) {
    std::string out;
    JsonWriter(&out).Double(v);
    EXPECT_EQ(std::strtod(out.c_str(), nullptr), v) << out;
  }
  std::string out;
  JsonWriter(&out).Double(std::nan(""));
  EXPECT_EQ(out, "null");  // JSON has no NaN; null is the honest spelling.
}

TEST(JsonParseTest, ParsesObjectsArraysAndEscapes) {
  JsonValue v;
  ASSERT_TRUE(ParseJson(
      R"( {"a": 1.5, "b": [true, null, "x\ty"], "c": {"d": -2}} )", &v));
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.Find("a")->number, 1.5);
  ASSERT_TRUE(v.Find("b")->is_array());
  EXPECT_EQ(v.Find("b")->array.size(), 3u);
  EXPECT_EQ(v.Find("b")->array[2].string_value, "x\ty");
  EXPECT_DOUBLE_EQ(v.Find("c")->Find("d")->number, -2.0);
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonParseTest, DuplicateKeysLastWins) {
  JsonValue v;
  ASSERT_TRUE(ParseJson(R"({"k":1,"k":2})", &v));
  EXPECT_DOUBLE_EQ(v.Find("k")->number, 2.0);
}

TEST(JsonParseTest, RejectsGarbage) {
  JsonValue v;
  EXPECT_FALSE(ParseJson("", &v));
  EXPECT_FALSE(ParseJson("{", &v));
  EXPECT_FALSE(ParseJson("{\"a\":}", &v));
  EXPECT_FALSE(ParseJson("{} trailing", &v));
  EXPECT_FALSE(ParseJson("nul", &v));
  EXPECT_FALSE(ParseJson("\"unterminated", &v));
  // Depth bomb beyond the 32-level cap.
  std::string deep(64, '[');
  deep += std::string(64, ']');
  EXPECT_FALSE(ParseJson(deep, &v));
}

TEST(JsonParseTest, WriterOutputParsesBack) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("seconds").Double(1.0 / 7.0);
  w.Key("source").String("global");
  w.EndObject();
  JsonValue v;
  ASSERT_TRUE(ParseJson(out, &v));
  EXPECT_DOUBLE_EQ(v.Find("seconds")->number, 1.0 / 7.0);
  EXPECT_EQ(v.Find("source")->string_value, "global");
}

// ---- Wire round-trips ---------------------------------------------------

TEST(WireTest, PredictRequestRoundTrips) {
  PredictRequest request;
  request.request_id = 0xdeadbeefcafeull;
  request.tenant = 42;
  request.concurrent_queries = 7;
  request.tick = 991;
  request.plan = MakeWirePlan(3.5);

  std::string payload;
  AppendPredictRequest(&payload, request);
  PredictRequest parsed;
  ASSERT_TRUE(ParsePredictRequest(payload, &parsed));
  EXPECT_EQ(parsed.request_id, request.request_id);
  EXPECT_EQ(parsed.tenant, request.tenant);
  EXPECT_EQ(parsed.concurrent_queries, request.concurrent_queries);
  EXPECT_EQ(parsed.tick, request.tick);
  ASSERT_EQ(parsed.plan.node_count(), request.plan.node_count());
  EXPECT_EQ(parsed.plan.query_type(), request.plan.query_type());
  for (int i = 0; i < request.plan.node_count(); ++i) {
    const plan::PlanNode& want = request.plan.node(i);
    const plan::PlanNode& got = parsed.plan.node(i);
    EXPECT_EQ(got.op, want.op) << i;
    EXPECT_DOUBLE_EQ(got.estimated_cost, want.estimated_cost) << i;
    EXPECT_DOUBLE_EQ(got.estimated_cardinality, want.estimated_cardinality)
        << i;
    EXPECT_DOUBLE_EQ(got.tuple_width, want.tuple_width) << i;
    EXPECT_EQ(got.s3_format, want.s3_format) << i;
    EXPECT_DOUBLE_EQ(got.table_rows, want.table_rows) << i;
    EXPECT_EQ(got.children, want.children) << i;
  }
}

TEST(WireTest, GroundTruthFieldsHaveNoEncoding) {
  // The fleet's hidden ground-truth fields must be physically absent from
  // the wire: a client cannot leak them to the predictor even on purpose.
  PredictRequest request;
  plan::PlanNode node;
  node.op = plan::OperatorType::kSeqScanLocal;
  node.estimated_cost = 5.0;
  node.estimated_cardinality = 50.0;
  node.s3_format = plan::S3Format::kLocal;
  node.table_rows = 100.0;
  node.table_id = 77;                // Ground truth.
  node.actual_cardinality = 12345.0; // Ground truth.
  request.plan = plan::Plan(plan::QueryType::kSelect, {node});

  std::string payload;
  AppendPredictRequest(&payload, request);
  PredictRequest parsed;
  ASSERT_TRUE(ParsePredictRequest(payload, &parsed));
  EXPECT_EQ(parsed.plan.node(0).table_id, -1);
  EXPECT_DOUBLE_EQ(parsed.plan.node(0).actual_cardinality, 0.0);
}

TEST(WireTest, ResponsesAndErrorsRoundTrip) {
  PredictResponse response;
  response.request_id = 9;
  response.seconds = 1.0 / 3.0;
  response.source = core::PredictionSource::kGlobal;
  response.uncertainty_log_std = 0.75;
  std::string payload;
  AppendPredictResponse(&payload, response);
  PredictResponse parsed_response;
  ASSERT_TRUE(ParsePredictResponse(payload, &parsed_response));
  EXPECT_EQ(parsed_response.request_id, 9u);
  EXPECT_EQ(parsed_response.seconds, response.seconds);  // Bit-exact.
  EXPECT_EQ(parsed_response.source, core::PredictionSource::kGlobal);
  EXPECT_EQ(parsed_response.uncertainty_log_std, 0.75);

  ObserveAck ack{.request_id = 17};
  payload.clear();
  AppendObserveAck(&payload, ack);
  ObserveAck parsed_ack;
  ASSERT_TRUE(ParseObserveAck(payload, &parsed_ack));
  EXPECT_EQ(parsed_ack.request_id, 17u);

  ErrorReply error{.request_id = 4,
                   .code = WireError::kOverloaded,
                   .message = "batch queue full"};
  payload.clear();
  AppendErrorReply(&payload, error);
  ErrorReply parsed_error;
  ASSERT_TRUE(ParseErrorReply(payload, &parsed_error));
  EXPECT_EQ(parsed_error.request_id, 4u);
  EXPECT_EQ(parsed_error.code, WireError::kOverloaded);
  EXPECT_EQ(parsed_error.message, "batch queue full");
}

TEST(WireTest, ObserveRequestRoundTripsAndRejectsBadExecSeconds) {
  ObserveRequest request;
  request.request_id = 3;
  request.tenant = 1;
  request.tick = 5;
  request.exec_seconds = 2.25;
  request.plan = MakeWirePlan(1.0);
  std::string payload;
  AppendObserveRequest(&payload, request);
  ObserveRequest parsed;
  ASSERT_TRUE(ParseObserveRequest(payload, &parsed));
  EXPECT_EQ(parsed.exec_seconds, 2.25);

  ObserveRequest negative = request;
  negative.exec_seconds = -1.0;
  payload.clear();
  AppendObserveRequest(&payload, negative);
  EXPECT_FALSE(ParseObserveRequest(payload, &parsed));

  ObserveRequest nan = request;
  nan.exec_seconds = std::nan("");
  payload.clear();
  AppendObserveRequest(&payload, nan);
  EXPECT_FALSE(ParseObserveRequest(payload, &parsed));
}

TEST(WireTest, ParsersRejectTruncationAndTrailingBytes) {
  PredictRequest request;
  request.plan = MakeWirePlan(2.0);
  std::string payload;
  AppendPredictRequest(&payload, request);

  PredictRequest parsed;
  // A frame says exactly one thing: trailing bytes are an error.
  EXPECT_FALSE(ParsePredictRequest(payload + "x", &parsed));
  // Truncation anywhere fails cleanly (the fuzz test does every byte; this
  // pins the property in the unit suite too).
  EXPECT_FALSE(
      ParsePredictRequest(std::string_view(payload).substr(0, 10), &parsed));
}

// Hostile plans must be rejected by the parser BEFORE Plan's aborting
// constructor can see them.
TEST(WireTest, RejectsHostilePlans) {
  const auto encode_then_parse = [](uint8_t query_type, uint32_t node_count,
                                    const std::vector<plan::PlanNode>& nodes) {
    // Hand-encode so we can lie about counts and indices.
    std::string payload;
    AppendPod<uint64_t>(&payload, 1);  // request_id
    AppendPod<uint64_t>(&payload, 0);  // tenant
    AppendPod<int32_t>(&payload, 0);   // concurrent
    AppendPod<uint64_t>(&payload, 0);  // tick
    AppendPod<uint8_t>(&payload, query_type);
    AppendPod<uint32_t>(&payload, node_count);
    for (const plan::PlanNode& node : nodes) {
      AppendPod<uint8_t>(&payload, static_cast<uint8_t>(node.op));
      AppendPod<double>(&payload, node.estimated_cost);
      AppendPod<double>(&payload, node.estimated_cardinality);
      AppendPod<double>(&payload, node.tuple_width);
      AppendPod<uint8_t>(&payload, static_cast<uint8_t>(node.s3_format));
      AppendPod<double>(&payload, node.table_rows);
      AppendPod<uint32_t>(&payload,
                          static_cast<uint32_t>(node.children.size()));
      for (const int32_t child : node.children) {
        AppendPod<int32_t>(&payload, child);
      }
    }
    PredictRequest parsed;
    return ParsePredictRequest(payload, &parsed);
  };

  plan::PlanNode leaf;
  leaf.op = plan::OperatorType::kSeqScanLocal;

  // Sanity: the encoding itself is correct.
  EXPECT_TRUE(encode_then_parse(0, 1, {leaf}));

  // Zero nodes; node count lying high (allocation guard: the payload ends
  // long before 1<<15 nodes, so the parser must not trust the count).
  EXPECT_FALSE(encode_then_parse(0, 0, {}));
  EXPECT_FALSE(encode_then_parse(0, 1u << 15, {leaf}));
  // Node count beyond the hard cap.
  EXPECT_FALSE(encode_then_parse(0, kMaxWirePlanNodes + 1, {}));

  // Out-of-range enums.
  EXPECT_FALSE(encode_then_parse(200, 1, {leaf}));  // query_type.
  plan::PlanNode bad_op = leaf;
  bad_op.op = static_cast<plan::OperatorType>(250);
  EXPECT_FALSE(encode_then_parse(0, 1, {bad_op}));
  plan::PlanNode bad_format = leaf;
  bad_format.s3_format = static_cast<plan::S3Format>(99);
  EXPECT_FALSE(encode_then_parse(0, 1, {bad_format}));

  // Structural violations: self-child, backward edge, out-of-range child,
  // two parents for one node.
  plan::PlanNode self_child = leaf;
  self_child.children = {0};
  EXPECT_FALSE(encode_then_parse(0, 1, {self_child}));

  plan::PlanNode root = leaf;
  root.children = {1};
  plan::PlanNode backward = leaf;
  backward.children = {0};
  EXPECT_FALSE(encode_then_parse(0, 2, {root, backward}));

  plan::PlanNode dangling = leaf;
  dangling.children = {5};
  EXPECT_FALSE(encode_then_parse(0, 1, {dangling}));

  plan::PlanNode twice = leaf;
  twice.children = {1, 1};
  EXPECT_FALSE(encode_then_parse(0, 2, {twice, leaf}));

  // An orphan (node 1 has no parent).
  EXPECT_FALSE(encode_then_parse(0, 2, {leaf, leaf}));
}

TEST(WireJsonTest, ParsesPredictAndObserveLines) {
  bool is_predict = false;
  PredictRequest predict;
  ObserveRequest observe;
  std::string error;
  ASSERT_TRUE(ParseJsonRequest(
      R"({"type":"predict","id":9,"tenant":1,"concurrent":4,"tick":12,)"
      R"("plan":{"query_type":0,"nodes":[)"
      R"({"op":3,"cost":100.5,"card":50,"width":24,"s3":0,"rows":0,)"
      R"("children":[1,2]},)"
      R"({"op":0,"cost":1,"card":10,"width":16,"s3":1,"rows":1000},)"
      R"({"op":1,"cost":2,"card":3,"width":8,"s3":2,"rows":500}]}})",
      &is_predict, &predict, &observe, &error))
      << error;
  EXPECT_TRUE(is_predict);
  EXPECT_EQ(predict.request_id, 9u);
  EXPECT_EQ(predict.tenant, 1u);
  EXPECT_EQ(predict.concurrent_queries, 4);
  EXPECT_EQ(predict.tick, 12u);
  ASSERT_EQ(predict.plan.node_count(), 3);
  EXPECT_EQ(predict.plan.node(0).op, plan::OperatorType::kHashJoinLocal);
  EXPECT_EQ(predict.plan.node(0).children, (std::vector<int32_t>{1, 2}));
  EXPECT_EQ(predict.plan.node(1).s3_format, plan::S3Format::kLocal);

  ASSERT_TRUE(ParseJsonRequest(
      R"({"type":"observe","tenant":0,"concurrent":0,"exec_seconds":1.5,)"
      R"("plan":{"query_type":0,"nodes":[{"op":0,"cost":1,"card":1,)"
      R"("width":8,"s3":1,"rows":10}]}})",
      &is_predict, &predict, &observe, &error))
      << error;
  EXPECT_FALSE(is_predict);
  EXPECT_EQ(observe.exec_seconds, 1.5);
  EXPECT_EQ(observe.request_id, 0u);  // "id" is optional.
}

TEST(WireJsonTest, RejectsBadLines) {
  bool is_predict = false;
  PredictRequest predict;
  ObserveRequest observe;
  std::string error;
  const auto rejects = [&](std::string_view line) {
    error.clear();
    const bool ok =
        ParseJsonRequest(line, &is_predict, &predict, &observe, &error);
    EXPECT_FALSE(ok) << line;
    EXPECT_FALSE(error.empty()) << line;
  };
  rejects("not json at all");
  rejects(R"({"type":"frobnicate","tenant":0,"concurrent":0})");
  rejects(R"({"type":"predict","concurrent":0,"plan":{"query_type":0,)"
          R"("nodes":[{"op":0,"cost":1,"card":1,"width":8}]}})");  // No tenant.
  rejects(R"({"type":"predict","tenant":0,"concurrent":0})");  // No plan.
  // Structural violation: child before parent.
  rejects(R"({"type":"predict","tenant":0,"concurrent":0,"plan":)"
          R"({"query_type":0,"nodes":[{"op":0,"cost":1,"card":1,"width":8,)"
          R"("s3":1,"rows":10,"children":[0]}]}})");
  // Out-of-range enum.
  rejects(R"({"type":"predict","tenant":0,"concurrent":0,"plan":)"
          R"({"query_type":0,"nodes":[{"op":200,"cost":1,"card":1,)"
          R"("width":8,"s3":1,"rows":10}]}})");
  // A node without the full field set (no "rows") is malformed: the six
  // node fields are required, never defaulted.
  rejects(R"({"type":"predict","tenant":0,"concurrent":0,"plan":)"
          R"({"query_type":0,"nodes":[{"op":0,"cost":1,"card":1,)"
          R"("width":8,"s3":1}]}})");
  // Negative exec_seconds.
  rejects(R"({"type":"observe","tenant":0,"concurrent":0,)"
          R"("exec_seconds":-1,"plan":{"query_type":0,"nodes":[)"
          R"({"op":0,"cost":1,"card":1,"width":8,"s3":1,"rows":10}]}})");
  // Tenant id beyond 2^53 (not exactly representable as double).
  rejects(R"({"type":"predict","tenant":1e300,"concurrent":0,"plan":)"
          R"({"query_type":0,"nodes":[{"op":0,"cost":1,"card":1,)"
          R"("width":8,"s3":1,"rows":10}]}})");
}

// ---- MicroBatcher -------------------------------------------------------

// Collects flushes from the batcher thread for the test to wait on.
struct FlushLog {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::pair<FlushReason, size_t>> flushes;
  size_t items = 0;

  MicroBatcher::FlushFn Fn() {
    return [this](std::vector<BatchItem> batch, FlushReason reason) {
      std::lock_guard<std::mutex> lock(mutex);
      flushes.emplace_back(reason, batch.size());
      items += batch.size();
      cv.notify_all();
    };
  }
  void WaitForItems(size_t n) {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return items >= n; }));
  }
};

BatchItem MakeItem(uint64_t request_id) {
  BatchItem item;
  item.request_id = request_id;
  return item;
}

TEST(MicroBatcherTest, FullBatchFlushesImmediately) {
  FlushLog log;
  MicroBatcherConfig config;
  config.window_us = 1'000'000;  // 1s: a timeout flush would hang the test.
  config.max_batch = 3;
  config.queue_bound = 16;
  MicroBatcher batcher(config, log.Fn());
  for (uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(batcher.Submit(MakeItem(i)), SubmitResult::kAccepted);
  }
  log.WaitForItems(3);
  std::lock_guard<std::mutex> lock(log.mutex);
  ASSERT_EQ(log.flushes.size(), 1u);
  EXPECT_EQ(log.flushes[0].first, FlushReason::kFull);
  EXPECT_EQ(log.flushes[0].second, 3u);
  EXPECT_EQ(batcher.flushes(FlushReason::kFull), 1u);
  // A full flush halves the effective window.
  EXPECT_EQ(batcher.effective_window_us(), 500'000u);
}

TEST(MicroBatcherTest, PartialBatchFlushesOnTimeoutAndWindowGrowsBack) {
  FlushLog log;
  MicroBatcherConfig config;
  config.window_us = 4000;  // 4ms.
  config.max_batch = 8;
  config.queue_bound = 16;
  MicroBatcher batcher(config, log.Fn());

  // Fill one batch: window halves to 2000us.
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(batcher.Submit(MakeItem(i)), SubmitResult::kAccepted);
  }
  log.WaitForItems(8);
  EXPECT_EQ(batcher.effective_window_us(), 2000u);

  // A sparse timeout flush (1 item <= max_batch / 4) doubles it back.
  EXPECT_EQ(batcher.Submit(MakeItem(100)), SubmitResult::kAccepted);
  log.WaitForItems(9);
  std::lock_guard<std::mutex> lock(log.mutex);
  ASSERT_EQ(log.flushes.size(), 2u);
  EXPECT_EQ(log.flushes[1].first, FlushReason::kTimeout);
  EXPECT_EQ(log.flushes[1].second, 1u);
  EXPECT_EQ(batcher.effective_window_us(), 4000u);  // Capped at configured.
}

TEST(MicroBatcherTest, DrainFlushesRemainderAndStopsAccepting) {
  FlushLog log;
  MicroBatcherConfig config;
  config.window_us = 1'000'000;
  config.max_batch = 64;
  config.queue_bound = 64;
  MicroBatcher batcher(config, log.Fn());
  EXPECT_EQ(batcher.Submit(MakeItem(1)), SubmitResult::kAccepted);
  EXPECT_EQ(batcher.Submit(MakeItem(2)), SubmitResult::kAccepted);
  batcher.Drain();
  {
    std::lock_guard<std::mutex> lock(log.mutex);
    ASSERT_EQ(log.flushes.size(), 1u);
    EXPECT_EQ(log.flushes[0].first, FlushReason::kDrain);
    EXPECT_EQ(log.flushes[0].second, 2u);
  }
  EXPECT_EQ(batcher.Submit(MakeItem(3)), SubmitResult::kStopped);
  batcher.Drain();  // Idempotent.
}

// Deterministic overload: block the flush callback so the queue cannot
// drain, then fill it past the bound.
TEST(MicroBatcherTest, BoundedQueueRejectsWhenFlushIsStuck) {
  std::promise<void> entered_promise;
  std::future<void> entered = entered_promise.get_future();
  std::promise<void> release_promise;
  std::shared_future<void> release = release_promise.get_future().share();
  std::atomic<size_t> flushed_items{0};
  std::atomic<int> calls{0};

  MicroBatcherConfig config;
  config.window_us = 1;  // Grab the first item immediately.
  config.max_batch = 1;
  config.queue_bound = 2;
  MicroBatcher batcher(
      config, [&](std::vector<BatchItem> batch, FlushReason) {
        if (calls.fetch_add(1) == 0) {
          entered_promise.set_value();
          release.wait();  // Hold the batcher thread hostage.
        }
        flushed_items.fetch_add(batch.size());
      });

  ASSERT_EQ(batcher.Submit(MakeItem(1)), SubmitResult::kAccepted);
  ASSERT_EQ(entered.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  // The batcher thread is inside the callback; these queue up.
  EXPECT_EQ(batcher.Submit(MakeItem(2)), SubmitResult::kAccepted);
  EXPECT_EQ(batcher.Submit(MakeItem(3)), SubmitResult::kAccepted);
  EXPECT_EQ(batcher.queue_depth(), 2u);
  // Queue is at the bound: deterministic rejection.
  EXPECT_EQ(batcher.Submit(MakeItem(4)), SubmitResult::kOverloaded);
  EXPECT_EQ(batcher.rejected(), 1u);

  release_promise.set_value();
  batcher.Drain();
  EXPECT_EQ(flushed_items.load(), 3u);  // Every accepted item was flushed.
  EXPECT_EQ(batcher.submitted(), 3u);
}

// ---- Server integration -------------------------------------------------

// Two identical fleets (one served over the socket, one driven in-process)
// plus a tiny trained global model so cold predictions escalate to kGlobal
// and vary per plan — a constant-default fleet would make the bit-for-bit
// parity checks vacuous.
class ServerFixture {
 public:
  ServerFixture() {
    fleet::FleetConfig fleet_config;
    fleet_config.num_instances = 1;
    fleet_config.workload.num_queries = 200;
    fleet::FleetGenerator generator(fleet_config);
    instances_ = generator.GenerateFleet();
    std::vector<global::GlobalExample> examples;
    for (const auto& event : instances_[0].trace) {
      examples.push_back(global::MakeGlobalExample(
          event.plan, instances_[0].config, event.concurrent_queries,
          event.exec_seconds));
    }
    global::GlobalModelConfig global_config;
    global_config.hidden_dim = 16;
    global_config.num_layers = 2;
    global_config.head_hidden = {16};
    global_config.epochs = 2;
    global_model_ = std::make_unique<global::GlobalModel>(
        global::GlobalModel::Train(examples, global_config));

    served_ = std::make_unique<fleet_serve::FleetService>(DeterministicFleet());
    twin_ = std::make_unique<fleet_serve::FleetService>(DeterministicFleet());
    for (fleet_serve::TenantId tenant = 0; tenant < 2; ++tenant) {
      served_->RegisterTenant(
          tenant, {global_model_.get(), &instances_[0].config});
      twin_->RegisterTenant(
          tenant, {global_model_.get(), &instances_[0].config});
    }
  }

  void Start(const ServerConfig& config, const ServerOptions& options = {}) {
    server_ = std::make_unique<Server>(served_.get(), config, options);
  }

  std::unique_ptr<Client> Connect() {
    std::string error;
    auto client = Client::Connect("127.0.0.1", server_->port(), &error);
    EXPECT_NE(client, nullptr) << error;
    return client;
  }

  // Plans drawn from the generated trace: realistic shapes, all distinct.
  plan::Plan TracePlan(size_t i) const {
    return instances_[0].trace[i % instances_[0].trace.size()].plan;
  }

  core::Prediction TwinPredict(uint64_t tenant, const plan::Plan& plan,
                               int32_t concurrent, uint64_t tick) {
    return twin_->Predict(
        tenant, core::MakeQueryContext(plan, concurrent, tick));
  }

  std::vector<fleet::InstanceTrace> instances_;
  std::unique_ptr<global::GlobalModel> global_model_;
  std::unique_ptr<fleet_serve::FleetService> served_;
  std::unique_ptr<fleet_serve::FleetService> twin_;
  std::unique_ptr<Server> server_;
};

TEST(ServerTest, BatchedPredictionsMatchInProcessBitForBit) {
  ServerFixture fx;
  ServerConfig config;
  config.num_workers = 2;
  config.batch_window_us = 200;
  fx.Start(config);
  auto client = fx.Connect();
  ASSERT_NE(client, nullptr);

  for (uint64_t i = 0; i < 40; ++i) {
    PredictRequest request;
    request.request_id = i;
    request.tenant = i % 2;
    request.concurrent_queries = static_cast<int32_t>(i % 5);
    request.tick = i;
    request.plan = fx.TracePlan(i);
    PredictResponse response;
    ErrorReply error_reply;
    std::string transport_error;
    ASSERT_EQ(client->Predict(request, &response, &error_reply,
                              &transport_error),
              Client::RpcStatus::kOk)
        << transport_error;
    EXPECT_EQ(response.request_id, i);
    const core::Prediction want = fx.TwinPredict(
        request.tenant, request.plan, request.concurrent_queries, i);
    EXPECT_EQ(response.seconds, want.seconds) << i;  // Bit-for-bit.
    EXPECT_EQ(response.source, want.source) << i;
    EXPECT_EQ(response.uncertainty_log_std, want.uncertainty_log_std) << i;
    // Cold fleets with a global model escalate everything.
    EXPECT_EQ(response.source, core::PredictionSource::kGlobal) << i;
  }
  const ServerStats stats = fx.server_->Stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.frames_in, 40u);
  EXPECT_EQ(stats.frames_out, 40u);
  EXPECT_EQ(stats.predictions_batched, 40u);
  EXPECT_EQ(stats.predictions_inline, 0u);
  EXPECT_EQ(fx.server_->frame_latency()
                .histogram_snapshot(Server::kLatencyPredict)
                .count,
            40u);
}

TEST(ServerTest, InlinePredictionsMatchInProcessBitForBit) {
  ServerFixture fx;
  ServerConfig config;
  config.num_workers = 1;
  config.batch_window_us = 0;  // Batching disabled: the bench baseline.
  fx.Start(config);
  auto client = fx.Connect();
  ASSERT_NE(client, nullptr);

  for (uint64_t i = 0; i < 20; ++i) {
    PredictRequest request;
    request.request_id = i;
    request.tenant = i % 2;
    request.tick = i;
    request.plan = fx.TracePlan(i);
    PredictResponse response;
    ErrorReply error_reply;
    std::string transport_error;
    ASSERT_EQ(client->Predict(request, &response, &error_reply,
                              &transport_error),
              Client::RpcStatus::kOk)
        << transport_error;
    const core::Prediction want =
        fx.TwinPredict(request.tenant, request.plan, 0, i);
    EXPECT_EQ(response.seconds, want.seconds) << i;
    EXPECT_EQ(response.source, want.source) << i;
  }
  const ServerStats stats = fx.server_->Stats();
  EXPECT_EQ(stats.predictions_inline, 20u);
  EXPECT_EQ(stats.predictions_batched, 0u);
  EXPECT_EQ(stats.effective_window_us, 0u);
}

TEST(ServerTest, ObservesOverTheSocketMatchInProcessState) {
  ServerFixture fx;
  ServerConfig config;
  config.num_workers = 1;
  fx.Start(config);
  auto client = fx.Connect();
  ASSERT_NE(client, nullptr);

  // Observe the same events on both fleets, then predictions must agree —
  // including kCache hits, which only exist if the observes applied.
  for (uint64_t i = 0; i < 30; ++i) {
    ObserveRequest request;
    request.request_id = i;
    request.tenant = 0;
    request.tick = i;
    request.exec_seconds = 0.5 + static_cast<double>(i % 7);
    request.plan = fx.TracePlan(i);
    ObserveAck ack;
    ErrorReply error_reply;
    std::string transport_error;
    ASSERT_EQ(client->Observe(request, &ack, &error_reply, &transport_error),
              Client::RpcStatus::kOk)
        << transport_error;
    EXPECT_EQ(ack.request_id, i);
    fx.twin_->Observe(0, core::MakeQueryContext(request.plan, 0, i),
                      request.exec_seconds);
  }
  bool saw_cache_hit = false;
  for (uint64_t i = 0; i < 30; ++i) {
    PredictRequest request;
    request.request_id = 1000 + i;
    request.tenant = 0;
    request.tick = 1000 + i;
    request.plan = fx.TracePlan(i);
    PredictResponse response;
    ErrorReply error_reply;
    std::string transport_error;
    ASSERT_EQ(client->Predict(request, &response, &error_reply,
                              &transport_error),
              Client::RpcStatus::kOk)
        << transport_error;
    const core::Prediction want =
        fx.TwinPredict(0, request.plan, 0, 1000 + i);
    EXPECT_EQ(response.seconds, want.seconds) << i;
    EXPECT_EQ(response.source, want.source) << i;
    saw_cache_hit |= response.source == core::PredictionSource::kCache;
  }
  EXPECT_TRUE(saw_cache_hit);
  EXPECT_EQ(fx.server_->Stats().observes, 30u);
}

TEST(ServerTest, JsonModePredictionsMatchInProcessBitForBit) {
  ServerFixture fx;
  ServerConfig config;
  config.num_workers = 1;
  fx.Start(config);
  auto client = fx.Connect();
  ASSERT_NE(client, nullptr);

  const auto read_line = [&](std::string* line) {
    line->clear();
    char c;
    while (true) {
      const ssize_t n = read(client->fd(), &c, 1);
      if (n != 1) return false;
      if (c == '\n') return true;
      line->push_back(c);
    }
  };

  for (uint64_t i = 0; i < 10; ++i) {
    const plan::Plan plan = fx.TracePlan(i);
    std::string line;
    JsonWriter w(&line);
    w.BeginObject();
    w.Key("type").String("predict");
    w.Key("id").UInt(i);
    w.Key("tenant").UInt(1);
    w.Key("concurrent").Int(2);
    w.Key("tick").UInt(i);
    w.Key("plan").BeginObject();
    w.Key("query_type").UInt(static_cast<uint64_t>(plan.query_type()));
    w.Key("nodes").BeginArray();
    for (const plan::PlanNode& node : plan.nodes()) {
      w.BeginObject();
      w.Key("op").UInt(static_cast<uint64_t>(node.op));
      w.Key("cost").Double(node.estimated_cost);
      w.Key("card").Double(node.estimated_cardinality);
      w.Key("width").Double(node.tuple_width);
      w.Key("s3").UInt(static_cast<uint64_t>(node.s3_format));
      w.Key("rows").Double(node.table_rows);
      w.Key("children").BeginArray();
      for (const int32_t child : node.children) w.Int(child);
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    w.EndObject();
    line.push_back('\n');
    std::string send_error;
    ASSERT_TRUE(client->SendRaw(line, &send_error)) << send_error;

    std::string reply;
    ASSERT_TRUE(read_line(&reply));
    JsonValue v;
    ASSERT_TRUE(ParseJson(reply, &v)) << reply;
    ASSERT_NE(v.Find("seconds"), nullptr) << reply;
    const core::Prediction want = fx.TwinPredict(1, plan, 2, i);
    // %.17g round-trips IEEE-754 exactly, so even through decimal text the
    // comparison is bit-for-bit.
    EXPECT_EQ(v.Find("seconds")->number, want.seconds) << reply;
    EXPECT_EQ(v.Find("source")->string_value,
              core::PredictionSourceName(want.source));
    EXPECT_DOUBLE_EQ(v.Find("id")->number, static_cast<double>(i));
  }
  const ServerStats stats = fx.server_->Stats();
  EXPECT_EQ(stats.json_lines_in, 10u);
  EXPECT_EQ(stats.json_lines_out, 10u);
  EXPECT_EQ(stats.frames_in, 0u);
}

TEST(ServerTest, UnknownTenantGetsErrorReplyAndConnectionSurvives) {
  ServerFixture fx;
  fx.Start(ServerConfig{});
  auto client = fx.Connect();
  ASSERT_NE(client, nullptr);

  PredictRequest request;
  request.request_id = 5;
  request.tenant = 999;  // Never registered.
  request.plan = fx.TracePlan(0);
  PredictResponse response;
  ErrorReply error_reply;
  std::string transport_error;
  ASSERT_EQ(client->Predict(request, &response, &error_reply,
                            &transport_error),
            Client::RpcStatus::kError)
      << transport_error;
  EXPECT_EQ(error_reply.code, WireError::kUnknownTenant);
  EXPECT_EQ(error_reply.request_id, 5u);

  // The connection is still usable for a valid request.
  request.tenant = 0;
  ASSERT_EQ(client->Predict(request, &response, &error_reply,
                            &transport_error),
            Client::RpcStatus::kOk)
      << transport_error;
  EXPECT_EQ(fx.server_->Stats().errors_by_code[static_cast<size_t>(
                WireError::kUnknownTenant)],
            1u);
}

TEST(ServerTest, MalformedPayloadGetsErrorReplyAndConnectionSurvives) {
  ServerFixture fx;
  fx.Start(ServerConfig{});
  auto client = fx.Connect();
  ASSERT_NE(client, nullptr);

  std::string send_error;
  ASSERT_TRUE(client->SendMessage(MessageType::kPredictRequest,
                                  "definitely not a predict request",
                                  &send_error))
      << send_error;
  MessageType type;
  std::string payload;
  ASSERT_TRUE(client->ReceiveMessage(&type, &payload, &send_error))
      << send_error;
  ASSERT_EQ(type, MessageType::kError);
  ErrorReply error_reply;
  ASSERT_TRUE(ParseErrorReply(payload, &error_reply));
  EXPECT_EQ(error_reply.code, WireError::kMalformed);

  // Still alive: a well-formed request succeeds.
  PredictRequest request;
  request.tenant = 0;
  request.plan = fx.TracePlan(0);
  PredictResponse response;
  std::string transport_error;
  EXPECT_EQ(client->Predict(request, &response, &error_reply,
                            &transport_error),
            Client::RpcStatus::kOk)
      << transport_error;
}

TEST(ServerTest, CorruptFrameGetsBadFrameReplyThenClose) {
  ServerFixture fx;
  fx.Start(ServerConfig{});
  auto client = fx.Connect();
  ASSERT_NE(client, nullptr);

  // A frame-sized blob with a wrong magic: envelope-level corruption.
  std::string garbage(64, '\xee');
  std::string send_error;
  ASSERT_TRUE(client->SendRaw(garbage, &send_error)) << send_error;

  MessageType type;
  std::string payload;
  ASSERT_TRUE(client->ReceiveMessage(&type, &payload, &send_error))
      << send_error;
  ASSERT_EQ(type, MessageType::kError);
  ErrorReply error_reply;
  ASSERT_TRUE(ParseErrorReply(payload, &error_reply));
  EXPECT_EQ(error_reply.code, WireError::kBadFrame);

  // After the error reply the server closes the connection: EOF.
  EXPECT_FALSE(client->ReceiveMessage(&type, &payload, &send_error));
}

TEST(ServerTest, OverloadRepliesMatchBatcherRejections) {
  ServerFixture fx;
  ServerConfig config;
  config.num_workers = 1;
  config.batch_window_us = 5000;
  config.max_batch = 4;
  config.queue_bound = 4;
  fx.Start(config);
  auto client = fx.Connect();
  ASSERT_NE(client, nullptr);

  // Blast pipelined predicts at a tiny queue. Whether any individual
  // request lands kOverloaded depends on scheduling, but conservation must
  // hold: every request gets exactly one reply, and every batcher
  // rejection surfaced as exactly one kOverloaded error frame.
  constexpr int kRequests = 400;
  std::string bulk;
  std::string payload;
  for (int i = 0; i < kRequests; ++i) {
    PredictRequest request;
    request.request_id = static_cast<uint64_t>(i);
    request.tenant = 0;
    request.tick = static_cast<uint64_t>(i);
    request.plan = fx.TracePlan(static_cast<size_t>(i));
    payload.clear();
    AppendPredictRequest(&payload, request);
    AppendMessage(&bulk, MessageType::kPredictRequest, payload);
  }
  std::string send_error;
  ASSERT_TRUE(client->SendRaw(bulk, &send_error)) << send_error;

  int responses = 0;
  int overloaded = 0;
  for (int i = 0; i < kRequests; ++i) {
    MessageType type;
    std::string reply;
    ASSERT_TRUE(client->ReceiveMessage(&type, &reply, &send_error))
        << send_error << " after " << i;
    if (type == MessageType::kPredictResponse) {
      ++responses;
    } else {
      ASSERT_EQ(type, MessageType::kError);
      ErrorReply error_reply;
      ASSERT_TRUE(ParseErrorReply(reply, &error_reply));
      EXPECT_EQ(error_reply.code, WireError::kOverloaded);
      ++overloaded;
    }
  }
  EXPECT_EQ(responses + overloaded, kRequests);
  const ServerStats stats = fx.server_->Stats();
  EXPECT_EQ(stats.batch_rejected,
            stats.errors_by_code[static_cast<size_t>(WireError::kOverloaded)]);
  EXPECT_EQ(stats.batch_submitted, static_cast<uint64_t>(responses));
  EXPECT_EQ(stats.predictions_batched, static_cast<uint64_t>(responses));
}

TEST(ServerTest, GracefulShutdownDrainsQueuedRequests) {
  ServerFixture fx;
  ServerConfig config;
  config.num_workers = 1;
  // A huge window so the requests sit in the batcher queue until Shutdown
  // drains them — proving the drain path, not a lucky timeout flush.
  config.batch_window_us = 10'000'000;
  config.max_batch = 64;
  fx.Start(config);
  auto client = fx.Connect();
  ASSERT_NE(client, nullptr);

  constexpr uint64_t kQueued = 5;
  std::string payload;
  for (uint64_t i = 0; i < kQueued; ++i) {
    PredictRequest request;
    request.request_id = i;
    request.tenant = 0;
    request.tick = i;
    request.plan = fx.TracePlan(i);
    payload.clear();
    AppendPredictRequest(&payload, request);
    std::string send_error;
    ASSERT_TRUE(client->SendMessage(MessageType::kPredictRequest, payload,
                                    &send_error))
        << send_error;
  }
  // Wait until all five are queued in the batcher (none answered yet).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fx.server_->Stats().batch_submitted < kQueued) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  fx.server_->Shutdown();

  // Every queued request is answered (bit-for-bit), then the shutdown
  // frame, then EOF — no lost observations, no dangling clients.
  for (uint64_t i = 0; i < kQueued; ++i) {
    MessageType type;
    std::string reply;
    std::string error;
    ASSERT_TRUE(client->ReceiveMessage(&type, &reply, &error)) << error;
    ASSERT_EQ(type, MessageType::kPredictResponse) << i;
    PredictResponse response;
    ASSERT_TRUE(ParsePredictResponse(reply, &response));
    const core::Prediction want =
        fx.TwinPredict(0, fx.TracePlan(response.request_id), 0,
                       response.request_id);
    EXPECT_EQ(response.seconds, want.seconds);
  }
  MessageType type;
  std::string reply;
  std::string error;
  ASSERT_TRUE(client->ReceiveMessage(&type, &reply, &error)) << error;
  EXPECT_EQ(type, MessageType::kShutdown);
  EXPECT_FALSE(client->ReceiveMessage(&type, &reply, &error));

  const ServerStats stats = fx.server_->Stats();
  EXPECT_EQ(stats.batch_flushes[static_cast<size_t>(FlushReason::kDrain)],
            1u);
  EXPECT_EQ(stats.predictions_batched, kQueued);
}

TEST(ServerTest, ShutdownAnnouncesToIdleConnections) {
  ServerFixture fx;
  fx.Start(ServerConfig{});
  auto client = fx.Connect();
  ASSERT_NE(client, nullptr);
  // Let the server finish registering the connection before shutting down.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fx.server_->Stats().connections_active < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  fx.server_->Shutdown();
  MessageType type;
  std::string payload;
  std::string error;
  ASSERT_TRUE(client->ReceiveMessage(&type, &payload, &error)) << error;
  EXPECT_EQ(type, MessageType::kShutdown);
  EXPECT_FALSE(client->ReceiveMessage(&type, &payload, &error));
}

TEST(ServerTest, RejectsConnectionsBeyondCapacity) {
  ServerFixture fx;
  ServerConfig config;
  config.max_connections = 1;
  fx.Start(config);
  auto first = fx.Connect();
  ASSERT_NE(first, nullptr);
  // Make sure the first connection is fully registered.
  PredictRequest request;
  request.tenant = 0;
  request.plan = fx.TracePlan(0);
  PredictResponse response;
  ErrorReply error_reply;
  std::string transport_error;
  ASSERT_EQ(first->Predict(request, &response, &error_reply,
                           &transport_error),
            Client::RpcStatus::kOk);

  // The second connection is closed at accept; the TCP connect itself
  // succeeds, so the signal is EOF on first read.
  std::string error;
  auto second = Client::Connect("127.0.0.1", fx.server_->port(), &error);
  ASSERT_NE(second, nullptr) << error;
  MessageType type;
  std::string payload;
  EXPECT_FALSE(second->ReceiveMessage(&type, &payload, &error));
  EXPECT_GE(fx.server_->Stats().connections_rejected, 1u);
}

TEST(ServerTest, ExposesMetricsOnTheRegistry) {
  obs::MetricsRegistry registry;
  ServerFixture fx;
  ServerConfig config;
  config.num_workers = 1;
  fx.Start(config, {.metrics = &registry});
  auto client = fx.Connect();
  ASSERT_NE(client, nullptr);
  for (uint64_t i = 0; i < 8; ++i) {
    PredictRequest request;
    request.request_id = i;
    request.tenant = 0;
    request.tick = i;
    request.plan = fx.TracePlan(i);
    PredictResponse response;
    ErrorReply error_reply;
    std::string transport_error;
    ASSERT_EQ(client->Predict(request, &response, &error_reply,
                              &transport_error),
              Client::RpcStatus::kOk);
  }
  const std::string text = registry.RenderText();
  std::string problem;
  EXPECT_TRUE(obs::ValidateTextExposition(text, &problem)) << problem;
  EXPECT_NE(text.find("stage_net_frames_in_total"), std::string::npos);
  EXPECT_NE(text.find("stage_net_predictions_total{mode=\"batched\"}"),
            std::string::npos);
  EXPECT_NE(text.find("stage_net_connections_active"), std::string::npos);
  EXPECT_NE(text.find("stage_net_batch_size"), std::string::npos);
  EXPECT_NE(text.find("stage_net_frame_latency_nanos"), std::string::npos);

  // Histogram sanity: one Record per flush, counts sum to the flushes.
  const obs::Histogram::Snapshot hist = fx.server_->batch_size_histogram();
  uint64_t flushes = 0;
  for (int r = 0; r < kNumFlushReasons; ++r) {
    flushes += fx.server_->Stats().batch_flushes[static_cast<size_t>(r)];
  }
  EXPECT_EQ(hist.count, flushes);

  // The server unregisters its callbacks on destruction.
  fx.server_.reset();
  EXPECT_TRUE(obs::ValidateTextExposition(registry.RenderText(), &problem))
      << problem;
  EXPECT_EQ(registry.RenderText().find("stage_net_"), std::string::npos);
}

TEST(ServerTest, LoadgenCompletesAgainstTheServer) {
  ServerFixture fx;
  ServerConfig config;
  config.num_workers = 2;
  fx.Start(config);

  std::vector<plan::Plan> plans;
  for (size_t i = 0; i < 32; ++i) plans.push_back(fx.TracePlan(i));
  LoadgenConfig loadgen;
  loadgen.port = fx.server_->port();
  loadgen.connections = 8;
  loadgen.pipeline = 4;
  loadgen.requests_per_connection = 25;
  loadgen.tenants = 2;
  LoadgenResult result;
  std::string error;
  ASSERT_TRUE(RunLoadgen(loadgen, plans, &result, &error)) << error;
  EXPECT_EQ(result.completed, 8u * 25u);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_GT(result.qps, 0.0);
  EXPECT_GT(result.p99_ms, 0.0);
  EXPECT_GE(result.p99_ms, result.p50_ms);
  // Cold tenants + global model: every prediction escalates.
  EXPECT_EQ(result.source_counts[static_cast<size_t>(
                core::PredictionSource::kGlobal)],
            8u * 25u);
}

// Multi-connection concurrent stress for the TSan lane (tools/check.sh
// runs --gtest_filter=NetStressTest.* under STAGE_SANITIZE=thread):
// concurrent clients mixing predicts and observes, plus a graceful
// shutdown racing the tail of the traffic.
TEST(NetStressTest, ConcurrentClientsAndGracefulShutdown) {
  ServerFixture fx;
  ServerConfig config;
  config.num_workers = 2;
  config.batch_window_us = 100;
  config.max_batch = 16;
  fx.Start(config);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::atomic<int> answered{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::string error;
      auto client = Client::Connect("127.0.0.1", fx.server_->port(), &error);
      if (client == nullptr) return;
      for (int i = 0; i < kPerThread; ++i) {
        ErrorReply error_reply;
        std::string transport_error;
        if (i % 5 == 4) {
          ObserveRequest request;
          request.request_id = static_cast<uint64_t>(i);
          request.tenant = static_cast<uint64_t>(t % 2);
          request.tick = static_cast<uint64_t>(i);
          request.exec_seconds = 1.0;
          request.plan = fx.TracePlan(static_cast<size_t>(t * 1000 + i));
          ObserveAck ack;
          if (client->Observe(request, &ack, &error_reply,
                              &transport_error) != Client::RpcStatus::kOk) {
            return;  // Shutdown reached us mid-stream; that's legal.
          }
        } else {
          PredictRequest request;
          request.request_id = static_cast<uint64_t>(i);
          request.tenant = static_cast<uint64_t>(t % 2);
          request.tick = static_cast<uint64_t>(i);
          request.plan = fx.TracePlan(static_cast<size_t>(t * 1000 + i));
          PredictResponse response;
          if (client->Predict(request, &response, &error_reply,
                              &transport_error) != Client::RpcStatus::kOk) {
            return;
          }
        }
        answered.fetch_add(1);
      }
    });
  }
  // Shut down while the tail of the traffic may still be in flight.
  while (answered.load() < kThreads * kPerThread / 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  fx.server_->Shutdown();
  for (std::thread& thread : threads) thread.join();
  // Conservation: every answered request was answered exactly once, and
  // the counters agree with what the clients saw.
  const ServerStats stats = fx.server_->Stats();
  EXPECT_GE(stats.predictions_batched + stats.predictions_inline +
                stats.observes,
            static_cast<uint64_t>(answered.load()));
  EXPECT_EQ(stats.connections_active, 0u);
}

}  // namespace
}  // namespace stage::net
