#include "trace.h"

#include <cstdio>
#include <map>

#include "loadgen.h"
#include "stage/common/macros.h"
#include "stage/common/thread_pool.h"
#include "stage/net/wire.h"

namespace perfbench {

namespace net = stage::net;

namespace {

const char* const kSpanNames[Spans::kNumNames] = {
    "replay.batch",       "net.decode",          "plan.context",
    "fleet_serve.predict_batch", "net.encode",   "net.decode_observe",
    "fleet_serve.observe", "net.encode_ack",
};

}  // namespace

uint32_t Spans::Begin(Name name, uint32_t parent) {
  spans_.push_back({name, parent, NowNs(), 0});
  return static_cast<uint32_t>(spans_.size() - 1);
}

int64_t Spans::End(uint32_t span) {
  Span& s = spans_[span];
  s.end_ns = NowNs();
  return s.end_ns - s.start_ns;
}

void Spans::PrintSelfTimes() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  int64_t count[kNumNames] = {};
  int64_t total[kNumNames] = {};
  int64_t self[kNumNames] = {};
  int64_t all_self = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const int64_t duration = s.end_ns - s.start_ns;
    ++count[s.name];
    total[s.name] += duration;
    self[s.name] += duration - child_ns[i];
    all_self += duration - child_ns[i];
  }
  std::printf("\nreplay spans: %-26s %9s %12s %12s %8s\n", "name", "count",
              "total_ms", "self_ms", "self%");
  for (int n = 0; n < kNumNames; ++n) {
    if (count[n] == 0) continue;
    std::printf("              %-26s %9lld %12.3f %12.3f %7.2f%%\n",
                kSpanNames[n], static_cast<long long>(count[n]),
                static_cast<double>(total[n]) * 1e-6,
                static_cast<double>(self[n]) * 1e-6,
                all_self == 0 ? 0.0
                              : 100.0 * static_cast<double>(self[n]) /
                                    static_cast<double>(all_self));
  }
}

ReplayResult Replay(Setup& setup, int batch, double seconds, Spans* spans) {
  ReplayResult result;
  std::string payload;
  std::string out;
  std::vector<Op> ops;
  std::vector<net::PredictRequest> requests;
  std::vector<stage::core::QueryContext> contexts;
  // Per tenant group of a batch: the rows PredictBatch escalated.
  std::vector<std::pair<uint64_t, std::vector<stage::global::GlobalQuery>>>
      escalated;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < end) {
    const uint32_t root = spans->Begin(Spans::kBatch, Spans::kNoParent);
    ops.clear();
    requests.clear();
    requests.reserve(static_cast<size_t>(batch));  // Contexts point in.
    contexts.clear();
    std::map<uint64_t, std::vector<size_t>> groups;
    for (int i = 0; i < batch; ++i) ops.push_back(setup.NextOp());
    for (const Op& op : ops) {
      if (!op.predict) continue;
      net::PredictRequest sent;
      sent.request_id = requests.size() + 1;
      sent.tenant = op.tenant;
      sent.concurrent_queries = op.event->concurrent_queries;
      sent.tick = static_cast<uint64_t>(op.event->arrival_ms);
      sent.plan = op.event->plan;
      payload.clear();
      net::AppendPredictRequest(&payload, sent);

      requests.emplace_back();
      uint32_t span = spans->Begin(Spans::kDecode, root);
      const bool parsed = net::ParsePredictRequest(payload, &requests.back());
      result.decode_ns.push_back(static_cast<double>(spans->End(span)));
      STAGE_CHECK(parsed);
      const net::PredictRequest& request = requests.back();
      span = spans->Begin(Spans::kContext, root);
      contexts.push_back(stage::core::MakeQueryContext(
          request.plan, request.concurrent_queries, request.tick));
      result.context_ns.push_back(static_cast<double>(spans->End(span)));
      groups[request.tenant].push_back(contexts.size() - 1);
    }
    // Grouped by tenant as the server's flush groups them.
    std::vector<stage::core::QueryContext> group;
    escalated.clear();
    for (const auto& [tenant, indices] : groups) {
      group.clear();
      for (const size_t i : indices) group.push_back(contexts[i]);
      bool cold = false;
      uint32_t span = spans->Begin(Spans::kPredictBatch, root);
      const std::vector<stage::core::Prediction> predictions =
          setup.fleet().PredictBatch(tenant, group, &cold);
      result.predict_batch_us.push_back(
          static_cast<double>(spans->End(span)) * 1e-3);
      if (cold) ++result.cold_calls;

      std::vector<stage::global::GlobalQuery> rows;
      for (size_t k = 0; k < predictions.size(); ++k) {
        if (predictions[k].source == stage::core::PredictionSource::kGlobal) {
          rows.push_back({group[k].plan, group[k].concurrent_queries});
        }
      }
      if (!rows.empty()) escalated.emplace_back(tenant, std::move(rows));
      for (size_t k = 0; k < predictions.size(); ++k) {
        net::PredictResponse response;
        response.request_id = requests[indices[k]].request_id;
        response.seconds = predictions[k].seconds;
        response.source = predictions[k].source;
        response.uncertainty_log_std = predictions[k].uncertainty_log_std;
        out.clear();
        span = spans->Begin(Spans::kEncode, root);
        net::AppendPredictResponse(&out, response);
        result.encode_ns.push_back(static_cast<double>(spans->End(span)));
      }
    }
    for (const Op& op : ops) {
      if (!op.observe) continue;
      net::ObserveRequest sent;
      sent.request_id = 1;
      sent.tenant = op.tenant;
      sent.concurrent_queries = op.event->concurrent_queries;
      sent.tick = static_cast<uint64_t>(op.event->arrival_ms);
      sent.exec_seconds = op.event->exec_seconds;
      sent.plan = op.event->plan;
      payload.clear();
      net::AppendObserveRequest(&payload, sent);

      net::ObserveRequest request;
      uint32_t span = spans->Begin(Spans::kDecodeObserve, root);
      const bool parsed = net::ParseObserveRequest(payload, &request);
      spans->End(span);
      STAGE_CHECK(parsed);
      span = spans->Begin(Spans::kContext, root);
      const stage::core::QueryContext context = stage::core::MakeQueryContext(
          request.plan, request.concurrent_queries, request.tick);
      spans->End(span);
      span = spans->Begin(Spans::kObserve, root);
      setup.fleet().Observe(request.tenant, context, request.exec_seconds);
      result.observe_us.push_back(static_cast<double>(spans->End(span)) *
                                  1e-3);
      out.clear();
      span = spans->Begin(Spans::kEncodeAck, root);
      net::AppendObserveAck(&out, net::ObserveAck{request.request_id});
      spans->End(span);
    }
    spans->End(root);
    // Outside the spans: PredictBatch already ran these rows through the
    // global model, so a span would count the work twice.
    for (const auto& [tenant, rows] : escalated) {
      std::vector<double> seconds_out(rows.size());
      const int64_t start = NowNs();
      setup.global_model().PredictBatch(
          rows, setup.instance_of(tenant), seconds_out,
          rows.size() > 1 ? &stage::ThreadPool::Shared() : nullptr);
      result.global_us.push_back(static_cast<double>(NowNs() - start) * 1e-3);
      result.global_rows += rows.size();
    }
  }
  return result;
}

}  // namespace perfbench
