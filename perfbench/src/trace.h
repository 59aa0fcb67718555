#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <vector>

#include "workload.h"

namespace perfbench {

// In-memory spans the benchmark records around the public calls it makes
// into each layer. A span's parent is the span that caused it; spans of
// one replayed batch share its root.
class Spans {
 public:
  enum Name : uint16_t {
    kBatch = 0,     // Root: one replayed batch of ops.
    kDecode,        // net::ParsePredictRequest.
    kContext,       // core::MakeQueryContext.
    kPredictBatch,  // FleetService::PredictBatch, one tenant group.
    kEncode,        // net::AppendPredictResponse.
    kDecodeObserve, // net::ParseObserveRequest.
    kObserve,       // FleetService::Observe.
    kEncodeAck,     // net::AppendObserveAck.
    kNumNames,
  };
  static constexpr uint32_t kNoParent = UINT32_MAX;

  uint32_t Begin(Name name, uint32_t parent);
  // Ends the span and returns its duration in nanoseconds.
  int64_t End(uint32_t span);

  // Per name: count, total and self time (duration minus the part its
  // children cover), and the share of all self time.
  void PrintSelfTimes() const;

 private:
  struct Span {
    Name name;
    uint32_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  std::vector<Span> spans_;
};

struct ReplayResult {
  std::vector<double> decode_ns;
  std::vector<double> context_ns;
  std::vector<double> encode_ns;
  std::vector<double> predict_batch_us;  // One per tenant group.
  std::vector<double> observe_us;
  std::vector<double> global_us;         // One per direct global call.
  uint64_t cold_calls = 0;   // PredictBatch calls that paid a cold activation.
  uint64_t global_rows = 0;  // Rows across the direct global calls.
};

// Replays the continuation of the set-up's op stream in-process for
// `seconds`, through the path the server runs: decode -> context ->
// PredictBatch grouped by tenant (`batch` ops per flush) -> encode, then
// decode -> context -> Observe -> encode for the observes. Each group's
// escalated queries then run through GlobalModel::PredictBatch a second
// time, timed directly and kept out of the spans.
ReplayResult Replay(Setup& setup, int batch, double seconds, Spans* spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
