#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stage/net/wire.h"
#include "workload.h"

namespace perfbench {

// Steady-clock nanoseconds (one epoch for every timestamp in a run).
int64_t NowNs();

enum class Phase : uint8_t { kWarmup = 0, kClosed, kOpen };

// Connections the load generator drives, one per core of the 4-core
// reference box.
inline constexpr int kConnections = 4;

// Requests the load generator's record buffer holds before it has to grow.
inline constexpr size_t kReservedRecords = size_t{1} << 19;

// Self-test hook: tamper with one received predict reply so the
// correctness checks have something to catch.
enum class Inject { kNone, kCorrupt, kDrop };

// One request sent over the socket and what came back for it.
struct Record {
  Op op;
  bool predict = true;  // Predict frame, else observe frame.
  Phase phase = Phase::kWarmup;
  int32_t slot = -1;    // Closed-loop slot; -1 in the open loop.
  uint32_t conn = 0;
  int64_t due_ns = 0;   // When the schedule wanted it sent.
  int64_t sent_ns = 0;
  int64_t done_ns = 0;  // First reply.
  uint32_t replies = 0;
  bool error = false;   // The reply was an error frame.
  stage::net::WireError error_code = stage::net::WireError::kMalformed;
  double seconds = 0.0;
  uint8_t source = 0;
};

// The benchmark's own load generator: one thread, one ppoll() loop over at
// most a handful of nonblocking loopback connections, speaking SNET frames
// through the public net/wire.h encoders. Request ids are record indices
// plus one, so a reply maps back to its request without a table.
class Loadgen {
 public:
  Loadgen(Setup* setup, Inject inject);
  ~Loadgen();

  Loadgen(const Loadgen&) = delete;
  Loadgen& operator=(const Loadgen&) = delete;

  // Opens kConnections connections to the server on loopback.
  bool Connect(int port, std::string* error);

  // Closed loop: `depth` slots each keep one request in flight (a predict,
  // then the observe of that query when the op asks for one) for `seconds`.
  // Returns predict replies per second over the whole phase.
  double RunClosed(Phase phase, int depth, double seconds);

  // Open loop: ops fall due every 1/rate seconds for `seconds`; a predict
  // is sent at its due time, its observe when the predict is answered.
  void RunOpen(Phase phase, double rate, double seconds);

  const std::vector<Record>& records() const { return records_; }
  // Replies whose id or frame type matched no request.
  uint64_t stray_replies() const { return stray_replies_; }
  // Transport failures (connection lost, undecodable frame).
  const std::string& transport_error() const { return transport_error_; }

 private:
  struct Conn;

  void Send(const Op& op, bool predict, Phase phase, int32_t slot,
            uint32_t conn, int64_t due_ns);
  void StartSlot(Phase phase, int32_t slot);
  void OnFirstReply(size_t index);
  // Flushes, waits for readiness until `deadline_ns`, then reads and
  // dispatches every complete reply frame.
  void Pump(int64_t deadline_ns);
  void ReadConn(uint32_t conn_index);
  void Dispatch(uint32_t conn_index, uint32_t type, std::string_view payload);
  // Waits for outstanding replies, at most `timeout_ns`.
  void Drain(int64_t timeout_ns);

  Setup* setup_;
  Inject inject_;
  std::vector<Conn> conns_;
  std::vector<Record> records_;
  std::string scratch_;
  uint64_t outstanding_ = 0;
  uint64_t predict_replies_ = 0;
  uint64_t stray_replies_ = 0;
  std::string transport_error_;
  // Continuations: closed-loop slots refill while `refill_`, observes
  // follow answered predicts while `follow_up_`.
  bool refill_ = false;
  bool follow_up_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
