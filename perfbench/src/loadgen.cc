#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>

#include "stage/common/framing.h"

namespace perfbench {

namespace net = stage::net;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// Raises the calling thread's scheduling priority while it drives load, so
// the program's background work (a retrain fans out over every core)
// delays the server rather than the schedule. Without CAP_SYS_NICE it is a
// no-op, and the send-lag metric shows the starvation instead.
class PriorityBoost {
 public:
  PriorityBoost() : tid_(static_cast<id_t>(syscall(SYS_gettid))) {
    errno = 0;
    before_ = getpriority(PRIO_PROCESS, tid_);
    boosted_ = errno == 0 && setpriority(PRIO_PROCESS, tid_, -10) == 0;
  }
  ~PriorityBoost() {
    if (boosted_) setpriority(PRIO_PROCESS, tid_, before_);
  }
  PriorityBoost(const PriorityBoost&) = delete;
  PriorityBoost& operator=(const PriorityBoost&) = delete;

 private:
  id_t tid_;
  int before_ = 0;
  bool boosted_ = false;
};

}  // namespace

struct Loadgen::Conn {
  int fd = -1;
  std::string out;
  size_t out_pos = 0;
  std::string in;
  size_t in_pos = 0;
};

Loadgen::Loadgen(Setup* setup, Inject inject)
    : setup_(setup), inject_(inject) {
  // Touch the whole buffer now, in set-up: its pages then count towards
  // resident memory before the serving phases start, as a constant, and
  // not as growth that follows throughput.
  records_.resize(kReservedRecords);
  records_.clear();
}

Loadgen::~Loadgen() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) close(conn.fd);
  }
}

bool Loadgen::Connect(int port, std::string* error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  conns_.resize(kConnections);
  for (Conn& conn : conns_) {
    // Blocking connect on loopback completes at once; the socket turns
    // nonblocking afterwards.
    conn.fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (conn.fd < 0 ||
        connect(conn.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0) {
      *error = std::string("connect: ") + std::strerror(errno);
      return false;
    }
    const int one = 1;
    setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const int flags = fcntl(conn.fd, F_GETFL, 0);
    fcntl(conn.fd, F_SETFL, flags | O_NONBLOCK);
  }
  return true;
}

void Loadgen::Send(const Op& op, bool predict, Phase phase, int32_t slot,
                   uint32_t conn, int64_t due_ns) {
  Record record;
  record.op = op;
  record.predict = predict;
  record.phase = phase;
  record.slot = slot;
  record.conn = conn;
  record.due_ns = due_ns;
  const uint64_t id = records_.size() + 1;
  scratch_.clear();
  const auto& event = *op.event;
  if (predict) {
    net::PredictRequest request;
    request.request_id = id;
    request.tenant = op.tenant;
    request.concurrent_queries = event.concurrent_queries;
    request.tick = static_cast<uint64_t>(event.arrival_ms);
    request.plan = event.plan;
    net::AppendPredictRequest(&scratch_, request);
    net::AppendMessage(&conns_[conn].out, net::MessageType::kPredictRequest,
                       scratch_);
  } else {
    net::ObserveRequest request;
    request.request_id = id;
    request.tenant = op.tenant;
    request.concurrent_queries = event.concurrent_queries;
    request.tick = static_cast<uint64_t>(event.arrival_ms);
    request.exec_seconds = event.exec_seconds;
    request.plan = event.plan;
    net::AppendObserveRequest(&scratch_, request);
    net::AppendMessage(&conns_[conn].out, net::MessageType::kObserveRequest,
                       scratch_);
  }
  record.sent_ns = NowNs();
  records_.push_back(record);
  ++outstanding_;
}

void Loadgen::StartSlot(Phase phase, int32_t slot) {
  const Op op = setup_->NextOp();
  const auto conn = static_cast<uint32_t>(slot) %
                    static_cast<uint32_t>(conns_.size());
  Send(op, op.predict, phase, slot, conn, NowNs());
}

void Loadgen::OnFirstReply(size_t index) {
  const Record record = records_[index];  // Send may reallocate.
  if (!record.error && record.predict && record.op.observe && follow_up_) {
    Send(record.op, false, record.phase, record.slot, record.conn,
         record.done_ns);
    return;
  }
  if (record.slot >= 0 && refill_) StartSlot(record.phase, record.slot);
}

void Loadgen::Dispatch(uint32_t conn_index, uint32_t type,
                       std::string_view payload) {
  const auto message = static_cast<net::MessageType>(type);
  uint64_t id = 0;
  bool predict = false;
  bool error = false;
  net::PredictResponse response;
  net::ErrorReply error_reply;
  if (message == net::MessageType::kPredictResponse &&
      net::ParsePredictResponse(payload, &response)) {
    ++predict_replies_;
    if (inject_ != Inject::kNone && predict_replies_ == 50) {
      if (inject_ == Inject::kDrop) return;
      response.request_id ^= 1;  // kCorrupt: answer the wrong request.
    }
    id = response.request_id;
    predict = true;
  } else if (message == net::MessageType::kObserveAck) {
    net::ObserveAck ack;
    if (net::ParseObserveAck(payload, &ack)) id = ack.request_id;
  } else if (message == net::MessageType::kError &&
             net::ParseErrorReply(payload, &error_reply)) {
    id = error_reply.request_id;
    error = true;
  }
  if (id == 0 || id > records_.size()) {
    ++stray_replies_;
    return;
  }
  Record& record = records_[id - 1];
  if (record.conn != conn_index || (!error && record.predict != predict)) {
    ++stray_replies_;
    return;
  }
  if (++record.replies > 1) return;  // Duplicate; the check counts it.
  --outstanding_;
  record.done_ns = NowNs();
  record.error = error;
  if (error) {
    record.error_code = error_reply.code;
  } else if (predict) {
    record.seconds = response.seconds;
    record.source = static_cast<uint8_t>(response.source);
  }
  OnFirstReply(id - 1);
}

void Loadgen::ReadConn(uint32_t conn_index) {
  Conn& conn = conns_[conn_index];
  char chunk[64 * 1024];
  while (true) {
    const ssize_t n = read(conn.fd, chunk, sizeof(chunk));
    if (n > 0) {
      conn.in.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    transport_error_ = "server closed connection";
    break;
  }
  while (true) {
    stage::FrameHeader header;
    std::string_view payload;
    size_t frame_bytes = 0;
    const stage::FrameStatus status = stage::DecodeFrame(
        std::string_view(conn.in).substr(conn.in_pos), net::kWireMagic,
        net::kWireVersion, net::kMaxWirePayloadBytes, &header, &payload,
        &frame_bytes);
    if (status == stage::FrameStatus::kNeedMore) break;
    if (status != stage::FrameStatus::kOk) {
      transport_error_ = "undecodable reply frame: " +
                         std::string(stage::FrameStatusName(status));
      conn.in_pos = conn.in.size();
      break;
    }
    conn.in_pos += frame_bytes;
    Dispatch(conn_index, header.type, payload);
  }
  if (conn.in_pos == conn.in.size()) {
    conn.in.clear();
    conn.in_pos = 0;
  }
}

void Loadgen::Pump(int64_t deadline_ns) {
  pollfd fds[kConnections];
  const size_t count = conns_.size();
  for (size_t i = 0; i < count; ++i) {
    Conn& conn = conns_[i];
    while (conn.out_pos < conn.out.size()) {
      const ssize_t n = send(conn.fd, conn.out.data() + conn.out_pos,
                             conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_pos += static_cast<size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
          transport_error_ = std::string("send: ") + std::strerror(errno);
        }
        break;
      }
    }
    if (conn.out_pos == conn.out.size()) {
      conn.out.clear();
      conn.out_pos = 0;
    }
    fds[i].fd = conn.fd;
    fds[i].events = static_cast<short>(POLLIN | (conn.out.empty() ? 0 : POLLOUT));
    fds[i].revents = 0;
  }
  const int64_t wait_ns = std::max<int64_t>(0, deadline_ns - NowNs());
  timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                   static_cast<long>(wait_ns % 1'000'000'000)};
  const int ready = ppoll(fds, count, &timeout, nullptr);
  if (ready <= 0) return;
  for (size_t i = 0; i < count; ++i) {
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      ReadConn(static_cast<uint32_t>(i));
    }
  }
}

void Loadgen::Drain(int64_t timeout_ns) {
  const int64_t deadline = NowNs() + timeout_ns;
  while (outstanding_ > 0 && transport_error_.empty() && NowNs() < deadline) {
    Pump(std::min(deadline, NowNs() + 10'000'000));
  }
}

double Loadgen::RunClosed(Phase phase, int depth, double seconds) {
  const PriorityBoost boost;
  refill_ = true;
  follow_up_ = true;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  for (int32_t slot = 0; slot < depth; ++slot) StartSlot(phase, slot);
  const size_t first = records_.size() - static_cast<size_t>(depth);
  while (NowNs() < end && transport_error_.empty()) Pump(end);
  refill_ = false;
  follow_up_ = false;
  Drain(5'000'000'000);
  uint64_t replies = 0;
  for (size_t i = first; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.predict && r.replies != 0 && !r.error && r.done_ns < end) ++replies;
  }
  return static_cast<double>(replies) /
         (static_cast<double>(end - start) * 1e-9);
}

void Loadgen::RunOpen(Phase phase, double rate, double seconds) {
  const PriorityBoost boost;
  refill_ = false;
  follow_up_ = true;
  const auto interval = static_cast<int64_t>(1e9 / rate);
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  int64_t next_due = start;
  uint64_t issued = 0;
  while (transport_error_.empty()) {
    const int64_t now = NowNs();
    if (now >= end) break;
    while (next_due <= now && next_due < end) {
      const Op op = setup_->NextOp();
      const auto conn = static_cast<uint32_t>(issued++ % conns_.size());
      Send(op, op.predict, phase, -1, conn, next_due);
      next_due += interval;
    }
    Pump(std::min(next_due, end));
  }
  follow_up_ = false;
  Drain(5'000'000'000);
}

}  // namespace perfbench
