#include "stage/net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stage/common/macros.h"
#include "stage/core/predictor.h"

namespace stage::net {

std::string ServerConfig::Validate() const {
  if (host.empty()) return "host must not be empty";
  if (port < 0 || port > 65535) return "port must be in [0, 65535]";
  if (num_workers < 1 || num_workers > 256) {
    return "num_workers must be in [1, 256]";
  }
  if (batch_window_us < 0) {
    return "batch_window_us must be >= 0 (0 disables batching)";
  }
  if (batch_window_us > 10'000'000) {
    return "batch_window_us above 10s is a config error, not a batch window";
  }
  if (max_batch < 1) return "max_batch must be >= 1";
  if (queue_bound < max_batch) {
    return "queue_bound must be >= max_batch (a full batch must fit)";
  }
  if (max_connections < 1) return "max_connections must be >= 1";
  if (max_frame_payload_bytes < 1 ||
      max_frame_payload_bytes > static_cast<int64_t>(kMaxWirePayloadBytes)) {
    return "max_frame_payload_bytes must be in [1, kMaxWirePayloadBytes]";
  }
  if (max_json_line_bytes < 2) return "max_json_line_bytes must be >= 2";
  return "";
}

namespace {

using Clock = std::chrono::steady_clock;

// Read chunk per read(2) call; the loop drains until EAGAIN regardless.
constexpr size_t kReadChunkBytes = 64 * 1024;
// A connection whose peer stops reading gets closed once this much
// response data is stuck in its write buffer (slow-consumer protection).
constexpr size_t kMaxWriteBufferBytes = 16u << 20;
// Compact the consumed prefix of a read buffer beyond this.
constexpr size_t kCompactThresholdBytes = 64 * 1024;
// epoll user-data value reserved for the worker's mailbox eventfd.
constexpr uint64_t kEventFdTag = 0;

uint64_t NowNanosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

struct Connection {
  int fd = -1;
  uint64_t id = 0;
  enum class Mode { kUnknown, kBinary, kJson };
  Mode mode = Mode::kUnknown;
  std::string read_buf;
  size_t read_pos = 0;
  std::string write_buf;
  size_t write_pos = 0;
  bool want_write = false;   // EPOLLOUT currently armed.
  bool peer_closed = false;  // EPOLLRDHUP seen; close once writes drain.
  bool close_after_write = false;  // Fatal protocol error already queued.
};

// A finished batched prediction routed back to the worker that owns the
// connection.
struct Completion {
  uint64_t conn_id = 0;
  uint64_t request_id = 0;
  core::Prediction prediction;
  Clock::time_point enqueue_time{};
};

}  // namespace

struct Server::Impl {
  fleet_serve::FleetService* fleet = nullptr;
  ServerConfig config;
  ServerOptions options;

  int listen_fd = -1;
  int bound_port = 0;
  int listener_event_fd = -1;
  int listener_epoll_fd = -1;
  std::thread listener_thread;

  struct Worker {
    int index = 0;
    int epoll_fd = -1;
    int event_fd = -1;
    std::thread thread;

    // Mailbox: cross-thread input, signaled via event_fd.
    std::mutex mutex;
    std::vector<int> pending_fds;
    std::vector<Completion> pending_completions;
    bool stop_requested = false;

    // Worker-thread-private state.
    std::unordered_map<uint64_t, Connection> conns;
    std::string scratch;  // Reused payload-encoding buffer.
  };
  std::vector<std::unique_ptr<Worker>> workers;

  std::unique_ptr<MicroBatcher> batcher;  // Null when batching is disabled.

  std::atomic<bool> stopping{false};
  std::mutex shutdown_mutex;
  bool shutdown_done = false;

  uint64_t next_conn_id = 1;  // Listener thread only; round-robin counter.
  // Connection ids start at 1 (0 is kEventFdTag). Workers assign from a
  // shared atomic so ids are unique across the whole server.
  std::atomic<uint64_t> conn_id_source{1};

  // ---- Telemetry ----
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_rejected{0};
  std::atomic<uint64_t> connections_active{0};
  std::atomic<uint64_t> frames_in{0};
  std::atomic<uint64_t> frames_out{0};
  std::atomic<uint64_t> json_lines_in{0};
  std::atomic<uint64_t> json_lines_out{0};
  std::atomic<uint64_t> predictions_batched{0};
  std::atomic<uint64_t> predictions_inline{0};
  std::atomic<uint64_t> observes{0};
  std::atomic<uint64_t> errors_by_code[6] = {};
  obs::Histogram batch_size_hist{
      std::vector<double>{1, 2, 4, 8, 16, 32, 64, 128, 256}};
  obs::LatencyHistograms frame_latency{2};

  // ---- Setup ----
  void Start();
  void OpenListener();
  void RegisterMetrics();

  // ---- Listener thread ----
  void ListenerLoop();
  void AcceptPending();

  // ---- Worker thread ----
  void WorkerLoop(Worker& w);
  // Returns true when a stop request was consumed.
  bool DrainMailbox(Worker& w);
  void AddConnection(Worker& w, int fd);
  void CloseConnection(Worker& w, Connection& conn);
  void HandleReadable(Worker& w, Connection& conn);
  void HandleWritable(Worker& w, Connection& conn);
  void ProcessReadBuffer(Worker& w, Connection& conn);
  void HandleBinaryFrame(Worker& w, Connection& conn, uint32_t type,
                         std::string_view payload);
  void HandleJsonLine(Worker& w, Connection& conn, std::string_view line);
  void HandlePredict(Worker& w, Connection& conn, PredictRequest request);
  void HandleObserve(Worker& w, Connection& conn, ObserveRequest request);
  void SendError(Worker& w, Connection& conn, uint64_t request_id,
                 WireError code, std::string_view message);
  void SendMessage(Connection& conn, MessageType type,
                   std::string_view payload);
  void CompleteRequest(Worker& w, const Completion& completion);
  // Flushes as much of conn.write_buf as the socket accepts; arms or
  // disarms EPOLLOUT to match. Closes the connection on write errors or a
  // drained buffer with close_after_write/peer_closed set.
  void FlushWrite(Worker& w, Connection& conn);
  void UpdateEpollInterest(Worker& w, Connection& conn, bool want_write);
  void FinishWorkerShutdown(Worker& w);

  // ---- Batcher thread ----
  void OnBatchFlush(std::vector<BatchItem> batch, FlushReason reason);

  void CountError(WireError code) {
    errors_by_code[static_cast<size_t>(code)].fetch_add(
        1, std::memory_order_relaxed);
  }
};

// ---- Setup ---------------------------------------------------------------

Server::Server(fleet_serve::FleetService* fleet, const ServerConfig& config,
               const ServerOptions& options)
    : impl_(std::make_unique<Impl>()) {
  STAGE_CHECK(fleet != nullptr);
  const std::string error = config.Validate();
  STAGE_CHECK_MSG(error.empty(), error.c_str());
  impl_->fleet = fleet;
  impl_->config = config;
  impl_->options = options;
  impl_->Start();
}

Server::~Server() {
  Shutdown();
  if (impl_->options.metrics != nullptr) {
    impl_->options.metrics->UnregisterAll(impl_.get());
  }
}

int Server::port() const { return impl_->bound_port; }

ServerStats Server::Stats() const {
  const Impl& impl = *impl_;
  ServerStats stats;
  stats.connections_accepted =
      impl.connections_accepted.load(std::memory_order_relaxed);
  stats.connections_rejected =
      impl.connections_rejected.load(std::memory_order_relaxed);
  stats.frames_in = impl.frames_in.load(std::memory_order_relaxed);
  stats.frames_out = impl.frames_out.load(std::memory_order_relaxed);
  stats.json_lines_in = impl.json_lines_in.load(std::memory_order_relaxed);
  stats.json_lines_out = impl.json_lines_out.load(std::memory_order_relaxed);
  stats.predictions_batched =
      impl.predictions_batched.load(std::memory_order_relaxed);
  stats.predictions_inline =
      impl.predictions_inline.load(std::memory_order_relaxed);
  stats.observes = impl.observes.load(std::memory_order_relaxed);
  for (size_t i = 0; i < stats.errors_by_code.size(); ++i) {
    stats.errors_by_code[i] =
        impl.errors_by_code[i].load(std::memory_order_relaxed);
  }
  if (impl.batcher != nullptr) {
    for (int r = 0; r < kNumFlushReasons; ++r) {
      stats.batch_flushes[r] =
          impl.batcher->flushes(static_cast<FlushReason>(r));
    }
    stats.batch_submitted = impl.batcher->submitted();
    stats.batch_rejected = impl.batcher->rejected();
    stats.batch_queue_depth = impl.batcher->queue_depth();
    stats.effective_window_us = impl.batcher->effective_window_us();
  }
  stats.connections_active =
      impl.connections_active.load(std::memory_order_relaxed);
  return stats;
}

obs::Histogram::Snapshot Server::batch_size_histogram() const {
  return impl_->batch_size_hist.TakeSnapshot();
}

const obs::LatencyHistograms& Server::frame_latency() const {
  return impl_->frame_latency;
}

void Server::Impl::Start() {
  OpenListener();

  if (config.batch_window_us > 0) {
    MicroBatcherConfig batcher_config;
    batcher_config.window_us = static_cast<uint64_t>(config.batch_window_us);
    batcher_config.max_batch = static_cast<size_t>(config.max_batch);
    batcher_config.queue_bound = static_cast<size_t>(config.queue_bound);
    batcher = std::make_unique<MicroBatcher>(
        batcher_config, [this](std::vector<BatchItem> batch,
                               FlushReason reason) {
          OnBatchFlush(std::move(batch), reason);
        });
  }

  workers.reserve(static_cast<size_t>(config.num_workers));
  for (int i = 0; i < config.num_workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->index = i;
    worker->epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    STAGE_CHECK(worker->epoll_fd >= 0);
    worker->event_fd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    STAGE_CHECK(worker->event_fd >= 0);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kEventFdTag;
    STAGE_CHECK(epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->event_fd,
                          &ev) == 0);
    workers.push_back(std::move(worker));
  }
  for (auto& worker : workers) {
    Worker* w = worker.get();
    w->thread = std::thread([this, w] { WorkerLoop(*w); });
  }

  listener_epoll_fd = epoll_create1(EPOLL_CLOEXEC);
  STAGE_CHECK(listener_epoll_fd >= 0);
  listener_event_fd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  STAGE_CHECK(listener_event_fd >= 0);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kEventFdTag;
  STAGE_CHECK(epoll_ctl(listener_epoll_fd, EPOLL_CTL_ADD, listener_event_fd,
                        &ev) == 0);
  ev.events = EPOLLIN;
  ev.data.u64 = 1;  // The listen socket.
  STAGE_CHECK(epoll_ctl(listener_epoll_fd, EPOLL_CTL_ADD, listen_fd, &ev) ==
              0);
  listener_thread = std::thread([this] { ListenerLoop(); });

  RegisterMetrics();
}

void Server::Impl::OpenListener() {
  listen_fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  STAGE_CHECK(listen_fd >= 0);
  const int one = 1;
  setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(config.port));
  STAGE_CHECK_MSG(
      inet_pton(AF_INET, config.host.c_str(), &addr.sin_addr) == 1,
      "server host must be an IPv4 address literal");
  STAGE_CHECK_MSG(bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) == 0,
                  "bind failed");
  STAGE_CHECK(listen(listen_fd, 128) == 0);
  socklen_t len = sizeof(addr);
  STAGE_CHECK(getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len) == 0);
  bound_port = ntohs(addr.sin_port);
}

void Server::Impl::RegisterMetrics() {
  obs::MetricsRegistry* registry = options.metrics;
  if (registry == nullptr) return;
  const std::string p = "stage_net_";
  const void* owner = this;
  auto counter = [&](const std::string& name, std::atomic<uint64_t>* value) {
    registry->RegisterCounterCallback(owner, p + name, [value] {
      return value->load(std::memory_order_relaxed);
    });
  };
  counter("connections_total", &connections_accepted);
  counter("connections_rejected_total", &connections_rejected);
  counter("frames_in_total", &frames_in);
  counter("frames_out_total", &frames_out);
  counter("json_lines_in_total", &json_lines_in);
  counter("json_lines_out_total", &json_lines_out);
  counter("predictions_total{mode=\"batched\"}", &predictions_batched);
  counter("predictions_total{mode=\"inline\"}", &predictions_inline);
  counter("observes_total", &observes);
  for (uint32_t code = 1; code <= 5; ++code) {
    counter("errors_total{code=\"" +
                std::string(WireErrorName(static_cast<WireError>(code))) +
                "\"}",
            &errors_by_code[code]);
  }
  registry->RegisterGaugeCallback(owner, p + "connections_active", [this] {
    return static_cast<double>(
        connections_active.load(std::memory_order_relaxed));
  });
  registry->RegisterHistogramCallback(owner, p + "batch_size", [this] {
    return batch_size_hist.TakeSnapshot();
  });
  registry->RegisterHistogramCallback(
      owner, p + "frame_latency_nanos{op=\"predict\"}", [this] {
        return frame_latency.histogram_snapshot(Server::kLatencyPredict);
      });
  registry->RegisterHistogramCallback(
      owner, p + "frame_latency_nanos{op=\"observe\"}", [this] {
        return frame_latency.histogram_snapshot(Server::kLatencyObserve);
      });
  if (batcher != nullptr) {
    MicroBatcher* b = batcher.get();
    for (int r = 0; r < kNumFlushReasons; ++r) {
      registry->RegisterCounterCallback(
          owner,
          p + "batch_flushes_total{reason=\"" +
              std::string(FlushReasonName(static_cast<FlushReason>(r))) +
              "\"}",
          [b, r] { return b->flushes(static_cast<FlushReason>(r)); });
    }
    registry->RegisterCounterCallback(owner, p + "batch_rejected_total",
                                      [b] { return b->rejected(); });
    registry->RegisterGaugeCallback(owner, p + "batch_queue_depth", [b] {
      return static_cast<double>(b->queue_depth());
    });
    registry->RegisterGaugeCallback(
        owner, p + "batch_window_effective_us",
        [b] { return static_cast<double>(b->effective_window_us()); });
  }
}

// ---- Shutdown ------------------------------------------------------------

void Server::Shutdown() {
  Impl& impl = *impl_;
  {
    std::lock_guard<std::mutex> lock(impl.shutdown_mutex);
    if (impl.shutdown_done) return;
    impl.shutdown_done = true;
  }
  // 1. Stop the intake: no new connections, workers start refusing new
  //    work with kShuttingDown.
  impl.stopping.store(true, std::memory_order_release);
  uint64_t one = 1;
  (void)!write(impl.listener_event_fd, &one, sizeof(one));
  impl.listener_thread.join();
  close(impl.listen_fd);
  close(impl.listener_epoll_fd);
  close(impl.listener_event_fd);

  // 2. Drain the aggregator: every accepted request is flushed through
  //    PredictBatch and its completion lands in a worker mailbox before
  //    Drain returns.
  if (impl.batcher != nullptr) impl.batcher->Drain();

  // 3. Stop the workers. Each drains its mailbox (delivering the step-2
  //    completions), then writes a shutdown frame to every open connection
  //    and closes it.
  for (auto& worker : impl.workers) {
    {
      std::lock_guard<std::mutex> lock(worker->mutex);
      worker->stop_requested = true;
    }
    (void)!write(worker->event_fd, &one, sizeof(one));
  }
  for (auto& worker : impl.workers) {
    worker->thread.join();
    close(worker->epoll_fd);
    close(worker->event_fd);
  }
}

// ---- Listener thread -----------------------------------------------------

void Server::Impl::ListenerLoop() {
  epoll_event events[8];
  while (true) {
    const int n = epoll_wait(listener_epoll_fd, events, 8, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.u64 == kEventFdTag) {
        uint64_t drained = 0;
        (void)!read(listener_event_fd, &drained, sizeof(drained));
      } else {
        AcceptPending();
      }
    }
    if (stopping.load(std::memory_order_acquire)) return;
  }
}

void Server::Impl::AcceptPending() {
  while (true) {
    const int fd =
        accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error: wait for epoll.
    }
    if (connections_active.load(std::memory_order_relaxed) >=
        static_cast<uint64_t>(config.max_connections)) {
      connections_rejected.fetch_add(1, std::memory_order_relaxed);
      close(fd);
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Worker& w = *workers[next_conn_id % workers.size()];
    ++next_conn_id;
    {
      std::lock_guard<std::mutex> lock(w.mutex);
      w.pending_fds.push_back(fd);
    }
    uint64_t wake = 1;
    (void)!write(w.event_fd, &wake, sizeof(wake));
  }
}

// ---- Worker thread -------------------------------------------------------

void Server::Impl::WorkerLoop(Worker& w) {
  epoll_event events[64];
  while (true) {
    const int n = epoll_wait(w.epoll_fd, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    bool stop = false;
    for (int i = 0; i < n; ++i) {
      if (events[i].data.u64 == kEventFdTag) {
        uint64_t drained = 0;
        (void)!read(w.event_fd, &drained, sizeof(drained));
        stop = DrainMailbox(w) || stop;
        continue;
      }
      const auto it = w.conns.find(events[i].data.u64);
      if (it == w.conns.end()) continue;  // Closed earlier this wakeup.
      Connection& conn = it->second;
      const uint32_t ev = events[i].events;
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConnection(w, conn);
        continue;
      }
      if ((ev & EPOLLRDHUP) != 0) conn.peer_closed = true;
      if ((ev & EPOLLIN) != 0) {
        HandleReadable(w, conn);
        if (w.conns.find(events[i].data.u64) == w.conns.end()) continue;
      }
      if ((ev & EPOLLOUT) != 0) HandleWritable(w, conn);
    }
    if (stop) {
      FinishWorkerShutdown(w);
      return;
    }
  }
}

bool Server::Impl::DrainMailbox(Worker& w) {
  std::vector<int> fds;
  std::vector<Completion> completions;
  bool stop = false;
  {
    std::lock_guard<std::mutex> lock(w.mutex);
    fds.swap(w.pending_fds);
    completions.swap(w.pending_completions);
    stop = w.stop_requested;
  }
  // Completions first: on a stop request they are the drained in-flight
  // batches and must reach their connections before the shutdown frames.
  for (const Completion& completion : completions) {
    CompleteRequest(w, completion);
  }
  for (const int fd : fds) {
    if (stop) {
      // Accepted before the listener stopped but never registered; there
      // is nothing half-done on it.
      close(fd);
      continue;
    }
    AddConnection(w, fd);
  }
  return stop;
}

void Server::Impl::AddConnection(Worker& w, int fd) {
  const uint64_t id = conn_id_source.fetch_add(1, std::memory_order_relaxed);
  Connection conn;
  conn.fd = fd;
  conn.id = id;
  auto [it, inserted] = w.conns.emplace(id, std::move(conn));
  STAGE_CHECK(inserted);
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
  ev.data.u64 = id;
  if (epoll_ctl(w.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    close(fd);
    w.conns.erase(it);
    return;
  }
  connections_accepted.fetch_add(1, std::memory_order_relaxed);
  connections_active.fetch_add(1, std::memory_order_relaxed);
}

void Server::Impl::CloseConnection(Worker& w, Connection& conn) {
  epoll_ctl(w.epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
  close(conn.fd);
  connections_active.fetch_sub(1, std::memory_order_relaxed);
  w.conns.erase(conn.id);  // `conn` is dangling after this line.
}

void Server::Impl::HandleReadable(Worker& w, Connection& conn) {
  const uint64_t conn_id = conn.id;
  // Edge-triggered: read until EAGAIN or the kernel reports EOF.
  bool eof = false;
  while (true) {
    const size_t old_size = conn.read_buf.size();
    conn.read_buf.resize(old_size + kReadChunkBytes);
    const ssize_t n =
        read(conn.fd, conn.read_buf.data() + old_size, kReadChunkBytes);
    if (n > 0) {
      conn.read_buf.resize(old_size + static_cast<size_t>(n));
      continue;
    }
    conn.read_buf.resize(old_size);
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(w, conn);
    return;
  }
  ProcessReadBuffer(w, conn);
  // `conn` may have been closed (and erased) inside the processing above;
  // only a fresh lookup may be dereferenced.
  const auto it = w.conns.find(conn_id);
  if (it == w.conns.end()) return;
  Connection& live = it->second;
  if (eof) {
    live.peer_closed = true;
    // Half-close: finish writing queued responses, then close.
    if (live.write_pos >= live.write_buf.size()) CloseConnection(w, live);
  }
}

void Server::Impl::HandleWritable(Worker& w, Connection& conn) {
  FlushWrite(w, conn);
}

void Server::Impl::ProcessReadBuffer(Worker& w, Connection& conn) {
  // Request handlers can close the connection (write error, slow
  // consumer), which erases it from the map and leaves the reference
  // dangling — so after every handler call the connection is re-looked-up
  // by id before being touched again.
  const uint64_t conn_id = conn.id;
  const auto live = [&]() -> Connection* {
    const auto it = w.conns.find(conn_id);
    return it == w.conns.end() ? nullptr : &it->second;
  };
  if (conn.close_after_write) {
    // Already poisoned; drop further input.
    conn.read_pos = 0;
    conn.read_buf.clear();
    return;
  }
  if (conn.mode == Connection::Mode::kUnknown &&
      conn.read_pos < conn.read_buf.size()) {
    conn.mode = conn.read_buf[conn.read_pos] == '{'
                    ? Connection::Mode::kJson
                    : Connection::Mode::kBinary;
  }
  if (conn.mode == Connection::Mode::kBinary) {
    while (true) {
      const std::string_view buffered =
          std::string_view(conn.read_buf).substr(conn.read_pos);
      FrameHeader header;
      std::string_view payload;
      size_t frame_bytes = 0;
      const FrameStatus status = DecodeFrame(
          buffered, kWireMagic, kWireVersion,
          static_cast<uint64_t>(config.max_frame_payload_bytes), &header,
          &payload, &frame_bytes);
      if (status == FrameStatus::kNeedMore) break;
      if (status != FrameStatus::kOk) {
        // The stream is unsynchronized (bad magic/version/CRC/length) —
        // there is no way to find the next frame boundary, so report and
        // close.
        SendError(w, conn, 0, WireError::kBadFrame, FrameStatusName(status));
        Connection* c = live();
        if (c != nullptr) {
          c->close_after_write = true;
          FlushWrite(w, *c);
        }
        return;
      }
      frames_in.fetch_add(1, std::memory_order_relaxed);
      conn.read_pos += frame_bytes;
      HandleBinaryFrame(w, conn, header.type, payload);
      if (live() == nullptr) return;
      if (conn.close_after_write) break;
    }
  } else if (conn.mode == Connection::Mode::kJson) {
    while (true) {
      const size_t nl = conn.read_buf.find('\n', conn.read_pos);
      if (nl == std::string::npos) {
        if (conn.read_buf.size() - conn.read_pos >
            static_cast<size_t>(config.max_json_line_bytes)) {
          SendError(w, conn, 0, WireError::kMalformed,
                    "JSON line exceeds the line-length cap");
          Connection* c = live();
          if (c != nullptr) {
            c->close_after_write = true;
            FlushWrite(w, *c);
          }
          return;
        }
        break;
      }
      std::string_view line =
          std::string_view(conn.read_buf).substr(conn.read_pos,
                                                 nl - conn.read_pos);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      conn.read_pos = nl + 1;
      if (line.empty()) continue;
      json_lines_in.fetch_add(1, std::memory_order_relaxed);
      HandleJsonLine(w, conn, line);
      if (live() == nullptr) return;
      if (conn.close_after_write) break;
    }
  }
  // Compact the consumed prefix.
  if (conn.read_pos == conn.read_buf.size()) {
    conn.read_buf.clear();
    conn.read_pos = 0;
  } else if (conn.read_pos > kCompactThresholdBytes) {
    conn.read_buf.erase(0, conn.read_pos);
    conn.read_pos = 0;
  }
}

void Server::Impl::HandleBinaryFrame(Worker& w, Connection& conn,
                                     uint32_t type,
                                     std::string_view payload) {
  switch (static_cast<MessageType>(type)) {
    case MessageType::kPredictRequest: {
      PredictRequest request;
      if (!ParsePredictRequest(payload, &request)) {
        SendError(w, conn, 0, WireError::kMalformed,
                  "predict request payload did not parse");
        return;
      }
      HandlePredict(w, conn, std::move(request));
      return;
    }
    case MessageType::kObserveRequest: {
      ObserveRequest request;
      if (!ParseObserveRequest(payload, &request)) {
        SendError(w, conn, 0, WireError::kMalformed,
                  "observe request payload did not parse");
        return;
      }
      HandleObserve(w, conn, std::move(request));
      return;
    }
    default:
      SendError(w, conn, 0, WireError::kMalformed,
                "unexpected message type from a client");
      return;
  }
}

void Server::Impl::HandleJsonLine(Worker& w, Connection& conn,
                                  std::string_view line) {
  bool is_predict = false;
  PredictRequest predict;
  ObserveRequest observe;
  std::string error;
  if (!ParseJsonRequest(line, &is_predict, &predict, &observe, &error)) {
    SendError(w, conn, 0, WireError::kMalformed, error);
    return;
  }
  if (is_predict) {
    HandlePredict(w, conn, std::move(predict));
  } else {
    HandleObserve(w, conn, std::move(observe));
  }
}

void Server::Impl::HandlePredict(Worker& w, Connection& conn,
                                 PredictRequest request) {
  const Clock::time_point start = Clock::now();
  if (stopping.load(std::memory_order_acquire)) {
    SendError(w, conn, request.request_id, WireError::kShuttingDown,
              "server is draining");
    return;
  }
  // Admission control here, not in the batcher: FleetService treats an
  // unknown tenant as a caller bug (fatal), and tenants are never
  // unregistered, so a positive check stays true at flush time.
  if (!fleet->IsRegistered(request.tenant)) {
    SendError(w, conn, request.request_id, WireError::kUnknownTenant,
              "tenant is not registered");
    return;
  }
  if (batcher == nullptr) {
    // Batching disabled: predict inline on the worker thread.
    const core::QueryContext context = core::MakeQueryContext(
        request.plan, request.concurrent_queries,
        static_cast<uint64_t>(request.tick));
    const core::Prediction prediction =
        fleet->Predict(request.tenant, context);
    predictions_inline.fetch_add(1, std::memory_order_relaxed);
    PredictResponse response;
    response.request_id = request.request_id;
    response.seconds = prediction.seconds;
    response.source = prediction.source;
    response.uncertainty_log_std = prediction.uncertainty_log_std;
    if (conn.mode == Connection::Mode::kJson) {
      AppendJsonPredictResponse(&conn.write_buf, response);
      json_lines_out.fetch_add(1, std::memory_order_relaxed);
    } else {
      w.scratch.clear();
      AppendPredictResponse(&w.scratch, response);
      SendMessage(conn, MessageType::kPredictResponse, w.scratch);
    }
    frame_latency.Record(Server::kLatencyPredict, NowNanosSince(start));
    FlushWrite(w, conn);
    return;
  }
  BatchItem item;
  item.conn_id = conn.id;
  item.worker = w.index;
  item.request_id = request.request_id;
  item.tenant = request.tenant;
  item.plan = std::make_unique<plan::Plan>(std::move(request.plan));
  item.context = core::MakeQueryContext(*item.plan,
                                        request.concurrent_queries,
                                        static_cast<uint64_t>(request.tick));
  switch (batcher->Submit(std::move(item))) {
    case SubmitResult::kAccepted:
      return;  // The response arrives via the completion mailbox.
    case SubmitResult::kOverloaded:
      SendError(w, conn, request.request_id, WireError::kOverloaded,
                "batch queue is full; retry");
      return;
    case SubmitResult::kStopped:
      SendError(w, conn, request.request_id, WireError::kShuttingDown,
                "server is draining");
      return;
  }
}

void Server::Impl::HandleObserve(Worker& w, Connection& conn,
                                 ObserveRequest request) {
  const Clock::time_point start = Clock::now();
  if (stopping.load(std::memory_order_acquire)) {
    SendError(w, conn, request.request_id, WireError::kShuttingDown,
              "server is draining");
    return;
  }
  if (!fleet->IsRegistered(request.tenant)) {
    SendError(w, conn, request.request_id, WireError::kUnknownTenant,
              "tenant is not registered");
    return;
  }
  // Observations apply inline on the worker thread (only predictions
  // batch), so an acked observation is already in the tenant's cache and
  // training pool — the ack is never ahead of the state change.
  const core::QueryContext context = core::MakeQueryContext(
      request.plan, request.concurrent_queries,
      static_cast<uint64_t>(request.tick));
  fleet->Observe(request.tenant, context, request.exec_seconds);
  observes.fetch_add(1, std::memory_order_relaxed);
  ObserveAck ack;
  ack.request_id = request.request_id;
  if (conn.mode == Connection::Mode::kJson) {
    AppendJsonObserveAck(&conn.write_buf, ack);
    json_lines_out.fetch_add(1, std::memory_order_relaxed);
  } else {
    w.scratch.clear();
    AppendObserveAck(&w.scratch, ack);
    SendMessage(conn, MessageType::kObserveAck, w.scratch);
  }
  frame_latency.Record(Server::kLatencyObserve, NowNanosSince(start));
  FlushWrite(w, conn);
}

void Server::Impl::SendError(Worker& w, Connection& conn,
                             uint64_t request_id, WireError code,
                             std::string_view message) {
  CountError(code);
  ErrorReply error;
  error.request_id = request_id;
  error.code = code;
  error.message = std::string(message);
  if (conn.mode == Connection::Mode::kJson) {
    AppendJsonError(&conn.write_buf, error);
    json_lines_out.fetch_add(1, std::memory_order_relaxed);
  } else {
    w.scratch.clear();
    AppendErrorReply(&w.scratch, error);
    SendMessage(conn, MessageType::kError, w.scratch);
  }
  FlushWrite(w, conn);
}

void Server::Impl::SendMessage(Connection& conn, MessageType type,
                               std::string_view payload) {
  AppendMessage(&conn.write_buf, type, payload);
  frames_out.fetch_add(1, std::memory_order_relaxed);
}

void Server::Impl::CompleteRequest(Worker& w, const Completion& completion) {
  const auto it = w.conns.find(completion.conn_id);
  if (it == w.conns.end()) return;  // Connection closed while in flight.
  Connection& conn = it->second;
  PredictResponse response;
  response.request_id = completion.request_id;
  response.seconds = completion.prediction.seconds;
  response.source = completion.prediction.source;
  response.uncertainty_log_std = completion.prediction.uncertainty_log_std;
  if (conn.mode == Connection::Mode::kJson) {
    AppendJsonPredictResponse(&conn.write_buf, response);
    json_lines_out.fetch_add(1, std::memory_order_relaxed);
  } else {
    w.scratch.clear();
    AppendPredictResponse(&w.scratch, response);
    SendMessage(conn, MessageType::kPredictResponse, w.scratch);
  }
  frame_latency.Record(Server::kLatencyPredict,
                       NowNanosSince(completion.enqueue_time));
  FlushWrite(w, conn);
}

void Server::Impl::FlushWrite(Worker& w, Connection& conn) {
  while (conn.write_pos < conn.write_buf.size()) {
    // MSG_NOSIGNAL: a vanished peer must surface as EPIPE on this write,
    // not kill the whole process with SIGPIPE.
    const ssize_t n =
        send(conn.fd, conn.write_buf.data() + conn.write_pos,
             conn.write_buf.size() - conn.write_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.write_pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (conn.write_buf.size() - conn.write_pos > kMaxWriteBufferBytes) {
        // Slow consumer: responses are piling up faster than the peer
        // reads them.
        CloseConnection(w, conn);
        return;
      }
      if (!conn.want_write) UpdateEpollInterest(w, conn, true);
      return;
    }
    CloseConnection(w, conn);  // EPIPE / ECONNRESET / anything else.
    return;
  }
  conn.write_buf.clear();
  conn.write_pos = 0;
  if (conn.want_write) UpdateEpollInterest(w, conn, false);
  if (conn.close_after_write || conn.peer_closed) CloseConnection(w, conn);
}

void Server::Impl::UpdateEpollInterest(Worker& w, Connection& conn,
                                       bool want_write) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET |
              (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = conn.id;
  if (epoll_ctl(w.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev) == 0) {
    conn.want_write = want_write;
  }
}

void Server::Impl::FinishWorkerShutdown(Worker& w) {
  // Completions were already delivered (DrainMailbox runs them before
  // reporting the stop); what remains is telling every peer goodbye.
  std::vector<uint64_t> ids;
  ids.reserve(w.conns.size());
  for (const auto& [id, conn] : w.conns) ids.push_back(id);
  for (const uint64_t id : ids) {
    const auto it = w.conns.find(id);
    if (it == w.conns.end()) continue;
    Connection& conn = it->second;
    if (conn.mode == Connection::Mode::kJson) {
      AppendJsonShutdown(&conn.write_buf);
      json_lines_out.fetch_add(1, std::memory_order_relaxed);
    } else {
      // kUnknown peers never sent a byte; binary is the default farewell.
      SendMessage(conn, MessageType::kShutdown, {});
    }
    // Bounded blocking flush: the event loop is gone, so poll directly.
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(200);
    while (conn.write_pos < conn.write_buf.size()) {
      const ssize_t n =
          send(conn.fd, conn.write_buf.data() + conn.write_pos,
               conn.write_buf.size() - conn.write_pos, MSG_NOSIGNAL);
      if (n > 0) {
        conn.write_pos += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) &&
          Clock::now() < deadline) {
        pollfd pfd{conn.fd, POLLOUT, 0};
        poll(&pfd, 1, 10);
        continue;
      }
      break;  // Peer gone or deadline hit; close regardless.
    }
    CloseConnection(w, conn);
  }
}

// ---- Batcher thread ------------------------------------------------------

void Server::Impl::OnBatchFlush(std::vector<BatchItem> batch,
                                FlushReason reason) {
  (void)reason;
  batch_size_hist.Record(static_cast<double>(batch.size()));
  // Group by tenant, preserving submit order within each group, then push
  // each group through the batched read path (one registry acquisition +
  // one batched-GEMM global pass per tenant instead of per request).
  std::unordered_map<fleet_serve::TenantId, std::vector<size_t>> groups;
  for (size_t i = 0; i < batch.size(); ++i) {
    groups[batch[i].tenant].push_back(i);
  }
  std::vector<std::vector<Completion>> per_worker(workers.size());
  std::vector<core::QueryContext> contexts;
  for (const auto& [tenant, indices] : groups) {
    contexts.clear();
    contexts.reserve(indices.size());
    for (const size_t i : indices) contexts.push_back(batch[i].context);
    const std::vector<core::Prediction> predictions =
        fleet->PredictBatch(tenant, contexts);
    for (size_t k = 0; k < indices.size(); ++k) {
      const BatchItem& item = batch[indices[k]];
      Completion completion;
      completion.conn_id = item.conn_id;
      completion.request_id = item.request_id;
      completion.prediction = predictions[k];
      completion.enqueue_time = item.enqueue_time;
      per_worker[static_cast<size_t>(item.worker)].push_back(completion);
    }
  }
  predictions_batched.fetch_add(batch.size(), std::memory_order_relaxed);
  for (size_t i = 0; i < workers.size(); ++i) {
    if (per_worker[i].empty()) continue;
    Worker& w = *workers[i];
    {
      std::lock_guard<std::mutex> lock(w.mutex);
      w.pending_completions.insert(
          w.pending_completions.end(),
          std::make_move_iterator(per_worker[i].begin()),
          std::make_move_iterator(per_worker[i].end()));
    }
    uint64_t wake = 1;
    (void)!write(w.event_fd, &wake, sizeof(wake));
  }
}

}  // namespace stage::net
