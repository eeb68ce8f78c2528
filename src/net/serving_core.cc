#include "net/serving_core.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "engine/batch_engine.h"
#include "obs/trace.h"

namespace fannr::net {

namespace {

std::string Num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

std::string HistogramStatsJson(const obs::HistogramSnapshot& h) {
  return "{\"count\": " + std::to_string(h.count) +
         ", \"mean\": " + Num(h.Mean()) + ", \"p50\": " + Num(h.Percentile(50)) +
         ", \"p95\": " + Num(h.Percentile(95)) +
         ", \"p99\": " + Num(h.Percentile(99)) + ", \"max\": " + Num(h.max) +
         "}";
}

/// epoll user-data tags for the two non-connection descriptors each
/// loop watches. Real heap Connection pointers can never collide with
/// these values.
constexpr uint64_t kWakeTag = 1;
constexpr uint64_t kListenerTag = 2;

/// Cap on the post-io_stop_ flush of remaining transmit queues. Only a
/// peer that stops reading mid-drain can make us wait this long.
constexpr double kDrainFlushCapMs = 2'000.0;

/// Backoff after an accept failure that does not clear the listener's
/// readability (EMFILE/ENFILE/ENOBUFS/...): the listener is deregistered
/// for this long, then re-armed. Bounds the accept loop to ~20 wakeups/s
/// while the fd table stays exhausted instead of a 100% CPU spin.
constexpr double kAcceptBackoffMs = 50.0;

}  // namespace

bool ChargeQueueWait(double job_ms, double batch_ms, double default_ms,
                     double waited_ms, double* remaining_ms,
                     WireResult* expired) {
  auto usable = [](double v) { return std::isfinite(v) && v > 0.0; };
  double deadline_ms = 0.0;
  if (usable(job_ms)) {
    deadline_ms = job_ms;
  } else if (usable(batch_ms)) {
    deadline_ms = batch_ms;
  } else if (usable(default_ms)) {
    deadline_ms = default_ms;
  }
  *remaining_ms = 0.0;
  if (deadline_ms <= 0.0) return true;
  *remaining_ms = deadline_ms - waited_ms;
  if (*remaining_ms > 0.0) return true;
  *expired = WireResult{};
  expired->status = static_cast<uint8_t>(QueryStatus::kTimedOut);
  expired->error = "deadline of " + std::to_string(deadline_ms) +
                   " ms exceeded in the admission queue";
  return false;
}

WireResult RejectedWire(std::string error) {
  WireResult r;
  r.status = static_cast<uint8_t>(QueryStatus::kRejected);
  r.error = std::move(error);
  return r;
}

/// One accepted client connection, owned by exactly one event loop.
/// Receive-side state (`in`, read_paused, registered, want_write) is
/// touched only by that loop's thread; the transmit queue is shared
/// with the executor under out_mu (appended anywhere, flushed only by
/// the loop thread so socket writes never interleave).
struct ServingCore::Connection {
  Socket sock;
  size_t loop_index = 0;
  std::atomic<bool> open{true};

  // Loop-thread-only.
  ByteQueue in;
  bool read_paused = false;   ///< Backpressure: EPOLLIN disarmed.
  bool registered = false;    ///< In the loop's epoll set and conns map.
  bool want_write = false;    ///< EPOLLOUT armed (transmit queue nonempty).

  // Shared with response writers.
  std::mutex out_mu;
  ByteQueue out;
};

/// One epoll event loop. `conns` is keyed by raw pointer so a stale
/// data.ptr from an event batch that already closed the connection is
/// detected by lookup instead of dereferenced. The mailbox
/// (pending_add/dirty) is how other threads hand this loop work.
struct ServingCore::IoLoop {
  int epoll_fd = -1;
  int wake_fd = -1;  ///< Nonblocking eventfd; readable until drained.
  std::thread thread;
  std::atomic<std::thread::id> thread_id{};
  bool accepting = false;  ///< Loop 0 watches the listener until drain.
  /// Listener temporarily deregistered after EMFILE-class accept
  /// failures; re-armed once accept_backoff passes kAcceptBackoffMs.
  bool accept_paused = false;
  Timer accept_backoff;
  std::unordered_map<Connection*, std::shared_ptr<Connection>> conns;

  std::mutex mail_mu;
  std::vector<std::shared_ptr<Connection>> pending_add;
  std::vector<std::shared_ptr<Connection>> dirty;

  ~IoLoop() {
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (wake_fd >= 0) ::close(wake_fd);
  }
};

bool ServingCore::IsOpen(const Connection& conn) {
  return conn.open.load(std::memory_order_relaxed);
}

ServingCore::ServingCore(const std::string& prefix, ServerConfig config)
    : config_(std::move(config)) {
  auto counter = [&](const char* name) {
    return metrics_.RegisterCounter(prefix + "." + name);
  };
  auto histogram = [&](const char* name) {
    return metrics_.RegisterHistogram(prefix + "." + name,
                                      obs::DefaultLatencyBucketsMs());
  };
  auto request = [&](Opcode opcode) -> obs::CounterId& {
    return m_requests_[static_cast<size_t>(opcode)];
  };
  request(Opcode::kQuery) = counter("requests.query");
  request(Opcode::kBatch) = counter("requests.batch");
  request(Opcode::kUpdateWeights) = counter("requests.update_weights");
  request(Opcode::kStats) = counter("requests.stats");
  request(Opcode::kPing) = counter("requests.ping");
  request(Opcode::kShutdown) = counter("requests.shutdown");
  request(Opcode::kReplApply) = counter("requests.repl_apply");
  m_errors_ = counter("responses.error");
  m_overloaded_ = counter("overloaded");
  m_bad_frames_ = counter("bad_frames");
  m_connections_ = counter("connections");
  m_accept_errors_ = counter("accept_errors");
  m_stale_admission_ = counter("rejected_stale_admission");
  request(Opcode::kSubscribe) = counter("requests.subscribe");
  request(Opcode::kUnsubscribe) = counter("requests.unsubscribe");
  m_queue_depth_ = metrics_.RegisterGauge(prefix + ".queue_depth");
  m_e2e_query_ms_ = histogram("e2e_ms.query");
  m_e2e_batch_ms_ = histogram("e2e_ms.batch");
  m_e2e_update_ms_ = histogram("e2e_ms.update");
  m_queue_wait_ms_ = histogram("queue_wait_ms");
}

ServingCore::~ServingCore() {
  if (drain_wake_fd_ >= 0) ::close(drain_wake_fd_);
}

bool ServingCore::Start(std::string* error) {
  FANNR_CHECK(!started_.load(std::memory_order_relaxed));
  // Blocking mode: Wait() parks in read(2) on it until RequestShutdown.
  drain_wake_fd_ = ::eventfd(0, EFD_CLOEXEC);
  if (drain_wake_fd_ < 0) {
    if (error != nullptr) *error = "eventfd failed";
    return false;
  }
  listener_ = TcpListen(config_.host, config_.port, &port_, error);
  if (!listener_.valid()) return false;
  if (!listener_.SetNonBlocking()) {
    if (error != nullptr) *error = "could not set listener nonblocking";
    return false;
  }

  const size_t num_loops = std::max<size_t>(config_.num_io_threads, 1);
  io_loops_.clear();
  for (size_t i = 0; i < num_loops; ++i) {
    auto loop = std::make_unique<IoLoop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->epoll_fd < 0 || loop->wake_fd < 0) {
      if (error != nullptr) *error = "epoll/eventfd setup failed";
      io_loops_.clear();
      return false;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &ev);
    if (i == 0) {
      ev.data.u64 = kListenerTag;
      ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, listener_.fd(), &ev);
      loop->accepting = true;
    }
    io_loops_.push_back(std::move(loop));
  }

  started_.store(true, std::memory_order_relaxed);
  io_stop_.store(false, std::memory_order_relaxed);
  for (size_t i = 0; i < io_loops_.size(); ++i) {
    io_loops_[i]->thread = std::thread(&ServingCore::IoLoopMain, this, i);
  }
  executor_thread_ = std::thread(&ServingCore::ExecutorMain, this);
  return true;
}

void ServingCore::RequestShutdown() {
  draining_.store(true, std::memory_order_relaxed);
  // Everything below is async-signal-safe (write(2) on eventfds over an
  // immutable vector), so this whole method may run in a SIGTERM
  // handler. An eventfd counter stays level-triggered readable until
  // consumed: however many callers race here, the wake cannot be
  // silently dropped the way a full pipe drops writes. (EAGAIN is only
  // possible at counter overflow, which still leaves it readable.)
  const uint64_t one = 1;
  if (drain_wake_fd_ >= 0) {
    [[maybe_unused]] ssize_t n = ::write(drain_wake_fd_, &one, sizeof(one));
  }
  for (const std::unique_ptr<IoLoop>& loop : io_loops_) {
    [[maybe_unused]] ssize_t n = ::write(loop->wake_fd, &one, sizeof(one));
  }
}

void ServingCore::Stop() {
  if (!started_.load(std::memory_order_relaxed)) return;
  RequestShutdown();
  Wait();
}

void ServingCore::WakeLoop(IoLoop& loop) {
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(loop.wake_fd, &one, sizeof(one));
}

void ServingCore::IoLoopMain(size_t index) {
  IoLoop& loop = *io_loops_[index];
  loop.thread_id.store(std::this_thread::get_id(), std::memory_order_relaxed);
  std::vector<epoll_event> events(128);
  while (!io_stop_.load(std::memory_order_acquire)) {
    int timeout = -1;
    if (loop.accepting && loop.accept_paused) {
      const double remaining = kAcceptBackoffMs - loop.accept_backoff.Millis();
      timeout = remaining <= 0.0 ? 0 : static_cast<int>(remaining) + 1;
    }
    const int n = ::epoll_wait(loop.epoll_fd, events.data(),
                               static_cast<int>(events.size()), timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[i];
      if (ev.data.u64 == kWakeTag) {
        uint64_t counter = 0;
        [[maybe_unused]] ssize_t r =
            ::read(loop.wake_fd, &counter, sizeof(counter));
        continue;
      }
      if (ev.data.u64 == kListenerTag) {
        if (!draining()) AcceptReady(loop);
        continue;
      }
      // An earlier event in this same batch may have closed the
      // connection; the map lookup catches the stale pointer.
      auto it = loop.conns.find(static_cast<Connection*>(ev.data.ptr));
      if (it == loop.conns.end()) continue;
      std::shared_ptr<Connection> conn = it->second;
      if ((ev.events & EPOLLERR) != 0) {
        CloseConnection(loop, *conn);
        continue;
      }
      if ((ev.events & EPOLLOUT) != 0) FlushConnection(loop, conn);
      if (conn->registered && (ev.events & (EPOLLIN | EPOLLHUP)) != 0) {
        ReadConnection(loop, conn);
      }
    }
    if (loop.accepting && draining()) {
      // Drain: stop accepting, but keep serving existing connections
      // (their in-flight work still gets answered). A paused listener
      // is already out of the epoll set.
      if (!loop.accept_paused) {
        ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, listener_.fd(), nullptr);
      }
      loop.accept_paused = false;
      loop.accepting = false;
    }
    if (loop.accepting && loop.accept_paused &&
        loop.accept_backoff.Millis() >= kAcceptBackoffMs) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = kListenerTag;
      ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, listener_.fd(), &ev);
      loop.accept_paused = false;
    }
    ProcessMail(loop);
  }
  DrainLoopAndClose(loop);
}

void ServingCore::AcceptReady(IoLoop& loop) {
  while (true) {
    const int fd = ::accept4(listener_.fd(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;  // accepted everything pending
      }
      if (errno == ECONNABORTED || errno == EPROTO) {
        // That one pending connection died before we got to it; the
        // rest of the backlog is still fine.
        metrics_.Add(m_accept_errors_, 1);
        continue;
      }
      // EMFILE/ENFILE/ENOBUFS/ENOMEM: the failure does not consume the
      // pending connection, so the level-triggered listener stays
      // readable and returning here would re-fire epoll_wait
      // immediately — a 100% CPU spin for as long as the fd table is
      // exhausted. Park the listener and re-arm it after a backoff.
      metrics_.Add(m_accept_errors_, 1);
      ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, listener_.fd(), nullptr);
      loop.accept_paused = true;
      loop.accept_backoff.Reset();
      return;
    }
    Socket sock(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    metrics_.Add(m_connections_, 1);

    if (live_connections_.load(std::memory_order_relaxed) >=
        config_.max_connections) {
      metrics_.Add(m_overloaded_, 1);
      ErrorResponse err;
      err.code = ErrorCode::kOverloaded;
      err.message = "connection limit reached — retry later";
      const std::vector<uint8_t> frame =
          EncodeFrame(static_cast<uint16_t>(Opcode::kError), 0,
                      EncodeErrorResponse(err));
      // Best effort on the fresh nonblocking socket: a tiny frame fits
      // the empty send buffer; if it somehow doesn't, the close below
      // still sheds the connection.
      (void)sock.SendSome(frame.data(), frame.size());
      continue;  // sock dies here
    }

    live_connections_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Connection>();
    conn->sock = std::move(sock);
    conn->loop_index = next_loop_.fetch_add(1, std::memory_order_relaxed) %
                       io_loops_.size();
    IoLoop& dest = *io_loops_[conn->loop_index];
    if (&dest == &loop) {
      RegisterConnection(dest, conn);
    } else {
      {
        std::lock_guard<std::mutex> lock(dest.mail_mu);
        dest.pending_add.push_back(std::move(conn));
      }
      WakeLoop(dest);
    }
  }
}

void ServingCore::RegisterConnection(IoLoop& loop,
                                     const std::shared_ptr<Connection>& conn) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = conn.get();
  if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, conn->sock.fd(), &ev) != 0) {
    conn->open.store(false, std::memory_order_relaxed);
    live_connections_.fetch_sub(1, std::memory_order_relaxed);
    return;  // conn dies with the caller's reference
  }
  conn->registered = true;
  loop.conns.emplace(conn.get(), conn);
}

void ServingCore::ReadConnection(IoLoop& loop,
                                 const std::shared_ptr<Connection>& conn) {
  if (!conn->registered || conn->read_paused) return;
  uint8_t buf[64 * 1024];
  while (true) {
    const ssize_t n = conn->sock.RecvSome(buf, sizeof(buf));
    if (n > 0) {
      conn->in.Append(buf, static_cast<size_t>(n));
      if (!ParseAndDispatch(loop, conn)) return;  // closed or paused
      if (static_cast<size_t>(n) < sizeof(buf)) return;  // likely drained
      continue;
    }
    if (n == 0) {  // peer EOF
      CloseConnection(loop, *conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    CloseConnection(loop, *conn);
    return;
  }
}

bool ServingCore::ParseAndDispatch(IoLoop& loop,
                                   const std::shared_ptr<Connection>& conn) {
  while (conn->registered) {
    // Write-side backpressure: a connection that has stopped reading
    // its responses stops being read itself, before its next frame is
    // even cut — the transmit backlog, not the kernel's buffers, is
    // the bound.
    size_t backlog = 0;
    {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      backlog = conn->out.size();
    }
    if (backlog > config_.max_outbound_bytes) {
      conn->read_paused = true;
      UpdateInterest(loop, *conn);
      return false;
    }

    FrameCut cut = CutFrame(conn->in);
    if (cut.kind == FrameCut::Kind::kNeedMore) return true;
    if (cut.kind == FrameCut::Kind::kPoisoned) {
      // Bad magic / oversized payload / nonzero reserved: the stream
      // has no trustworthy frame boundary left. Close, never crash.
      metrics_.Add(m_bad_frames_, 1);
      CloseConnection(loop, *conn);
      return false;
    }
    DispatchFrame(conn, cut);
  }
  return false;
}

void ServingCore::DispatchFrame(const std::shared_ptr<Connection>& conn,
                                FrameCut& cut) {
  const FrameHeader& header = cut.header;
  if (header.version != kProtocolVersion) {
    EnqueueError(conn, header.request_id, ErrorCode::kUnsupportedVersion,
                 cut.envelope_error);
    return;
  }
  if (!IsRequestOpcode(header.opcode)) {
    EnqueueError(conn, header.request_id, ErrorCode::kUnknownOpcode,
                 "opcode " + std::to_string(header.opcode) +
                     " is not a request opcode");
    return;
  }

  const Opcode opcode = static_cast<Opcode>(header.opcode);
  metrics_.Add(m_requests_[header.opcode], 1);
  if (opcode == Opcode::kPing) {
    EnqueueFrame(conn, Opcode::kPong, header.request_id, {});
    return;
  }
  if (opcode == Opcode::kShutdown) {
    EnqueueFrame(conn, Opcode::kShutdownAck, header.request_id, {});
    RequestShutdown();
    return;
  }

  // Work frame: decode, then admit (or shed).
  WorkItem item;
  item.conn = conn;
  item.opcode = opcode;
  item.request_id = header.request_id;
  bool decoded = false;
  switch (opcode) {
    case Opcode::kQuery:
      decoded = DecodeQueryRequest(cut.payload, item.query);
      break;
    case Opcode::kBatch:
      decoded = DecodeBatchRequest(cut.payload, item.batch);
      break;
    case Opcode::kUpdateWeights:
      decoded = DecodeUpdateWeightsRequest(cut.payload, item.update);
      break;
    case Opcode::kReplApply:
      decoded = DecodeReplApplyRequest(cut.payload, item.repl);
      break;
    case Opcode::kStats:
      decoded = cut.payload.empty();
      break;
    case Opcode::kSubscribe:
      decoded = DecodeSubscribeRequest(cut.payload, item.subscribe);
      break;
    case Opcode::kUnsubscribe:
      decoded = DecodeUnsubscribeRequest(cut.payload, item.unsubscribe);
      break;
    default:
      break;
  }
  if (!decoded) {
    EnqueueError(conn, header.request_id, ErrorCode::kMalformedPayload,
                 std::string(OpcodeName(header.opcode)) +
                     " payload failed to decode");
    return;
  }
  if (draining()) {
    EnqueueError(conn, header.request_id, ErrorCode::kShuttingDown,
                 "server is draining — no new work accepted");
    return;
  }

  item.admission_epoch = AdmissionEpoch();
  item.e2e_timer.Reset();
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_.size() < config_.max_queue_depth) {
      queue_.push_back(std::move(item));
      metrics_.Set(m_queue_depth_, static_cast<double>(queue_.size()));
      admitted = true;
    }
  }
  if (admitted) {
    queue_cv_.notify_one();
  } else {
    // Bounded admission: shed the request explicitly instead of
    // buffering without limit. The client retries with backoff.
    EnqueueError(conn, header.request_id, ErrorCode::kOverloaded,
                 "admission queue full (" +
                     std::to_string(config_.max_queue_depth) +
                     " pending) — retry later");
  }
}

void ServingCore::EnqueueFrame(const std::shared_ptr<Connection>& conn,
                               Opcode opcode, uint64_t request_id,
                               std::span<const uint8_t> payload) {
  if (!conn->open.load(std::memory_order_relaxed)) return;
  const std::vector<uint8_t> frame =
      EncodeFrame(static_cast<uint16_t>(opcode), request_id, payload);
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    conn->out.Append(frame.data(), frame.size());
  }
  IoLoop& loop = *io_loops_[conn->loop_index];
  {
    std::lock_guard<std::mutex> lock(loop.mail_mu);
    loop.dirty.push_back(conn);
  }
  // The loop flushes its dirty list before re-entering epoll_wait, so
  // when already on the loop thread (inline PING/error replies) no wake
  // is needed; anyone else must interrupt the wait.
  if (std::this_thread::get_id() !=
      loop.thread_id.load(std::memory_order_relaxed)) {
    WakeLoop(loop);
  }
}

void ServingCore::EnqueueError(const std::shared_ptr<Connection>& conn,
                               uint64_t request_id, ErrorCode code,
                               std::string message) {
  metrics_.Add(code == ErrorCode::kOverloaded ? m_overloaded_ : m_errors_, 1);
  ErrorResponse response;
  response.code = code;
  response.message = std::move(message);
  EnqueueFrame(conn, Opcode::kError, request_id,
               EncodeErrorResponse(response));
}

bool ServingCore::TryEnqueueFrame(const std::shared_ptr<Connection>& conn,
                                  Opcode opcode, uint64_t request_id,
                                  std::span<const uint8_t> payload) {
  if (!conn->open.load(std::memory_order_relaxed)) return false;
  {
    // Same bound the read path enforces: a peer that stopped reading
    // gets nothing more queued instead of an unbounded backlog.
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->out.size() > config_.max_outbound_bytes) return false;
  }
  EnqueueFrame(conn, opcode, request_id, payload);
  return true;
}

void ServingCore::FlushConnection(IoLoop& loop,
                                  const std::shared_ptr<Connection>& conn) {
  if (!conn->registered) return;
  bool failed = false;
  size_t remaining = 0;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    while (!conn->out.empty()) {
      const ssize_t n = conn->sock.SendSome(conn->out.data(),
                                            conn->out.size());
      if (n > 0) {
        conn->out.Consume(static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      failed = true;  // peer closed mid-response or hard error
      break;
    }
    remaining = conn->out.size();
  }
  if (failed) {
    CloseConnection(loop, *conn);
    return;
  }

  bool interest_changed = false;
  const bool want_write = remaining > 0;
  if (want_write != conn->want_write) {
    conn->want_write = want_write;
    interest_changed = true;
  }
  const bool resume =
      conn->read_paused && remaining <= config_.max_outbound_bytes / 2;
  if (resume) {
    conn->read_paused = false;
    interest_changed = true;
  }
  if (interest_changed) UpdateInterest(loop, *conn);
  if (resume) {
    // Frames already buffered while paused parse now; anything still in
    // the kernel re-fires the (level-triggered) EPOLLIN we just armed.
    ParseAndDispatch(loop, conn);
  }
}

void ServingCore::UpdateInterest(IoLoop& loop, Connection& conn) {
  if (!conn.registered) return;
  epoll_event ev{};
  ev.events = (conn.read_paused ? 0u : static_cast<uint32_t>(EPOLLIN)) |
              (conn.want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  ev.data.ptr = &conn;
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn.sock.fd(), &ev);
}

void ServingCore::CloseConnection(IoLoop& loop, Connection& conn) {
  if (!conn.registered) return;  // idempotent
  conn.registered = false;
  conn.open.store(false, std::memory_order_relaxed);
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, conn.sock.fd(), nullptr);
  // A peer may be parked in read(2) waiting for a reply that will never
  // come (e.g. its frame was fatally malformed); shutdown(2) hands it a
  // clean EOF before the descriptor goes away.
  conn.sock.ShutdownBoth();
  conn.sock.Close();
  live_connections_.fetch_sub(1, std::memory_order_relaxed);
  loop.conns.erase(&conn);  // may free conn — must be the last touch
}

void ServingCore::ProcessMail(IoLoop& loop) {
  std::vector<std::shared_ptr<Connection>> add;
  std::vector<std::shared_ptr<Connection>> dirty;
  {
    std::lock_guard<std::mutex> lock(loop.mail_mu);
    add.swap(loop.pending_add);
    dirty.swap(loop.dirty);
  }
  for (const std::shared_ptr<Connection>& conn : add) {
    RegisterConnection(loop, conn);
  }
  for (const std::shared_ptr<Connection>& conn : dirty) {
    FlushConnection(loop, conn);
  }
}

void ServingCore::DrainLoopAndClose(IoLoop& loop) {
  // The executor is already gone, so the transmit queues hold the final
  // bytes of every drained/aborted response. Flush them (bounded — only
  // a peer that stopped reading can hold us up), then close everything.
  Timer cap;
  while (cap.Millis() < kDrainFlushCapMs) {
    ProcessMail(loop);
    std::vector<std::shared_ptr<Connection>> conns;
    conns.reserve(loop.conns.size());
    for (const auto& [ptr, sp] : loop.conns) conns.push_back(sp);
    bool pending = false;
    for (const std::shared_ptr<Connection>& conn : conns) {
      FlushConnection(loop, conn);
      if (!conn->registered) continue;
      std::lock_guard<std::mutex> lock(conn->out_mu);
      if (!conn->out.empty()) pending = true;
    }
    if (!pending) break;
    epoll_event ev;
    ::epoll_wait(loop.epoll_fd, &ev, 1, 10);
  }
  std::vector<std::shared_ptr<Connection>> conns;
  conns.reserve(loop.conns.size());
  for (const auto& [ptr, sp] : loop.conns) conns.push_back(sp);
  for (const std::shared_ptr<Connection>& conn : conns) {
    CloseConnection(loop, *conn);
  }
}

void ServingCore::ExecutorMain() {
  while (true) {
    WorkItem first;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [&] { return !queue_.empty() || executor_stop_; });
      if (queue_.empty()) break;  // executor_stop_ with a drained queue
      first = std::move(queue_.front());
      queue_.pop_front();
      metrics_.Set(m_queue_depth_, static_cast<double>(queue_.size()));
    }
    if (config_.test_execution_gate) config_.test_execution_gate();

    // Pipelining amortization: hand consecutive QUERY items admitted
    // under the same epoch (possibly from different connections) to
    // Execute as one burst. Only the queue front is ever taken, so FIFO
    // order — and therefore the epoch/update interleaving semantics —
    // is untouched.
    std::vector<WorkItem> burst;
    burst.push_back(std::move(first));
    if (burst[0].opcode == Opcode::kQuery) {
      const size_t budget = std::max<size_t>(config_.merge_budget, 1);
      while (burst.size() < budget) {
        WorkItem extra;
        {
          std::lock_guard<std::mutex> lock(queue_mu_);
          if (queue_.empty() || queue_.front().opcode != Opcode::kQuery ||
              queue_.front().admission_epoch != burst[0].admission_epoch) {
            break;
          }
          extra = std::move(queue_.front());
          queue_.pop_front();
          metrics_.Set(m_queue_depth_, static_cast<double>(queue_.size()));
        }
        // The gate contract — one entry per dequeued item — holds for
        // merged items too.
        if (config_.test_execution_gate) config_.test_execution_gate();
        burst.push_back(std::move(extra));
      }
    }

    // Read the stop flag after the gate(s), not at dequeue: Wait() arms
    // the drain timer before setting it, so when `stopping` is observed
    // the deadline check below is measuring the actual drain —
    // including for an item that was dequeued before the drain began.
    bool stopping = false;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      stopping = executor_stop_;
    }
    std::vector<WorkItem*> live;
    live.reserve(burst.size());
    for (WorkItem& item : burst) {
      if (stopping && drain_timer_.Millis() > config_.drain_deadline_ms) {
        // Past the drain budget: answer, don't compute.
        aborted_items_.fetch_add(1, std::memory_order_relaxed);
        EnqueueError(item.conn, item.request_id, ErrorCode::kShuttingDown,
                     "drain deadline exceeded — request aborted");
        continue;
      }
      live.push_back(&item);
    }
    if (!live.empty()) {
      Dispatch(live);
      if (stopping) {
        drained_items_.fetch_add(live.size(), std::memory_order_relaxed);
      }
    }
  }
}

void ServingCore::Dispatch(const std::vector<WorkItem*>& items) {
  for (const WorkItem* item : items) {
    metrics_.Record(m_queue_wait_ms_, item->e2e_timer.Millis());
  }
  const WorkItem& first = *items.front();
  const bool stale = (first.opcode == Opcode::kQuery ||
                      first.opcode == Opcode::kBatch) &&
                     AdmissionEpoch() != first.admission_epoch;
  if (stale) {
    RejectStale(items, AdmissionEpoch());
  } else if (first.opcode == Opcode::kStats) {
    StatsResponse response;
    response.json = StatsJson();
    EnqueueFrame(first.conn, Opcode::kStatsResult, first.request_id,
                 EncodeStatsResponse(response));
  } else {
    Execute(items);
  }

  obs::HistogramId e2e;
  switch (first.opcode) {
    case Opcode::kQuery:
    case Opcode::kSubscribe:
      e2e = m_e2e_query_ms_;
      break;
    case Opcode::kBatch:
      e2e = m_e2e_batch_ms_;
      break;
    case Opcode::kUpdateWeights:
    case Opcode::kReplApply:
      e2e = m_e2e_update_ms_;
      break;
    default:
      return;
  }
  for (const WorkItem* item : items) {
    metrics_.Record(e2e, item->e2e_timer.Millis());
  }
}

void ServingCore::RejectStale(const std::vector<WorkItem*>& items,
                              uint64_t now) {
  // Every item of a burst was admitted under the same epoch.
  metrics_.Add(m_stale_admission_, items.size());
  const WireResult rejected =
      RejectedWire(MidBatchEpochError(items.front()->admission_epoch, now));
  for (const WorkItem* item : items) {
    if (item->opcode == Opcode::kQuery) {
      QueryResponse response;
      response.graph_epoch = now;
      response.result = rejected;
      EnqueueFrame(item->conn, Opcode::kQueryResult, item->request_id,
                   EncodeQueryResponse(response));
    } else {
      BatchResponse response;
      response.graph_epoch = now;
      response.results.assign(item->batch.jobs.size(), rejected);
      EnqueueFrame(item->conn, Opcode::kBatchResult, item->request_id,
                   EncodeBatchResponse(response));
    }
  }
}

std::string ServingCore::MetricsJson() const {
  const obs::MetricsSnapshot snapshot = metrics_.Snapshot();
  std::string out = "{\n    \"counters\": {";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    out += std::string(i ? ", " : "") + "\"" +
           obs::internal_obs::JsonEscape(snapshot.counters[i].first) +
           "\": " + std::to_string(snapshot.counters[i].second);
  }
  out += "},\n    \"gauges\": {";
  for (size_t i = 0; i < snapshot.gauges.size(); ++i) {
    out += std::string(i ? ", " : "") + "\"" +
           obs::internal_obs::JsonEscape(snapshot.gauges[i].first) +
           "\": " + Num(snapshot.gauges[i].second);
  }
  out += "},\n    \"histograms\": {";
  for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
    out += std::string(i ? ", " : "") + "\"" +
           obs::internal_obs::JsonEscape(snapshot.histograms[i].first) +
           "\": " + HistogramStatsJson(snapshot.histograms[i].second);
  }
  out += "}\n  }";
  return out;
}

DrainStats ServingCore::Wait() {
  FANNR_CHECK(started_.load(std::memory_order_relaxed));
  // Park until a shutdown is requested. The eventfd is in blocking
  // mode and its counter survives until read, so a RequestShutdown
  // from before this call (or from a signal handler mid-read) is never
  // missed.
  uint64_t counter = 0;
  while (::read(drain_wake_fd_, &counter, sizeof(counter)) < 0 &&
         errno == EINTR) {
  }
  drain_timer_.Reset();

  // Drain order: finish (or abort) queued work first — every response
  // lands in a transmit queue — then tell the loops to flush those
  // queues and close. The loops keep serving reads during the drain;
  // new work frames are refused with SHUTTING_DOWN (DispatchFrame), so
  // the admission queue only shrinks.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    executor_stop_ = true;
  }
  queue_cv_.notify_all();
  executor_thread_.join();
  const double drain_ms = drain_timer_.Millis();

  io_stop_.store(true, std::memory_order_release);
  for (const std::unique_ptr<IoLoop>& loop : io_loops_) WakeLoop(*loop);
  for (const std::unique_ptr<IoLoop>& loop : io_loops_) {
    loop->thread.join();
  }
  listener_.Close();
  started_.store(false, std::memory_order_relaxed);

  DrainStats stats;
  stats.drain_ms = drain_ms;
  stats.drained_items = drained_items_.load(std::memory_order_relaxed);
  stats.aborted_items = aborted_items_.load(std::memory_order_relaxed);
  stats.within_deadline = drain_ms <= config_.drain_deadline_ms;
  stats.final_stats_json = StatsJson();
  return stats;
}

}  // namespace fannr::net
