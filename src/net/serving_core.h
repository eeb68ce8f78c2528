// ServingCore: the transport every FNRP front end runs on.
//
// FannServer (one engine) and FannRouter (a sharded fleet) answer the
// same protocol with the same transport; they differ only in how a
// dequeued request is executed. The core owns everything else and is
// structured as two thread roles:
//
//   * a small fixed pool of epoll event-loop threads (num_io_threads,
//     default 1) owning every socket in nonblocking mode. Each
//     connection accumulates bytes in a receive queue and has frames
//     cut off it incrementally (net/iobuf.h), so a client may
//     **pipeline**: many request frames in flight on one connection,
//     responses tagged by request_id and allowed to complete out of
//     order (a PING answered inline can overtake a queued QUERY's
//     response; work responses themselves stay FIFO per connection
//     because one executor drains the queue in order). Responses are
//     appended to a per-connection transmit queue and flushed as the
//     kernel accepts them (EPOLLOUT only while bytes remain). A
//     connection whose transmit backlog exceeds max_outbound_bytes
//     stops being read — write-side backpressure — until the backlog
//     drains below half the bound, so a client that never reads
//     responses cannot buffer the process to death. Loop 0 also owns
//     the listener, backs off on EMFILE-class accept failures, and
//     sheds connections over max_connections with OVERLOADED;
//   * one executor thread, which drains the admission queue FIFO and
//     is the only thread that runs the owner's work. Runs of
//     consecutive QUERY items admitted under the same epoch (up to
//     merge_budget, across connections) are handed to the owner as ONE
//     burst, so pipelined small queries amortize dispatch.
//
// Admission into the bounded queue happens on the event-loop thread as
// frames decode; a full queue is answered with OVERLOADED (load is shed
// explicitly instead of buffered without limit). PING and SHUTDOWN are
// answered inline; envelope errors (wrong version, unknown opcode,
// undecodable payload) are answered in band; a frame with no
// trustworthy boundary (bad magic, oversized) closes its connection.
//
// Admission epochs: each QUERY/BATCH item records the owner's epoch at
// enqueue. If the epoch moves before the item executes (an update ran
// in between, in FIFO order), the core rejects the item with the
// engine's canonical mid-batch reason instead of letting it be answered
// under state the client never observed at admission.
//
// Graceful drain (SIGTERM via RequestShutdown, or a SHUTDOWN frame):
// stop accepting connections, refuse new work frames (SHUTTING_DOWN),
// finish queued work until the drain deadline (aborting the remainder),
// flush responses, close connections, and return the final
// observability snapshot in the DrainStats.
//
// A derived class supplies the epoch stamped at admission, the
// execution of one dequeued item or one QUERY burst, and its STATS
// document. The core registers the per-opcode request counters, the
// error / overload / connection counters, the queue-depth gauge and the
// end-to-end and queue-wait histograms under the derived class's
// metric prefix.

#ifndef FANNR_NET_SERVING_CORE_H_
#define FANNR_NET_SERVING_CORE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "engine/batch_engine.h"
#include "net/iobuf.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "obs/metrics.h"

namespace fannr::dynamic {
class UpdateWal;
}  // namespace fannr::dynamic

namespace fannr::net {

/// Settings of a serving process. The transport fields (address,
/// loops, limits, queue, merge budget, drain deadline, test gate) are
/// the core's; the rest are FannServer's.
struct ServerConfig {
  std::string host = "127.0.0.1";
  /// 0 = kernel assigns an ephemeral port (read it back via port()).
  uint16_t port = 0;

  /// Event-loop threads. One loop comfortably serves hundreds of
  /// connections (the engine, not I/O, is the bottleneck); raise only
  /// when profiles show the loop saturated.
  size_t num_io_threads = 1;

  /// Connections beyond this are answered with OVERLOADED and closed.
  size_t max_connections = 64;

  /// Bounded admission queue: work frames arriving while `queue_depth`
  /// items are pending are answered with OVERLOADED instead of buffered.
  size_t max_queue_depth = 128;

  /// Write-side backpressure: a connection whose un-flushed transmit
  /// backlog exceeds this stops being read until it drains below half.
  size_t max_outbound_bytes = 4u << 20;

  /// Max consecutive same-epoch QUERY items merged into one engine Run
  /// (pipelining dispatch amortization). 1 disables merging.
  size_t merge_budget = 64;

  /// Standing-subscription bounds (see src/cont/subscription.h): a
  /// SUBSCRIBE past either limit is answered OVERLOADED instead of
  /// registered, so subscribers cannot grow executor-side state without
  /// limit. 0 = that limit disabled.
  size_t max_subscriptions_per_connection = 8;
  size_t max_subscriptions_total = 1024;

  /// Default end-to-end deadline for work items without their own
  /// (<= 0 = none). Counted from admission into the queue.
  double default_deadline_ms = 0.0;

  /// Wall-clock budget for finishing queued work during drain; items
  /// still queued past it are answered with SHUTTING_DOWN.
  double drain_deadline_ms = 10'000.0;

  /// Engine configuration (worker threads, g_phi oracle, cache sizing,
  /// metrics). The server forces enable_metrics on so STATS and the
  /// slow-query log always work.
  BatchOptions engine_options;

  /// Optional durability: when set, every applied update batch
  /// (UPDATE_WEIGHTS and REPL_APPLY alike) is appended — with its epoch
  /// position — before the response is sent, so a restarted server
  /// replays its way back to the epoch it crashed at. Not owned; must
  /// outlive the server. Only the executor thread touches it.
  dynamic::UpdateWal* wal = nullptr;

  /// Test-only: invoked by the executor thread before processing each
  /// dequeued item (including each item merged into a query burst).
  /// Lets tests hold the executor to fill the admission queue
  /// deterministically. Leave empty in production.
  std::function<void()> test_execution_gate;
};

/// Final accounting of a graceful drain, returned by Wait().
struct DrainStats {
  double drain_ms = 0.0;      ///< RequestShutdown to fully drained.
  size_t drained_items = 0;   ///< Queued items executed during drain.
  size_t aborted_items = 0;   ///< Queued items past the drain deadline.
  bool within_deadline = false;
  std::string final_stats_json;  ///< Last observability snapshot.
};

/// Charges time spent queued against a wire job's deadline. The
/// deadline is the job's own when positive and finite, else the
/// batch's, else `default_ms`. Returns true with `*remaining_ms` set
/// (0 = no deadline); false when the deadline already passed, with the
/// kTimedOut answer in `*expired`.
bool ChargeQueueWait(double job_ms, double batch_ms, double default_ms,
                     double waited_ms, double* remaining_ms,
                     WireResult* expired);

/// A kRejected answer carrying `error`.
WireResult RejectedWire(std::string error);

/// The transport, as a base class: FannServer and FannRouter derive
/// from it and supply the admission epoch, the execution of dequeued
/// work, and the STATS document. Construct, Start(), then Wait().
class ServingCore {
 public:
  ServingCore(const ServingCore&) = delete;
  ServingCore& operator=(const ServingCore&) = delete;

  /// Binds, listens, and spawns the event-loop + executor threads.
  /// False (with a reason) on socket errors; nothing is served then.
  bool Start(std::string* error);

  /// The bound port (valid after a successful Start).
  uint16_t port() const { return port_; }

  /// Initiates graceful drain. Async-signal-safe (eventfd writes plus a
  /// relaxed atomic store) — call it straight from a SIGTERM handler.
  /// Idempotent.
  void RequestShutdown();

  /// Blocks until a shutdown is requested and the drain completes,
  /// joins every thread, and returns the drain accounting. Call at most
  /// once, after Start().
  DrainStats Wait();

  /// True once a shutdown has been requested.
  bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

  /// Threads serving connections — the fixed event-loop pool, sized at
  /// Start() and independent of connection count or churn
  /// (tests/net_server_test.cc asserts the bound under churn).
  size_t tracked_connection_threads() const { return io_loops_.size(); }

  /// Per-opcode request counters, error / overload / connection
  /// counters, queue-depth gauge, end-to-end and queue-wait histograms,
  /// plus whatever the derived class registers.
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// The observability snapshot as JSON (any thread).
  virtual std::string StatsJson() const = 0;

 protected:
  /// One accepted client connection (defined in serving_core.cc).
  struct Connection;

  /// One admitted unit of work, queued FIFO for the executor. Exactly
  /// one request member is filled, per `opcode`.
  struct WorkItem {
    std::shared_ptr<Connection> conn;
    Opcode opcode = Opcode::kPing;
    uint64_t request_id = 0;
    QueryRequest query;
    BatchRequest batch;
    UpdateWeightsRequest update;
    ReplApplyRequest repl;
    SubscribeRequest subscribe;
    UnsubscribeRequest unsubscribe;
    uint64_t admission_epoch = 0;  ///< AdmissionEpoch() at admission.
    Timer e2e_timer;  ///< Started at admission; queue wait + execution.
  };

  /// Metric names are `<prefix>.requests.query` and so on.
  ServingCore(const std::string& prefix, ServerConfig config);
  /// Derived destructors must call Stop() first, while they can still
  /// execute work and answer StatsJson.
  virtual ~ServingCore();

  /// The epoch stamped on each item at admission. Called on the
  /// event-loop threads, so it must be cheap and thread-safe.
  virtual uint64_t AdmissionEpoch() const = 0;
  /// Executes one dequeued item, or a burst of same-epoch QUERY items
  /// (never STATS, and never a stale QUERY/BATCH: the core answers
  /// those). Executor thread only; answers through EnqueueFrame.
  virtual void Execute(const std::vector<WorkItem*>& items) = 0;

  /// RequestShutdown + Wait when started and not yet waited on.
  void Stop();

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} of the
  /// registry, for the derived class's STATS document.
  std::string MetricsJson() const;

  /// Appends an encoded frame to the connection's transmit queue and
  /// notifies its loop. Callable from any thread.
  void EnqueueFrame(const std::shared_ptr<Connection>& conn, Opcode opcode,
                    uint64_t request_id, std::span<const uint8_t> payload);
  /// EnqueueFrame of an ERROR frame; counts it as an overload when
  /// `code` is kOverloaded, else as an error response.
  void EnqueueError(const std::shared_ptr<Connection>& conn,
                    uint64_t request_id, ErrorCode code, std::string message);
  /// EnqueueFrame unless the connection is closed or its transmit
  /// backlog exceeds max_outbound_bytes (returns false: not enqueued).
  bool TryEnqueueFrame(const std::shared_ptr<Connection>& conn, Opcode opcode,
                       uint64_t request_id, std::span<const uint8_t> payload);

  /// False once the connection's loop has closed it.
  static bool IsOpen(const Connection& conn);

  ServerConfig config_;
  /// Single shard: event-loop threads contend only on relaxed atomics,
  /// never a lock. Derived classes register their metrics here in
  /// their constructors.
  obs::MetricsRegistry metrics_{1};

 private:
  struct IoLoop;

  // --- Event-loop side (each method runs on the loop's own thread
  // unless noted) ---
  void IoLoopMain(size_t index);
  void AcceptReady(IoLoop& loop);
  void RegisterConnection(IoLoop& loop,
                          const std::shared_ptr<Connection>& conn);
  void ReadConnection(IoLoop& loop, const std::shared_ptr<Connection>& conn);
  /// Cuts and dispatches every complete frame buffered on `conn`.
  /// Returns false when reading must stop (connection closed or
  /// backpressure paused it).
  bool ParseAndDispatch(IoLoop& loop, const std::shared_ptr<Connection>& conn);
  void DispatchFrame(const std::shared_ptr<Connection>& conn, FrameCut& cut);
  void FlushConnection(IoLoop& loop, const std::shared_ptr<Connection>& conn);
  void UpdateInterest(IoLoop& loop, Connection& conn);
  void CloseConnection(IoLoop& loop, Connection& conn);
  /// Adopts mailed-in connections and flushes ones marked dirty by
  /// writers on other threads.
  void ProcessMail(IoLoop& loop);
  /// End of a loop's life: flush remaining transmit queues (bounded),
  /// then close every connection.
  void DrainLoopAndClose(IoLoop& loop);
  static void WakeLoop(IoLoop& loop);

  // --- Executor side ---
  void ExecutorMain();
  /// Runs one dequeued item or QUERY burst: STATS and stale QUERY/BATCH
  /// here, everything else through Execute; records the latencies.
  void Dispatch(const std::vector<WorkItem*>& items);
  void RejectStale(const std::vector<WorkItem*>& items, uint64_t now);

  Socket listener_;
  uint16_t port_ = 0;
  /// Blocking eventfd RequestShutdown writes and Wait() reads: a wake
  /// can never be silently dropped the way a full pipe drops writes
  /// (the counter stays readable until consumed), and writing it stays
  /// async-signal-safe.
  int drain_wake_fd_ = -1;
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};
  /// Tells the event loops to flush and exit (set by Wait after the
  /// executor has drained, so every response is already enqueued).
  std::atomic<bool> io_stop_{false};

  /// Fixed at Start(); the vector itself is immutable afterwards, which
  /// is what lets RequestShutdown walk it from a signal handler.
  std::vector<std::unique_ptr<IoLoop>> io_loops_;
  std::atomic<size_t> live_connections_{0};
  std::atomic<size_t> next_loop_{0};  ///< Round-robin placement.

  std::thread executor_thread_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<WorkItem> queue_;
  bool executor_stop_ = false;  // set once drain wants the executor out

  // Drain accounting (written by Wait/executor, read by Wait).
  Timer drain_timer_;
  std::atomic<size_t> drained_items_{0};
  std::atomic<size_t> aborted_items_{0};

  /// Request counters indexed by request opcode (see DispatchFrame).
  std::array<obs::CounterId, 10> m_requests_{};
  obs::CounterId m_errors_, m_overloaded_, m_bad_frames_, m_connections_,
      m_stale_admission_, m_accept_errors_;
  obs::GaugeId m_queue_depth_;
  obs::HistogramId m_e2e_query_ms_, m_e2e_batch_ms_, m_e2e_update_ms_,
      m_queue_wait_ms_;
};

}  // namespace fannr::net

#endif  // FANNR_NET_SERVING_CORE_H_
