// FannServer: the FANN_R query engine behind a TCP socket.
//
// A production deployment answers streams of queries arriving over time
// from many clients, interleaved with live weight updates — the setting
// the epoch machinery of src/dynamic/ exists for. The server runs on
// the transport of net/serving_core.h (event loops, bounded admission,
// pipelining, backpressure, drain) and supplies the engine work. Its
// executor is the only thread that touches the BatchQueryEngine or
// applies weight updates: the Graph contract forbids
// ApplyWeightUpdates racing readers, and Run() must not be called
// concurrently. A QUERY burst runs through ONE engine Run — per-job
// results are bitwise-independent of batch composition, so merging
// never changes an answer. The admission epoch is the graph epoch, and
// deadlines count from admission (queue wait is subtracted before the
// engine runs).

#ifndef FANNR_NET_SERVER_H_
#define FANNR_NET_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "engine/batch_engine.h"
#include "net/protocol.h"
#include "net/serving_core.h"

namespace fannr::cont {
class SubscriptionTable;
}  // namespace fannr::cont

namespace fannr::net {

/// The server. Construct, Start(), then Wait() (blocks until a shutdown
/// is requested and the drain completes). `graph` is mutated by
/// UPDATE_WEIGHTS frames and must outlive the server, as must every
/// index inside `resources` (resources.graph must equal `graph`).
class FannServer : public ServingCore {
 public:
  FannServer(Graph* graph, const GphiResources& resources,
             ServerConfig config);
  ~FannServer() override;

  /// Observability snapshot (server registry + engine) as JSON. Safe to
  /// call from any thread; counters may be mid-update while traffic
  /// flows (exact once quiesced).
  std::string StatsJson() const override;

  /// The underlying engine (test/bench access; do not call Run on it
  /// while the server is serving).
  BatchQueryEngine& engine() { return *engine_; }

 private:
  // Executor thread, except AdmissionEpoch.
  uint64_t AdmissionEpoch() const override { return graph_->epoch(); }
  void Execute(const std::vector<WorkItem*>& items) override;

  /// Screens each job (its deadline counted from its timer) and solves
  /// the runnable ones through ONE engine Run tagged `tag`, so
  /// in-process semantics — validation reasons, epoch checks,
  /// fallbacks, tracing — apply verbatim. Jobs screened out at the net
  /// layer (bad ids, unknown enumerators, expired deadlines) carry
  /// their rejection in place.
  std::vector<WireResult> Solve(
      const std::vector<std::pair<const WireQuery*, const Timer*>>& jobs,
      double batch_deadline_ms, std::string_view tag = {});
  /// Screens one wire job; true = appended to `runnable` (with its
  /// vertex sets kept alive in `sets`), false = `*rejected` filled.
  bool ScreenJob(const WireQuery& wire, double batch_deadline_ms,
                 const Timer& e2e_timer,
                 std::vector<std::unique_ptr<IndexedVertexSet>>& sets,
                 std::vector<FannrQuery>& runnable, WireResult* rejected);
  /// One QUERY_RESULT per item of a same-epoch burst.
  void ExecuteQueryBurst(const std::vector<WorkItem*>& items);
  void ExecuteBatch(WorkItem& item);
  /// UPDATE_WEIGHTS, or REPL_APPLY: a positioned replication batch
  /// whose entries apply only when the graph is exactly at the
  /// requested epoch (status 2 otherwise), which keeps every replica
  /// walking the same epoch sequence. Applied batches are appended to
  /// the configured WAL before the response is sent.
  void ExecuteUpdate(WorkItem& item);
  /// Registers a standing query (opcode kSubscribe): screens it, solves
  /// the initial answer, and registers iff that answer is kOk. The
  /// SUBSCRIBE frame's request_id becomes the subscription id.
  void ExecuteSubscribe(WorkItem& item);
  void ExecuteUnsubscribe(WorkItem& item);
  /// Re-solves every live subscription against the current (just
  /// bumped) graph epoch through one tagged engine Run, then pushes the
  /// answers that visibly changed (or all of them, for force_push
  /// subscriptions). Called by the executor right after an applied
  /// weight update, so pushes are solved at exactly the epoch they are
  /// stamped with. A push to a connection whose transmit backlog
  /// exceeds max_outbound_bytes is dropped (conflated: delivery state
  /// does not advance, so the next re-evaluation retries).
  void ReevaluateSubscriptions();
  /// Drops the subscriptions of closed connections.
  void ReapSubscriptions();

  Graph* graph_;
  GphiResources resources_;
  std::unique_ptr<BatchQueryEngine> engine_;
  /// Live standing queries. Executor-thread-only, like the engine.
  std::unique_ptr<cont::SubscriptionTable> subs_;

  obs::CounterId m_pushes_sent_, m_pushes_suppressed_, m_pushes_dropped_;
  obs::GaugeId m_subs_active_;
  obs::HistogramId m_push_latency_ms_;
};

}  // namespace fannr::net

#endif  // FANNR_NET_SERVER_H_
