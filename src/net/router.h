// FannRouter: the multi-node front door for sharded FANN_R serving.
//
// A deployment splits the object set P across N shard servers by the
// G-tree partitioner (net/shard_plan.h); every shard loads the full
// graph and answers FANN queries over its P-subset only. The router
// speaks the same FNRP wire protocol on both sides: clients connect to
// it exactly as they would to a single FannServer, and it fans each
// query out to the shards that own the query's P-candidates, merges the
// per-shard answers with the canonical (distance, vertex id) total
// order, and relays one response. Because every exact solver returns
// the canonical minimum within its P-subset, the min-merge over shards
// reproduces the single-node answer bitwise — the property the 2-shard
// differential test enforces.
//
// Weight updates are replicated, not broadcast: the router forwards
// each batch as REPL_APPLY positioned at the fleet's graph epoch, so
// every replica walks the identical epoch sequence. A replica that
// restarted (epoch behind) answers with a position mismatch instead of
// applying out of order; the router then replays its update history —
// durable in an UpdateWal — from the replica's epoch forward until the
// replica rejoins the fleet epoch. Queries detect stragglers the same
// way: shard answers carrying disagreeing epochs trigger one
// sync-and-retry, and a persistent disagreement is surfaced to the
// client as the engine's mid-batch epoch rejection rather than an
// answer silently mixing weights from different epochs.
//
// Threading: the router runs on the same transport as FannServer
// (net/serving_core.h): a fixed pool of epoll event loops plus one
// executor, whatever the number of client connections, so clients get
// pipelining, backpressure, connection limits and a graceful drain. The
// executor runs the fan-out: a burst of same-epoch QUERY items (from
// any number of connections) goes to the shards as ONE sub-batch per
// shard, while BATCH and UPDATE_WEIGHTS go out one item at a time. It
// is the only thread that touches router state after Start(): one
// FannClient per shard carries fan-out, replication and catch-up alike,
// with no lock. The admission epoch is repl_epoch(), so a query queued
// behind a replicated update is rejected as stale, exactly as on a
// single server, and time spent in the router's queue counts against
// deadlines.

#ifndef FANNR_NET_ROUTER_H_
#define FANNR_NET_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "dynamic/wal.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/serving_core.h"
#include "net/shard_plan.h"
#include "obs/metrics.h"

namespace fannr::net {

/// Where one shard server listens. Index i in RouterConfig::shards is
/// shard id i of the plan.
struct ShardAddress {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

struct RouterConfig {
  std::string host = "127.0.0.1";
  /// Port to listen on; 0 lets the kernel pick (read back via port()).
  uint16_t port = 0;
  std::vector<ShardAddress> shards;
  /// Durable history of replicated update batches. Optional (nullptr =
  /// in-memory history only), but without it a router restart forgets
  /// the updates it replicated and cannot catch restarted replicas up.
  /// Non-owning; must outlive the router.
  dynamic::UpdateWal* wal = nullptr;
};

/// One shard's contribution to a fanned-out query, as the merge sees
/// it. `shard` is the plan's shard id, never an array position — the
/// merge is a function of the set, not the arrival order.
struct ShardAnswer {
  uint32_t shard = 0;
  bool transport_ok = false;  ///< Frame round-tripped and decoded.
  bool is_error = false;      ///< Shard answered with a kError frame.
  ErrorCode error_code = ErrorCode::kNone;
  std::string error_message;
  uint64_t graph_epoch = 0;  ///< Epoch the shard computed under.
  WireResult result;         ///< Valid when transport_ok && !is_error.
};

/// The routers's one merged reply for a fanned-out query.
struct MergedAnswer {
  /// True = answer with a kError frame (code + message below), the
  /// same surface a single FannServer uses for overload and faults.
  bool is_error = false;
  ErrorCode error_code = ErrorCode::kNone;
  std::string error_message;
  /// True when the per-shard answers were computed under different
  /// graph epochs — the result would mix weights, so the caller must
  /// sync + retry (and reject if the disagreement persists).
  bool epochs_disagree = false;
  uint64_t graph_epoch = 0;  ///< Max epoch seen across answers.
  WireResult result;
};

/// Merges per-shard answers of one FANN query whose P was partitioned
/// across the answering shards. Deterministic and order-independent:
/// permuting `answers` never changes the outcome (every selection is by
/// canonical (distance, vertex id) order or lowest shard id).
///
/// Priority, most severe first: any transport failure -> kInternal
/// error; any shard OVERLOADED -> kOverloaded (retryable, so it beats
/// other shard errors); any other shard error -> relayed from the
/// lowest shard id; otherwise epoch disagreement is flagged; then a
/// rejected / timed-out per-job status is relayed (lowest shard id);
/// all-ok merges by canonical order with gphi_evaluations summed.
MergedAnswer MergeShardAnswers(const std::vector<ShardAnswer>& answers);

class FannRouter : public ServingCore {
 public:
  /// `plan.num_shards()` must equal `config.shards.size()`.
  FannRouter(const ShardPlan& plan, const RouterConfig& config);
  ~FannRouter() override;

  /// Connects to every shard, catches stragglers up to the history's
  /// end epoch (replaying the WAL tail when a replica restarted), and
  /// starts accepting clients. False + reason on any failure — all
  /// shards must be reachable at start. Shards are never shut down by
  /// the router — they belong to the operator.
  bool Start(std::string* error);

  /// The fleet's replication position: the epoch every in-sync replica
  /// is at.
  uint64_t repl_epoch() const { return repl_epoch_.load(); }

  /// Router observability snapshot (counters, latency histograms,
  /// replication position) as JSON. Safe to call from any thread.
  std::string StatsJson() const override;

 private:
  /// One job's fan-out assignment: which shards receive which P-subset.
  struct JobSplit {
    /// Parallel vectors: sub_p[i] goes to shard target[i].
    std::vector<uint32_t> targets;
    std::vector<std::vector<uint32_t>> sub_p;
  };

  /// Outcome of fanning a set of jobs out and merging every answer.
  struct FanOutOutcome {
    bool is_error = false;  // batch-level error -> one kError frame
    ErrorCode error_code = ErrorCode::kNone;
    std::string error_message;
    bool epochs_disagree = false;
    uint64_t graph_epoch = 0;
    std::vector<WireResult> results;  // per job, when !is_error
  };

  // Executor thread, except AdmissionEpoch.
  uint64_t AdmissionEpoch() const override { return repl_epoch_.load(); }
  void Execute(const std::vector<WorkItem*>& items) override;

  /// Charges each job's wait in the router queue against its deadline
  /// (`waited_ms[j]`), fans the unexpired jobs out with the deadline
  /// they have left, and answers expired ones kTimedOut in place.
  FanOutOutcome Route(std::vector<WireQuery> jobs, double batch_deadline_ms,
                      const std::vector<double>& waited_ms);

  JobSplit SplitJob(const WireQuery& job) const;
  FanOutOutcome FanOutOnce(const std::vector<WireQuery>& jobs);
  /// FanOutOnce plus the stale-replica protocol: on epoch disagreement,
  /// sync every shard and retry once; a persistent disagreement rejects
  /// every job with the engine's mid-batch epoch error.
  FanOutOutcome FanOut(const std::vector<WireQuery>& jobs);

  /// Replicates one UPDATE_WEIGHTS batch to every shard (REPL_APPLY at
  /// the current fleet epoch), appends it to the history, advances the
  /// fleet epoch, and answers. Unreachable shards are skipped — they
  /// catch up from the history when they return.
  void HandleUpdate(WorkItem& item);

  /// Brings every reachable shard to repl_epoch_. Used by the query
  /// path when shard answers disagree.
  void SyncShards();

  /// Connects shard `shard`'s client if it is not connected.
  bool EnsureClient(size_t shard);
  bool CatchUpShard(size_t shard, std::string* error);

  /// Every replicated batch, in order: the WAL's records when a WAL is
  /// configured, else the in-memory history_.
  const std::vector<dynamic::WalRecord>& history() const {
    return wal_ != nullptr ? wal_->records() : history_;
  }

  const ShardPlan& plan_;
  const std::vector<ShardAddress> shards_;
  dynamic::UpdateWal* const wal_;

  /// One client per shard, for fan-out and replication alike.
  /// Executor-thread-only after Start().
  std::vector<FannClient> clients_;
  /// Replication history when no WAL is configured.
  std::vector<dynamic::WalRecord> history_;
  std::atomic<uint64_t> repl_epoch_{0};

  obs::CounterId m_fanouts_;
  obs::CounterId m_retries_;
  obs::CounterId m_stale_rejections_;
  obs::CounterId m_catch_up_records_;
  obs::CounterId m_shard_errors_;
};

}  // namespace fannr::net

#endif  // FANNR_NET_ROUTER_H_
