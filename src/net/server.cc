#include "net/server.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "cont/subscription.h"
#include "dynamic/update.h"
#include "dynamic/wal.h"

namespace fannr::net {

FannServer::FannServer(Graph* graph, const GphiResources& resources,
                       ServerConfig config)
    : ServingCore("server", std::move(config)),
      graph_(graph),
      resources_(resources) {
  FANNR_CHECK(graph_ != nullptr && resources_.graph == graph_);
  // STATS, the slow-query log, and drain reporting all read the engine's
  // observation state; the server runs with it on unconditionally.
  config_.engine_options.enable_metrics = true;
  engine_ = std::make_unique<BatchQueryEngine>(resources_,
                                               config_.engine_options);
  subs_ = std::make_unique<cont::SubscriptionTable>(
      config_.max_subscriptions_per_connection,
      config_.max_subscriptions_total);

  m_pushes_sent_ = metrics_.RegisterCounter("server.pushes.sent");
  m_pushes_suppressed_ = metrics_.RegisterCounter("server.pushes.suppressed");
  m_pushes_dropped_ =
      metrics_.RegisterCounter("server.pushes.dropped_backpressure");
  m_subs_active_ = metrics_.RegisterGauge("server.subscriptions.active");
  m_push_latency_ms_ = metrics_.RegisterHistogram(
      "server.push_latency_ms", obs::DefaultLatencyBucketsMs());
}

FannServer::~FannServer() { Stop(); }

void FannServer::Execute(const std::vector<WorkItem*>& items) {
  WorkItem& item = *items.front();
  switch (item.opcode) {
    case Opcode::kQuery:
      ExecuteQueryBurst(items);
      break;
    case Opcode::kBatch:
      ExecuteBatch(item);
      break;
    case Opcode::kUpdateWeights:
    case Opcode::kReplApply:
      ExecuteUpdate(item);
      break;
    case Opcode::kSubscribe:
      ExecuteSubscribe(item);
      break;
    case Opcode::kUnsubscribe:
      ExecuteUnsubscribe(item);
      break;
    default:
      break;
  }
}

bool FannServer::ScreenJob(const WireQuery& wire, double batch_deadline_ms,
                           const Timer& e2e_timer,
                           std::vector<std::unique_ptr<IndexedVertexSet>>& sets,
                           std::vector<FannrQuery>& runnable,
                           WireResult* rejected) {
  if (wire.algorithm > static_cast<uint8_t>(FannAlgorithm::kApxSum)) {
    *rejected = RejectedWire("unknown algorithm enumerator " +
                             std::to_string(wire.algorithm));
    return false;
  }
  if (wire.aggregate > static_cast<uint8_t>(Aggregate::kSum)) {
    *rejected = RejectedWire("unknown aggregate enumerator " +
                             std::to_string(wire.aggregate));
    return false;
  }
  // Vertex ids are untrusted: any violation becomes a kRejected
  // result, never UB, mirroring in-process screening.
  const size_t num_vertices = graph_->NumVertices();
  auto screen = [&](const std::vector<uint32_t>& ids, const char* which)
      -> std::string {
    for (uint32_t id : ids) {
      if (id >= num_vertices) {
        return std::string(which) + " vertex id " + std::to_string(id) +
               " out of range (graph has " + std::to_string(num_vertices) +
               " vertices)";
      }
    }
    std::vector<uint32_t> sorted(ids);
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      return std::string(which) + " contains a duplicate vertex id";
    }
    return std::string();
  };
  std::string error = screen(wire.p, "data point set P");
  if (error.empty()) error = screen(wire.q, "query point set Q");
  if (!error.empty()) {
    *rejected = RejectedWire(std::move(error));
    return false;
  }
  // End-to-end: the time already spent queued counts against the
  // deadline; the engine measures the rest from Run() entry.
  double remaining_ms = 0.0;
  if (!ChargeQueueWait(wire.deadline_ms, batch_deadline_ms,
                       config_.default_deadline_ms, e2e_timer.Millis(),
                       &remaining_ms, rejected)) {
    return false;
  }

  sets.push_back(std::make_unique<IndexedVertexSet>(
      num_vertices, std::vector<VertexId>(wire.p.begin(), wire.p.end())));
  sets.push_back(std::make_unique<IndexedVertexSet>(
      num_vertices, std::vector<VertexId>(wire.q.begin(), wire.q.end())));
  FannrQuery job;
  job.query.graph = graph_;
  job.query.data_points = sets[sets.size() - 2].get();
  job.query.query_points = sets.back().get();
  job.query.phi = wire.phi;
  job.query.aggregate = static_cast<Aggregate>(wire.aggregate);
  // Weights point into the wire request, which outlives the engine Run
  // at every call site (the WorkItem for one-shot work, the
  // subscription table entry for re-evaluations). Value validation
  // (finite, > 0, |Q|-sized) is the engine's screening, so weighted
  // wire jobs reject with the same reasons in-process callers see.
  if (!wire.weights.empty()) job.query.weights = &wire.weights;
  job.algorithm = static_cast<FannAlgorithm>(wire.algorithm);
  if (remaining_ms > 0.0) job.deadline_ms = remaining_ms;
  runnable.push_back(job);
  return true;
}

std::vector<WireResult> FannServer::Solve(
    const std::vector<std::pair<const WireQuery*, const Timer*>>& jobs,
    double batch_deadline_ms, std::string_view tag) {
  std::vector<WireResult> results(jobs.size());
  std::vector<std::unique_ptr<IndexedVertexSet>> sets;
  std::vector<FannrQuery> runnable;
  std::vector<size_t> runnable_slot;
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (ScreenJob(*jobs[i].first, batch_deadline_ms, *jobs[i].second, sets,
                  runnable, &results[i])) {
      runnable_slot.push_back(i);
    }
  }
  if (!runnable.empty()) {
    const std::vector<FannResult> solved = engine_->Run(runnable, tag);
    for (size_t j = 0; j < solved.size(); ++j) {
      results[runnable_slot[j]] = ToWire(solved[j]);
    }
  }
  return results;
}

void FannServer::ExecuteQueryBurst(const std::vector<WorkItem*>& items) {
  std::vector<std::pair<const WireQuery*, const Timer*>> jobs;
  jobs.reserve(items.size());
  for (const WorkItem* item : items) {
    jobs.emplace_back(&item->query.query, &item->e2e_timer);
  }
  std::vector<WireResult> results = Solve(jobs, /*batch_deadline_ms=*/0.0);
  for (size_t i = 0; i < items.size(); ++i) {
    QueryResponse response;
    response.graph_epoch = graph_->epoch();
    response.result = std::move(results[i]);
    EnqueueFrame(items[i]->conn, Opcode::kQueryResult, items[i]->request_id,
                 EncodeQueryResponse(response));
  }
}

void FannServer::ExecuteBatch(WorkItem& item) {
  std::vector<std::pair<const WireQuery*, const Timer*>> jobs;
  jobs.reserve(item.batch.jobs.size());
  for (const WireQuery& job : item.batch.jobs) {
    jobs.emplace_back(&job, &item.e2e_timer);
  }
  BatchResponse response;
  response.graph_epoch = graph_->epoch();
  response.results = Solve(jobs, item.batch.deadline_ms);
  EnqueueFrame(item.conn, Opcode::kBatchResult, item.request_id,
               EncodeBatchResponse(response));
}

void FannServer::ExecuteUpdate(WorkItem& item) {
  const bool repl = item.opcode == Opcode::kReplApply;
  const std::vector<UpdateWeightsRequest::Entry>& entries =
      repl ? item.repl.entries : item.update.entries;
  UpdateWeightsResponse response;
  const GraphEpoch now = graph_->epoch();
  if (repl && now != item.repl.position) {
    // Out-of-position batch: applying it would fork this replica's
    // weight history from the others'. Refuse and report where we are;
    // the sender decides whether to rewind or catch us up.
    response.status = 2;
    response.new_epoch = now;
    response.error = "replication position " +
                     std::to_string(item.repl.position) +
                     " does not match graph epoch " + std::to_string(now);
  } else if (repl && entries.empty()) {
    // Pure position probe: confirm without touching the graph.
    response.status = 0;
    response.old_epoch = now;
    response.new_epoch = now;
  } else {
    dynamic::UpdateBatch batch;
    for (const UpdateWeightsRequest::Entry& e : entries) {
      batch.SetWeight(e.u, e.v, e.weight);
    }
    // Screen before Apply — Apply aborts on invalid entries by
    // contract, and frames are untrusted input.
    const std::string error = batch.ValidationError(*graph_);
    if (!error.empty()) {
      response.status = 1;
      response.error = error;
    } else {
      // Safe to mutate: the executor is the only thread running
      // queries, so no reader can race this apply (Graph's contract).
      const dynamic::ApplyResult applied = batch.Apply(*graph_);
      response.status = 0;
      response.applied = applied.applied;
      response.missing = applied.missing;
      response.old_epoch = applied.old_epoch;
      response.new_epoch = applied.new_epoch;
      if (config_.wal != nullptr) {
        dynamic::WalRecord record;
        record.position = applied.old_epoch;
        record.new_epoch = applied.new_epoch;
        for (const UpdateWeightsRequest::Entry& e : entries) {
          record.entries.push_back({e.u, e.v, e.weight});
        }
        // Durability failure is not an answer-path failure: the batch
        // IS applied; a lost record only costs replay depth after a
        // crash.
        (void)config_.wal->Append(record);
      }
    }
  }
  EnqueueFrame(item.conn,
               repl ? Opcode::kReplApplyResult : Opcode::kUpdateResult,
               item.request_id, EncodeUpdateWeightsResponse(response));
  // Standing queries re-solve against the new epoch after the updater's
  // ACK is already on its way out; replicated updates drive them
  // exactly like direct ones.
  if (response.status == 0 && response.new_epoch != response.old_epoch) {
    ReevaluateSubscriptions();
  }
}

void FannServer::ExecuteSubscribe(WorkItem& item) {
  // Judge limits against live connections only: a subscriber that
  // reconnects should not be blocked by its dead predecessor's slots.
  ReapSubscriptions();
  if ((config_.max_subscriptions_total != 0 &&
       subs_->size() >= config_.max_subscriptions_total) ||
      (config_.max_subscriptions_per_connection != 0 &&
       subs_->OwnerCount(item.conn.get()) >=
           config_.max_subscriptions_per_connection)) {
    EnqueueError(item.conn, item.request_id, ErrorCode::kOverloaded,
                 "subscription limit reached — unsubscribe or retry later");
    return;
  }
  if (subs_->Find(item.conn.get(), item.request_id) != nullptr) {
    EnqueueError(item.conn, item.request_id, ErrorCode::kMalformedPayload,
                 "subscription id " + std::to_string(item.request_id) +
                     " is already live on this connection");
    return;
  }

  // Initial answer, solved at the current epoch (a standing query has
  // no stale-admission contract — its whole point is to track epochs).
  SubscribeResponse response;
  response.graph_epoch = graph_->epoch();
  response.result = std::move(Solve({{&item.subscribe.query, &item.e2e_timer}},
                                    /*batch_deadline_ms=*/0.0,
                                    "subscription-initial")[0]);

  // Registration succeeds iff the initial answer is kOk, so the client
  // reads the outcome off the SUBSCRIBE_RESULT status alone: a rejected
  // or timed-out initial solve refuses the subscription outright rather
  // than standing up a query that can never push.
  if (response.result.status == static_cast<uint8_t>(QueryStatus::kOk)) {
    cont::Subscription sub;
    sub.id = item.request_id;
    sub.owner = item.conn;
    sub.query = std::move(item.subscribe.query);
    sub.force_push = item.subscribe.force_push != 0;
    sub.has_last = true;  // the initial answer counts as a delivery
    sub.last = response.result;
    sub.last_epoch = response.graph_epoch;
    const cont::SubscribeOutcome outcome = subs_->Add(std::move(sub));
    FANNR_CHECK(outcome == cont::SubscribeOutcome::kOk);
    metrics_.Set(m_subs_active_, static_cast<double>(subs_->size()));
  }
  EnqueueFrame(item.conn, Opcode::kSubscribeResult, item.request_id,
               EncodeSubscribeResponse(response));
}

void FannServer::ExecuteUnsubscribe(WorkItem& item) {
  cont::Subscription removed;
  UnsubscribeResponse response;
  if (subs_->Remove(item.conn.get(), item.unsubscribe.subscription_id,
                    &removed)) {
    response.status = 0;
    response.pushes_sent = removed.pushes_sent;
  } else {
    response.status = 1;
  }
  metrics_.Set(m_subs_active_, static_cast<double>(subs_->size()));
  EnqueueFrame(item.conn, Opcode::kUnsubscribeResult, item.request_id,
               EncodeUnsubscribeResponse(response));
}

void FannServer::ReapSubscriptions() {
  subs_->Reap([](const std::shared_ptr<void>& owner) {
    return IsOpen(*static_cast<const Connection*>(owner.get()));
  });
  metrics_.Set(m_subs_active_, static_cast<double>(subs_->size()));
}

void FannServer::ReevaluateSubscriptions() {
  // Connections close on their loops at any time; their subscriptions
  // die here, before the batch is assembled.
  ReapSubscriptions();
  if (subs_->empty()) return;

  Timer push_timer;  // epoch bump (just happened) -> push enqueue
  const GraphEpoch now = graph_->epoch();
  std::vector<cont::Subscription>& all = subs_->subscriptions();

  // One merged engine Run over every live subscription: burst merging
  // and the shared distance cache amortize across subscribers exactly
  // as they do across pipelined one-shot queries. Composition cannot
  // change any answer (the engine's determinism contract), so a pushed
  // answer is bitwise what a lone solve at this epoch would produce.
  const Timer reeval_timer;  // deadlines (if configured) start here
  std::vector<std::pair<const WireQuery*, const Timer*>> jobs;
  jobs.reserve(all.size());
  for (const cont::Subscription& sub : all) {
    jobs.emplace_back(&sub.query, &reeval_timer);
  }
  std::vector<WireResult> results =
      Solve(jobs, /*batch_deadline_ms=*/0.0, "subscription-reeval");

  for (size_t i = 0; i < all.size(); ++i) {
    cont::Subscription& sub = all[i];
    WireResult& result = results[i];
    // Delta semantics: an answer the client already has is not pushed
    // (work counters excluded from the comparison — identical answers
    // can cost different work at different epochs).
    if (!sub.force_push && sub.has_last &&
        SameVisibleAnswer(result, sub.last)) {
      ++sub.pushes_suppressed;
      metrics_.Add(m_pushes_suppressed_, 1);
      continue;
    }
    PushAnswer push;
    push.graph_epoch = now;
    push.result = result;
    const auto conn = std::static_pointer_cast<Connection>(sub.owner);
    if (!TryEnqueueFrame(conn, Opcode::kPushAnswer, sub.id,
                         EncodePushAnswer(push))) {
      // Conflated, not lost: delivery state stays put, so the next
      // re-evaluation sees the answer as still-undelivered and retries
      // once the backlog drains.
      ++sub.pushes_dropped_backpressure;
      metrics_.Add(m_pushes_dropped_, 1);
      continue;
    }
    ++sub.pushes_sent;
    metrics_.Add(m_pushes_sent_, 1);
    metrics_.Record(m_push_latency_ms_, push_timer.Millis());
    sub.has_last = true;
    sub.last = std::move(result);
    sub.last_epoch = now;
  }
}

std::string FannServer::StatsJson() const {
  const SourceDistanceCache::Stats cache = engine_->cache_stats();
  std::string out = "{\n  \"server\": " + MetricsJson() + ",\n";
  out += "  \"graph_epoch\": " + std::to_string(graph_->epoch()) + ",\n";
  out += "  \"draining\": " + std::string(draining() ? "true" : "false") +
         ",\n";
  out += "  \"cache\": {\"hits\": " + std::to_string(cache.hits) +
         ", \"misses\": " + std::to_string(cache.misses) +
         ", \"evictions\": " + std::to_string(cache.evictions) +
         ", \"epoch_evictions\": " + std::to_string(cache.epoch_evictions) +
         "}\n}";
  return out;
}

}  // namespace fannr::net
