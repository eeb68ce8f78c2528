#include "net/router.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "engine/batch_engine.h"
#include "fann/query.h"

namespace fannr::net {

namespace {

/// Canonical total order over feasible answers: the exact solvers all
/// return the (distance, vertex id)-minimal answer within their P, so
/// the same comparison over the shard winners reproduces the
/// single-node answer bitwise. An infeasible answer (best ==
/// kInvalidVertex) loses to any feasible one.
bool AnswerBeats(const WireResult& a, const WireResult& b) {
  const bool a_feasible = a.best != 0xFFFFFFFFu;
  const bool b_feasible = b.best != 0xFFFFFFFFu;
  if (a_feasible != b_feasible) return a_feasible;
  if (!a_feasible) return false;  // both infeasible: equivalent
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.best < b.best;
}

}  // namespace

MergedAnswer MergeShardAnswers(const std::vector<ShardAnswer>& answers) {
  FANNR_CHECK(!answers.empty());
  MergedAnswer merged;

  // Severity scan, all selections by lowest shard id so that the merge
  // is a pure function of the answer *set*.
  const ShardAnswer* transport_failed = nullptr;
  const ShardAnswer* overloaded = nullptr;
  const ShardAnswer* other_error = nullptr;
  for (const ShardAnswer& a : answers) {
    if (!a.transport_ok) {
      if (transport_failed == nullptr || a.shard < transport_failed->shard) {
        transport_failed = &a;
      }
    } else if (a.is_error) {
      if (a.error_code == ErrorCode::kOverloaded) {
        if (overloaded == nullptr || a.shard < overloaded->shard) {
          overloaded = &a;
        }
      } else if (other_error == nullptr || a.shard < other_error->shard) {
        other_error = &a;
      }
    }
  }
  if (transport_failed != nullptr) {
    merged.is_error = true;
    merged.error_code = ErrorCode::kInternal;
    merged.error_message =
        "shard " + std::to_string(transport_failed->shard) +
        " unreachable: " + transport_failed->error_message;
    return merged;
  }
  if (overloaded != nullptr) {
    merged.is_error = true;
    merged.error_code = ErrorCode::kOverloaded;
    merged.error_message = overloaded->error_message;
    return merged;
  }
  if (other_error != nullptr) {
    merged.is_error = true;
    merged.error_code = other_error->error_code;
    merged.error_message = "shard " + std::to_string(other_error->shard) +
                           ": " + other_error->error_message;
    return merged;
  }

  uint64_t min_epoch = answers.front().graph_epoch;
  uint64_t max_epoch = answers.front().graph_epoch;
  for (const ShardAnswer& a : answers) {
    min_epoch = std::min(min_epoch, a.graph_epoch);
    max_epoch = std::max(max_epoch, a.graph_epoch);
  }
  merged.graph_epoch = max_epoch;
  merged.epochs_disagree = min_epoch != max_epoch;

  // Per-job status: a rejection or timeout anywhere poisons the job
  // (the winner could be hiding in the failed shard's P-subset).
  const ShardAnswer* rejected = nullptr;
  const ShardAnswer* timed_out = nullptr;
  for (const ShardAnswer& a : answers) {
    const auto status = static_cast<QueryStatus>(a.result.status);
    if (status == QueryStatus::kRejected) {
      if (rejected == nullptr || a.shard < rejected->shard) rejected = &a;
    } else if (status == QueryStatus::kTimedOut) {
      if (timed_out == nullptr || a.shard < timed_out->shard) timed_out = &a;
    }
  }
  if (rejected != nullptr) {
    merged.result = rejected->result;
    return merged;
  }
  if (timed_out != nullptr) {
    merged.result = timed_out->result;
    return merged;
  }

  // All ok: canonical minimum across the shard winners, work summed.
  const ShardAnswer* best = &answers.front();
  uint64_t gphi = 0;
  for (const ShardAnswer& a : answers) {
    gphi += a.result.gphi_evaluations;
    if (AnswerBeats(a.result, best->result)) best = &a;
  }
  merged.result = best->result;
  merged.result.gphi_evaluations = gphi;
  return merged;
}

namespace {

/// The router's transport: the listen address, core defaults otherwise.
ServerConfig ListenAt(const RouterConfig& config) {
  ServerConfig serving;
  serving.host = config.host;
  serving.port = config.port;
  return serving;
}

}  // namespace

FannRouter::FannRouter(const ShardPlan& plan, const RouterConfig& config)
    : ServingCore("router", ListenAt(config)),
      plan_(plan),
      shards_(config.shards),
      wal_(config.wal) {
  m_fanouts_ = metrics_.RegisterCounter("router.fanout.sub_batches");
  m_retries_ = metrics_.RegisterCounter("router.fanout.epoch_retries");
  m_stale_rejections_ = metrics_.RegisterCounter("router.stale_rejections");
  m_catch_up_records_ = metrics_.RegisterCounter("router.catch_up.records");
  m_shard_errors_ = metrics_.RegisterCounter("router.shard_errors");
}

FannRouter::~FannRouter() { Stop(); }

bool FannRouter::Start(std::string* error) {
  auto fail = [&](const std::string& reason) {
    if (error != nullptr) *error = reason;
    return false;
  };
  if (shards_.size() != plan_.num_shards()) {
    return fail("router config lists " + std::to_string(shards_.size()) +
                " shards but the plan has " +
                std::to_string(plan_.num_shards()));
  }

  // Adopt the durable history: the fleet position is wherever the last
  // acknowledged update left it.
  if (wal_ != nullptr) repl_epoch_.store(wal_->end_epoch());

  // Every shard must be reachable at start, and none may be ahead of
  // the history (an ahead shard means this router's history is stale —
  // serving through it would silently fork the epoch sequence).
  clients_.resize(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::string catch_up_error;
    if (!EnsureClient(s)) {
      return fail("shard " + std::to_string(s) + " at " + shards_[s].host +
                  ":" + std::to_string(shards_[s].port) + " is unreachable");
    }
    if (!CatchUpShard(s, &catch_up_error)) {
      return fail("shard " + std::to_string(s) +
                  " could not be brought to epoch " +
                  std::to_string(repl_epoch_.load()) + ": " + catch_up_error);
    }
  }
  std::string listen_error;
  if (!ServingCore::Start(&listen_error)) {
    return fail("listen failed: " + listen_error);
  }
  return true;
}

void FannRouter::Execute(const std::vector<WorkItem*>& items) {
  WorkItem& first = *items.front();
  switch (first.opcode) {
    case Opcode::kQuery: {
      // The burst fans out as one sub-batch per shard; every query
      // keeps its own deadline, less its own wait in the queue.
      std::vector<WireQuery> jobs;
      std::vector<double> waited_ms;
      jobs.reserve(items.size());
      waited_ms.reserve(items.size());
      for (WorkItem* item : items) {
        jobs.push_back(std::move(item->query.query));
        waited_ms.push_back(item->e2e_timer.Millis());
      }
      const FanOutOutcome outcome =
          Route(std::move(jobs), /*batch_deadline_ms=*/0.0, waited_ms);
      for (size_t i = 0; i < items.size(); ++i) {
        if (outcome.is_error) {
          EnqueueError(items[i]->conn, items[i]->request_id,
                       outcome.error_code, outcome.error_message);
          continue;
        }
        QueryResponse response;
        response.graph_epoch = outcome.graph_epoch;
        response.result = outcome.results[i];
        EnqueueFrame(items[i]->conn, Opcode::kQueryResult,
                     items[i]->request_id, EncodeQueryResponse(response));
      }
      return;
    }
    case Opcode::kBatch: {
      const std::vector<double> waited_ms(first.batch.jobs.size(),
                                          first.e2e_timer.Millis());
      FanOutOutcome outcome = Route(std::move(first.batch.jobs),
                                    first.batch.deadline_ms, waited_ms);
      if (outcome.is_error) {
        EnqueueError(first.conn, first.request_id, outcome.error_code,
                     outcome.error_message);
        return;
      }
      BatchResponse response;
      response.graph_epoch = outcome.graph_epoch;
      response.results = std::move(outcome.results);
      EnqueueFrame(first.conn, Opcode::kBatchResult, first.request_id,
                   EncodeBatchResponse(response));
      return;
    }
    case Opcode::kUpdateWeights:
      HandleUpdate(first);
      return;
    default:
      // Replication is router -> shard (a client replicating through
      // the router would fork the epoch sequence), and standing queries
      // are a single server's feature.
      EnqueueError(first.conn, first.request_id, ErrorCode::kUnknownOpcode,
                   std::string(OpcodeName(
                       static_cast<uint16_t>(first.opcode))) +
                       " is not served by the router");
      return;
  }
}

FannRouter::FanOutOutcome FannRouter::Route(
    std::vector<WireQuery> jobs, double batch_deadline_ms,
    const std::vector<double>& waited_ms) {
  std::vector<WireResult> expired(jobs.size());
  std::vector<WireQuery> live;
  std::vector<size_t> live_slot;
  live.reserve(jobs.size());
  live_slot.reserve(jobs.size());
  for (size_t j = 0; j < jobs.size(); ++j) {
    double remaining_ms = 0.0;
    if (!ChargeQueueWait(jobs[j].deadline_ms, batch_deadline_ms,
                         /*default_ms=*/0.0, waited_ms[j], &remaining_ms,
                         &expired[j])) {
      continue;
    }
    // A job with no deadline keeps its own field, so the shard applies
    // its default exactly as it would for a direct client.
    if (remaining_ms > 0.0) jobs[j].deadline_ms = remaining_ms;
    live.push_back(std::move(jobs[j]));
    live_slot.push_back(j);
  }

  FanOutOutcome outcome;
  outcome.graph_epoch = repl_epoch_.load();
  if (!live.empty()) {
    outcome = FanOut(live);
    if (outcome.is_error) return outcome;
  }
  std::vector<WireResult> results = std::move(expired);
  for (size_t k = 0; k < live_slot.size(); ++k) {
    results[live_slot[k]] = std::move(outcome.results[k]);
  }
  outcome.results = std::move(results);
  return outcome;
}

FannRouter::JobSplit FannRouter::SplitJob(const WireQuery& job) const {
  JobSplit split;
  // Jobs the plan cannot place — empty P or ids outside the graph —
  // pass through to shard 0 whole, so the client sees the identical
  // screening rejection a single server would produce.
  bool splittable = !job.p.empty();
  for (uint32_t v : job.p) {
    if (v >= plan_.num_vertices()) splittable = false;
  }
  if (!splittable) {
    split.targets.push_back(0);
    split.sub_p.push_back(job.p);
    return split;
  }
  std::vector<std::vector<uint32_t>> parts = plan_.SplitByShard(job.p);
  for (uint32_t s = 0; s < parts.size(); ++s) {
    if (parts[s].empty()) continue;
    split.targets.push_back(s);
    split.sub_p.push_back(std::move(parts[s]));
  }
  return split;
}

FannRouter::FanOutOutcome FannRouter::FanOutOnce(
    const std::vector<WireQuery>& jobs) {
  FanOutOutcome outcome;
  const size_t num_shards = shards_.size();

  // Build one sub-batch per shard: job j contributes its shard-owned
  // P-slice to every shard that owns part of its P. Every job carries
  // its own deadline, so the sub-batches carry none.
  std::vector<BatchRequest> sub_batches(num_shards);
  std::vector<std::vector<size_t>> sub_jobs(num_shards);  // -> job index
  std::vector<size_t> fan_degree(jobs.size(), 0);
  for (size_t j = 0; j < jobs.size(); ++j) {
    const JobSplit split = SplitJob(jobs[j]);
    for (size_t i = 0; i < split.targets.size(); ++i) {
      const uint32_t s = split.targets[i];
      WireQuery sub = jobs[j];
      sub.p = split.sub_p[i];
      sub_batches[s].jobs.push_back(std::move(sub));
      sub_jobs[s].push_back(j);
      ++fan_degree[j];
    }
  }

  // Write every sub-batch before reading any response: the shards
  // solve concurrently while the router waits.
  struct ShardWave {
    uint32_t shard = 0;
    uint64_t request_id = 0;
    bool sent = false;
    ShardAnswer batch_level;  // transport / error-frame outcome
    BatchResponse response;
  };
  std::vector<ShardWave> wave;
  for (uint32_t s = 0; s < num_shards; ++s) {
    if (sub_batches[s].jobs.empty()) continue;
    ShardWave w;
    w.shard = s;
    w.batch_level.shard = s;
    FannClient& client = clients_[s];
    if (!EnsureClient(s)) {
      w.batch_level.transport_ok = false;
      w.batch_level.error_message = client.last_error();
      wave.push_back(std::move(w));
      continue;
    }
    if (!client.SendBatch(sub_batches[s], &w.request_id)) {
      w.batch_level.transport_ok = false;
      w.batch_level.error_message = client.last_error();
      client.Close();
      wave.push_back(std::move(w));
      continue;
    }
    w.sent = true;
    metrics_.Add(m_fanouts_, 1);
    wave.push_back(std::move(w));
  }

  for (ShardWave& w : wave) {
    if (!w.sent) continue;
    FannClient& client = clients_[w.shard];
    FrameHeader header;
    std::vector<uint8_t> payload;
    bool got = false;
    while (client.ReadAny(header, payload)) {
      if (header.request_id != w.request_id) continue;  // stray frame
      got = true;
      break;
    }
    if (!got) {
      w.batch_level.transport_ok = false;
      w.batch_level.error_message = client.last_error();
      client.Close();
      continue;
    }
    w.batch_level.transport_ok = true;
    if (static_cast<Opcode>(header.opcode) == Opcode::kError) {
      ErrorResponse err;
      if (DecodeErrorResponse(payload, err)) {
        w.batch_level.is_error = true;
        w.batch_level.error_code = err.code;
        w.batch_level.error_message = std::move(err.message);
      } else {
        w.batch_level.transport_ok = false;
        w.batch_level.error_message = "undecodable error frame";
        client.Close();
      }
      continue;
    }
    if (!DecodeBatchResponse(payload, w.response) ||
        w.response.results.size() != sub_batches[w.shard].jobs.size()) {
      w.batch_level.transport_ok = false;
      w.batch_level.error_message = "undecodable BATCH_RESULT payload";
      client.Close();
      continue;
    }
    w.batch_level.graph_epoch = w.response.graph_epoch;
  }

  // Batch-level severity first: a transport failure or an error frame
  // (overload, drain) anywhere fails the whole request, exactly as a
  // single server fails the whole batch with one kError frame.
  {
    std::vector<ShardAnswer> batch_level;
    batch_level.reserve(wave.size());
    for (const ShardWave& w : wave) batch_level.push_back(w.batch_level);
    if (!batch_level.empty()) {
      const MergedAnswer verdict = MergeShardAnswers(batch_level);
      if (verdict.is_error) {
        metrics_.Add(m_shard_errors_, 1);
        outcome.is_error = true;
        outcome.error_code = verdict.error_code;
        outcome.error_message = verdict.error_message;
        return outcome;
      }
      outcome.graph_epoch = verdict.graph_epoch;
      outcome.epochs_disagree = verdict.epochs_disagree;
    }
  }

  // Per-job canonical merge.
  outcome.results.resize(jobs.size());
  std::vector<std::vector<ShardAnswer>> per_job(jobs.size());
  for (size_t j = 0; j < jobs.size(); ++j) per_job[j].reserve(fan_degree[j]);
  for (const ShardWave& w : wave) {
    for (size_t i = 0; i < sub_jobs[w.shard].size(); ++i) {
      ShardAnswer a;
      a.shard = w.shard;
      a.transport_ok = true;
      a.graph_epoch = w.response.graph_epoch;
      a.result = w.response.results[i];
      per_job[sub_jobs[w.shard][i]].push_back(std::move(a));
    }
  }
  for (size_t j = 0; j < jobs.size(); ++j) {
    FANNR_CHECK(!per_job[j].empty());
    outcome.results[j] = MergeShardAnswers(per_job[j]).result;
  }
  return outcome;
}

FannRouter::FanOutOutcome FannRouter::FanOut(
    const std::vector<WireQuery>& jobs) {
  const uint64_t admitted = repl_epoch_.load();
  FanOutOutcome outcome = FanOutOnce(jobs);
  if (outcome.is_error || !outcome.epochs_disagree) return outcome;

  // Shards answered under different epochs: a straggler replica (or an
  // update racing the fan-out). Bring the fleet back in step and retry
  // once; if the disagreement persists, reject rather than return a
  // result mixing weights from different epochs.
  metrics_.Add(m_retries_, 1);
  SyncShards();
  outcome = FanOutOnce(jobs);
  if (outcome.is_error || !outcome.epochs_disagree) return outcome;

  metrics_.Add(m_stale_rejections_, 1);
  const std::string reason = MidBatchEpochError(admitted, outcome.graph_epoch);
  for (WireResult& result : outcome.results) result = RejectedWire(reason);
  outcome.epochs_disagree = false;
  return outcome;
}

bool FannRouter::EnsureClient(size_t shard) {
  FannClient& client = clients_[shard];
  if (client.connected()) return true;
  return client.Connect(shards_[shard].host, shards_[shard].port);
}

bool FannRouter::CatchUpShard(size_t shard, std::string* error) {
  auto fail = [&](const std::string& reason) {
    if (error != nullptr) *error = reason;
    metrics_.Add(m_shard_errors_, 1);
    return false;
  };
  if (!EnsureClient(shard)) {
    return fail("unreachable");
  }
  FannClient& client = clients_[shard];

  // An empty REPL_APPLY is a pure position probe: status 0 means the
  // shard is exactly at the fleet epoch, status 2 reports where it
  // actually is.
  ReplApplyRequest probe;
  probe.position = repl_epoch_.load();
  UpdateWeightsResponse response;
  if (!client.ReplApply(probe, response)) {
    client.Close();
    return fail("position probe failed: " + client.last_error());
  }
  if (response.status == 0) return true;
  if (response.status != 2) {
    return fail("position probe rejected: " + response.error);
  }
  const uint64_t shard_epoch = response.new_epoch;
  if (shard_epoch > repl_epoch_.load()) {
    return fail("replica is at epoch " + std::to_string(shard_epoch) +
                ", ahead of the router history (epoch " +
                std::to_string(repl_epoch_.load()) +
                ") — this router's WAL is stale");
  }

  // Replay the history tail from the replica's epoch forward. Records
  // below its epoch are already part of its past; everything at or
  // above replays in order and walks it to the fleet epoch.
  size_t replayed = 0;
  for (const dynamic::WalRecord& record : history()) {
    if (record.position < shard_epoch) continue;
    ReplApplyRequest apply;
    apply.position = record.position;
    apply.entries.reserve(record.entries.size());
    for (const dynamic::WalRecord::Entry& e : record.entries) {
      apply.entries.push_back({e.u, e.v, e.weight});
    }
    UpdateWeightsResponse applied;
    if (!client.ReplApply(apply, applied)) {
      client.Close();
      return fail("catch-up replay failed: " + client.last_error());
    }
    if (applied.status != 0) {
      return fail("catch-up replay of position " +
                  std::to_string(record.position) +
                  " rejected: " + applied.error);
    }
    ++replayed;
  }
  metrics_.Add(m_catch_up_records_, replayed);

  // The tail must have landed the replica on the fleet epoch.
  if (!client.ReplApply(probe, response)) {
    client.Close();
    return fail("post-replay probe failed: " + client.last_error());
  }
  if (response.status != 0) {
    return fail("replica still at epoch " + std::to_string(response.new_epoch) +
                " after replaying " + std::to_string(replayed) + " records");
  }
  return true;
}

void FannRouter::SyncShards() {
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::string sync_error;
    (void)CatchUpShard(s, &sync_error);  // unreachable shards wait
  }
}

void FannRouter::HandleUpdate(WorkItem& item) {
  ReplApplyRequest repl;
  repl.position = repl_epoch_.load();
  repl.entries = std::move(item.update.entries);

  UpdateWeightsResponse response;
  bool have_outcome = false;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!EnsureClient(s)) {
      metrics_.Add(m_shard_errors_, 1);
      continue;  // down replica: the history will catch it up later
    }
    FannClient& client = clients_[s];
    UpdateWeightsResponse shard_response;
    if (!client.ReplApply(repl, shard_response)) {
      client.Close();
      metrics_.Add(m_shard_errors_, 1);
      continue;
    }
    if (shard_response.status == 2) {
      // Behind (it restarted): walk it to the fleet epoch, then retry.
      std::string catch_up_error;
      if (!CatchUpShard(s, &catch_up_error) ||
          !client.ReplApply(repl, shard_response) ||
          shard_response.status == 2) {
        metrics_.Add(m_shard_errors_, 1);
        continue;
      }
    }
    if (shard_response.status == 1) {
      // Validation rejection is deterministic — every replica would
      // answer identically and nothing was applied anywhere.
      EnqueueFrame(item.conn, Opcode::kUpdateResult, item.request_id,
                   EncodeUpdateWeightsResponse(shard_response));
      return;
    }
    if (!have_outcome) {
      // Replicas apply the identical batch to the identical graph, so
      // the first applied response is authoritative for all.
      response = shard_response;
      have_outcome = true;
    }
  }

  if (!have_outcome) {
    EnqueueError(item.conn, item.request_id, ErrorCode::kInternal,
                 "update reached no shard: all replicas unreachable");
    return;
  }

  dynamic::WalRecord record;
  record.position = repl.position;
  record.new_epoch = response.new_epoch;
  record.entries.reserve(repl.entries.size());
  for (const UpdateWeightsRequest::Entry& e : repl.entries) {
    record.entries.push_back({e.u, e.v, e.weight});
  }
  // One in-memory copy: the WAL keeps its own records.
  if (wal_ != nullptr) {
    (void)wal_->Append(record);
  } else {
    history_.push_back(std::move(record));
  }
  // Advance before answering, so the updater's next request is admitted
  // at the new epoch.
  repl_epoch_.store(response.new_epoch);
  EnqueueFrame(item.conn, Opcode::kUpdateResult, item.request_id,
               EncodeUpdateWeightsResponse(response));
}

std::string FannRouter::StatsJson() const {
  std::string out = "{\n  \"router\": " + MetricsJson() + ",\n";
  out += "  \"num_shards\": " + std::to_string(shards_.size()) + ",\n";
  out += "  \"repl_epoch\": " + std::to_string(repl_epoch_.load()) + ",\n";
  out += "  \"draining\": " + std::string(draining() ? "true" : "false") +
         "\n}";
  return out;
}

}  // namespace fannr::net
