#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "dynamic/update.h"
#include "engine/batch_engine.h"
#include "fann/dispatch.h"
#include "graph/presets.h"
#include "loadgen.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/router.h"
#include "net/server.h"
#include "net/shard_plan.h"
#include "obs/metrics.h"
#include "pacer.h"
#include "sp/dijkstra.h"
#include "spans.h"
#include "stats.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

namespace net = fannr::net;
namespace obs = fannr::obs;
using fannr::Aggregate;
using fannr::FannAlgorithm;
using fannr::Graph;
using fannr::Rng;
using fannr::VertexId;

// --- Workload shapes -------------------------------------------------------
//
// Every size below is fixed: a later change is measured against the same
// inputs, so nothing here adapts to how fast the host or the code is.

enum class Kind { kColdBatch, kWavesSubs, kRoutedGd };

struct Spec {
  Kind kind;
  const char* name;
  const char* preset;
  uint32_t shards;        ///< 0 = one server, no router.
  size_t engine_threads;  ///< Engine workers per server.
  size_t connections;     ///< Generator connections.
};

constexpr Spec kSpecs[] = {
    {Kind::kColdBatch, "cold-batch", "DE", 0, 2, 1},
    {Kind::kWavesSubs, "waves-subs", "TEST", 0, 2, 3},
    {Kind::kRoutedGd, "routed-gd", "DE", 2, 1, 1},
};

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr size_t kSetupReps = 3;

// Query shape: |Q| = 32 (16 in cold-batch) drawn within 10% of the
// network radius of a seed vertex, phi = 0.5.
constexpr size_t kQSize = 32;
constexpr double kCoverage = 0.10;
constexpr double kPhi = 0.5;

constexpr size_t kClosedWindow = 2;

// cold-batch and routed-gd. Each BATCH draws a fresh P (~24 vertices),
// so every source misses the cache and the working set outgrows it over
// the run.
constexpr double kColdDensity = 0.0005;
constexpr size_t kColdQPool = 64;
/// |Q| = 16 (not 32) keeps a 20-s run above 100 BATCHes, so its p90 has
/// ten samples beyond it with margin; SSSP fills, which do not depend
/// on |Q|, still dominate a BATCH.
constexpr size_t kColdQSize = 16;
constexpr size_t kJobsPerBatch = 8;
constexpr size_t kColdBatchesPerS = 20;  ///< Pre-drawn supply, not a rate.
constexpr size_t kColdWarmupBatches = 2;

// waves-subs. TEST is small, so SSSP refills after each epoch bump are
// cheap and the update / re-solve / push path dominates. The hot pool
// holds kWavePSets x kWaveDensity x |V| = 50 data points.
constexpr size_t kWavePSets = 2;
constexpr double kWaveDensity = 0.01;
constexpr size_t kWaveQPool = 32;
/// The query connection keeps kClosedWindow BATCHes of this many GD-sum
/// queries in flight: one request is a millisecond of engine work, not
/// tens of microseconds, so throughput measures the engine and the
/// update ordering rather than thread wake-ups.
constexpr size_t kWaveBatchJobs = 32;
constexpr size_t kWaveBatchPool = 64;
/// Each wave's re-evaluation holds the executor for ~20 ms; at 5 waves/s
/// the query BATCHes still get ~90% of it, so their rate does not hinge
/// on how fast one re-evaluation runs.
constexpr double kWaveRatePerS = 5.0;
constexpr double kWaveEdgeFraction = 0.02;
constexpr double kWaveMinFactor = 0.5;
constexpr double kWaveMaxFactor = 3.0;
constexpr size_t kSubscriptions = 32;

// Traced-run probes.
constexpr size_t kReplaysPerAlgorithm = 10;
constexpr size_t kSsspSamples = 32;
constexpr size_t kApplySamples = 32;
constexpr size_t kRouterProbeQueries = 200;

/// The algorithm / aggregate pairs cold-batch cycles through; the fann
/// probes replay every workload's queries under the same five.
struct AlgoPair {
  FannAlgorithm algorithm;
  Aggregate aggregate;
  const char* key;
};
constexpr AlgoPair kAlgos[] = {
    {FannAlgorithm::kGd, Aggregate::kSum, "gd"},
    {FannAlgorithm::kRList, Aggregate::kMax, "rlist"},
    {FannAlgorithm::kIer, Aggregate::kMax, "ier"},
    {FannAlgorithm::kExactMax, Aggregate::kMax, "exact_max"},
    {FannAlgorithm::kApxSum, Aggregate::kSum, "apx_sum"},
};

const Spec* FindSpec(const std::string& name) {
  for (const Spec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

int64_t SecondsToNs(double s) { return static_cast<int64_t>(s * 1e9); }

// --- Inputs ----------------------------------------------------------------

/// One phase as drawn before timing: open-loop operations with relative
/// due times plus an optional closed loop.
struct PhasePlan {
  double share = 0.0;  ///< Of --seconds.
  std::vector<Op> scheduled;
  std::vector<uint32_t> closed_conns;
  size_t window = 0;
  /// Closed-loop BATCHes cycle through the table; otherwise each is sent
  /// once (fresh data points per BATCH).
  bool cycle_batches = false;
};

/// Everything a run sends, drawn from the seed before set-up starts.
struct Inputs {
  std::vector<net::WireQuery> queries;  ///< Hot queries (waves-subs).
  std::vector<net::BatchRequest> batches;        ///< BATCH table.
  std::vector<net::UpdateWeightsRequest> waves;  ///< In send order.
  std::vector<net::WireQuery> subs;              ///< Standing queries.
  Payloads payloads;
  std::vector<std::vector<uint8_t>> warmup_queries;
  std::vector<std::vector<uint8_t>> warmup_batches;
  std::vector<std::vector<uint8_t>> subscribe_payloads;
  std::vector<PhasePlan> phases;
};

std::vector<uint32_t> ToIds(const std::vector<VertexId>& v) {
  return std::vector<uint32_t>(v.begin(), v.end());
}

net::WireQuery MakeWire(FannAlgorithm algorithm, Aggregate aggregate,
                        std::vector<uint32_t> p, std::vector<uint32_t> q) {
  net::WireQuery w;
  w.algorithm = static_cast<uint8_t>(algorithm);
  w.aggregate = static_cast<uint8_t>(aggregate);
  w.phi = kPhi;
  w.p = std::move(p);
  w.q = std::move(q);
  return w;
}

std::vector<std::vector<uint32_t>> DrawQPool(const Graph& g, size_t n,
                                             size_t q_size, Rng& rng) {
  std::vector<std::vector<uint32_t>> pool;
  for (size_t i = 0; i < n; ++i) {
    pool.push_back(
        ToIds(fannr::GenerateUniformQueryPoints(g, kCoverage, q_size, rng)));
  }
  return pool;
}

std::vector<uint8_t> EncodeQuery(const net::WireQuery& w) {
  net::QueryRequest request;
  request.query = w;
  return net::EncodeQueryRequest(request);
}

/// One cold BATCH: 8 jobs over a fresh P, each with its own Q. With
/// `all_algorithms` the jobs take the five algorithms in turn
/// (continuing from job number `job`); otherwise every job is GD-sum.
net::BatchRequest DrawColdBatch(const Graph& g,
                                const std::vector<std::vector<uint32_t>>& pool,
                                bool all_algorithms, size_t& job, Rng& rng) {
  net::BatchRequest batch;
  const std::vector<uint32_t> p =
      ToIds(fannr::GenerateDataPoints(g, kColdDensity, rng));
  std::vector<size_t> q_order(pool.size());
  for (size_t i = 0; i < q_order.size(); ++i) q_order[i] = i;
  rng.Shuffle(q_order);
  for (size_t j = 0; j < kJobsPerBatch; ++j, ++job) {
    const AlgoPair& algo =
        kAlgos[all_algorithms ? job % std::size(kAlgos) : 0];
    batch.jobs.push_back(
        MakeWire(algo.algorithm, algo.aggregate, p, pool[q_order[j]]));
  }
  return batch;
}

/// cold-batch (all five algorithms) and routed-gd (GD-sum only, whose
/// sharded answers must equal single-node ones bitwise): 8-job BATCHes
/// over a fresh P each. The warm-up batches come from a fixed seed, so
/// set-up does the same work whatever the run's seed.
Inputs DrawCold(const Graph& g, bool all_algorithms, uint64_t seed,
                double seconds) {
  Inputs in;
  Rng warm_rng(0xC01DBA7C4ULL);
  const auto warm_pool = DrawQPool(g, kJobsPerBatch, kColdQSize, warm_rng);
  size_t warm_job = 0;
  for (size_t b = 0; b < kColdWarmupBatches; ++b) {
    in.warmup_batches.push_back(net::EncodeBatchRequest(
        DrawColdBatch(g, warm_pool, all_algorithms, warm_job, warm_rng)));
  }
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 23);
  const auto pool = DrawQPool(g, kColdQPool, kColdQSize, rng);
  const size_t count =
      kColdBatchesPerS * static_cast<size_t>(std::ceil(seconds));
  size_t job = 0;
  for (size_t b = 0; b < count; ++b) {
    in.batches.push_back(DrawColdBatch(g, pool, all_algorithms, job, rng));
    in.payloads.batch.push_back(net::EncodeBatchRequest(in.batches.back()));
  }
  PhasePlan a;
  a.share = 1.0;
  a.closed_conns = {0};
  a.window = 1;
  in.phases = {std::move(a)};
  return in;
}

/// waves-subs: GD-sum queries (conn 0), congestion waves (conn 1) and
/// standing subscriptions (conn 2).
Inputs DrawWaves(const Graph& base, uint64_t seed, double seconds) {
  Inputs in;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 37);
  // One pool of hot data points; the query P sets split it, and each
  // standing query takes its own random half of it. Re-evaluation then
  // fills the same sources as queries do, while the subscriptions
  // average over many P layouts instead of hinging on two.
  const std::vector<uint32_t> hot =
      ToIds(fannr::GenerateDataPoints(base, kWaveDensity * kWavePSets, rng));
  std::vector<std::vector<uint32_t>> p_sets(kWavePSets);
  for (size_t i = 0; i < hot.size(); ++i) {
    p_sets[i * kWavePSets / hot.size()].push_back(hot[i]);
  }
  const auto pool = DrawQPool(base, kWaveQPool, kQSize, rng);
  for (const auto& p : p_sets) {
    for (const auto& q : pool) {
      in.queries.push_back(
          MakeWire(FannAlgorithm::kGd, Aggregate::kSum, p, q));
    }
  }
  for (const net::WireQuery& w : in.queries) {
    in.warmup_queries.push_back(EncodeQuery(w));
  }
  // Standing queries: GD and R-List in turn; half push every
  // re-evaluation, half only changed answers (delta semantics).
  for (size_t i = 0; i < kSubscriptions; ++i) {
    const FannAlgorithm algo =
        (i / 2) % 2 == 0 ? FannAlgorithm::kGd : FannAlgorithm::kRList;
    std::vector<uint32_t> p = hot;
    rng.Shuffle(p);
    p.resize(hot.size() / kWavePSets);
    in.subs.push_back(
        MakeWire(algo, Aggregate::kSum, std::move(p), pool[i % pool.size()]));
    net::SubscribeRequest request;
    request.query = in.subs.back();
    request.force_push = i % 2 == 0 ? 1 : 0;
    in.subscribe_payloads.push_back(net::EncodeSubscribeRequest(request));
  }
  // Waves: each one restores the previous wave's edges to their base
  // weights and congests a fresh 2% (weights drawn against the pristine
  // base graph), so the served graph is always "base + one wave" and
  // stays stationary however long the run. They arrive at a fixed
  // period rather than Poisson: two waves landing inside one
  // re-evaluation would reject a query's one permitted retry as well.
  std::vector<Op> waves_all;
  const int64_t wave_gap_ns = static_cast<int64_t>(1e9 / kWaveRatePerS);
  for (int64_t due = wave_gap_ns / 2; due < SecondsToNs(seconds);
       due += wave_gap_ns) {
    Op op;
    op.kind = OpKind::kUpdate;
    op.conn = 1;
    op.due_ns = due;
    waves_all.push_back(op);
  }
  std::vector<fannr::EdgeWeightUpdate> previous;
  for (size_t k = 0; k < waves_all.size(); ++k) {
    const fannr::dynamic::UpdateBatch wave =
        fannr::dynamic::MakeCongestionWave(
            base, kWaveEdgeFraction, kWaveMinFactor, kWaveMaxFactor, rng);
    net::UpdateWeightsRequest request;
    for (const fannr::EdgeWeightUpdate& e : previous) {
      fannr::dynamic::UpdateBatch reset;
      reset.ScaleWeight(base, e.u, e.v, 1.0);
      const fannr::EdgeWeightUpdate& r = reset.updates().front();
      request.entries.push_back({r.u, r.v, r.new_weight});
    }
    for (const fannr::EdgeWeightUpdate& e : wave.updates()) {
      request.entries.push_back({e.u, e.v, e.new_weight});
    }
    previous = wave.updates();
    in.waves.push_back(request);
    in.payloads.update.push_back(net::EncodeUpdateWeightsRequest(request));
    waves_all[k].item = static_cast<uint32_t>(k);
  }
  for (size_t i = 0; i < kWaveBatchPool; ++i) {
    net::BatchRequest batch;
    for (size_t j = 0; j < kWaveBatchJobs; ++j) {
      batch.jobs.push_back(in.queries[rng.NextIndex(in.queries.size())]);
    }
    in.payloads.batch.push_back(net::EncodeBatchRequest(batch));
    in.batches.push_back(std::move(batch));
  }
  // One phase: the query BATCHes keep the engine busy while the waves
  // land, so the re-evaluations and pushes are timed on a loaded server
  // (and the workers never idle between waves, which on the reference
  // host is what makes their timings repeatable).
  PhasePlan a;
  a.share = 1.0;
  a.scheduled = std::move(waves_all);
  a.closed_conns = {0};
  a.window = kClosedWindow;
  a.cycle_batches = true;
  in.phases = {std::move(a)};
  return in;
}

Inputs Draw(const Spec& spec, const Graph& base, uint64_t seed,
            double seconds) {
  switch (spec.kind) {
    case Kind::kColdBatch:
      return DrawCold(base, /*all_algorithms=*/true, seed, seconds);
    case Kind::kRoutedGd:
      return DrawCold(base, /*all_algorithms=*/false, seed, seconds);
    case Kind::kWavesSubs:
      break;
  }
  return DrawWaves(base, seed, seconds);
}

// --- Set-up ----------------------------------------------------------------

struct SetupTimes {
  double graph_ms = 0.0;
  double start_ms = 0.0;
  double warmup_ms = 0.0;
  double total_s() const { return (graph_ms + start_ms + warmup_ms) / 1e3; }
};

/// The program under test: one server, or a router over shard servers.
struct Fleet {
  std::vector<std::unique_ptr<Graph>> graphs;
  std::unique_ptr<net::ShardPlan> plan;
  std::vector<std::unique_ptr<net::FannServer>> servers;
  std::unique_ptr<net::FannRouter> router;
  uint16_t port = 0;

  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() { Stop(); }

  void Stop() {
    if (router) {
      router->RequestShutdown();
      router->Wait();
      router.reset();
    }
    for (auto& server : servers) {
      server->RequestShutdown();
      server->Wait();
    }
    servers.clear();
  }
};

bool StartFleet(const Spec& spec, Fleet& fleet, SetupTimes& times,
                SpanLog& spans, std::string* error) {
  int64_t t = NowNs();
  {
    ScopedSpan span(spans, "setup.graph");
    const size_t num_graphs = std::max<size_t>(1, spec.shards);
    for (size_t i = 0; i < num_graphs; ++i) {
      fleet.graphs.push_back(
          std::make_unique<Graph>(fannr::BuildPreset(spec.preset)));
    }
  }
  times.graph_ms = static_cast<double>(NowNs() - t) / 1e6;
  t = NowNs();
  ScopedSpan span(spans, "setup.start");
  if (spec.shards > 0) {
    fleet.plan = std::make_unique<net::ShardPlan>(
        net::ShardPlan::Build(*fleet.graphs[0], spec.shards));
  }
  for (auto& graph : fleet.graphs) {
    fannr::GphiResources resources;
    resources.graph = graph.get();
    net::ServerConfig config;
    config.engine_options.num_threads = spec.engine_threads;
    if (spec.shards > 0) {
      // The fleet's shards together hold what one server's cache holds.
      config.engine_options.cache_memory_budget_bytes /= spec.shards;
    }
    config.max_subscriptions_per_connection = kSubscriptions;
    auto server = std::make_unique<net::FannServer>(graph.get(), resources,
                                                    std::move(config));
    if (!server->Start(error)) return false;
    fleet.servers.push_back(std::move(server));
  }
  fleet.port = fleet.servers[0]->port();
  if (spec.shards > 0) {
    net::RouterConfig config;
    for (const auto& server : fleet.servers) {
      net::ShardAddress address;
      address.port = server->port();
      config.shards.push_back(address);
    }
    fleet.router = std::make_unique<net::FannRouter>(*fleet.plan, config);
    if (!fleet.router->Start(error)) return false;
    fleet.port = fleet.router->port();
  }
  times.start_ms = static_cast<double>(NowNs() - t) / 1e6;
  return true;
}

/// Warm-up: subscriptions, then the warm-up queries / batches, each
/// checked for an ok answer. `sub_ids` receives the subscription ids.
bool WarmUp(const Inputs& in, LoadGen& gen, std::vector<uint64_t>& sub_ids,
            std::vector<net::WireResult>& sub_initial,
            std::vector<uint64_t>& sub_initial_epoch, std::string* error) {
  using Responses =
      std::vector<std::pair<net::FrameHeader, std::vector<uint8_t>>>;
  Responses responses;
  if (!in.subscribe_payloads.empty()) {
    if (!gen.RoundTrip(2, net::Opcode::kSubscribe, in.subscribe_payloads,
                       responses, error)) {
      return false;
    }
    for (const auto& [header, payload] : responses) {
      net::SubscribeResponse response;
      if (header.opcode !=
              static_cast<uint16_t>(net::Opcode::kSubscribeResult) ||
          !net::DecodeSubscribeResponse(payload, response) ||
          response.result.status !=
              static_cast<uint8_t>(fannr::QueryStatus::kOk)) {
        *error = "SUBSCRIBE was not accepted";
        return false;
      }
      sub_ids.push_back(header.request_id);
      sub_initial.push_back(response.result);
      sub_initial_epoch.push_back(response.graph_epoch);
    }
  }
  if (!in.warmup_queries.empty()) {
    if (!gen.RoundTrip(0, net::Opcode::kQuery, in.warmup_queries, responses,
                       error)) {
      return false;
    }
    for (const auto& [header, payload] : responses) {
      if (header.opcode != static_cast<uint16_t>(net::Opcode::kQueryResult)) {
        *error = "warm-up QUERY failed";
        return false;
      }
    }
  }
  if (!in.warmup_batches.empty()) {
    if (!gen.RoundTrip(0, net::Opcode::kBatch, in.warmup_batches, responses,
                       error)) {
      return false;
    }
    for (const auto& [header, payload] : responses) {
      if (header.opcode != static_cast<uint16_t>(net::Opcode::kBatchResult)) {
        *error = "warm-up BATCH failed";
        return false;
      }
    }
  }
  return true;
}

// --- Registry deltas -------------------------------------------------------

struct Snapshot {
  std::vector<obs::MetricsSnapshot> server;
  std::vector<obs::MetricsSnapshot> engine;
  std::vector<fannr::SourceDistanceCache::Stats> cache;
  std::string router_json;
};

Snapshot TakeSnapshot(Fleet& fleet) {
  Snapshot s;
  for (auto& server : fleet.servers) {
    s.server.push_back(server->metrics().Snapshot());
    const obs::MetricsRegistry* engine = server->engine().metrics();
    s.engine.push_back(engine != nullptr ? engine->Snapshot()
                                         : obs::MetricsSnapshot());
    s.cache.push_back(server->engine().cache_stats());
  }
  if (fleet.router) s.router_json = fleet.router->StatsJson();
  return s;
}

obs::HistogramSnapshot EmptyLike(const obs::HistogramSnapshot& h) {
  obs::HistogramSnapshot out;
  out.bounds = h.bounds;
  out.counts.assign(h.counts.size(), 0);
  return out;
}

/// after - before of one histogram, summed over every server. The delta's
/// extrema are the lifetime ones (the tightest bounds the registry
/// keeps), which only clamps interpolation inside the located bucket.
obs::HistogramSnapshot HistDelta(
    const std::vector<obs::MetricsSnapshot>& before,
    const std::vector<obs::MetricsSnapshot>& after, const std::string& name) {
  obs::HistogramSnapshot out;
  bool any = false;
  for (size_t i = 0; i < after.size(); ++i) {
    const obs::HistogramSnapshot* a = after[i].histogram(name);
    if (a == nullptr) continue;
    const obs::HistogramSnapshot* b =
        i < before.size() ? before[i].histogram(name) : nullptr;
    if (!any) {
      out = EmptyLike(*a);
      out.min = a->min;
      out.max = a->max;
      any = true;
    }
    for (size_t k = 0; k < a->counts.size(); ++k) {
      out.counts[k] += a->counts[k] - (b != nullptr ? b->counts[k] : 0);
    }
    out.count += a->count - (b != nullptr ? b->count : 0);
    out.sum += a->sum - (b != nullptr ? b->sum : 0.0);
    out.min = std::min(out.min, a->min);
    out.max = std::max(out.max, a->max);
  }
  return out;
}

uint64_t CounterDelta(const std::vector<obs::MetricsSnapshot>& before,
                      const std::vector<obs::MetricsSnapshot>& after,
                      const std::string& name) {
  uint64_t total = 0;
  for (size_t i = 0; i < after.size(); ++i) {
    total += after[i].counter(name) -
             (i < before.size() ? before[i].counter(name) : 0);
  }
  return total;
}

/// Reads one counter out of FannRouter::StatsJson().
uint64_t RouterCounter(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  const size_t at = json.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
}

// --- Answers ---------------------------------------------------------------

/// Solves wire jobs in process exactly as the server does: vertex sets
/// materialized in wire order, one engine Run for the lot. Returns the
/// wire form of each answer.
std::vector<net::WireResult> SolveInProcess(
    fannr::BatchQueryEngine& engine, const Graph& graph,
    const std::vector<const net::WireQuery*>& jobs) {
  std::vector<std::unique_ptr<fannr::IndexedVertexSet>> sets;
  std::vector<fannr::FannrQuery> queries;
  for (const net::WireQuery* w : jobs) {
    sets.push_back(std::make_unique<fannr::IndexedVertexSet>(
        graph.NumVertices(), std::vector<VertexId>(w->p.begin(), w->p.end())));
    sets.push_back(std::make_unique<fannr::IndexedVertexSet>(
        graph.NumVertices(), std::vector<VertexId>(w->q.begin(), w->q.end())));
    fannr::FannrQuery q;
    q.query.graph = &graph;
    q.query.data_points = sets[sets.size() - 2].get();
    q.query.query_points = sets.back().get();
    q.query.phi = w->phi;
    q.query.aggregate = static_cast<Aggregate>(w->aggregate);
    q.algorithm = static_cast<FannAlgorithm>(w->algorithm);
    queries.push_back(q);
  }
  std::vector<net::WireResult> out;
  for (const fannr::FannResult& r : engine.Run(queries)) {
    out.push_back(net::ToWire(r));
  }
  return out;
}

fannr::BatchOptions ReferenceOptions(size_t threads) {
  fannr::BatchOptions options;
  options.num_threads = threads;
  return options;
}

/// Solves BATCHes in process, each as one engine Run, and returns the
/// digest of each. 1-worker engines on parallel threads rather than one
/// 4-worker engine: concurrent workers fill the same sources again (no
/// single-flight fills), which would triple the check's cost.
std::vector<uint64_t> SolveBatches(const Graph& graph, const Inputs& in,
                                   const std::vector<uint32_t>& items) {
  constexpr size_t kCheckThreads = 4;
  std::vector<uint64_t> digests(items.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kCheckThreads; ++t) {
    threads.emplace_back([&, t] {
      fannr::GphiResources resources;
      resources.graph = &graph;
      fannr::BatchOptions options = ReferenceOptions(1);
      options.cache_capacity = 128;  // one batch's sources, not the run's
      fannr::BatchQueryEngine worker(resources, options);
      for (size_t i = t; i < items.size(); i += kCheckThreads) {
        std::vector<const net::WireQuery*> jobs;
        for (const net::WireQuery& w : in.batches[items[i]].jobs) {
          jobs.push_back(&w);
        }
        digests[i] = AnswerDigest(SolveInProcess(worker, graph, jobs));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return digests;
}

/// Checks every answer the run received against an in-process engine at
/// the epoch the answer was computed under: BATCH answers,
/// initial SUBSCRIBE answers and pushes. The graph walks the served
/// epochs in order, each through the wave whose acknowledgement named
/// it. Returns the mismatch count.
size_t CheckAnswers(const Spec& spec, const Inputs& in,
                    const std::vector<PhaseResult>& phases,
                    const std::vector<Push>& pushes,
                    const std::vector<uint64_t>& sub_ids,
                    const std::vector<net::WireResult>& sub_initial,
                    const std::vector<uint64_t>& sub_initial_epoch,
                    std::string* first_mismatch) {
  size_t mismatches = 0;
  auto note = [&](const std::string& what) {
    if (mismatches++ == 0) *first_mismatch = what;
  };

  // Every BATCH answer to check, grouped by epoch.
  std::map<uint64_t, std::vector<std::pair<AnswerKey, uint64_t>>> served;
  std::unordered_map<uint64_t, uint32_t> wave_of_epoch;
  for (const PhaseResult& phase : phases) {
    for (const Op& op : phase.ops) {
      if (op.kind == OpKind::kUpdate && op.ok) {
        wave_of_epoch[op.epoch] = op.item;
      }
    }
    for (const auto& [key, digest] : phase.digests) {
      served[key.epoch].push_back({key, digest});
    }
    if (phase.inconsistent > 0) {
      note(std::to_string(phase.inconsistent) +
           " answers differ from an earlier answer to the same request");
    }
  }
  // Subscription answers: (sub index, epoch) -> digests received.
  std::map<std::pair<uint64_t, size_t>, std::vector<uint64_t>> sub_answers;
  std::unordered_map<uint64_t, size_t> sub_index;
  for (size_t i = 0; i < sub_ids.size(); ++i) {
    sub_index[sub_ids[i]] = i;
    sub_answers[{sub_initial_epoch[i], i}].push_back(
        AnswerDigest({sub_initial[i]}));
  }
  for (const Push& push : pushes) {
    auto it = sub_index.find(push.subscription_id);
    if (it == sub_index.end()) {
      note("push for an unknown subscription");
      continue;
    }
    sub_answers[{push.answer.graph_epoch, it->second}].push_back(
        AnswerDigest({push.answer.result}));
  }
  uint64_t last_epoch = served.empty() ? 0 : served.rbegin()->first;
  if (!sub_answers.empty()) {
    last_epoch = std::max(last_epoch, sub_answers.rbegin()->first.first);
  }

  Graph graph = fannr::BuildPreset(spec.preset);
  fannr::GphiResources resources;
  resources.graph = &graph;
  fannr::BatchQueryEngine engine(resources, ReferenceOptions(4));
  for (uint64_t epoch = 0; epoch <= last_epoch; ++epoch) {
    if (epoch > 0) {
      const auto wave = wave_of_epoch.find(epoch);
      if (wave == wave_of_epoch.end()) {
        note("answer at an epoch no acknowledged wave produced");
        break;
      }
      fannr::dynamic::UpdateBatch batch;
      for (const auto& e : in.waves[wave->second].entries) {
        batch.SetWeight(e.u, e.v, e.weight);
      }
      batch.Apply(graph);
      if (graph.epoch() != epoch) {
        note("in-process replay did not reach the served epoch");
        break;
      }
    }
    // This epoch's subscriptions in one engine Run, its BATCH items one
    // Run each.
    std::vector<uint32_t> batch_items;
    std::vector<uint64_t> batch_got;
    for (const auto& [key, digest] : served[epoch]) {
      batch_items.push_back(key.item);
      batch_got.push_back(digest);
    }
    std::vector<const net::WireQuery*> jobs;
    std::vector<const std::vector<uint64_t>*> sub_got;
    std::vector<size_t> sub_of;
    for (auto it = sub_answers.lower_bound({epoch, 0});
         it != sub_answers.end() && it->first.first == epoch; ++it) {
      jobs.push_back(&in.subs[it->first.second]);
      sub_got.push_back(&it->second);
      sub_of.push_back(it->first.second);
    }
    const std::string at = " at epoch " + std::to_string(epoch);
    if (!jobs.empty()) {
      const std::vector<net::WireResult> solved =
          SolveInProcess(engine, graph, jobs);
      for (size_t i = 0; i < sub_got.size(); ++i) {
        const uint64_t want = AnswerDigest({solved[i]});
        for (uint64_t got : *sub_got[i]) {
          if (got != want) {
            note("subscription " + std::to_string(sub_of[i]) + at);
          }
        }
      }
    }
    const std::vector<uint64_t> batch_want =
        SolveBatches(graph, in, batch_items);
    for (size_t i = 0; i < batch_items.size(); ++i) {
      if (batch_got[i] != batch_want[i]) {
        note("BATCH item " + std::to_string(batch_items[i]) + at);
      }
    }
  }
  return mismatches;
}

// --- Measurements ----------------------------------------------------------

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double CpuMs() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

std::vector<double> Values(const std::vector<Sample>& samples) {
  std::vector<double> out;
  for (const Sample& s : samples) out.push_back(s.value);
  return out;
}

/// Latencies of a phase's operations of one kind, open- and closed-loop
/// alike; `traced` = 1 / 0 keeps only the traced / untraced half.
std::vector<Sample> OpLatencies(const PhaseResult& phase, OpKind kind,
                                int traced = -1) {
  std::vector<Sample> out;
  for (const Op& op : phase.ops) {
    if (op.kind != kind || !op.finished) continue;
    if (traced >= 0 && (op.span != 0) != (traced == 1)) continue;
    out.push_back({op.done_ns, LatencyFromDueMs(op.due_ns, op.done_ns)});
  }
  for (const ClosedSample& c : phase.closed) {
    if (c.kind != kind) continue;
    if (traced >= 0 && c.traced != (traced == 1)) continue;
    out.push_back({c.done_ns, c.latency_ms});
  }
  return out;
}

/// Push latency: from the due time of the update whose epoch a push
/// carries to the push's arrival, for updates of `phase`.
std::vector<Sample> PushLatencies(const PhaseResult& phase,
                                  const std::vector<Push>& pushes) {
  std::unordered_map<uint64_t, int64_t> due_by_epoch;
  for (const Op& op : phase.ops) {
    if (op.kind == OpKind::kUpdate && op.finished && op.ok) {
      due_by_epoch[op.epoch] = op.due_ns;
    }
  }
  std::vector<Sample> out;
  for (const Push& push : pushes) {
    auto it = due_by_epoch.find(push.answer.graph_epoch);
    if (it != due_by_epoch.end()) {
      out.push_back(
          {push.recv_ns, LatencyFromDueMs(it->second, push.recv_ns)});
    }
  }
  return out;
}

/// Median over the phase's windows of the ok results per second of its
/// closed loop (see WindowedRate).
double ClosedLoopRate(const PhaseResult& phase) {
  std::vector<Sample> done;
  for (const ClosedSample& c : phase.closed) {
    done.push_back({c.done_ns, static_cast<double>(c.ok_answers)});
  }
  return WindowedRate(done, phase.start_ns, phase.end_ns);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Mean microseconds per request to decode and re-encode the run's own
/// BATCH payloads, and per answer to decode and re-encode its own
/// sampled BATCH_RESULT frames.
std::pair<double, double> CodecMicros(const Inputs& in,
                                      const std::vector<PhaseResult>& phases) {
  constexpr size_t kMinOps = 2000;
  auto timed = [](const std::vector<std::vector<uint8_t>>& frames,
                  auto&& round_trip) {
    size_t n = 0;
    const int64_t t = NowNs();
    for (size_t i = 0; n < kMinOps && !frames.empty(); ++i, ++n) {
      round_trip(frames[i % frames.size()]);
    }
    return n == 0 ? 0.0
                  : static_cast<double>(NowNs() - t) / 1e3 /
                        static_cast<double>(n);
  };
  std::vector<std::vector<uint8_t>> responses;
  for (const PhaseResult& phase : phases) {
    responses.insert(responses.end(), phase.sampled_frames.begin(),
                     phase.sampled_frames.end());
  }
  return {timed(in.payloads.batch,
                [](const std::vector<uint8_t>& payload) {
                  net::BatchRequest request;
                  net::DecodeBatchRequest(payload, request);
                  return net::EncodeBatchRequest(request);
                }),
          timed(responses, [](const std::vector<uint8_t>& payload) {
            net::BatchResponse response;
            net::DecodeBatchResponse(payload, response);
            return net::EncodeBatchResponse(response);
          })};
}

/// Replays jobs one at a time through a 1-worker engine whose cache the
/// first pass fills, timing the second pass per algorithm. Returns per
/// algorithm key: p50 solve ms, and mean g_phi evaluations per job.
struct Replay {
  std::map<std::string, double> solve_p50_ms;
  std::map<std::string, double> evals_per_job;
};

Replay ReplaySolves(const Graph& graph,
                    const std::vector<net::WireQuery>& jobs, SpanLog& spans) {
  fannr::GphiResources resources;
  resources.graph = &graph;
  fannr::BatchQueryEngine engine(resources, ReferenceOptions(1));
  std::map<std::string, std::vector<double>> ms, evals;
  for (const net::WireQuery& job : jobs) {
    const char* key = "";
    for (const AlgoPair& a : kAlgos) {
      if (static_cast<uint8_t>(a.algorithm) == job.algorithm) key = a.key;
    }
    SolveInProcess(engine, graph, {&job});  // fills the job's sources
    const uint32_t span = spans.Begin("fann.solve");
    const int64_t t = NowNs();
    const std::vector<net::WireResult> r =
        SolveInProcess(engine, graph, {&job});
    ms[key].push_back(static_cast<double>(NowNs() - t) / 1e6);
    spans.End(span);
    evals[key].push_back(static_cast<double>(r[0].gphi_evaluations));
  }
  Replay out;
  for (const auto& [key, v] : ms) out.solve_p50_ms[key] = Median(v);
  for (const auto& [key, v] : evals) {
    double sum = 0;
    for (double e : v) sum += e;
    out.evals_per_job[key] = sum / static_cast<double>(v.size());
  }
  return out;
}

/// Per probe query: routed latency minus the latency of the same
/// SplitByShard sub-batches sent straight to the shards (both in flight
/// at once, as the router sends them), one query at a time on idle
/// servers.
std::vector<double> RouterOverheads(const Fleet& fleet,
                                    const std::vector<net::WireQuery>& probes,
                                    SpanLog& spans) {
  net::FannClient routed;
  std::vector<net::FannClient> shards(fleet.servers.size());
  if (!routed.Connect("127.0.0.1", fleet.port)) return {};
  for (size_t s = 0; s < shards.size(); ++s) {
    if (!shards[s].Connect("127.0.0.1", fleet.servers[s]->port())) return {};
  }
  std::vector<double> out;
  for (const net::WireQuery& query : probes) {
    const uint32_t span = spans.Begin("router.probe");
    int64_t t = NowNs();
    net::QueryResponse response;
    const uint32_t routed_span = spans.Begin("router.routed", span);
    if (!routed.Query(query, response)) return {};
    spans.End(routed_span);
    const double routed_ms = static_cast<double>(NowNs() - t) / 1e6;
    const auto split = fleet.plan->SplitByShard(query.p);
    const uint32_t direct_span = spans.Begin("router.direct", span);
    t = NowNs();
    std::vector<uint64_t> ids(shards.size(), 0);
    for (size_t s = 0; s < shards.size(); ++s) {
      if (split[s].empty()) continue;
      net::BatchRequest sub;
      sub.jobs.push_back(query);
      sub.jobs.back().p = split[s];
      if (!shards[s].SendBatch(sub, &ids[s])) return {};
    }
    for (size_t s = 0; s < shards.size(); ++s) {
      if (ids[s] == 0) continue;
      net::FrameHeader header;
      std::vector<uint8_t> payload;
      if (!shards[s].ReadAny(header, payload)) return {};
    }
    const double direct_ms = static_cast<double>(NowNs() - t) / 1e6;
    spans.End(direct_span);
    spans.End(span);
    out.push_back(routed_ms - direct_ms);
  }
  return out;
}

/// Distinct P vertices the phase sent.
size_t DistinctSources(const Inputs& in,
                       const std::vector<PhaseResult>& phases) {
  std::set<uint32_t> seen;
  for (const PhaseResult& phase : phases) {
    for (const auto& [key, digest] : phase.digests) {
      for (const net::WireQuery& w : in.batches[key.item].jobs) {
        seen.insert(w.p.begin(), w.p.end());
      }
    }
  }
  return seen.size();
}

/// The bounded tail: p90 everywhere. p99 of a few thousand samples on a
/// shared host moves by whole multiples with the number of whole-process
/// stalls (5-20 ms, a few per run) that land in it; the p99s stay in the
/// details.
constexpr double kTailQ = 0.90;

double Ratio(double num, double den) { return num / std::max(den, 1.0); }

/// What one run measured, as the metric writers read it.
struct Measured {
  const Spec& spec;
  const Inputs& in;
  const Graph& base;
  const std::vector<PhaseResult>& phases;
  const std::vector<Push>& pushes;
  const std::vector<SetupTimes>& setups;
  const Snapshot& before;
  const Snapshot& after;
  double cpu_ms;
  double peak_rss_mb;
  /// The workload's primary latency (see README.md).
  std::vector<Sample> primary;
  size_t attempted;
  size_t failed;

  const PhaseResult& a() const { return phases.front(); }
  const PhaseResult& sat() const { return phases.back(); }
  double SetupMedian(double (*field)(const SetupTimes&)) const {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(field(s));
    return Median(v);
  }
};

void AddEndToEnd(const Measured& r, std::vector<Metric>& m) {
  const PhaseResult& a = r.a();
  m.push_back({"setup_s",
               r.SetupMedian([](const SetupTimes& s) { return s.total_s(); }),
               "s"});
  m.push_back({"peak_rss_mb", r.peak_rss_mb, "MiB"});
  m.push_back({"p50_ms",
               WindowedQuantile(r.primary, a.start_ns, a.end_ns, 0.5), "ms"});
  m.push_back({"tail_ms",
               WindowedQuantile(r.primary, a.start_ns, a.end_ns, kTailQ),
               "ms"});
  m.push_back({"sat_qps", ClosedLoopRate(r.sat()), "1/s"});
}

/// The workload's latencies under their operation names, over the whole
/// phase, with sample counts.
void AddOperationDetails(const Measured& r, std::vector<Metric>& d) {
  auto add = [&](const std::string& prefix, const std::vector<Sample>& samples,
                 double q, const char* q_name) {
    const std::vector<double> v = Values(samples);
    d.push_back({prefix + "_p50_ms", Median(v), "ms"});
    if (TailValid(v.size(), q)) {
      d.push_back({prefix + "_" + q_name + "_ms", Quantile(v, q), "ms"});
    }
    d.push_back(
        {prefix + "_samples", static_cast<double>(v.size()), "count"});
  };
  switch (r.spec.kind) {
    case Kind::kColdBatch:
    case Kind::kRoutedGd:
      add("batch", r.primary, 0.90, "p90");
      break;
    case Kind::kWavesSubs:
      add("batch", OpLatencies(r.a(), OpKind::kBatch), 0.99, "p99");
      add("update", OpLatencies(r.a(), OpKind::kUpdate), 0.90, "p90");
      add("push", r.primary, 0.99, "p99");
      break;
  }
  const PhaseResult& sat = r.sat();
  const double answers = static_cast<double>(sat.ok_answers);
  d.push_back({"sat_ok_answers", answers, "count"});
  const double sat_s = static_cast<double>(sat.end_ns - sat.start_ns) / 1e9;
  d.push_back({"sat_mean_qps", answers / sat_s, "1/s"});
}

/// Jobs the fann probes replay: the cold workloads their first batches'
/// jobs, waves-subs its first queries under each of the five algorithms.
std::vector<net::WireQuery> ReplayJobs(const Measured& r) {
  std::vector<net::WireQuery> jobs;
  const size_t wanted = kReplaysPerAlgorithm * std::size(kAlgos);
  if (r.in.queries.empty()) {
    for (const net::BatchRequest& b : r.in.batches) {
      if (jobs.size() >= wanted) break;
      jobs.insert(jobs.end(), b.jobs.begin(), b.jobs.end());
    }
    return jobs;
  }
  for (size_t i = 0; i < kReplaysPerAlgorithm; ++i) {
    for (const AlgoPair& algo : kAlgos) {
      net::WireQuery w = r.in.queries[i % r.in.queries.size()];
      w.algorithm = static_cast<uint8_t>(algo.algorithm);
      w.aggregate = static_cast<uint8_t>(algo.aggregate);
      jobs.push_back(std::move(w));
    }
  }
  return jobs;
}

/// p50 of full SSSPs from a sample of the jobs' P vertices.
double SsspP50(const Graph& graph, const std::vector<net::WireQuery>& jobs,
               SpanLog& spans) {
  std::vector<uint32_t> sources;
  for (const net::WireQuery& w : jobs) {
    sources.insert(sources.end(), w.p.begin(), w.p.end());
  }
  fannr::DijkstraSearch search(graph);
  std::vector<fannr::Weight> dist;
  std::vector<double> ms;
  for (size_t i = 0; i < kSsspSamples && !sources.empty(); ++i) {
    const uint32_t span = spans.Begin("sp.sssp");
    const int64_t t = NowNs();
    search.SsspInto(sources[(i * 7919) % sources.size()], dist);
    ms.push_back(static_cast<double>(NowNs() - t) / 1e6);
    spans.End(span);
  }
  return Median(ms);
}

/// p50 of UpdateBatch::Apply on a fresh graph: the run's own waves where
/// it sends them, otherwise waves drawn the same way.
double ApplyP50(const Measured& r, uint64_t seed, SpanLog& spans) {
  Graph copy = fannr::BuildPreset(r.spec.preset);
  Rng wave_rng(seed + 202);
  std::vector<double> ms;
  for (size_t k = 0; k < kApplySamples; ++k) {
    fannr::dynamic::UpdateBatch batch;
    if (k < r.in.waves.size()) {
      for (const auto& e : r.in.waves[k].entries) {
        batch.SetWeight(e.u, e.v, e.weight);
      }
    } else {
      batch = fannr::dynamic::MakeCongestionWave(
          copy, kWaveEdgeFraction, kWaveMinFactor, kWaveMaxFactor, wave_rng);
    }
    const uint32_t span = spans.Begin("dynamic.apply");
    const int64_t t = NowNs();
    batch.Apply(copy);
    ms.push_back(static_cast<double>(NowNs() - t) / 1e6);
    spans.End(span);
  }
  return Median(ms);
}

/// The per-layer metrics every workload prints: registry deltas of the
/// timed phases plus the in-process probes.
void AddLayerMetrics(const Measured& r, uint64_t seed, SpanLog& spans,
                     std::vector<Metric>& m) {
  const auto& sb = r.before.server;
  const auto& sa = r.after.server;
  const auto& eb = r.before.engine;
  const auto& ea = r.after.engine;
  m.push_back({"setup.graph_ms",
               r.SetupMedian([](const SetupTimes& s) { return s.graph_ms; }),
               "ms"});
  m.push_back({"setup.start_ms",
               r.SetupMedian([](const SetupTimes& s) { return s.start_ms; }),
               "ms"});
  m.push_back({"setup.warmup_ms",
               r.SetupMedian([](const SetupTimes& s) { return s.warmup_ms; }),
               "ms"});

  // net: the server's view of the BATCHes the workload sends (shards see
  // the router's sub-BATCHes).
  const obs::HistogramSnapshot e2e = HistDelta(sb, sa, "server.e2e_ms.batch");
  const obs::HistogramSnapshot queue_wait =
      HistDelta(sb, sa, "server.queue_wait_ms");
  m.push_back({"net.server_e2e_ms.p50", e2e.Percentile(50), "ms"});
  m.push_back({"net.server_e2e_ms.p99", e2e.Percentile(99), "ms"});
  m.push_back({"net.queue_wait_ms.p50", queue_wait.Percentile(50), "ms"});
  m.push_back({"net.queue_wait_ms.p99", queue_wait.Percentile(99), "ms"});
  // Means, not p50s: both sums are exact, while a histogram p50 is only
  // bucket-resolution (the 1-2-5 ladder), coarser than the difference.
  const std::vector<double> client =
      Values(OpLatencies(r.a(), OpKind::kBatch));
  double client_sum = 0;
  for (double v : client) client_sum += v;
  m.push_back({"net.outside_server_ms.mean",
               Ratio(client_sum, static_cast<double>(client.size())) -
                   e2e.Mean(),
               "ms"});
  const uint32_t codec_span = spans.Begin("net.codec");
  const auto [request_us, response_us] = CodecMicros(r.in, r.phases);
  spans.End(codec_span);
  m.push_back({"net.request_codec_us", request_us, "us"});
  m.push_back({"net.response_codec_us", response_us, "us"});
  size_t retried = 0, updates = 0;
  for (const PhaseResult& phase : r.phases) {
    retried += phase.retried;
    for (const Op& op : phase.ops) updates += op.kind == OpKind::kUpdate;
  }
  m.push_back({"net.stale_rejected_pct",
               100.0 * Ratio(static_cast<double>(retried),
                             static_cast<double>(r.attempted - updates)),
               "%"});
  m.push_back({"net.overloaded",
               static_cast<double>(CounterDelta(sb, sa, "server.overloaded")),
               "count"});

  // engine
  const obs::HistogramSnapshot solve = HistDelta(eb, ea, "engine.solve_ms");
  const obs::HistogramSnapshot dispatch =
      HistDelta(eb, ea, "engine.dispatch_wait_ms");
  m.push_back({"engine.solve_ms.p50", solve.Percentile(50), "ms"});
  m.push_back({"engine.solve_ms.p99", solve.Percentile(99), "ms"});
  m.push_back({"engine.dispatch_wait_ms.p50", dispatch.Percentile(50), "ms"});
  double hits = 0, misses = 0, resident = 0;
  for (size_t i = 0; i < r.after.cache.size(); ++i) {
    hits += static_cast<double>(r.after.cache[i].hits -
                                r.before.cache[i].hits);
    misses += static_cast<double>(r.after.cache[i].misses -
                                  r.before.cache[i].misses);
    resident += ea[i].gauge("cache.resident_entries");
  }
  m.push_back({"engine.cache_hit_pct", 100.0 * Ratio(hits, hits + misses),
               "%"});
  m.push_back({"engine.fills_per_source",
               Ratio(misses,
                     static_cast<double>(DistinctSources(r.in, r.phases))),
               "count"});
  m.push_back({"engine.resident_entries", resident, "count"});
  // SSSP fills over the engine's lifetime, warm-up included, so the
  // metric always has fills to time.
  const obs::HistogramSnapshot fills =
      HistDelta({}, ea, "cache.sssp_compute_ms");
  m.push_back({"engine.sssp_fill_ms.p50", fills.Percentile(50), "ms"});
  m.push_back({"engine.sssp_fill_ms.sum", fills.sum, "ms"});

  // fann, sp, dynamic: in-process probes.
  const std::vector<net::WireQuery> jobs = ReplayJobs(r);
  const Replay replay = ReplaySolves(r.base, jobs, spans);
  for (const AlgoPair& algo : kAlgos) {
    const auto evals = replay.evals_per_job.find(algo.key);
    const auto solve_ms = replay.solve_p50_ms.find(algo.key);
    m.push_back({std::string("fann.gphi_evals_per_job.") + algo.key,
                 evals == replay.evals_per_job.end() ? 0.0 : evals->second,
                 "count"});
    m.push_back(
        {std::string("fann.solve_ms.") + algo.key + ".p50",
         solve_ms == replay.solve_p50_ms.end() ? 0.0 : solve_ms->second,
         "ms"});
  }
  m.push_back({"sp.sssp_ms.p50", SsspP50(r.base, jobs, spans), "ms"});
  m.push_back({"dynamic.apply_ms.p50", ApplyP50(r, seed, spans), "ms"});

  // process
  m.push_back({"proc.cpu_ms_per_op",
               Ratio(r.cpu_ms, static_cast<double>(r.attempted - r.failed)),
               "ms"});
  std::vector<double> late;
  for (const PhaseResult& phase : r.phases) {
    late.insert(late.end(), phase.lateness_ms.begin(),
                phase.lateness_ms.end());
  }
  m.push_back({"load.gen_late_ms.p99", Quantile(late, 0.99), "ms"});
  // Every other request carried spans; the rest ran untraced.
  const double traced =
      Median(Values(OpLatencies(r.a(), OpKind::kBatch, 1)));
  const double plain = Median(Values(OpLatencies(r.a(), OpKind::kBatch, 0)));
  m.push_back({"obs.trace_overhead_pct",
               plain > 0 ? 100.0 * (traced - plain) / plain : 0.0, "%"});
}

/// Layer metrics of layers only this workload exercises, reported with
/// the details: a metric a workload never moves would print a constant 0.
void AddWorkloadLayerDetails(const Measured& r,
                             const std::vector<double>& router_overheads,
                             std::vector<Metric>& d) {
  const auto& sb = r.before.server;
  const auto& sa = r.after.server;
  if (r.spec.kind == Kind::kWavesSubs) {
    const obs::HistogramSnapshot update =
        HistDelta(sb, sa, "server.e2e_ms.update");
    const obs::HistogramSnapshot push =
        HistDelta(sb, sa, "server.push_latency_ms");
    auto count = [&](const char* name) {
      return static_cast<double>(CounterDelta(sb, sa, name));
    };
    const double updates = count("server.requests.update_weights");
    const double sent = count("server.pushes.sent");
    const double suppressed = count("server.pushes.suppressed");
    double epoch_evictions = 0;
    for (size_t i = 0; i < r.after.cache.size(); ++i) {
      epoch_evictions +=
          static_cast<double>(r.after.cache[i].epoch_evictions -
                              r.before.cache[i].epoch_evictions);
    }
    d.push_back({"dynamic.server_update_ms.p50", update.Percentile(50), "ms"});
    d.push_back({"dynamic.server_update_ms.p90", update.Percentile(90), "ms"});
    d.push_back({"cont.push_server_ms.p50", push.Percentile(50), "ms"});
    d.push_back({"cont.push_server_ms.p99", push.Percentile(99), "ms"});
    d.push_back({"cont.pushes_per_update", Ratio(sent, updates), "count"});
    d.push_back({"cont.suppressed_pct",
                 100.0 * Ratio(suppressed, sent + suppressed), "%"});
    d.push_back({"cont.dropped_backpressure",
                 count("server.pushes.dropped_backpressure"), "count"});
    d.push_back({"engine.epoch_evictions_per_update",
                 Ratio(epoch_evictions, updates), "count"});
    d.push_back({"net.rejected_stale_admission",
                 count("server.rejected_stale_admission"), "count"});
  }
  if (r.spec.kind == Kind::kRoutedGd) {
    auto delta = [&](const char* name) {
      return static_cast<double>(RouterCounter(r.after.router_json, name) -
                                 RouterCounter(r.before.router_json, name));
    };
    d.push_back({"router.overhead_ms.p50", Median(router_overheads), "ms"});
    d.push_back({"router.sub_batches_per_request",
                 Ratio(delta("router.fanout.sub_batches"),
                       delta("router.requests.batch")),
                 "count"});
    d.push_back({"router.epoch_retries",
                 delta("router.fanout.epoch_retries"), "count"});
    d.push_back({"router.shard_errors", delta("router.shard_errors"),
                 "count"});
  }
}

}  // namespace

bool IsWorkloadName(const std::string& name) {
  return FindSpec(name) != nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Spec& spec : kSpecs) names.push_back(spec.name);
  return names;
}

RunResult RunWorkload(const Options& options) {
  RunResult run;
  const Spec& spec = *FindSpec(options.workload);
  run.connections = spec.connections;
  run.servers = std::max<size_t>(1, spec.shards);
  run.engine_threads = spec.engine_threads;
  SpanLog spans(options.trace);
  auto invalid = [&](std::string why) {
    run.valid = false;
    run.error = std::move(why);
    return run;
  };

  // Synthesis, outside set-up: the client's pristine copy of the graph
  // and every input the run will send.
  const Graph base = fannr::BuildPreset(spec.preset);
  const Inputs in = Draw(spec, base, options.seed, options.seconds);

  // Set-up: the first instance serves the timed phases; the repeats
  // that give setup_s its median run after them, so the process holds
  // one instance's memory when peak_rss_mb is read (freed instances
  // stay resident in the allocator's arenas by chance, not by design).
  std::vector<SetupTimes> setups;
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<LoadGen> gen;
  std::vector<uint64_t> sub_ids;
  std::vector<net::WireResult> sub_initial;
  std::vector<uint64_t> sub_initial_epoch;
  std::string error;
  auto set_up = [&]() {
    gen.reset();
    fleet = std::make_unique<Fleet>();
    sub_ids.clear();
    sub_initial.clear();
    sub_initial_epoch.clear();
    SetupTimes times;
    if (!StartFleet(spec, *fleet, times, spans, &error)) {
      error = "set-up failed: " + error;
      return false;
    }
    const int64_t t = NowNs();
    gen = std::make_unique<LoadGen>(in.payloads, spans);
    const uint32_t span = spans.Begin("setup.warmup");
    if (!gen->Connect(fleet->port, spec.connections, &error) ||
        !WarmUp(in, *gen, sub_ids, sub_initial, sub_initial_epoch, &error)) {
      error = "warm-up failed: " + error;
      return false;
    }
    spans.End(span);
    times.warmup_ms = static_cast<double>(NowNs() - t) / 1e6;
    setups.push_back(times);
    return true;
  };
  if (!set_up()) return invalid(error);

  // The timed phases.
  const Snapshot before = options.trace ? TakeSnapshot(*fleet) : Snapshot();
  const double cpu_before = CpuMs();
  std::vector<PhaseResult> phases;
  size_t next_batch = 0;
  for (const PhasePlan& plan : in.phases) {
    Phase phase;
    phase.duration_ns = SecondsToNs(options.seconds * plan.share);
    phase.scheduled = plan.scheduled;
    phase.closed_conns = plan.closed_conns;
    phase.window = plan.window;
    // Every closed loop sends BATCHes: a request of milliseconds of
    // engine work, so closed-loop rates measure the engine rather than
    // thread wake-ups.
    phase.next = [&, &plan = plan](uint32_t) -> std::optional<Op> {
      if (plan.cycle_batches) next_batch %= in.batches.size();
      if (next_batch >= in.batches.size()) return std::nullopt;
      Op op;
      op.kind = OpKind::kBatch;
      op.item = static_cast<uint32_t>(next_batch++);
      return op;
    };
    const uint32_t span = spans.Begin("phase");
    phases.push_back(gen->Run(std::move(phase)));
    spans.End(span);
    if (!phases.back().transport_ok) {
      return invalid("load phase failed: " + phases.back().error);
    }
  }
  const double cpu_ms = CpuMs() - cpu_before;
  const double peak_rss_mb = PeakRssMb();
  const Snapshot after = options.trace ? TakeSnapshot(*fleet) : Snapshot();
  std::vector<double> router_overheads;
  if (options.trace && fleet->router) {
    // The jobs of the last BATCHes sent: their sources are still cached
    // on the shards, so routed and direct calls do the same hot work.
    std::vector<net::WireQuery> probes;
    const auto& sent = phases.front().digests;
    for (auto it = sent.rbegin();
         it != sent.rend() && probes.size() < kRouterProbeQueries; ++it) {
      const auto& jobs = in.batches[it->first.item].jobs;
      probes.insert(probes.end(), jobs.begin(), jobs.end());
    }
    router_overheads = RouterOverheads(*fleet, probes, spans);
    if (router_overheads.empty()) return invalid("router probe failed");
  }
  const std::vector<Push> pushes = gen->pushes();
  const std::vector<uint64_t> served_sub_ids = sub_ids;
  const std::vector<net::WireResult> served_sub_initial = sub_initial;
  const std::vector<uint64_t> served_sub_epoch = sub_initial_epoch;
  gen.reset();
  fleet.reset();
  for (size_t rep = 1; rep < kSetupReps; ++rep) {
    if (!set_up()) return invalid(error);
    gen.reset();
    fleet.reset();
  }

  // Outcome accounting and answer checks.
  for (const PhaseResult& phase : phases) {
    run.attempted += phase.attempted;
    run.failed += phase.failed;
  }
  std::string first_mismatch;
  run.mismatches =
      CheckAnswers(spec, in, phases, pushes, served_sub_ids,
                   served_sub_initial, served_sub_epoch, &first_mismatch);
  run.correct = run.mismatches == 0;
  if (!run.correct) run.error = "answer mismatch: " + first_mismatch;

  Measured measured{spec,   in,     base,   phases, pushes,
                    setups, before, after,  cpu_ms, peak_rss_mb,
                    {},     run.attempted,  run.failed};
  measured.primary = spec.kind == Kind::kWavesSubs
                         ? PushLatencies(phases[0], pushes)
                         : OpLatencies(phases[0], OpKind::kBatch);
  if (!TailValid(measured.primary.size(), kTailQ)) {
    return invalid("too few samples for the tail percentile: " +
                   std::to_string(measured.primary.size()));
  }
  AddOperationDetails(measured, run.details);
  if (!options.trace) {
    AddEndToEnd(measured, run.metrics);
    run.valid = true;
    return run;
  }
  AddLayerMetrics(measured, options.seed, spans, run.metrics);
  AddWorkloadLayerDetails(measured, router_overheads, run.details);
  run.details.push_back(
      {"trace.spans", static_cast<double>(spans.size()), "count"});
  if (!options.out_dir.empty()) {
    const std::string path = options.out_dir + "/spans-" + spec.name +
                             "-seed" + std::to_string(options.seed) + ".json";
    if (!spans.Write(path)) return invalid("could not write " + path);
  }
  run.valid = true;
  return run;
}

}  // namespace perfbench
