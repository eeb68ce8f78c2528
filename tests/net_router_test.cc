// FannRouter: sharded serving must be observationally identical to a
// single node. The merge is a pure function of the per-shard answer
// set (never of arrival order); a 2-shard deployment answers bitwise
// what one server answers, before and after a replicated weight wave,
// at every engine thread count; a shard updated behind the router's
// back is detected and the query rejected with the engine's canonical
// mid-batch epoch reason; a killed-and-restarted replica rejoins the
// fleet epoch by WAL replay plus router catch-up instead of a rebuild;
// and pipelined queries from several connections at once answer
// exactly as they would one at a time.

#include "net/router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dynamic/update.h"
#include "dynamic/wal.h"
#include "engine/batch_engine.h"
#include "net/client.h"
#include "net/server.h"
#include "net/shard_plan.h"
#include "test_util.h"

namespace fannr::net {
namespace {

constexpr uint64_t kGraphSeed = 4242;
constexpr size_t kGraphVertices = 300;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "fannr_router_" + name;
}

// --- MergeShardAnswers: a pure function of the answer set ----------------

ShardAnswer OkAnswer(uint32_t shard, uint32_t best, double distance,
                     uint64_t gphi, uint64_t epoch = 7) {
  ShardAnswer a;
  a.shard = shard;
  a.transport_ok = true;
  a.graph_epoch = epoch;
  a.result.status = static_cast<uint8_t>(QueryStatus::kOk);
  a.result.best = best;
  a.result.distance = distance;
  a.result.gphi_evaluations = gphi;
  a.result.subset = {best, best + 1};
  return a;
}

/// Runs the merge over every rotation and the reverse of `answers`;
/// all outcomes must be identical to merging the original order.
void ExpectOrderIndependent(std::vector<ShardAnswer> answers) {
  const MergedAnswer expected = MergeShardAnswers(answers);
  auto expect_same = [&](const std::vector<ShardAnswer>& permuted,
                         const std::string& label) {
    const MergedAnswer merged = MergeShardAnswers(permuted);
    EXPECT_EQ(merged.is_error, expected.is_error) << label;
    EXPECT_EQ(merged.error_code, expected.error_code) << label;
    EXPECT_EQ(merged.error_message, expected.error_message) << label;
    EXPECT_EQ(merged.epochs_disagree, expected.epochs_disagree) << label;
    EXPECT_EQ(merged.graph_epoch, expected.graph_epoch) << label;
    EXPECT_EQ(merged.result.status, expected.result.status) << label;
    EXPECT_EQ(merged.result.best, expected.result.best) << label;
    EXPECT_EQ(merged.result.distance, expected.result.distance) << label;
    EXPECT_EQ(merged.result.gphi_evaluations,
              expected.result.gphi_evaluations)
        << label;
    EXPECT_EQ(merged.result.subset, expected.result.subset) << label;
    EXPECT_EQ(merged.result.error, expected.result.error) << label;
  };
  std::vector<ShardAnswer> rotated = answers;
  for (size_t r = 0; r < answers.size(); ++r) {
    std::rotate(rotated.begin(), rotated.begin() + 1, rotated.end());
    expect_same(rotated, "rotation " + std::to_string(r));
  }
  std::reverse(rotated.begin(), rotated.end());
  expect_same(rotated, "reversed");
}

TEST(MergeShardAnswers, CanonicalMinimumWithTiesSummedWork) {
  // Shards 2 and 0 tie on distance; the canonical (distance, id) order
  // picks the smaller vertex id no matter who answered first.
  std::vector<ShardAnswer> answers = {
      OkAnswer(0, 50, 3.25, 11),
      OkAnswer(1, 90, 4.00, 7),
      OkAnswer(2, 12, 3.25, 5),
      OkAnswer(3, 0xFFFFFFFFu, 0.0, 2),  // infeasible in its P-subset
  };
  const MergedAnswer merged = MergeShardAnswers(answers);
  EXPECT_FALSE(merged.is_error);
  EXPECT_FALSE(merged.epochs_disagree);
  EXPECT_EQ(merged.result.best, 12u);
  EXPECT_EQ(merged.result.distance, 3.25);
  EXPECT_EQ(merged.result.gphi_evaluations, 11u + 7u + 5u + 2u);
  EXPECT_EQ(merged.result.subset, (std::vector<uint32_t>{12, 13}));
  ExpectOrderIndependent(answers);
}

TEST(MergeShardAnswers, AllInfeasibleStaysInfeasible) {
  std::vector<ShardAnswer> answers = {
      OkAnswer(0, 0xFFFFFFFFu, 0.0, 3),
      OkAnswer(1, 0xFFFFFFFFu, 0.0, 4),
  };
  const MergedAnswer merged = MergeShardAnswers(answers);
  EXPECT_FALSE(merged.is_error);
  EXPECT_EQ(merged.result.best, 0xFFFFFFFFu);
  EXPECT_EQ(merged.result.gphi_evaluations, 7u);
  ExpectOrderIndependent(answers);
}

TEST(MergeShardAnswers, SeverityPriorityAndLowestShardSelection) {
  ShardAnswer dead;
  dead.shard = 2;
  dead.transport_ok = false;
  dead.error_message = "connection reset";

  ShardAnswer overloaded;
  overloaded.shard = 3;
  overloaded.transport_ok = true;
  overloaded.is_error = true;
  overloaded.error_code = ErrorCode::kOverloaded;
  overloaded.error_message = "queue full";

  ShardAnswer draining;
  draining.shard = 1;
  draining.transport_ok = true;
  draining.is_error = true;
  draining.error_code = ErrorCode::kShuttingDown;
  draining.error_message = "draining";

  ShardAnswer rejected = OkAnswer(0, 5, 1.0, 1);
  rejected.result = WireResult{};
  rejected.result.status = static_cast<uint8_t>(QueryStatus::kRejected);
  rejected.result.error = "bad job";

  ShardAnswer timed_out = OkAnswer(4, 6, 1.0, 1);
  timed_out.result = WireResult{};
  timed_out.result.status = static_cast<uint8_t>(QueryStatus::kTimedOut);
  timed_out.result.error = "deadline";

  const ShardAnswer ok = OkAnswer(5, 9, 2.0, 8);

  // Transport failure trumps everything.
  {
    std::vector<ShardAnswer> answers = {ok, overloaded, dead, draining};
    const MergedAnswer merged = MergeShardAnswers(answers);
    EXPECT_TRUE(merged.is_error);
    EXPECT_EQ(merged.error_code, ErrorCode::kInternal);
    EXPECT_NE(merged.error_message.find("shard 2"), std::string::npos);
    ExpectOrderIndependent(answers);
  }
  // Overload beats other error frames (it is the retryable verdict).
  {
    std::vector<ShardAnswer> answers = {draining, ok, overloaded};
    const MergedAnswer merged = MergeShardAnswers(answers);
    EXPECT_TRUE(merged.is_error);
    EXPECT_EQ(merged.error_code, ErrorCode::kOverloaded);
    EXPECT_EQ(merged.error_message, "queue full");
    ExpectOrderIndependent(answers);
  }
  // Error frames beat per-job statuses.
  {
    std::vector<ShardAnswer> answers = {rejected, draining, ok};
    const MergedAnswer merged = MergeShardAnswers(answers);
    EXPECT_TRUE(merged.is_error);
    EXPECT_EQ(merged.error_code, ErrorCode::kShuttingDown);
    ExpectOrderIndependent(answers);
  }
  // A rejection anywhere poisons the job, relayed over a timeout.
  {
    std::vector<ShardAnswer> answers = {timed_out, ok, rejected};
    const MergedAnswer merged = MergeShardAnswers(answers);
    EXPECT_FALSE(merged.is_error);
    EXPECT_EQ(merged.result.status,
              static_cast<uint8_t>(QueryStatus::kRejected));
    EXPECT_EQ(merged.result.error, "bad job");
    ExpectOrderIndependent(answers);
  }
  {
    std::vector<ShardAnswer> answers = {ok, timed_out};
    const MergedAnswer merged = MergeShardAnswers(answers);
    EXPECT_EQ(merged.result.status,
              static_cast<uint8_t>(QueryStatus::kTimedOut));
    ExpectOrderIndependent(answers);
  }
}

TEST(MergeShardAnswers, EpochDisagreementIsFlaggedWithMaxEpoch) {
  std::vector<ShardAnswer> answers = {
      OkAnswer(0, 5, 1.0, 1, /*epoch=*/3),
      OkAnswer(1, 6, 2.0, 1, /*epoch=*/5),
  };
  const MergedAnswer merged = MergeShardAnswers(answers);
  EXPECT_FALSE(merged.is_error);
  EXPECT_TRUE(merged.epochs_disagree);
  EXPECT_EQ(merged.graph_epoch, 5u);
  ExpectOrderIndependent(answers);
}

// --- end-to-end: 2 shards + router vs one single-node server -------------

/// One shard server plus everything it must outlive.
struct ShardNode {
  ShardNode(uint64_t seed, size_t vertices)
      : graph(testing::MakeRandomNetwork(vertices, seed)) {}

  bool Start(size_t threads, uint16_t port, dynamic::UpdateWal* wal,
             std::string* error) {
    resources = GphiResources{};
    resources.graph = &graph;
    ServerConfig config;
    config.port = port;
    config.engine_options.num_threads = threads;
    config.wal = wal;
    server = std::make_unique<FannServer>(&graph, resources, std::move(config));
    return server->Start(error);
  }

  void Stop() {
    server->RequestShutdown();
    server->Wait();
    server.reset();
  }

  Graph graph;
  GphiResources resources;
  std::unique_ptr<FannServer> server;
};

/// Exact-solver jobs over P sets that straddle both shards, plus the
/// screening shapes (unsupported pairing, empty P, out-of-range id)
/// whose rejection text must survive the fan-out verbatim.
std::vector<WireQuery> BuildShardedJobs(const Graph& graph) {
  const FannAlgorithm algorithms[] = {
      FannAlgorithm::kNaive,
      FannAlgorithm::kGd,
      FannAlgorithm::kRList,
      FannAlgorithm::kExactMax,
  };
  const double phis[] = {0.3, 0.5, 1.0};
  std::vector<WireQuery> jobs;
  for (size_t i = 0; i < 9; ++i) {
    const FannAlgorithm algorithm = algorithms[i % 4];
    Aggregate aggregate = (i % 2 == 0) ? Aggregate::kMax : Aggregate::kSum;
    if (algorithm == FannAlgorithm::kExactMax) aggregate = Aggregate::kMax;

    Rng rng(9100 + i);
    const std::vector<VertexId> p = testing::SampleVertices(graph, 16, rng);
    const std::vector<VertexId> q = testing::SampleVertices(graph, 8, rng);
    WireQuery job;
    job.algorithm = static_cast<uint8_t>(algorithm);
    job.aggregate = static_cast<uint8_t>(aggregate);
    job.phi = phis[i % 3];
    job.p = std::vector<uint32_t>(p.begin(), p.end());
    job.q = std::vector<uint32_t>(q.begin(), q.end());
    jobs.push_back(std::move(job));
  }
  // Unsupported (algorithm, aggregate) pairing: rejected with the
  // engine's reason on every shard, relayed once.
  jobs[6].algorithm = static_cast<uint8_t>(FannAlgorithm::kApxSum);
  jobs[6].aggregate = static_cast<uint8_t>(Aggregate::kMax);
  // Empty P: unsplittable, passed through whole to shard 0.
  jobs[7].p.clear();
  // An out-of-range data point: also a passthrough, rejected by the
  // shard with the same screening text a single server produces.
  jobs[8].p.push_back(static_cast<uint32_t>(graph.NumVertices()) + 3);
  return jobs;
}

uint64_t DistanceBits(double distance) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(distance));
  std::memcpy(&bits, &distance, sizeof(bits));
  return bits;
}

/// Bitwise comparison minus gphi_evaluations: the router reports the
/// summed work of all shards, which legitimately differs from the
/// single-node counter. Everything the answer *means* must be equal.
void ExpectAnswerEqual(const WireResult& sharded, const WireResult& single,
                       const std::string& label) {
  EXPECT_EQ(sharded.status, single.status) << label;
  EXPECT_EQ(sharded.best, single.best) << label;
  EXPECT_EQ(DistanceBits(sharded.distance), DistanceBits(single.distance))
      << label << ": sharded " << sharded.distance << " vs single "
      << single.distance;
  EXPECT_EQ(sharded.subset, single.subset) << label;
  EXPECT_EQ(sharded.error, single.error) << label;
}

TEST(FannRouter, TwoShardDifferentialAcrossThreadsAndUpdates) {
  for (const size_t threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("engine threads = " + std::to_string(threads));

    ShardNode shard0(kGraphSeed, kGraphVertices);
    ShardNode shard1(kGraphSeed, kGraphVertices);
    ShardNode single(kGraphSeed, kGraphVertices);
    const ShardPlan plan = ShardPlan::Build(shard0.graph, 2);
    const std::vector<WireQuery> jobs = BuildShardedJobs(single.graph);

    std::string error;
    ASSERT_TRUE(shard0.Start(threads, 0, nullptr, &error)) << error;
    ASSERT_TRUE(shard1.Start(threads, 0, nullptr, &error)) << error;
    ASSERT_TRUE(single.Start(threads, 0, nullptr, &error)) << error;

    RouterConfig router_config;
    router_config.shards = {{"127.0.0.1", shard0.server->port()},
                            {"127.0.0.1", shard1.server->port()}};
    FannRouter router(plan, router_config);
    ASSERT_TRUE(router.Start(&error)) << error;

    FannClient via_router;
    FannClient via_single;
    ASSERT_TRUE(via_router.Connect("127.0.0.1", router.port()))
        << via_router.last_error();
    ASSERT_TRUE(via_single.Connect("127.0.0.1", single.server->port()))
        << via_single.last_error();

    auto compare_batch = [&](uint64_t expected_epoch,
                             const std::string& label) {
      BatchRequest request;
      request.jobs = jobs;
      BatchResponse sharded;
      BatchResponse reference;
      ASSERT_TRUE(via_router.Batch(request, sharded))
          << via_router.last_error();
      ASSERT_TRUE(via_single.Batch(request, reference))
          << via_single.last_error();
      EXPECT_EQ(sharded.graph_epoch, expected_epoch) << label;
      EXPECT_EQ(reference.graph_epoch, expected_epoch) << label;
      ASSERT_EQ(sharded.results.size(), reference.results.size()) << label;
      for (size_t i = 0; i < sharded.results.size(); ++i) {
        ExpectAnswerEqual(sharded.results[i], reference.results[i],
                          label + " job " + std::to_string(i));
      }
      // The single QUERY path fans out identically.
      QueryResponse q_sharded;
      QueryResponse q_reference;
      QueryRequest one;
      one.query = jobs[0];
      ASSERT_TRUE(via_router.Query(one.query, q_sharded))
          << via_router.last_error();
      ASSERT_TRUE(via_single.Query(one.query, q_reference))
          << via_single.last_error();
      ExpectAnswerEqual(q_sharded.result, q_reference.result,
                        label + " single query");
    };

    compare_batch(0, "steady");

    // One congestion wave, replicated by the router and applied to the
    // single node over its ordinary update path.
    Rng wave_rng(321);
    const dynamic::UpdateBatch wave =
        dynamic::MakeCongestionWave(single.graph, 0.05, 0.5, 3.0, wave_rng);
    ASSERT_FALSE(wave.empty());
    UpdateWeightsRequest update;
    for (const EdgeWeightUpdate& u : wave.updates()) {
      update.entries.push_back({u.u, u.v, u.new_weight});
    }
    UpdateWeightsResponse via_router_response;
    UpdateWeightsResponse via_single_response;
    ASSERT_TRUE(via_router.UpdateWeights(update, via_router_response))
        << via_router.last_error();
    ASSERT_TRUE(via_single.UpdateWeights(update, via_single_response))
        << via_single.last_error();
    EXPECT_EQ(via_router_response.status, 0);
    EXPECT_EQ(via_router_response.new_epoch, 1u);
    EXPECT_EQ(via_router_response.applied, via_single_response.applied);
    EXPECT_EQ(router.repl_epoch(), 1u);

    compare_batch(1, "post-wave");

    // Replication rejections relay too: an entry naming a non-edge is
    // refused by every replica with the single-node reason, applied
    // nowhere, and leaves the fleet epoch alone.
    UpdateWeightsRequest bogus;
    bogus.entries.push_back({0, 0, 1.0});
    UpdateWeightsResponse bogus_via_router;
    UpdateWeightsResponse bogus_via_single;
    ASSERT_TRUE(via_router.UpdateWeights(bogus, bogus_via_router))
        << via_router.last_error();
    ASSERT_TRUE(via_single.UpdateWeights(bogus, bogus_via_single))
        << via_single.last_error();
    EXPECT_EQ(bogus_via_router.status, 1);
    EXPECT_EQ(bogus_via_router.error, bogus_via_single.error);
    EXPECT_EQ(router.repl_epoch(), 1u);

    router.RequestShutdown();
    router.Wait();
    shard0.Stop();
    shard1.Stop();
    single.Stop();
  }
}

TEST(FannRouter, RogueShardUpdateRejectsWithCanonicalStaleReason) {
  ShardNode shard0(kGraphSeed, kGraphVertices);
  ShardNode shard1(kGraphSeed, kGraphVertices);
  const ShardPlan plan = ShardPlan::Build(shard0.graph, 2);

  std::string error;
  ASSERT_TRUE(shard0.Start(1, 0, nullptr, &error)) << error;
  ASSERT_TRUE(shard1.Start(1, 0, nullptr, &error)) << error;

  RouterConfig router_config;
  router_config.shards = {{"127.0.0.1", shard0.server->port()},
                          {"127.0.0.1", shard1.server->port()}};
  FannRouter router(plan, router_config);
  ASSERT_TRUE(router.Start(&error)) << error;

  // An operator (or bug) updates shard 0 directly, behind the router's
  // back: the fleet now disagrees mid-wave and no router-side sync can
  // reconcile it (shard 0 is *ahead* of the router's history).
  {
    Rng rogue_rng(77);
    const dynamic::UpdateBatch rogue =
        dynamic::MakeCongestionWave(shard0.graph, 0.05, 0.5, 3.0, rogue_rng);
    ASSERT_FALSE(rogue.empty());
    FannClient direct;
    ASSERT_TRUE(direct.Connect("127.0.0.1", shard0.server->port()))
        << direct.last_error();
    UpdateWeightsRequest update;
    for (const EdgeWeightUpdate& u : rogue.updates()) {
      update.entries.push_back({u.u, u.v, u.new_weight});
    }
    UpdateWeightsResponse response;
    ASSERT_TRUE(direct.UpdateWeights(update, response))
        << direct.last_error();
    ASSERT_EQ(response.status, 0);
    ASSERT_EQ(response.new_epoch, 1u);
  }

  // A query spanning both shards would mix epoch-1 and epoch-0 weights;
  // after the one sync-and-retry it must be rejected with the exact
  // reason the engine uses for a mid-batch epoch change.
  WireQuery job;
  job.algorithm = static_cast<uint8_t>(FannAlgorithm::kNaive);
  job.aggregate = static_cast<uint8_t>(Aggregate::kSum);
  job.phi = 0.5;
  for (uint32_t v = 0, taken0 = 0, taken1 = 0;
       v < plan.num_vertices() && (taken0 < 8 || taken1 < 8); ++v) {
    uint32_t& taken = plan.OwnerOf(v) == 0 ? taken0 : taken1;
    if (taken < 8) {
      job.p.push_back(v);
      ++taken;
    }
  }
  Rng q_rng(5);
  const std::vector<VertexId> q =
      testing::SampleVertices(shard0.graph, 6, q_rng);
  job.q = std::vector<uint32_t>(q.begin(), q.end());

  FannClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", router.port()))
      << client.last_error();
  QueryResponse response;
  ASSERT_TRUE(client.Query(job, response)) << client.last_error();
  EXPECT_EQ(response.result.status,
            static_cast<uint8_t>(QueryStatus::kRejected));
  EXPECT_EQ(response.result.error, MidBatchEpochError(0, 1));

  std::string stats;
  ASSERT_TRUE(client.Stats(stats)) << client.last_error();
  EXPECT_NE(stats.find("\"router.fanout.epoch_retries\": 1"),
            std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"router.stale_rejections\": 1"), std::string::npos)
      << stats;

  router.RequestShutdown();
  router.Wait();
  shard0.Stop();
  shard1.Stop();
}

TEST(FannRouter, KilledReplicaRejoinsViaWalCatchUp) {
  // The router catches replicas up from its WAL's records when it has
  // a WAL, and from its in-memory history when it has none.
  for (const bool router_has_wal : {true, false}) {
    SCOPED_TRACE(router_has_wal ? "router WAL" : "no router WAL");
    const std::string router_wal_path = TempPath("router.wal");
    const std::string shard1_wal_path = TempPath("shard1.wal");
    std::remove(router_wal_path.c_str());
    std::remove(shard1_wal_path.c_str());

    // gen_graph evolves alongside the fleet and generates each wave from
    // the correct epoch; it doubles as the in-process reference.
    Graph gen_graph = testing::MakeRandomNetwork(kGraphVertices, kGraphSeed);
    const GraphFingerprint epoch0 = gen_graph.Fingerprint();

    ShardNode shard0(kGraphSeed, kGraphVertices);
    auto shard1 = std::make_unique<ShardNode>(kGraphSeed, kGraphVertices);
    const ShardPlan plan = ShardPlan::Build(shard0.graph, 2);

    std::string error;
    std::unique_ptr<dynamic::UpdateWal> router_wal =
        dynamic::UpdateWal::Open(router_wal_path, epoch0, &error);
    ASSERT_NE(router_wal, nullptr) << error;
    std::unique_ptr<dynamic::UpdateWal> shard1_wal =
        dynamic::UpdateWal::Open(shard1_wal_path, epoch0, &error);
    ASSERT_NE(shard1_wal, nullptr) << error;

    ASSERT_TRUE(shard0.Start(1, 0, nullptr, &error)) << error;
    ASSERT_TRUE(shard1->Start(1, 0, shard1_wal.get(), &error)) << error;
    const uint16_t shard1_port = shard1->server->port();

    RouterConfig router_config;
    router_config.shards = {{"127.0.0.1", shard0.server->port()},
                            {"127.0.0.1", shard1_port}};
    router_config.wal = router_has_wal ? router_wal.get() : nullptr;
    auto router = std::make_unique<FannRouter>(plan, router_config);
    ASSERT_TRUE(router->Start(&error)) << error;

    FannClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", router->port()))
        << client.last_error();

    auto send_wave = [&](uint64_t seed, uint64_t expected_epoch) {
      Rng rng(seed);
      const dynamic::UpdateBatch wave =
          dynamic::MakeCongestionWave(gen_graph, 0.05, 0.5, 3.0, rng);
      ASSERT_FALSE(wave.empty());
      UpdateWeightsRequest update;
      for (const EdgeWeightUpdate& u : wave.updates()) {
        update.entries.push_back({u.u, u.v, u.new_weight});
      }
      UpdateWeightsResponse response;
      ASSERT_TRUE(client.UpdateWeights(update, response))
          << client.last_error();
      ASSERT_EQ(response.status, 0);
      EXPECT_EQ(response.new_epoch, expected_epoch);
      wave.Apply(gen_graph);
      ASSERT_EQ(gen_graph.epoch(), expected_epoch);
    };

    // Wave 1 reaches both replicas (and shard 1's own WAL through the
    // server's REPL_APPLY durability path).
    send_wave(8801, 1);
    EXPECT_EQ(router->repl_epoch(), 1u);

    // Kill replica 1, then replicate wave 2 while it is down: the update
    // must still succeed through replica 0, with the record retained in
    // the router's WAL for the eventual catch-up.
    shard1->Stop();
    shard1.reset();
    shard1_wal.reset();
    send_wave(8802, 2);
    EXPECT_EQ(router->repl_epoch(), 2u);

    // Restart the replica the way a real process would: fresh epoch-0
    // graph, replay its own WAL (reaching epoch 1 — its position when it
    // died), listen on the same address.
    shard1 = std::make_unique<ShardNode>(kGraphSeed, kGraphVertices);
    shard1_wal = dynamic::UpdateWal::Open(shard1_wal_path, epoch0, &error);
    ASSERT_NE(shard1_wal, nullptr) << error;
    ASSERT_EQ(shard1_wal->records().size(), 1u);
    ASSERT_EQ(shard1_wal->ReplayInto(shard1->graph, &error), 1u) << error;
    ASSERT_EQ(shard1->graph.epoch(), 1u);
    ASSERT_TRUE(shard1->Start(1, shard1_port, shard1_wal.get(), &error))
        << error;

    // A spanning query now hits the stale replica; the router detects the
    // epoch disagreement, replays the missing tail (exactly wave 2 — one
    // record), retries, and answers correctly at the fleet epoch.
    WireQuery job;
    job.algorithm = static_cast<uint8_t>(FannAlgorithm::kNaive);
    job.aggregate = static_cast<uint8_t>(Aggregate::kSum);
    job.phi = 0.5;
    for (uint32_t v = 0, taken0 = 0, taken1 = 0;
         v < plan.num_vertices() && (taken0 < 8 || taken1 < 8); ++v) {
      uint32_t& taken = plan.OwnerOf(v) == 0 ? taken0 : taken1;
      if (taken < 8) {
        job.p.push_back(v);
        ++taken;
      }
    }
    Rng q_rng(6);
    const std::vector<VertexId> q =
        testing::SampleVertices(gen_graph, 6, q_rng);
    job.q = std::vector<uint32_t>(q.begin(), q.end());

    QueryResponse sharded;
    ASSERT_TRUE(client.Query(job, sharded)) << client.last_error();
    EXPECT_EQ(sharded.graph_epoch, 2u);
    EXPECT_EQ(sharded.result.status, static_cast<uint8_t>(QueryStatus::kOk));

    // Reference: the same job solved in-process on the twice-updated
    // graph must agree bitwise (minus the summed work counter).
    {
      GphiResources resources;
      resources.graph = &gen_graph;
      BatchQueryEngine reference(resources, BatchOptions{});
      IndexedVertexSet p_set(gen_graph.NumVertices(),
                             std::vector<VertexId>(job.p.begin(), job.p.end()));
      IndexedVertexSet q_set(gen_graph.NumVertices(),
                             std::vector<VertexId>(job.q.begin(), job.q.end()));
      FannrQuery reference_job;
      reference_job.query.graph = &gen_graph;
      reference_job.query.data_points = &p_set;
      reference_job.query.query_points = &q_set;
      reference_job.query.phi = job.phi;
      reference_job.query.aggregate = static_cast<Aggregate>(job.aggregate);
      reference_job.algorithm = static_cast<FannAlgorithm>(job.algorithm);
      const std::vector<FannResult> results = reference.Run({reference_job});
      ExpectAnswerEqual(sharded.result, ToWire(results[0]), "post-catch-up");
    }

    // The catch-up replayed exactly the one missing record, and the
    // replica's next answers come from the fleet epoch (checked above via
    // graph_epoch == 2 on a spanning query).
    std::string stats;
    ASSERT_TRUE(client.Stats(stats)) << client.last_error();
    EXPECT_NE(stats.find("\"router.catch_up.records\": 1"), std::string::npos)
        << stats;

    // Router restart: a new router adopting the same WAL starts at the
    // fleet epoch with nothing to replay and serves immediately. Without
    // a WAL the history is gone, so the new router refuses the fleet
    // rather than fork its epoch sequence.
    router->RequestShutdown();
    router->Wait();
    router.reset();
    client.Close();
    router_wal = dynamic::UpdateWal::Open(router_wal_path, epoch0, &error);
    ASSERT_NE(router_wal, nullptr) << error;
    EXPECT_EQ(router_wal->records().size(), router_has_wal ? 2u : 0u);
    router_config.wal = router_has_wal ? router_wal.get() : nullptr;
    auto router2 = std::make_unique<FannRouter>(plan, router_config);
    if (!router_has_wal) {
      EXPECT_FALSE(router2->Start(&error));
      EXPECT_NE(error.find("ahead of the router history"), std::string::npos)
          << error;
      router2.reset();
      shard0.Stop();
      shard1->Stop();
      std::remove(router_wal_path.c_str());
      std::remove(shard1_wal_path.c_str());
      continue;
    }
    EXPECT_EQ(router_wal->end_epoch(), 2u);
    ASSERT_TRUE(router2->Start(&error)) << error;
    EXPECT_EQ(router2->repl_epoch(), 2u);

    FannClient client2;
    ASSERT_TRUE(client2.Connect("127.0.0.1", router2->port()))
        << client2.last_error();
    QueryResponse again;
    ASSERT_TRUE(client2.Query(job, again)) << client2.last_error();
    EXPECT_EQ(again.graph_epoch, 2u);
    ExpectAnswerEqual(again.result, sharded.result, "after router restart");

    router2->RequestShutdown();
    router2->Wait();
    shard0.Stop();
    shard1->Stop();
    std::remove(router_wal_path.c_str());
    std::remove(shard1_wal_path.c_str());
  }
}

TEST(FannRouter, ConcurrentPipelinedQueriesMatchSingleNode) {
  // Several client connections pipeline QUERYs at once, so the router's
  // executor sees bursts mixing connections and fans each burst out as
  // one sub-batch per shard. Every answer must still be bitwise the
  // single-node answer, before and after a replicated wave.
  constexpr size_t kConnections = 4;
  constexpr size_t kPerConnection = 12;
  ShardNode shard0(kGraphSeed, kGraphVertices);
  ShardNode shard1(kGraphSeed, kGraphVertices);
  ShardNode single(kGraphSeed, kGraphVertices);
  const ShardPlan plan = ShardPlan::Build(shard0.graph, 2);

  std::string error;
  ASSERT_TRUE(shard0.Start(2, 0, nullptr, &error)) << error;
  ASSERT_TRUE(shard1.Start(2, 0, nullptr, &error)) << error;
  ASSERT_TRUE(single.Start(2, 0, nullptr, &error)) << error;
  RouterConfig router_config;
  router_config.shards = {{"127.0.0.1", shard0.server->port()},
                          {"127.0.0.1", shard1.server->port()}};
  FannRouter router(plan, router_config);
  ASSERT_TRUE(router.Start(&error)) << error;

  // Connection c sends queries[c]: the sharded jobs (screening shapes
  // included), padded with more spanning GD / R-List queries.
  std::vector<std::vector<WireQuery>> queries(kConnections);
  for (size_t c = 0; c < kConnections; ++c) {
    queries[c] = BuildShardedJobs(single.graph);
    Rng rng(700 + c);
    while (queries[c].size() < kPerConnection) {
      WireQuery job = queries[c][queries[c].size() % 4];
      const std::vector<VertexId> p =
          testing::SampleVertices(single.graph, 16, rng);
      job.p = std::vector<uint32_t>(p.begin(), p.end());
      queries[c].push_back(std::move(job));
    }
    std::rotate(queries[c].begin(), queries[c].begin() + c,
                queries[c].end());
  }

  FannClient via_single;
  ASSERT_TRUE(via_single.Connect("127.0.0.1", single.server->port()))
      << via_single.last_error();
  auto compare_round = [&](uint64_t expected_epoch, const std::string& label) {
    std::vector<std::vector<QueryResponse>> routed(
        kConnections, std::vector<QueryResponse>(kPerConnection));
    std::vector<std::string> failures(kConnections);
    std::atomic<size_t> ready{0};
    std::vector<std::thread> senders;
    for (size_t c = 0; c < kConnections; ++c) {
      senders.emplace_back([&, c] {
        FannClient client;
        if (!client.Connect("127.0.0.1", router.port())) {
          failures[c] = client.last_error();
          return;
        }
        ready.fetch_add(1);
        while (ready.load() < kConnections) std::this_thread::yield();
        std::vector<uint64_t> ids(kPerConnection);
        for (size_t i = 0; i < kPerConnection; ++i) {
          if (!client.SendQuery(queries[c][i], &ids[i])) {
            failures[c] = client.last_error();
            return;
          }
        }
        for (size_t n = 0; n < kPerConnection; ++n) {
          FrameHeader header;
          std::vector<uint8_t> payload;
          QueryResponse response;
          if (!client.ReadAny(header, payload) ||
              header.opcode != static_cast<uint16_t>(Opcode::kQueryResult) ||
              !DecodeQueryResponse(payload, response)) {
            failures[c] = "bad response frame: " + client.last_error();
            return;
          }
          const auto slot = std::find(ids.begin(), ids.end(),
                                      header.request_id);
          if (slot == ids.end()) {
            failures[c] = "unknown request id";
            return;
          }
          routed[c][static_cast<size_t>(slot - ids.begin())] = response;
        }
      });
    }
    for (std::thread& t : senders) t.join();
    for (size_t c = 0; c < kConnections; ++c) {
      ASSERT_TRUE(failures[c].empty()) << label << ": " << failures[c];
      for (size_t i = 0; i < kPerConnection; ++i) {
        QueryResponse reference;
        ASSERT_TRUE(via_single.Query(queries[c][i], reference))
            << via_single.last_error();
        const std::string where = label + " connection " + std::to_string(c) +
                                  " query " + std::to_string(i);
        EXPECT_EQ(routed[c][i].graph_epoch, expected_epoch) << where;
        ExpectAnswerEqual(routed[c][i].result, reference.result, where);
      }
    }
  };

  compare_round(0, "steady");

  Rng wave_rng(654);
  const dynamic::UpdateBatch wave =
      dynamic::MakeCongestionWave(single.graph, 0.05, 0.5, 3.0, wave_rng);
  ASSERT_FALSE(wave.empty());
  UpdateWeightsRequest update;
  for (const EdgeWeightUpdate& u : wave.updates()) {
    update.entries.push_back({u.u, u.v, u.new_weight});
  }
  FannClient updater;
  ASSERT_TRUE(updater.Connect("127.0.0.1", router.port()))
      << updater.last_error();
  UpdateWeightsResponse routed_update;
  UpdateWeightsResponse single_update;
  ASSERT_TRUE(updater.UpdateWeights(update, routed_update))
      << updater.last_error();
  ASSERT_TRUE(via_single.UpdateWeights(update, single_update))
      << via_single.last_error();
  ASSERT_EQ(routed_update.new_epoch, 1u);
  ASSERT_EQ(single_update.new_epoch, 1u);

  compare_round(1, "post-wave");

  std::string stats;
  ASSERT_TRUE(updater.Stats(stats)) << updater.last_error();
  EXPECT_NE(stats.find("\"router.requests.query\": " +
                       std::to_string(2 * kConnections * kPerConnection)),
            std::string::npos)
      << stats;

  router.RequestShutdown();
  router.Wait();
  shard0.Stop();
  shard1.Stop();
  single.Stop();
}

TEST(FannRouter, WireShutdownTerminatesWait) {
  // Regression: the router once handled a SHUTDOWN frame on a
  // connection thread that Wait could never join, so the real binaries
  // hung on exit (in-process tests shut down from the test thread and
  // missed it). The frame is now answered inline by the event loop; a
  // hang here shows up as the test timing out.
  ShardNode shard0(kGraphSeed, kGraphVertices);
  ShardNode shard1(kGraphSeed, kGraphVertices);
  const ShardPlan plan = ShardPlan::Build(shard0.graph, 2);

  std::string error;
  ASSERT_TRUE(shard0.Start(1, 0, nullptr, &error)) << error;
  ASSERT_TRUE(shard1.Start(1, 0, nullptr, &error)) << error;

  RouterConfig router_config;
  router_config.shards = {{"127.0.0.1", shard0.server->port()},
                          {"127.0.0.1", shard1.server->port()}};
  FannRouter router(plan, router_config);
  ASSERT_TRUE(router.Start(&error)) << error;

  FannClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", router.port()))
      << client.last_error();
  // A real exchange first, so the connection owns live shard clients.
  const std::vector<WireQuery> jobs = BuildShardedJobs(shard0.graph);
  QueryResponse response;
  ASSERT_TRUE(client.Query(jobs[0], response)) << client.last_error();
  ASSERT_TRUE(client.Shutdown()) << client.last_error();

  router.Wait();
  shard0.Stop();
  shard1.Stop();
}

}  // namespace
}  // namespace fannr::net
