// Loopback differential: a seeded scenario answered in-process by
// BatchQueryEngine and through a FannServer over real loopback sockets
// must produce bitwise-identical wire results — same (distance bits,
// vertex id, subset, work counters, error text) — at every engine
// thread count, before and after a concurrent UPDATE_WEIGHTS wave.
// Queries admitted before the wave executes must be rejected with the
// engine's canonical mid-batch reason (MidBatchEpochError), i.e. the
// exact string an in-process caller would see.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dynamic/update.h"
#include "engine/batch_engine.h"
#include "net/client.h"
#include "net/server.h"
#include "test_util.h"
#include "testing/wire_reference.h"

namespace fannr::net {
namespace {

/// Same rendezvous gate as net_server_test.cc: the executor dequeues an
/// item and parks here while held, so tests can order queue states.
class ExecutorGate {
 public:
  void Hold() {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = true;
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      held_ = false;
    }
    cv_.notify_all();
  }
  void AwaitEntered(size_t count) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_ >= count; });
  }
  std::function<void()> AsHook() {
    return [this] {
      std::unique_lock<std::mutex> lock(mu_);
      ++entered_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return !held_; });
    };
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
  size_t entered_ = 0;
};

void AwaitQueueDepth(const FannServer& server, double depth) {
  for (int spin = 0; spin < 1000; ++spin) {
    if (server.metrics().Snapshot().gauge("server.queue_depth") >= depth) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  FAIL() << "queue depth never reached " << depth;
}

constexpr uint64_t kGraphSeed = 1234;
constexpr size_t kGraphVertices = 300;

/// The seeded scenario: a diverse batch spanning every solver and both
/// aggregates, plus one unsupported (algorithm, aggregate) pairing so
/// the engine's rejection text is also compared across the wire.
std::vector<WireQuery> BuildWireJobs(const Graph& graph) {
  const FannAlgorithm algorithms[] = {
      FannAlgorithm::kNaive,    FannAlgorithm::kGd, FannAlgorithm::kRList,
      FannAlgorithm::kExactMax, FannAlgorithm::kApxSum,
  };
  const double phis[] = {0.3, 0.5, 1.0};
  std::vector<WireQuery> jobs;
  for (size_t i = 0; i < 10; ++i) {
    const FannAlgorithm algorithm = algorithms[i % 5];
    Aggregate aggregate = (i % 2 == 0) ? Aggregate::kMax : Aggregate::kSum;
    if (algorithm == FannAlgorithm::kExactMax) aggregate = Aggregate::kMax;
    if (algorithm == FannAlgorithm::kApxSum) aggregate = Aggregate::kSum;

    Rng rng(7000 + i);
    const std::vector<VertexId> p = testing::SampleVertices(graph, 15, rng);
    const std::vector<VertexId> q = testing::SampleVertices(graph, 8, rng);
    WireQuery job;
    job.algorithm = static_cast<uint8_t>(algorithm);
    job.aggregate = static_cast<uint8_t>(aggregate);
    job.phi = phis[i % 3];
    job.p = std::vector<uint32_t>(p.begin(), p.end());
    job.q = std::vector<uint32_t>(q.begin(), q.end());
    jobs.push_back(std::move(job));
  }
  // An unsupported pairing: both sides must reject with the engine's
  // reason, verbatim.
  jobs[9].algorithm = static_cast<uint8_t>(FannAlgorithm::kApxSum);
  jobs[9].aggregate = static_cast<uint8_t>(Aggregate::kMax);
  return jobs;
}

uint64_t DistanceBits(double distance) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(distance));
  std::memcpy(&bits, &distance, sizeof(bits));
  return bits;
}

void ExpectBitwiseEqual(const WireResult& server, const WireResult& reference,
                        const std::string& label) {
  EXPECT_EQ(server.status, reference.status) << label;
  EXPECT_EQ(server.best, reference.best) << label;
  EXPECT_EQ(DistanceBits(server.distance), DistanceBits(reference.distance))
      << label << ": server distance " << server.distance << " vs reference "
      << reference.distance;
  EXPECT_EQ(server.gphi_evaluations, reference.gphi_evaluations) << label;
  EXPECT_EQ(server.subset, reference.subset) << label;
  EXPECT_EQ(server.error, reference.error) << label;
}

void ExpectAllBitwiseEqual(const std::vector<WireResult>& server,
                           const std::vector<WireResult>& reference,
                           const std::string& label) {
  ASSERT_EQ(server.size(), reference.size()) << label;
  for (size_t i = 0; i < server.size(); ++i) {
    ExpectBitwiseEqual(server[i], reference[i],
                       label + " job " + std::to_string(i));
  }
}

TEST(NetLoopbackDifferential, BitwiseIdenticalAcrossThreadsAndUpdates) {
  // Baselines from the first thread count; every other thread count must
  // reproduce them bitwise (the engine's determinism invariant, observed
  // through the wire).
  std::vector<WireResult> steady_baseline;
  std::vector<WireResult> updated_baseline;

  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("engine threads = " + std::to_string(threads));

    // The same seed materializes the scenario twice: Graph is move-only,
    // so the server's (mutable) copy and the reference copy are rebuilt
    // deterministically rather than shared.
    Graph ref_graph = testing::MakeRandomNetwork(kGraphVertices, kGraphSeed);
    Graph srv_graph = testing::MakeRandomNetwork(kGraphVertices, kGraphSeed);
    const std::vector<WireQuery> jobs = BuildWireJobs(ref_graph);

    GphiResources ref_resources;
    ref_resources.graph = &ref_graph;
    BatchOptions ref_options;
    ref_options.num_threads = threads;
    BatchQueryEngine reference(ref_resources, ref_options);

    ExecutorGate gate;
    GphiResources srv_resources;
    srv_resources.graph = &srv_graph;
    ServerConfig config;
    config.engine_options.num_threads = threads;
    config.test_execution_gate = gate.AsHook();
    FannServer server(&srv_graph, srv_resources, std::move(config));
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;

    FannClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()))
        << client.last_error();

    // --- steady state: epoch 0, no updates ---------------------------
    BatchRequest request;
    request.jobs = jobs;
    BatchResponse steady;
    ASSERT_TRUE(client.Batch(request, steady)) << client.last_error();
    EXPECT_EQ(steady.graph_epoch, 0u);
    const std::vector<WireResult> steady_reference =
        testing::SolveWire(reference, ref_graph, jobs);
    ExpectAllBitwiseEqual(steady.results, steady_reference, "steady");
    if (steady_baseline.empty()) {
      steady_baseline = steady.results;
    } else {
      ExpectAllBitwiseEqual(steady.results, steady_baseline,
                            "steady vs thread baseline");
    }

    // --- concurrent UPDATE_WEIGHTS wave ------------------------------
    // The wave is generated from the pre-update graph (both copies are
    // identical), sent to the server, and applied to the reference.
    Rng wave_rng(99);
    const dynamic::UpdateBatch wave =
        dynamic::MakeCongestionWave(ref_graph, 0.05, 0.5, 3.0, wave_rng);
    ASSERT_FALSE(wave.empty());

    // Order deterministically with the gate: the update is dequeued and
    // held, then the batch is admitted at epoch 0 behind it. FIFO makes
    // the update apply first, so the batch must be rejected stale.
    gate.Hold();
    std::thread updater([&] {
      FannClient update_client;
      ASSERT_TRUE(update_client.Connect("127.0.0.1", server.port()))
          << update_client.last_error();
      UpdateWeightsRequest update;
      for (const EdgeWeightUpdate& u : wave.updates()) {
        update.entries.push_back({u.u, u.v, u.new_weight});
      }
      UpdateWeightsResponse response;
      ASSERT_TRUE(update_client.UpdateWeights(update, response))
          << update_client.last_error();
      EXPECT_EQ(response.status, 0);
      EXPECT_GT(response.applied, 0u);
      EXPECT_EQ(response.new_epoch, 1u);
    });
    gate.AwaitEntered(2);  // steady batch was 1; the update is now held

    BatchResponse stale;
    std::thread querier([&] {
      FannClient stale_client;
      ASSERT_TRUE(stale_client.Connect("127.0.0.1", server.port()))
          << stale_client.last_error();
      ASSERT_TRUE(stale_client.Batch(request, stale))
          << stale_client.last_error();
    });
    AwaitQueueDepth(server, 1.0);
    gate.Release();
    updater.join();
    querier.join();

    // Every job admitted at epoch 0 is rejected with the engine's
    // canonical mid-batch reason — the identical string an in-process
    // Run() straddling the epoch change reports.
    EXPECT_EQ(stale.graph_epoch, 1u);
    ASSERT_EQ(stale.results.size(), jobs.size());
    const std::string canonical = MidBatchEpochError(0, 1);
    for (size_t i = 0; i < stale.results.size(); ++i) {
      EXPECT_EQ(stale.results[i].status,
                static_cast<uint8_t>(QueryStatus::kRejected))
          << "stale job " << i;
      EXPECT_EQ(stale.results[i].error, canonical) << "stale job " << i;
    }
    EXPECT_EQ(
        server.metrics().Snapshot().counter("server.rejected_stale_admission"),
        1u);

    // --- re-submit under the new epoch -------------------------------
    BatchResponse updated;
    ASSERT_TRUE(client.Batch(request, updated)) << client.last_error();
    EXPECT_EQ(updated.graph_epoch, 1u);

    const dynamic::ApplyResult applied = wave.Apply(ref_graph);
    EXPECT_GT(applied.applied, 0u);
    EXPECT_EQ(applied.new_epoch, 1u);
    const std::vector<WireResult> updated_reference =
        testing::SolveWire(reference, ref_graph, jobs);
    ExpectAllBitwiseEqual(updated.results, updated_reference, "updated");
    if (updated_baseline.empty()) {
      updated_baseline = updated.results;
    } else {
      ExpectAllBitwiseEqual(updated.results, updated_baseline,
                            "updated vs thread baseline");
    }

    server.RequestShutdown();
    const DrainStats stats = server.Wait();
    EXPECT_TRUE(stats.within_deadline);
  }
}

/// Reads one whole response frame off a raw socket (blocking).
bool ReadFrame(const Socket& sock, FrameHeader& header,
               std::vector<uint8_t>& payload) {
  uint8_t header_bytes[kFrameHeaderBytes];
  if (!sock.ReadFull(header_bytes, sizeof(header_bytes))) return false;
  DecodeFrameHeader(header_bytes, header);
  payload.resize(header.payload_length);
  if (header.payload_length > 0 &&
      !sock.ReadFull(payload.data(), payload.size())) {
    return false;
  }
  return true;
}

TEST(NetLoopbackDifferential, PipelinedShuffledIdsBitwiseIdentical) {
  // The steady scenario again, but pushed through the pipelined path:
  // three connections each write all ten jobs as individual QUERY
  // frames — with shuffled, colliding-across-connections request ids —
  // before reading a single response. Answers correlated by id must be
  // bitwise-identical to one in-process Run of the same jobs, which
  // also proves the server's burst merging (whatever run of queries it
  // groups into one engine Run) cannot change an answer. Repeated after
  // a weight wave so the post-update epoch is covered too.
  Graph ref_graph = testing::MakeRandomNetwork(kGraphVertices, kGraphSeed);
  Graph srv_graph = testing::MakeRandomNetwork(kGraphVertices, kGraphSeed);
  const std::vector<WireQuery> jobs = BuildWireJobs(ref_graph);

  GphiResources ref_resources;
  ref_resources.graph = &ref_graph;
  BatchOptions ref_options;
  ref_options.num_threads = 2;
  BatchQueryEngine reference(ref_resources, ref_options);

  GphiResources srv_resources;
  srv_resources.graph = &srv_graph;
  ServerConfig config;
  config.engine_options.num_threads = 2;
  FannServer server(&srv_graph, srv_resources, std::move(config));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  constexpr size_t kConnections = 3;
  auto run_pipelined_wave = [&](uint64_t id_salt, GraphEpoch expected_epoch,
                                const std::vector<WireResult>& expected) {
    std::vector<Socket> conns;
    // Per connection: a shuffled job order under ids that deliberately
    // repeat across connections (ids are per-connection namespace).
    std::vector<std::vector<std::pair<uint64_t, size_t>>> sent(kConnections);
    for (size_t c = 0; c < kConnections; ++c) {
      std::string connect_error;
      Socket sock = TcpConnect("127.0.0.1", server.port(), &connect_error);
      ASSERT_TRUE(sock.valid()) << connect_error;

      std::vector<size_t> order(jobs.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      Rng rng(id_salt * 100 + c);
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.NextBounded(i)]);
      }
      for (size_t i = 0; i < order.size(); ++i) {
        // Sparse, shuffled, connection-independent ids.
        const uint64_t id = id_salt + order[i] * 7919 + 13;
        QueryRequest request;
        request.query = jobs[order[i]];
        const std::vector<uint8_t> frame =
            EncodeFrame(static_cast<uint16_t>(Opcode::kQuery), id,
                        EncodeQueryRequest(request));
        ASSERT_TRUE(sock.WriteFull(frame.data(), frame.size()));
        sent[c].push_back({id, order[i]});
      }
      conns.push_back(std::move(sock));
    }

    // Only now read anything: every connection has its full window in
    // flight. Responses may arrive in any order; correlate by id.
    for (size_t c = 0; c < kConnections; ++c) {
      std::map<uint64_t, WireResult> by_id;
      for (size_t i = 0; i < jobs.size(); ++i) {
        FrameHeader header;
        std::vector<uint8_t> payload;
        ASSERT_TRUE(ReadFrame(conns[c], header, payload))
            << "connection " << c << " response " << i;
        ASSERT_EQ(header.opcode,
                  static_cast<uint16_t>(Opcode::kQueryResult));
        QueryResponse response;
        ASSERT_TRUE(DecodeQueryResponse(payload, response));
        EXPECT_EQ(response.graph_epoch, expected_epoch);
        ASSERT_TRUE(by_id.emplace(header.request_id,
                                  response.result).second)
            << "duplicate response id " << header.request_id;
      }
      for (const auto& [id, job_index] : sent[c]) {
        auto it = by_id.find(id);
        ASSERT_NE(it, by_id.end()) << "id " << id << " unanswered";
        ExpectBitwiseEqual(it->second, expected[job_index],
                           "conn " + std::to_string(c) + " job " +
                               std::to_string(job_index));
      }
    }
  };

  run_pipelined_wave(1000, 0, testing::SolveWire(reference, ref_graph, jobs));

  // Weight wave: server applies over the wire, reference in-process.
  Rng wave_rng(99);
  const dynamic::UpdateBatch wave =
      dynamic::MakeCongestionWave(ref_graph, 0.05, 0.5, 3.0, wave_rng);
  ASSERT_FALSE(wave.empty());
  {
    FannClient update_client;
    ASSERT_TRUE(update_client.Connect("127.0.0.1", server.port()))
        << update_client.last_error();
    UpdateWeightsRequest update;
    for (const EdgeWeightUpdate& u : wave.updates()) {
      update.entries.push_back({u.u, u.v, u.new_weight});
    }
    UpdateWeightsResponse response;
    ASSERT_TRUE(update_client.UpdateWeights(update, response))
        << update_client.last_error();
    EXPECT_EQ(response.status, 0);
  }
  const dynamic::ApplyResult applied = wave.Apply(ref_graph);
  EXPECT_EQ(applied.new_epoch, 1u);

  run_pipelined_wave(5000, 1, testing::SolveWire(reference, ref_graph, jobs));

  server.RequestShutdown();
  const DrainStats stats = server.Wait();
  EXPECT_TRUE(stats.within_deadline);
}

TEST(NetLoopbackDifferential, PipelinedDrainMidLoadAnswersBitwise) {
  // Mid-load drain: a connection with six pipelined queries in flight
  // (one held at the executor gate, five queued) receives the drain.
  // All six must still be answered — bitwise equal to in-process — as
  // *drained* work, then the connection closes cleanly.
  Graph ref_graph = testing::MakeRandomNetwork(kGraphVertices, kGraphSeed);
  Graph srv_graph = testing::MakeRandomNetwork(kGraphVertices, kGraphSeed);
  std::vector<WireQuery> jobs = BuildWireJobs(ref_graph);
  jobs.resize(6);

  GphiResources ref_resources;
  ref_resources.graph = &ref_graph;
  BatchQueryEngine reference(ref_resources, BatchOptions{});

  ExecutorGate gate;
  gate.Hold();
  GphiResources srv_resources;
  srv_resources.graph = &srv_graph;
  ServerConfig config;
  config.test_execution_gate = gate.AsHook();
  FannServer server(&srv_graph, srv_resources, std::move(config));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  FannClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()))
      << client.last_error();
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < jobs.size(); ++i) {
    uint64_t id = 0;
    ASSERT_TRUE(client.SendQuery(jobs[i], &id)) << client.last_error();
    ids.push_back(id);
  }
  gate.AwaitEntered(1);  // first query held; five queued behind it

  uint64_t shutdown_id = 0;
  ASSERT_TRUE(client.SendShutdown(&shutdown_id));
  for (int spin = 0; spin < 200 && !server.draining(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(server.draining());

  // Let Wait() arm the drain while the executor is still parked, so all
  // six items are accounted as drained work.
  DrainStats stats;
  std::thread wait_thread([&] { stats = server.Wait(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gate.Release();

  // Collect everything in flight: the shutdown ack plus six results.
  std::map<uint64_t, WireResult> by_id;
  bool acked = false;
  for (size_t i = 0; i < jobs.size() + 1; ++i) {
    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(client.ReadAny(header, payload)) << client.last_error();
    if (header.opcode == static_cast<uint16_t>(Opcode::kShutdownAck)) {
      EXPECT_EQ(header.request_id, shutdown_id);
      acked = true;
      continue;
    }
    ASSERT_EQ(header.opcode, static_cast<uint16_t>(Opcode::kQueryResult));
    QueryResponse response;
    ASSERT_TRUE(DecodeQueryResponse(payload, response));
    EXPECT_TRUE(by_id.emplace(header.request_id, response.result).second);
  }
  EXPECT_TRUE(acked);
  wait_thread.join();

  const std::vector<WireResult> expected =
      testing::SolveWire(reference, ref_graph, jobs);
  for (size_t i = 0; i < jobs.size(); ++i) {
    auto it = by_id.find(ids[i]);
    ASSERT_NE(it, by_id.end()) << "query " << i << " unanswered in drain";
    ExpectBitwiseEqual(it->second, expected[i],
                       "drained job " + std::to_string(i));
  }
  EXPECT_EQ(stats.drained_items, jobs.size());
  EXPECT_EQ(stats.aborted_items, 0u);
  EXPECT_TRUE(stats.within_deadline);
}

}  // namespace
}  // namespace fannr::net
