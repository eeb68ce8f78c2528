// Loopback differential for continuous queries (src/cont/): every
// PUSH_ANSWER a FannServer emits must be bitwise-identical — same
// (distance bits, vertex id, subset, work counters, error text) — to an
// in-process BatchQueryEngine solve of the same standing query at the
// epoch the push is stamped with, across engine thread counts and
// several interleaved UPDATE_WEIGHTS waves, with unchanged answers
// suppressed (delta semantics) unless the subscription opted into
// force_push. Also covered: the client's unsolicited-frame routing (a
// push arriving mid-synchronous-call lands in the push buffer, never
// dropped or misattributed), subscription limits shedding OVERLOADED,
// duplicate-id refusal over a raw socket, and a subscriber killed while
// a push is in flight leaving the server drainable.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
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

constexpr uint64_t kGraphSeed = 4242;
constexpr size_t kGraphVertices = 300;
/// Index of the force_push subscription in BuildSubscriptionJobs order.
/// Deliberately last: its push is the final frame a re-evaluation emits,
/// so receiving it means all of that wave's metric updates are visible.
constexpr size_t kForceIndex = 3;

/// Four standing queries spanning the weight-capable solvers, both
/// aggregates, and the weighted generalization (power-of-two weights so
/// w*d stays exact and ties survive bitwise).
std::vector<WireQuery> BuildSubscriptionJobs(const Graph& graph) {
  struct Shape {
    FannAlgorithm algorithm;
    Aggregate aggregate;
    double phi;
    bool weighted;
  };
  const Shape shapes[] = {
      {FannAlgorithm::kGd, Aggregate::kSum, 0.5, false},
      {FannAlgorithm::kRList, Aggregate::kMax, 0.3, false},
      {FannAlgorithm::kNaive, Aggregate::kSum, 1.0, true},
      {FannAlgorithm::kGd, Aggregate::kMax, 0.5, false},
  };
  std::vector<WireQuery> jobs;
  for (size_t i = 0; i < std::size(shapes); ++i) {
    Rng rng(4600 + i);
    const std::vector<VertexId> p = testing::SampleVertices(graph, 12, rng);
    const std::vector<VertexId> q = testing::SampleVertices(graph, 6, rng);
    WireQuery job;
    job.algorithm = static_cast<uint8_t>(shapes[i].algorithm);
    job.aggregate = static_cast<uint8_t>(shapes[i].aggregate);
    job.phi = shapes[i].phi;
    job.p = std::vector<uint32_t>(p.begin(), p.end());
    job.q = std::vector<uint32_t>(q.begin(), q.end());
    if (shapes[i].weighted) {
      const double pow2[] = {0.5, 2.0, 1.0, 4.0, 0.25, 1.0};
      job.weights.assign(pow2, pow2 + q.size());
    }
    jobs.push_back(std::move(job));
  }
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

UpdateWeightsRequest ToRequest(const dynamic::UpdateBatch& wave) {
  UpdateWeightsRequest request;
  for (const EdgeWeightUpdate& u : wave.updates()) {
    request.entries.push_back({u.u, u.v, u.new_weight});
  }
  return request;
}

TEST(NetSubscription, PushesBitwiseEqualInProcessAcrossThreadsAndWaves) {
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("engine threads = " + std::to_string(threads));

    // Graph is move-only: the server's (mutable) copy and the reference
    // copy are rebuilt from the same seed rather than shared.
    Graph ref_graph = testing::MakeRandomNetwork(kGraphVertices, kGraphSeed);
    Graph srv_graph = testing::MakeRandomNetwork(kGraphVertices, kGraphSeed);
    const std::vector<WireQuery> jobs = BuildSubscriptionJobs(ref_graph);

    GphiResources ref_resources;
    ref_resources.graph = &ref_graph;
    BatchOptions ref_options;
    ref_options.num_threads = threads;
    BatchQueryEngine reference(ref_resources, ref_options);

    GphiResources srv_resources;
    srv_resources.graph = &srv_graph;
    ServerConfig config;
    config.engine_options.num_threads = threads;
    FannServer server(&srv_graph, srv_resources, std::move(config));
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;

    FannClient subscriber;
    ASSERT_TRUE(subscriber.Connect("127.0.0.1", server.port()))
        << subscriber.last_error();

    // --- register: each initial answer solved at epoch 0, bitwise
    // equal to a lone in-process solve (the server runs initials as
    // single-job batches, so the reference does too) ------------------
    std::vector<uint64_t> sub_ids(jobs.size(), 0);
    std::vector<WireResult> last(jobs.size());
    std::vector<uint64_t> pushes_per_sub(jobs.size(), 0);
    for (size_t i = 0; i < jobs.size(); ++i) {
      SubscribeResponse response;
      ASSERT_TRUE(subscriber.Subscribe(jobs[i], /*force_push=*/
                                       i == kForceIndex, &sub_ids[i],
                                       response))
          << subscriber.last_error();
      EXPECT_EQ(response.graph_epoch, 0u);
      ASSERT_EQ(response.result.status,
                static_cast<uint8_t>(QueryStatus::kOk));
      const std::vector<WireResult> initial =
          testing::SolveWire(reference, ref_graph, std::span(&jobs[i], 1));
      ExpectBitwiseEqual(response.result, initial[0],
                         "initial sub " + std::to_string(i));
      last[i] = response.result;
    }
    EXPECT_EQ(server.metrics().Snapshot().gauge("server.subscriptions.active"),
              static_cast<double>(jobs.size()));

    FannClient updater;
    ASSERT_TRUE(updater.Connect("127.0.0.1", server.port()))
        << updater.last_error();

    GraphEpoch epoch = 0;
    uint64_t expected_sent = 0;
    uint64_t expected_suppressed = 0;
    std::vector<WireResult> current;  // reference answers at `epoch`

    // Applies one wave to both sides, predicts the push set with the
    // server's own delta rule (force_push || !SameVisibleAnswer), then
    // collects exactly that many pushes and compares them bitwise.
    // Returns how many pushes the wave produced.
    const auto run_wave = [&](const UpdateWeightsRequest& request,
                              const std::string& label) -> size_t {
      UpdateWeightsResponse ack;
      EXPECT_TRUE(updater.UpdateWeights(request, ack))
          << updater.last_error();
      EXPECT_EQ(ack.status, 0);
      ++epoch;
      EXPECT_EQ(ack.new_epoch, epoch);

      dynamic::UpdateBatch batch;
      for (const UpdateWeightsRequest::Entry& e : request.entries) {
        batch.SetWeight(e.u, e.v, e.weight);
      }
      const dynamic::ApplyResult applied = batch.Apply(ref_graph);
      EXPECT_EQ(applied.new_epoch, epoch);
      current = testing::SolveWire(reference, ref_graph, jobs);

      struct ExpectedPush {
        size_t sub;
        WireResult result;
      };
      std::vector<ExpectedPush> want;
      for (size_t i = 0; i < jobs.size(); ++i) {
        if (i == kForceIndex || !SameVisibleAnswer(current[i], last[i])) {
          want.push_back({i, current[i]});
          last[i] = current[i];
          ++pushes_per_sub[i];
          ++expected_sent;
        } else {
          ++expected_suppressed;
        }
      }
      // Pushes arrive in registration order (one merged re-evaluation,
      // FIFO outbound queue).
      for (const ExpectedPush& expected : want) {
        ReceivedPush push;
        if (!subscriber.WaitPush(push)) {
          ADD_FAILURE() << label
                        << ": WaitPush failed: " << subscriber.last_error();
          return want.size();
        }
        EXPECT_EQ(push.subscription_id, sub_ids[expected.sub]) << label;
        EXPECT_EQ(push.answer.graph_epoch, epoch) << label;
        ExpectBitwiseEqual(push.answer.result, expected.result,
                           label + " sub " + std::to_string(expected.sub));
      }
      return want.size();
    };

    // Wave 1: congestion reweighting — answers genuinely move.
    Rng wave_rng(99);
    const dynamic::UpdateBatch wave1 =
        dynamic::MakeCongestionWave(ref_graph, 0.3, 0.5, 3.0, wave_rng);
    ASSERT_FALSE(wave1.empty());
    const UpdateWeightsRequest wave1_request = ToRequest(wave1);
    const size_t wave1_pushes = run_wave(wave1_request, "wave 1");
    EXPECT_GE(wave1_pushes, 2u) << "wave 1 changed no standing answer — "
                                   "pick a livelier wave seed";

    // Wave 2: the SAME entries re-applied. Weights are idempotent but
    // the epoch still advances, so every subscription re-solves to its
    // previous answer: pure suppression, except the force_push one.
    const size_t wave2_pushes = run_wave(wave1_request, "wave 2 (no-op)");
    EXPECT_EQ(wave2_pushes, 1u);  // only the force_push subscription

    // Wave 3: fresh congestion on the updated weights.
    Rng wave3_rng(137);
    const dynamic::UpdateBatch wave3 =
        dynamic::MakeCongestionWave(ref_graph, 0.3, 0.5, 3.0, wave3_rng);
    ASSERT_FALSE(wave3.empty());
    run_wave(ToRequest(wave3), "wave 3");

    // Accounting: the force_push subscription pushed last in every
    // wave, so once its wave-3 push is in hand all counters are final.
    const obs::MetricsSnapshot snapshot = server.metrics().Snapshot();
    EXPECT_EQ(snapshot.counter("server.pushes.sent"), expected_sent);
    EXPECT_EQ(snapshot.counter("server.pushes.suppressed"),
              expected_suppressed);
    EXPECT_EQ(snapshot.counter("server.pushes.dropped_backpressure"), 0u);
    EXPECT_EQ(subscriber.pushes_dropped(), 0u);

    // Every subscription's current answer — pushed or suppressed — must
    // match a one-shot QUERY at the final epoch, bitwise.
    for (size_t i = 0; i < jobs.size(); ++i) {
      QueryResponse one_shot;
      ASSERT_TRUE(updater.Query(jobs[i], one_shot)) << updater.last_error();
      EXPECT_EQ(one_shot.graph_epoch, epoch);
      ExpectBitwiseEqual(one_shot.result, current[i],
                         "one-shot vs reference, sub " + std::to_string(i));
      EXPECT_TRUE(SameVisibleAnswer(one_shot.result, last[i]))
          << "suppressed answer diverged from live answer, sub " << i;
    }

    // Unsubscribe reports per-subscription delivery counts; unknown and
    // already-removed ids answer status 1.
    for (size_t i = 0; i < jobs.size(); ++i) {
      UnsubscribeResponse response;
      ASSERT_TRUE(subscriber.Unsubscribe(sub_ids[i], response))
          << subscriber.last_error();
      EXPECT_EQ(response.status, 0);
      EXPECT_EQ(response.pushes_sent, pushes_per_sub[i])
          << "sub " << i << " push accounting";
    }
    UnsubscribeResponse missing;
    ASSERT_TRUE(subscriber.Unsubscribe(0xDEADBEEF, missing));
    EXPECT_EQ(missing.status, 1);
    ASSERT_TRUE(subscriber.Unsubscribe(sub_ids[0], missing));
    EXPECT_EQ(missing.status, 1);
    EXPECT_EQ(server.metrics().Snapshot().gauge("server.subscriptions.active"),
              0.0);

    server.RequestShutdown();
    const DrainStats stats = server.Wait();
    EXPECT_TRUE(stats.within_deadline);
  }
}

TEST(NetSubscription, PushArrivingMidSynchronousCallIsBufferedNotDropped) {
  // Regression for the client's unsolicited-frame routing: a
  // PUSH_ANSWER sitting in the socket ahead of a synchronous call's
  // response must land in the push buffer — not be dropped, and not be
  // misattributed as the response.
  Graph ref_graph = testing::MakeRandomNetwork(kGraphVertices, kGraphSeed);
  Graph srv_graph = testing::MakeRandomNetwork(kGraphVertices, kGraphSeed);
  const std::vector<WireQuery> jobs = BuildSubscriptionJobs(ref_graph);

  GphiResources ref_resources;
  ref_resources.graph = &ref_graph;
  BatchQueryEngine reference(ref_resources, BatchOptions{});

  GphiResources srv_resources;
  srv_resources.graph = &srv_graph;
  FannServer server(&srv_graph, srv_resources, ServerConfig{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  FannClient subscriber;
  ASSERT_TRUE(subscriber.Connect("127.0.0.1", server.port()))
      << subscriber.last_error();
  uint64_t sub_id = 0;
  SubscribeResponse registered;
  ASSERT_TRUE(subscriber.Subscribe(jobs[0], /*force_push=*/true, &sub_id,
                                   registered))
      << subscriber.last_error();
  ASSERT_EQ(registered.result.status, static_cast<uint8_t>(QueryStatus::kOk));

  // Another connection moves the graph; wait until the push is enqueued
  // so it reaches the subscriber's socket ahead of anything it sends.
  Rng wave_rng(99);
  const dynamic::UpdateBatch wave =
      dynamic::MakeCongestionWave(ref_graph, 0.3, 0.5, 3.0, wave_rng);
  ASSERT_FALSE(wave.empty());
  FannClient updater;
  ASSERT_TRUE(updater.Connect("127.0.0.1", server.port()))
      << updater.last_error();
  UpdateWeightsResponse ack;
  ASSERT_TRUE(updater.UpdateWeights(ToRequest(wave), ack))
      << updater.last_error();
  ASSERT_EQ(ack.status, 0);
  for (int spin = 0; spin < 1000; ++spin) {
    if (server.metrics().Snapshot().counter("server.pushes.sent") >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(server.metrics().Snapshot().counter("server.pushes.sent"), 1u);

  // The synchronous call now reads the push frame first. Before the
  // routing fix the client dropped any frame whose id didn't match the
  // outstanding request; now it must buffer it and still answer.
  const dynamic::ApplyResult applied = wave.Apply(ref_graph);
  ASSERT_EQ(applied.new_epoch, 1u);
  QueryResponse one_shot;
  ASSERT_TRUE(subscriber.Query(jobs[1], one_shot)) << subscriber.last_error();
  EXPECT_EQ(one_shot.graph_epoch, 1u);
  const std::vector<WireResult> expected =
      testing::SolveWire(reference, ref_graph, std::span(&jobs[1], 1));
  ExpectBitwiseEqual(one_shot.result, expected[0], "query answered past push");

  ASSERT_EQ(subscriber.buffered_pushes(), 1u);
  ReceivedPush push;
  ASSERT_TRUE(subscriber.TakePush(push));
  EXPECT_EQ(push.subscription_id, sub_id);
  EXPECT_EQ(push.answer.graph_epoch, 1u);
  const std::vector<WireResult> pushed =
      testing::SolveWire(reference, ref_graph, std::span(&jobs[0], 1));
  ExpectBitwiseEqual(push.answer.result, pushed[0], "buffered push");
  EXPECT_EQ(subscriber.pushes_dropped(), 0u);

  server.RequestShutdown();
  const DrainStats stats = server.Wait();
  EXPECT_TRUE(stats.within_deadline);
}

TEST(NetSubscription, SubscriberKilledMidPushLeavesServerDrainable) {
  // The subscriber dies while its re-evaluation push is being prepared:
  // the update is dequeued and held at the gate, the subscriber's
  // socket closes underneath it, then the push path runs against the
  // dying connection. The server must shed the orphan subscription and
  // still drain within its deadline.
  Graph srv_graph = testing::MakeRandomNetwork(kGraphVertices, kGraphSeed);
  const std::vector<WireQuery> jobs = BuildSubscriptionJobs(srv_graph);

  ExecutorGate gate;
  GphiResources srv_resources;
  srv_resources.graph = &srv_graph;
  ServerConfig config;
  config.test_execution_gate = gate.AsHook();
  FannServer server(&srv_graph, srv_resources, std::move(config));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  auto subscriber = std::make_unique<FannClient>();
  ASSERT_TRUE(subscriber->Connect("127.0.0.1", server.port()))
      << subscriber->last_error();
  uint64_t sub_id = 0;
  SubscribeResponse registered;
  ASSERT_TRUE(subscriber->Subscribe(jobs[0], /*force_push=*/true, &sub_id,
                                    registered))
      << subscriber->last_error();
  ASSERT_EQ(registered.result.status, static_cast<uint8_t>(QueryStatus::kOk));

  // Hold the update at the gate, kill the subscriber, then let the
  // update (and the push attempt) proceed against the closed socket.
  Rng wave_rng(99);
  const dynamic::UpdateBatch wave =
      dynamic::MakeCongestionWave(srv_graph, 0.3, 0.5, 3.0, wave_rng);
  ASSERT_FALSE(wave.empty());
  const UpdateWeightsRequest request = ToRequest(wave);
  gate.Hold();
  FannClient updater;
  ASSERT_TRUE(updater.Connect("127.0.0.1", server.port()))
      << updater.last_error();
  std::thread update_thread([&] {
    UpdateWeightsResponse ack;
    ASSERT_TRUE(updater.UpdateWeights(request, ack)) << updater.last_error();
    EXPECT_EQ(ack.status, 0);
  });
  gate.AwaitEntered(2);  // entry 1 was the subscribe; the update is held
  subscriber->Close();
  subscriber.reset();
  gate.Release();
  update_thread.join();

  // The next epoch bump reaps the dead owner (the IO loop may need a
  // moment to observe the close first); the gauge must reach zero.
  bool reaped = false;
  for (int attempt = 0; attempt < 100 && !reaped; ++attempt) {
    UpdateWeightsResponse ack;
    ASSERT_TRUE(updater.UpdateWeights(request, ack)) << updater.last_error();
    ASSERT_EQ(ack.status, 0);
    reaped = server.metrics()
                 .Snapshot()
                 .gauge("server.subscriptions.active") == 0.0;
    if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(reaped) << "orphan subscription was never reaped";

  server.RequestShutdown();
  const DrainStats stats = server.Wait();
  EXPECT_TRUE(stats.within_deadline);
}

TEST(NetSubscription, LimitsShedOverloadedAndFreeOnUnsubscribe) {
  Graph srv_graph = testing::MakeRandomNetwork(kGraphVertices, kGraphSeed);
  const std::vector<WireQuery> jobs = BuildSubscriptionJobs(srv_graph);

  GphiResources srv_resources;
  srv_resources.graph = &srv_graph;
  ServerConfig config;
  config.max_subscriptions_per_connection = 2;
  config.max_subscriptions_total = 3;
  FannServer server(&srv_graph, srv_resources, std::move(config));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  FannClient a;
  FannClient b;
  ASSERT_TRUE(a.Connect("127.0.0.1", server.port())) << a.last_error();
  ASSERT_TRUE(b.Connect("127.0.0.1", server.port())) << b.last_error();

  // A fills its per-connection quota; the third is shed OVERLOADED.
  uint64_t a_ids[2] = {0, 0};
  for (size_t i = 0; i < 2; ++i) {
    SubscribeResponse response;
    ASSERT_TRUE(a.Subscribe(jobs[i], false, &a_ids[i], response))
        << a.last_error();
    ASSERT_EQ(response.result.status, static_cast<uint8_t>(QueryStatus::kOk));
  }
  uint64_t rejected_id = 0;
  SubscribeResponse rejected;
  EXPECT_FALSE(a.Subscribe(jobs[2], false, &rejected_id, rejected));
  EXPECT_EQ(a.last_error_code(), ErrorCode::kOverloaded) << a.last_error();

  // B takes the last global slot; its second trips the global limit.
  uint64_t b_id = 0;
  SubscribeResponse b_response;
  ASSERT_TRUE(b.Subscribe(jobs[2], false, &b_id, b_response))
      << b.last_error();
  ASSERT_EQ(b_response.result.status, static_cast<uint8_t>(QueryStatus::kOk));
  uint64_t b_rejected_id = 0;
  EXPECT_FALSE(b.Subscribe(jobs[3], false, &b_rejected_id, b_response));
  EXPECT_EQ(b.last_error_code(), ErrorCode::kOverloaded) << b.last_error();

  // Shedding is retryable: an unsubscribe frees the slot for B.
  UnsubscribeResponse removed;
  ASSERT_TRUE(a.Unsubscribe(a_ids[0], removed)) << a.last_error();
  EXPECT_EQ(removed.status, 0);
  uint64_t b_retry_id = 0;
  ASSERT_TRUE(b.Subscribe(jobs[3], false, &b_retry_id, b_response))
      << b.last_error();
  EXPECT_EQ(b_response.result.status, static_cast<uint8_t>(QueryStatus::kOk));

  EXPECT_EQ(server.metrics().Snapshot().gauge("server.subscriptions.active"),
            3.0);

  server.RequestShutdown();
  const DrainStats stats = server.Wait();
  EXPECT_TRUE(stats.within_deadline);
}

/// Reads one whole frame off a raw socket (blocking).
bool ReadRawFrame(const Socket& sock, FrameHeader& header,
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

TEST(NetSubscription, DuplicateSubscriptionIdRefusedOverRawSocket) {
  // The client auto-assigns unique ids, so reusing one takes a raw
  // socket: the same SUBSCRIBE frame twice. The first registers; the
  // second must be refused without disturbing the first.
  Graph srv_graph = testing::MakeRandomNetwork(kGraphVertices, kGraphSeed);
  const std::vector<WireQuery> jobs = BuildSubscriptionJobs(srv_graph);

  GphiResources srv_resources;
  srv_resources.graph = &srv_graph;
  FannServer server(&srv_graph, srv_resources, ServerConfig{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  std::string connect_error;
  Socket sock = TcpConnect("127.0.0.1", server.port(), &connect_error);
  ASSERT_TRUE(sock.valid()) << connect_error;

  SubscribeRequest request;
  request.query = jobs[0];
  request.force_push = 0;
  const std::vector<uint8_t> frame =
      EncodeFrame(static_cast<uint16_t>(Opcode::kSubscribe), 7,
                  EncodeSubscribeRequest(request));
  ASSERT_TRUE(sock.WriteFull(frame.data(), frame.size()));
  ASSERT_TRUE(sock.WriteFull(frame.data(), frame.size()));

  FrameHeader header;
  std::vector<uint8_t> payload;
  ASSERT_TRUE(ReadRawFrame(sock, header, payload));
  ASSERT_EQ(header.opcode, static_cast<uint16_t>(Opcode::kSubscribeResult));
  EXPECT_EQ(header.request_id, 7u);
  SubscribeResponse first;
  ASSERT_TRUE(DecodeSubscribeResponse(payload, first));
  EXPECT_EQ(first.result.status, static_cast<uint8_t>(QueryStatus::kOk));

  ASSERT_TRUE(ReadRawFrame(sock, header, payload));
  ASSERT_EQ(header.opcode, static_cast<uint16_t>(Opcode::kError));
  EXPECT_EQ(header.request_id, 7u);
  ErrorResponse refusal;
  ASSERT_TRUE(DecodeErrorResponse(payload, refusal));
  EXPECT_EQ(refusal.code, ErrorCode::kMalformedPayload);
  EXPECT_NE(refusal.message.find("already live"), std::string::npos)
      << refusal.message;

  // The original subscription survived the refusal.
  EXPECT_EQ(server.metrics().Snapshot().gauge("server.subscriptions.active"),
            1.0);

  server.RequestShutdown();
  const DrainStats stats = server.Wait();
  EXPECT_TRUE(stats.within_deadline);
}

}  // namespace
}  // namespace fannr::net
