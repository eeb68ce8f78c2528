// Continuous-subscription benchmark: push latency and delta-suppression
// behaviour of the standing-query subsystem (src/cont/) over loopback
// TCP, gated in CI by scripts/check_serving_json.py.
//
// Each cell registers S standing FANN_R queries across C connections
// (the last subscription on every connection opts into force_push, so
// its push doubles as the wave barrier: it is registered last, pushes
// are enqueued in registration order, and per-connection delivery is
// FIFO). An updater connection then applies 12 UPDATE_WEIGHTS waves,
// alternating fresh congestion waves with exact re-sends of the
// previous wave — a re-send still bumps the graph epoch but changes no
// answer, so it exercises pure suppression.
//
// Measurements per cell:
//   * push latency — wall time from the UPDATE_WEIGHTS send to each
//     PUSH_ANSWER's arrival at its subscriber (includes the merged
//     re-evaluation solve), reported as p50/p95;
//   * suppression rate — suppressed / (pushes + suppressed) across all
//     (wave, subscription) pairs, predicted client-side with the same
//     delta rule the server uses and cross-checked against the server's
//     own counters;
//   * a differential — every initial answer, every push, and a final
//     one-shot per subscription compared bitwise (status, vertex id,
//     distance bits, work counters, subset, error text) against an
//     in-process BatchQueryEngine solve at the same epoch (gated: zero
//     mismatches; a mismatch also makes the process exit nonzero).
//
// The shared harness and its environment (FANNR_DATASET, FANNR_OUT_DIR)
// are in common/serving.h.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/serving.h"
#include "common/timer.h"
#include "net/client.h"
#include "obs/metrics.h"

namespace fannr::bench {
namespace {

constexpr size_t kWaves = 12;

/// Standing queries for one cell: conn-major registration order, the
/// last subscription of every connection force_push. Shapes rotate
/// through the weight-capable solvers, both aggregates, and (every
/// third) the weighted generalization with power-of-two weights.
std::vector<net::WireQuery> MakeStandingQueries(
    const Graph& graph, const std::vector<uint32_t>& p_ids, size_t count) {
  std::vector<net::WireQuery> jobs;
  jobs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Rng rng(0x5AB50000u + i);
    net::WireQuery job;
    job.algorithm = static_cast<uint8_t>(
        i % 2 == 0 ? FannAlgorithm::kGd : FannAlgorithm::kRList);
    job.aggregate = static_cast<uint8_t>(i % 4 < 2 ? Aggregate::kSum
                                                   : Aggregate::kMax);
    job.phi = i % 2 == 0 ? 0.5 : 0.3;
    job.p = p_ids;
    const std::vector<VertexId> q_ids =
        GenerateUniformQueryPoints(graph, 0.10, 4, rng);
    job.q = std::vector<uint32_t>(q_ids.begin(), q_ids.end());
    if (i % 3 == 2) job.weights = {0.5, 2.0, 1.0, 4.0};
    jobs.push_back(std::move(job));
  }
  return jobs;
}

struct Cell {
  size_t connections = 0;
  size_t subscriptions = 0;
  size_t waves = 0;
  size_t pushes = 0;
  size_t suppressed = 0;
  double suppression_rate = 0.0;
  double push_p50_ms = 0.0, push_p95_ms = 0.0;
  uint64_t final_epoch = 0;
  size_t dropped_backpressure = 0;
  size_t differential_answers = 0;
  size_t differential_mismatches = 0;
};

/// One cell: C connections x S standing queries each, kWaves alternating
/// fresh/re-sent waves, every answer checked bitwise against the
/// in-process reference.
Cell RunCell(const std::string& dataset, size_t connections,
             size_t subs_per_conn) {
  ServerNode node(dataset);
  Reference reference(dataset);
  const Graph client_graph = BuildPreset(dataset);
  const size_t total_subs = connections * subs_per_conn;
  const std::vector<net::WireQuery> jobs = MakeStandingQueries(
      client_graph, ServingDataPoints(client_graph), total_subs);

  Cell cell{.connections = connections,
            .subscriptions = total_subs,
            .waves = kWaves};
  const auto compare = [&cell](const net::WireResult& got,
                               const net::WireResult& want) {
    ++cell.differential_answers;
    cell.differential_mismatches += !BitwiseEqual(got, want);
  };

  // --- register: initial answers are single-job solves at epoch 0 ----
  std::vector<std::unique_ptr<net::FannClient>> subscribers;
  for (size_t c = 0; c < connections; ++c) {
    auto client = std::make_unique<net::FannClient>();
    FANNR_CHECK(client->Connect("127.0.0.1", node.port()));
    subscribers.push_back(std::move(client));
  }
  std::vector<uint64_t> sub_ids(total_subs, 0);
  std::vector<net::WireResult> last(total_subs);
  std::vector<uint64_t> pushes_per_sub(total_subs, 0);
  const auto is_force_push = [&](size_t i) {
    return i % subs_per_conn == subs_per_conn - 1;
  };
  for (size_t i = 0; i < total_subs; ++i) {
    net::FannClient& owner = *subscribers[i / subs_per_conn];
    net::SubscribeResponse response;
    FANNR_CHECK(owner.Subscribe(jobs[i], is_force_push(i), &sub_ids[i],
                                response));
    FANNR_CHECK(response.graph_epoch == 0);
    FANNR_CHECK(response.result.status ==
                static_cast<uint8_t>(QueryStatus::kOk));
    compare(response.result, reference.Solve(std::span(&jobs[i], 1))[0]);
    last[i] = response.result;
  }

  net::FannClient updater;
  FANNR_CHECK(updater.Connect("127.0.0.1", node.port()));

  // --- waves: odd = fresh congestion wave, even = exact re-send (the
  // epoch still advances; every answer is unchanged, so everything but
  // the force_push subscriptions is suppressed) ----------------------
  Rng wave_rng(0xCA11AB1Eu);
  std::vector<double> latencies;
  std::unique_ptr<dynamic::UpdateBatch> current;
  for (size_t w = 1; w <= kWaves; ++w) {
    if (w % 2 == 1 || current == nullptr) {
      current = std::make_unique<dynamic::UpdateBatch>(
          dynamic::MakeCongestionWave(client_graph, 0.10, 0.5, 3.0,
                                      wave_rng));
    }
    FANNR_CHECK(current->Apply(reference.graph).new_epoch == w);
    const std::vector<net::WireResult> expected = reference.Solve(jobs);

    // The server's own delta rule, applied to the reference answers,
    // predicts exactly which subscriptions push this wave.
    std::vector<bool> expect_push(total_subs);
    for (size_t i = 0; i < total_subs; ++i) {
      expect_push[i] =
          is_force_push(i) || !net::SameVisibleAnswer(expected[i], last[i]);
    }

    const net::UpdateWeightsRequest request = ToRequest(*current);
    Timer t;
    net::UpdateWeightsResponse ack;
    FANNR_CHECK(updater.UpdateWeights(request, ack));
    FANNR_CHECK(ack.status == 0 && ack.new_epoch == w);

    // Per-connection delivery is FIFO in registration order; collecting
    // conn-major matches exactly.
    for (size_t i = 0; i < total_subs; ++i) {
      if (!expect_push[i]) {
        ++cell.suppressed;
        continue;
      }
      net::ReceivedPush push;
      FANNR_CHECK(subscribers[i / subs_per_conn]->WaitPush(push));
      latencies.push_back(t.Millis());
      FANNR_CHECK(push.subscription_id == sub_ids[i]);
      FANNR_CHECK(push.answer.graph_epoch == w);
      compare(push.answer.result, expected[i]);
      last[i] = push.answer.result;
      ++pushes_per_sub[i];
      ++cell.pushes;
    }
  }
  cell.final_epoch = kWaves;
  cell.suppression_rate =
      cell.pushes + cell.suppressed > 0
          ? static_cast<double>(cell.suppressed) /
                static_cast<double>(cell.pushes + cell.suppressed)
          : 0.0;

  // --- quiesced: a one-shot of every standing query must equal the
  // reference at the final epoch --------------------------------------
  const std::vector<net::WireResult> final_expected = reference.Solve(jobs);
  for (size_t i = 0; i < total_subs; ++i) {
    net::QueryResponse response;
    FANNR_CHECK(subscribers[i / subs_per_conn]->Query(jobs[i], response));
    FANNR_CHECK(response.graph_epoch == kWaves);
    compare(response.result, final_expected[i]);
  }

  // --- teardown: per-subscription push counts and server counters
  // must agree with what the clients observed -------------------------
  for (size_t i = 0; i < total_subs; ++i) {
    net::UnsubscribeResponse done;
    FANNR_CHECK(subscribers[i / subs_per_conn]->Unsubscribe(sub_ids[i],
                                                            done));
    FANNR_CHECK(done.status == 0);
    FANNR_CHECK(done.pushes_sent == pushes_per_sub[i]);
  }
  const obs::MetricsSnapshot snapshot = node.server->metrics().Snapshot();
  FANNR_CHECK(snapshot.counter("server.pushes.sent") == cell.pushes);
  FANNR_CHECK(snapshot.counter("server.pushes.suppressed") ==
              cell.suppressed);
  cell.dropped_backpressure = static_cast<size_t>(
      snapshot.counter("server.pushes.dropped_backpressure"));

  for (std::unique_ptr<net::FannClient>& client : subscribers) {
    FANNR_CHECK(client->pushes_dropped() == 0);
  }
  FANNR_CHECK(updater.Shutdown());
  FANNR_CHECK(node.Stop().within_deadline);

  std::sort(latencies.begin(), latencies.end());
  cell.push_p50_ms = Percentile(latencies, 50);
  cell.push_p95_ms = Percentile(latencies, 95);
  return cell;
}

int Main() {
  const std::string dataset = ServingDataset();
  std::printf("Subscription throughput — dataset %s, %zu waves/cell, "
              "%zu engine threads\n",
              dataset.c_str(), kWaves, kEngineThreads);
  std::printf("%5s %5s %6s %7s %6s %9s %9s %9s %5s\n", "conns", "subs",
              "waves", "pushes", "supp", "supp rate", "p50 ms", "p95 ms",
              "diff");

  struct Spec {
    size_t connections;
    size_t subs_per_conn;
  };
  const Spec specs[] = {{1, 4}, {4, 4}};
  std::vector<JsonObject> rows;
  size_t total_answers = 0;
  size_t total_mismatches = 0;
  for (const Spec& spec : specs) {
    const Cell cell = RunCell(dataset, spec.connections, spec.subs_per_conn);
    std::printf("%5zu %5zu %6zu %7zu %6zu %9.3f %9.2f %9.2f %5zu\n",
                cell.connections, cell.subscriptions, cell.waves,
                cell.pushes, cell.suppressed, cell.suppression_rate,
                cell.push_p50_ms, cell.push_p95_ms,
                cell.differential_mismatches);
    total_answers += cell.differential_answers;
    total_mismatches += cell.differential_mismatches;
    rows.push_back(
        JsonObject()
            .Add("connections", cell.connections)
            .Add("subscriptions", cell.subscriptions)
            .Add("waves", cell.waves)
            .Add("pushes", cell.pushes)
            .Add("suppressed", cell.suppressed)
            .Add("suppression_rate", cell.suppression_rate)
            .Add("push_p50_ms", cell.push_p50_ms)
            .Add("push_p95_ms", cell.push_p95_ms)
            .Add("final_epoch", cell.final_epoch)
            .Add("dropped_backpressure", cell.dropped_backpressure)
            .Add("differential_answers", cell.differential_answers)
            .Add("differential_mismatches", cell.differential_mismatches));
  }
  std::printf("\ndifferential vs in-process engine: %zu answers, "
              "%zu mismatches\n",
              total_answers, total_mismatches);

  WriteBenchJson("subs", BenchJson("subs", dataset)
                             .Add("waves_per_cell", kWaves)
                             .Add("cells", rows)
                             .Add("differential",
                                  JsonObject()
                                      .Add("answers", total_answers)
                                      .Add("mismatches", total_mismatches)));
  return total_mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace fannr::bench

int main() { return fannr::bench::Main(); }
