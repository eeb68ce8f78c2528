// Sharded serving benchmark: the 2-shard fleet (two FannServers behind a
// FannRouter, net/router.h) versus a single-node FannServer over loopback
// TCP, all in one process.
//
// Measurements:
//   * steady cells — C synchronous clients (C in {1, 4}) stream queries
//     at either the single server or the router; qps is ok-answers per
//     wall second, latency is per-request end-to-end p50/p95/p99. The
//     routed cells price the fan-out hop: the router decodes, splits P
//     by the shard plan, pipelines sub-batches to both shards, merges.
//   * wave cells — the same, with an updater connection applying
//     congestion waves concurrently. Against the router a wave is
//     replicated (REPL_APPLY positioned at the fleet epoch) rather than
//     applied once, so these cells also exercise the epoch machinery
//     under load; stale-admission rejections are re-submitted once per
//     the protocol contract.
//   * a routed differential — router answers compared bitwise (status,
//     vertex id, distance bits, subset, error text; work counters are
//     summed across shards, so they are excluded) against an in-process
//     BatchQueryEngine run of the same queries, before and after a
//     replicated weight wave (gated: zero mismatches);
//   * a catch-up cell — shard 1 is stopped, a wave lands via the router
//     (replicated to shard 0 only, journaled in the router's WAL), then
//     shard 1 restarts from a fresh epoch-0 graph plus its own WAL; the
//     next spanning query triggers the router's history catch-up, and
//     the cell records how many WAL records were replayed and whether
//     the fleet answered at the live epoch (gated: recovered == true).
//
// A differential mismatch or an unrecovered catch-up also makes the
// process exit nonzero.
//
// Output: a table on stdout plus BENCH_shard.json, gated in CI by
// scripts/check_serving_json.py. The shared harness and its environment
// (FANNR_DATASET, FANNR_OUT_DIR) are in common/serving.h.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/serving.h"
#include "dynamic/wal.h"
#include "net/client.h"
#include "net/router.h"
#include "net/shard_plan.h"

namespace fannr::bench {
namespace {

constexpr size_t kQueriesPerConn = 30;
constexpr uint32_t kWorkloadSeed = 0x5AAD0000u;
constexpr std::chrono::milliseconds kWavePeriod{15};
constexpr uint32_t kShards = 2;

/// A per-process temporary path, so concurrent runs do not share WALs.
std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/fannr_bench_shard_" +
         std::to_string(::getpid()) + "_" + name;
}

/// A router config over shards listening on `port0` and `port1`.
net::RouterConfig FleetConfig(uint16_t port0, uint16_t port1) {
  net::RouterConfig config;
  config.shards = {{"127.0.0.1", port0}, {"127.0.0.1", port1}};
  return config;
}

/// A started 2-shard fleet: two fresh nodes behind a router.
struct Fleet {
  Fleet(const std::string& dataset, const net::ShardPlan& plan)
      : shard0(dataset),
        shard1(dataset),
        router(plan, FleetConfig(shard0.port(), shard1.port())) {
    std::string error;
    FANNR_CHECK(router.Start(&error));
  }

  ServerNode shard0, shard1;
  net::FannRouter router;
};

struct CatchUpOutcome {
  size_t records = 0;
  bool recovered = false;
  uint64_t final_epoch = 0;
};

/// A killed replica rejoins by WAL replay: wave 1 lands everywhere (and
/// in shard 1's own WAL); shard 1 dies and wave 2 is replicated to shard
/// 0 only; shard 1 restarts on its old port from a fresh epoch-0 graph
/// plus its WAL (epoch 1), and the next spanning query makes the router
/// replay its history tail (wave 2) into it.
CatchUpOutcome RunCatchUp(const std::string& dataset,
                          const net::ShardPlan& plan,
                          const Graph& client_graph,
                          const std::vector<uint32_t>& p_ids) {
  const std::string router_wal_path = TempPath("router.wal");
  const std::string shard1_wal_path = TempPath("shard1.wal");
  std::remove(router_wal_path.c_str());
  std::remove(shard1_wal_path.c_str());

  std::string error;
  std::unique_ptr<dynamic::UpdateWal> router_wal = dynamic::UpdateWal::Open(
      router_wal_path, client_graph.Fingerprint(), &error);
  FANNR_CHECK(router_wal != nullptr);
  std::unique_ptr<dynamic::UpdateWal> shard1_wal = dynamic::UpdateWal::Open(
      shard1_wal_path, client_graph.Fingerprint(), &error);
  FANNR_CHECK(shard1_wal != nullptr);

  ServerNode shard0(dataset);
  net::ServerConfig shard1_config = ServingConfig();
  shard1_config.wal = shard1_wal.get();
  auto shard1 = std::make_unique<ServerNode>(dataset, shard1_config);
  const uint16_t shard1_port = shard1->port();

  net::RouterConfig config = FleetConfig(shard0.port(), shard1_port);
  config.wal = router_wal.get();
  net::FannRouter router(plan, config);
  FANNR_CHECK(router.Start(&error));
  net::FannClient client;
  FANNR_CHECK(client.Connect("127.0.0.1", router.port()));

  const auto send_wave = [&](uint64_t seed) {
    Rng rng(seed);
    const net::UpdateWeightsRequest request =
        ToRequest(MakeWave(client_graph, rng));
    net::UpdateWeightsResponse response;
    FANNR_CHECK(client.UpdateWeights(request, response));
    FANNR_CHECK(response.status == 0);
  };
  send_wave(0xFEED0001u);
  shard1.reset();
  shard1_wal.reset();
  send_wave(0xFEED0002u);

  Graph restarted = BuildPreset(dataset);
  shard1_wal = dynamic::UpdateWal::Open(shard1_wal_path,
                                        restarted.Fingerprint(), &error);
  FANNR_CHECK(shard1_wal != nullptr);
  FANNR_CHECK(shard1_wal->ReplayInto(restarted, &error) == 1);
  shard1_config.port = shard1_port;
  shard1_config.wal = shard1_wal.get();
  shard1 = std::make_unique<ServerNode>(std::move(restarted), shard1_config);

  Rng q_rng(0x0CA7C4u);
  const net::WireQuery probe = MakeQuery(client_graph, p_ids, q_rng);
  net::QueryResponse response;
  FANNR_CHECK(client.Query(probe, response));
  if (response.result.status ==
      static_cast<uint8_t>(QueryStatus::kRejected)) {
    // The mid-fan-out epoch rejection, if the retry raced: re-submit.
    FANNR_CHECK(client.Query(probe, response));
  }
  CatchUpOutcome outcome;
  outcome.final_epoch = response.graph_epoch;
  outcome.recovered =
      response.result.status == static_cast<uint8_t>(QueryStatus::kOk) &&
      response.graph_epoch == 2;
  outcome.records = static_cast<size_t>(
      router.metrics().Snapshot().counter("router.catch_up.records"));

  router.RequestShutdown();
  router.Wait();
  shard1.reset();
  std::remove(router_wal_path.c_str());
  std::remove(shard1_wal_path.c_str());
  return outcome;
}

int Main() {
  const std::string dataset = ServingDataset();
  const Graph client_graph = BuildPreset(dataset);
  const net::ShardPlan plan = net::ShardPlan::Build(client_graph, kShards);
  const std::vector<uint32_t> p_ids = ServingDataPoints(client_graph);

  std::printf("Shard throughput — dataset %s, %u shards, %zu queries/conn, "
              "%zu engine threads\n",
              dataset.c_str(), kShards, kQueriesPerConn, kEngineThreads);
  std::printf("%7s %5s %6s %10s %9s %9s %9s %6s %5s %7s\n", "mode", "conns",
              "waves", "qps", "p50 ms", "p95 ms", "p99 ms", "ok", "rej",
              "epochs");
  std::vector<JsonObject> rows;
  const auto report = [&rows](const LoadCell& cell) {
    std::printf("%7s %5zu %6s %10.1f %9.2f %9.2f %9.2f %6zu %5zu %7zu\n",
                cell.mode.c_str(), cell.connections, cell.waves ? "yes" : "no",
                cell.qps, cell.p50_ms, cell.p95_ms, cell.p99_ms, cell.ok,
                cell.rejected, static_cast<size_t>(cell.final_epoch));
    rows.push_back(ToJson(cell));
  };

  // Each pair runs the identical workload against a fresh single node
  // and a fresh fleet, so wave cells never inherit a mutated graph.
  for (const bool waves : {false, true}) {
    for (const size_t connections : {size_t{1}, size_t{4}}) {
      const std::vector<std::vector<net::WireQuery>> workload = MakeWorkload(
          client_graph, p_ids, connections, kQueriesPerConn, kWorkloadSeed);
      {
        ServerNode single(dataset);
        report(RunLoadCell(single.port(), client_graph, workload, waves,
                           kWavePeriod));
      }
      Fleet fleet(dataset, plan);
      LoadCell cell = RunLoadCell(fleet.router.port(), client_graph,
                                  workload, waves, kWavePeriod);
      cell.mode = "routed";
      report(cell);
    }
  }

  DifferentialOutcome differential;
  {
    Fleet fleet(dataset, plan);
    net::FannClient client;
    FANNR_CHECK(client.Connect("127.0.0.1", fleet.router.port()));
    differential = RunDifferential(
        dataset, fleet.router.port(), 0xD1FF0002u, 0xCA11AB1Fu,
        /*with_work=*/false,
        [&client](const std::vector<net::WireQuery>& jobs, uint64_t) {
          std::vector<std::optional<net::QueryResponse>> answers(jobs.size());
          for (size_t i = 0; i < jobs.size(); ++i) {
            net::QueryResponse response;
            if (client.Query(jobs[i], response)) answers[i] = response;
          }
          return answers;
        });
  }
  std::printf("\nrouted differential vs in-process engine: "
              "%zu queries, %zu mismatches\n",
              differential.queries, differential.mismatches);

  const CatchUpOutcome catch_up =
      RunCatchUp(dataset, plan, client_graph, p_ids);
  std::printf("catch-up: %zu history record%s replayed, %s, fleet at "
              "epoch %zu\n",
              catch_up.records, catch_up.records == 1 ? "" : "s",
              catch_up.recovered ? "recovered" : "NOT RECOVERED",
              static_cast<size_t>(catch_up.final_epoch));

  WriteBenchJson(
      "shard",
      BenchJson("shard", dataset)
          .Add("num_shards", kShards)
          .Add("queries_per_connection", kQueriesPerConn)
          .Add("cells", rows)
          .Add("differential", JsonObject()
                                   .Add("queries", differential.queries)
                                   .Add("mismatches", differential.mismatches))
          .Add("catch_up", JsonObject()
                               .Add("records", catch_up.records)
                               .Add("recovered", catch_up.recovered)
                               .Add("final_epoch", catch_up.final_epoch)));
  return differential.mismatches == 0 && catch_up.recovered ? 0 : 1;
}

}  // namespace
}  // namespace fannr::bench

int main() { return fannr::bench::Main(); }
