#include "common/serving.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/timer.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "testing/wire_reference.h"

#ifndef FANNR_BUILD_TYPE
#define FANNR_BUILD_TYPE "unknown"
#endif

namespace fannr::bench {

std::string ServingDataset() {
  const char* env = std::getenv("FANNR_DATASET");
  const std::string dataset = env != nullptr ? env : "TEST";
  FANNR_CHECK(IsPresetName(dataset));
  return dataset;
}

std::vector<uint32_t> ServingDataPoints(const Graph& graph) {
  Rng rng(0xBA5E0001u);
  const std::vector<VertexId> p = GenerateDataPoints(graph, 0.01, rng);
  return std::vector<uint32_t>(p.begin(), p.end());
}

net::WireQuery MakeQuery(const Graph& graph,
                         const std::vector<uint32_t>& p_ids, Rng& rng) {
  net::WireQuery query;
  query.algorithm = static_cast<uint8_t>(FannAlgorithm::kGd);
  query.aggregate = static_cast<uint8_t>(Aggregate::kSum);
  query.phi = 0.5;
  query.p = p_ids;
  const std::vector<VertexId> q_ids =
      GenerateUniformQueryPoints(graph, 0.10, 4, rng);
  query.q = std::vector<uint32_t>(q_ids.begin(), q_ids.end());
  return query;
}

std::vector<std::vector<net::WireQuery>> MakeWorkload(
    const Graph& graph, const std::vector<uint32_t>& p_ids,
    size_t connections, size_t queries_per_conn, uint32_t seed_base) {
  std::vector<std::vector<net::WireQuery>> workload(connections);
  for (size_t c = 0; c < connections; ++c) {
    Rng rng(seed_base + c);
    workload[c].reserve(queries_per_conn);
    for (size_t i = 0; i < queries_per_conn; ++i) {
      workload[c].push_back(MakeQuery(graph, p_ids, rng));
    }
  }
  return workload;
}

dynamic::UpdateBatch MakeWave(const Graph& graph, Rng& rng) {
  return dynamic::MakeCongestionWave(graph, 0.02, 0.5, 3.0, rng);
}

net::UpdateWeightsRequest ToRequest(const dynamic::UpdateBatch& batch) {
  net::UpdateWeightsRequest request;
  for (const EdgeWeightUpdate& u : batch.updates()) {
    request.entries.push_back({u.u, u.v, u.new_weight});
  }
  return request;
}

void ClientOutcome::Record(const net::QueryResponse& response,
                           double latency_ms) {
  latencies_ms.push_back(latency_ms);
  const auto status = static_cast<QueryStatus>(response.result.status);
  ok += status == QueryStatus::kOk;
  rejected += status == QueryStatus::kRejected;
  timed_out += status == QueryStatus::kTimedOut;
  last_epoch = response.graph_epoch;
}

ClientOutcome DriveClient(uint16_t port,
                          const std::vector<net::WireQuery>& queries,
                          bool retry_overloaded) {
  ClientOutcome outcome;
  net::FannClient client;
  outcome.transport_error = !client.Connect("127.0.0.1", port);
  if (outcome.transport_error) return outcome;
  const auto overloaded = [&] {
    return client.last_error_code() == net::ErrorCode::kOverloaded;
  };
  for (const net::WireQuery& query : queries) {
    Timer t;
    net::QueryResponse response;
    bool sent = client.Query(query, response);
    if (!sent && overloaded()) {
      ++outcome.overloaded;
      if (!retry_overloaded) continue;
      // Brief backoff, then one retry, so the cell still measures real
      // completions under pressure.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      sent = client.Query(query, response);
      if (!sent && overloaded()) {
        ++outcome.overloaded;
        continue;
      }
    }
    if (sent && response.result.status ==
                    static_cast<uint8_t>(QueryStatus::kRejected)) {
      // Stale admission epoch (an update landed in between; against a
      // router, the mid-fan-out epoch rejection): re-submit once.
      ++outcome.rejected;
      ++outcome.resubmitted;
      sent = client.Query(query, response);
    }
    if (!sent) {
      outcome.transport_error = true;
      return outcome;
    }
    outcome.Record(response, t.Millis());
  }
  return outcome;
}

WaveThread::WaveThread(const Graph& graph, uint16_t port,
                       std::chrono::milliseconds period)
    : thread_([this, &graph, port, period] {
        net::FannClient updater;
        if (!updater.Connect("127.0.0.1", port)) return;
        Rng rng(0xCA11AB1Eu);
        while (!stop_.load(std::memory_order_relaxed)) {
          const net::UpdateWeightsRequest request =
              ToRequest(MakeWave(graph, rng));
          net::UpdateWeightsResponse response;
          if (!updater.UpdateWeights(request, response)) return;
          if (response.status == 0) applied_.fetch_add(1);
          std::this_thread::sleep_for(period);
        }
      }) {}

size_t WaveThread::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  return applied_.load(std::memory_order_relaxed);
}

void LoadCell::Summarize(const std::vector<ClientOutcome>& outcomes,
                         double wall) {
  std::vector<double> latencies;
  for (const ClientOutcome& o : outcomes) {
    FANNR_CHECK(!o.transport_error);
    ok += o.ok;
    rejected += o.rejected;
    timed_out += o.timed_out;
    resubmitted += o.resubmitted;
    overloaded += o.overloaded;
    final_epoch = std::max(final_epoch, o.last_epoch);
    latencies.insert(latencies.end(), o.latencies_ms.begin(),
                     o.latencies_ms.end());
  }
  std::sort(latencies.begin(), latencies.end());
  p50_ms = Percentile(latencies, 50);
  p95_ms = Percentile(latencies, 95);
  p99_ms = Percentile(latencies, 99);
  wall_ms = wall;
  qps = 1000.0 * static_cast<double>(ok) / wall_ms;
}

LoadCell RunLoadCell(uint16_t port, const Graph& client_graph,
                     const std::vector<std::vector<net::WireQuery>>& workload,
                     bool waves, std::chrono::milliseconds wave_period,
                     bool retry_overloaded) {
  std::optional<WaveThread> wave_thread;
  if (waves) wave_thread.emplace(client_graph, port, wave_period);

  std::vector<ClientOutcome> outcomes(workload.size());
  Timer wall;
  {
    std::vector<std::thread> drivers;
    for (size_t c = 0; c < workload.size(); ++c) {
      drivers.emplace_back([&, c] {
        outcomes[c] = DriveClient(port, workload[c], retry_overloaded);
      });
    }
    for (std::thread& t : drivers) t.join();
  }
  const double wall_ms = wall.Millis();

  LoadCell cell{.connections = workload.size(), .waves = waves};
  if (wave_thread) cell.waves_applied = wave_thread->Stop();
  cell.Summarize(outcomes, wall_ms);
  return cell;
}

net::ServerConfig ServingConfig() {
  net::ServerConfig config;
  config.engine_options.num_threads = kEngineThreads;
  return config;
}

ServerNode::ServerNode(Graph g, net::ServerConfig config)
    : graph(std::move(g)) {
  resources.graph = &graph;
  server = std::make_unique<net::FannServer>(&graph, resources,
                                             std::move(config));
  std::string error;
  FANNR_CHECK(server->Start(&error));
}

ServerNode::ServerNode(const std::string& dataset, net::ServerConfig config)
    : ServerNode(BuildPreset(dataset), std::move(config)) {}

net::DrainStats ServerNode::Stop() {
  server->RequestShutdown();
  return server->Wait();
}

Reference::Reference(const std::string& dataset)
    : graph(BuildPreset(dataset)) {
  resources.graph = &graph;
  BatchOptions options;
  options.num_threads = kEngineThreads;
  engine = std::make_unique<BatchQueryEngine>(resources, options);
}

std::vector<net::WireResult> Reference::Solve(
    std::span<const net::WireQuery> jobs) {
  return testing::SolveWire(*engine, graph, jobs);
}

bool BitwiseEqual(const net::WireResult& a, const net::WireResult& b,
                  bool with_work) {
  return a.status == b.status && a.best == b.best &&
         std::memcmp(&a.distance, &b.distance, sizeof(a.distance)) == 0 &&
         (!with_work || a.gphi_evaluations == b.gphi_evaluations) &&
         a.subset == b.subset && a.error == b.error;
}

DifferentialOutcome RunDifferential(const std::string& dataset,
                                    uint16_t port, uint32_t query_seed,
                                    uint32_t wave_seed, bool with_work,
                                    const WireAnswerer& answer) {
  Reference reference(dataset);
  const std::vector<uint32_t> p_ids = ServingDataPoints(reference.graph);
  Rng q_rng(query_seed);
  std::vector<net::WireQuery> jobs;
  for (size_t i = 0; i < 24; ++i) {
    jobs.push_back(MakeQuery(reference.graph, p_ids, q_rng));
  }
  Rng wave_rng(wave_seed);
  const dynamic::UpdateBatch wave = MakeWave(reference.graph, wave_rng);

  DifferentialOutcome outcome;
  const auto run_phase = [&](uint64_t epoch) {
    const std::vector<net::WireResult> expected = reference.Solve(jobs);
    const std::vector<std::optional<net::QueryResponse>> got =
        answer(jobs, epoch);
    FANNR_CHECK(got.size() == jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
      ++outcome.queries;
      if (!got[i] || got[i]->graph_epoch != epoch ||
          !BitwiseEqual(got[i]->result, expected[i], with_work)) {
        ++outcome.mismatches;
      }
    }
  };

  run_phase(0);
  // The same wave on both sides: over the wire, and in-process to the
  // reference graph.
  net::FannClient updater;
  FANNR_CHECK(updater.Connect("127.0.0.1", port));
  net::UpdateWeightsResponse applied;
  FANNR_CHECK(updater.UpdateWeights(ToRequest(wave), applied));
  FANNR_CHECK(applied.status == 0);
  FANNR_CHECK(wave.Apply(reference.graph).new_epoch == 1);
  run_phase(1);
  return outcome;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[obs::NearestRank(sorted.size(), p) - 1];
}

JsonObject& JsonObject::AddRaw(std::string_view key, std::string rendered) {
  entries_.emplace_back(std::string(key), std::move(rendered));
  return *this;
}

JsonObject& JsonObject::Add(std::string_view key, bool value) {
  return AddRaw(key, value ? "true" : "false");
}

JsonObject& JsonObject::Add(std::string_view key, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return AddRaw(key, buffer);
}

JsonObject& JsonObject::Add(std::string_view key, std::string_view value) {
  std::string quoted = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return AddRaw(key, quoted + "\"");
}

JsonObject& JsonObject::Add(std::string_view key, const JsonObject& value) {
  return AddRaw(key, value.str());
}

JsonObject& JsonObject::Add(std::string_view key,
                            const std::vector<JsonObject>& rows) {
  std::string rendered = "[";
  for (size_t i = 0; i < rows.size(); ++i) {
    rendered += (i == 0 ? "\n    " : ",\n    ") + rows[i].str();
  }
  return AddRaw(key, rendered + (rows.empty() ? "]" : "\n  ]"));
}

std::string JsonObject::str(bool pretty) const {
  std::string out = pretty ? "{\n  " : "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += pretty ? ",\n  " : ", ";
    out += "\"" + entries_[i].first + "\": " + entries_[i].second;
  }
  return out + (pretty ? "\n}\n" : "}");
}

JsonObject ToJson(const LoadCell& cell) {
  return JsonObject()
      .Add("mode", cell.mode)
      .Add("connections", cell.connections)
      .Add("waves", cell.waves)
      .Add("pipelined", cell.pipelined)
      .Add("depth", cell.depth)
      .Add("qps", cell.qps)
      .Add("wall_ms", cell.wall_ms)
      .Add("p50_ms", cell.p50_ms)
      .Add("p95_ms", cell.p95_ms)
      .Add("p99_ms", cell.p99_ms)
      .Add("ok", cell.ok)
      .Add("rejected", cell.rejected)
      .Add("timed_out", cell.timed_out)
      .Add("resubmitted", cell.resubmitted)
      .Add("overloaded", cell.overloaded)
      .Add("waves_applied", cell.waves_applied)
      .Add("final_epoch", cell.final_epoch);
}

namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

JsonObject BenchJson(const std::string& bench, const std::string& dataset) {
  return JsonObject()
      .Add("bench", bench)
      .Add("host", JsonObject()
                       .Add("nproc", std::thread::hardware_concurrency())
                       .Add("cpu_model", CpuModel())
                       .Add("compiler", Compiler())
                       .Add("build_type", FANNR_BUILD_TYPE))
      .Add("dataset", dataset)
      .Add("engine_threads", kEngineThreads);
}

void WriteBenchJson(const std::string& bench, const JsonObject& json) {
  const char* dir = std::getenv("FANNR_OUT_DIR");
  const std::string path =
      std::string(dir != nullptr ? dir : ".") + "/BENCH_" + bench + ".json";
  std::ofstream out(path);
  out << json.str(/*pretty=*/true);
  FANNR_CHECK(out.good());
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace fannr::bench
