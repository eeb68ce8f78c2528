// Shared harness of the serving benches (server_throughput,
// shard_throughput, subs_throughput): the wire workload, the synchronous
// driver, the wave thread, the cell runner, an in-process server node,
// the bitwise differential and the BENCH_<name>.json writer. Each bench
// passes its own workload seed and wave period, so benches do not send
// each other's byte streams. Percentiles are nearest-rank
// (obs::NearestRank).
// Environment: FANNR_DATASET (preset, default TEST) and FANNR_OUT_DIR
// (output directory, default the working directory).

#ifndef FANNR_BENCH_COMMON_SERVING_H_
#define FANNR_BENCH_COMMON_SERVING_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "dynamic/update.h"
#include "engine/batch_engine.h"
#include "fann/fannr.h"
#include "net/protocol.h"
#include "net/server.h"

namespace fannr::bench {

/// Engine worker threads per server (and per reference engine).
inline constexpr size_t kEngineThreads = 2;

/// The preset named by FANNR_DATASET (default TEST); aborts on an
/// unknown name.
std::string ServingDataset();

/// The data set P every serving query carries: 1% of the vertices.
std::vector<uint32_t> ServingDataPoints(const Graph& graph);

/// One cell query: GD, sum, phi 0.5 over P and 4 uniform query points.
/// Small on purpose: the cells measure the serving path (dispatch,
/// framing, fan-out, merge), not solver asymptotics, and a small query
/// is the regime where the wire discipline matters.
net::WireQuery MakeQuery(const Graph& graph,
                         const std::vector<uint32_t>& p_ids, Rng& rng);

/// Pre-draws each connection's query stream, connection c from seed
/// `seed_base + c`, so connections send distinct byte streams.
/// Generation runs before a cell's wall timer: it costs more per query
/// than the server does and would mask any serving-side change.
std::vector<std::vector<net::WireQuery>> MakeWorkload(
    const Graph& graph, const std::vector<uint32_t>& p_ids,
    size_t connections, size_t queries_per_conn, uint32_t seed_base);

/// The congestion wave every wave cell and differential sends: 2% of
/// the edges, scaled by a factor in [0.5, 3].
dynamic::UpdateBatch MakeWave(const Graph& graph, Rng& rng);

/// The UPDATE_WEIGHTS request that applies `batch`.
net::UpdateWeightsRequest ToRequest(const dynamic::UpdateBatch& batch);

/// What one connection's query stream got back.
struct ClientOutcome {
  std::vector<double> latencies_ms;
  size_t ok = 0, rejected = 0, timed_out = 0, resubmitted = 0, overloaded = 0;
  uint64_t last_epoch = 0;
  bool transport_error = false;

  /// Counts one final answer and its end-to-end latency.
  void Record(const net::QueryResponse& response, double latency_ms);
};

/// Streams `queries` synchronously over one connection. A stale-epoch
/// rejection is re-submitted once (the protocol contract) under the
/// original timer; an OVERLOADED answer is counted and, when
/// `retry_overloaded`, retried once after a 2 ms backoff.
ClientOutcome DriveClient(uint16_t port,
                          const std::vector<net::WireQuery>& queries,
                          bool retry_overloaded);

/// Applies congestion waves (seed 0xCA11AB1E) through its own
/// connection, one per `period`, until stopped.
class WaveThread {
 public:
  WaveThread(const Graph& graph, uint16_t port,
             std::chrono::milliseconds period);
  ~WaveThread() { Stop(); }

  /// Stops and joins the thread; returns the waves applied.
  size_t Stop();

 private:
  std::atomic<bool> stop_{false};
  std::atomic<size_t> applied_{0};
  std::thread thread_;
};

/// One load cell: client-observed qps and latency over a set of
/// connections, with or without concurrent update waves.
struct LoadCell {
  std::string mode = "single";  ///< "single" server or "routed" fleet.
  size_t connections = 0;
  bool waves = false;
  bool pipelined = false;
  size_t depth = 1;  ///< In-flight frames per connection (1 = synchronous).
  double wall_ms = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  size_t ok = 0, rejected = 0, timed_out = 0, resubmitted = 0, overloaded = 0;
  size_t waves_applied = 0;
  uint64_t final_epoch = 0;

  /// Sums the outcomes into the counters, percentiles and qps.
  void Summarize(const std::vector<ClientOutcome>& outcomes, double wall);
};

/// Runs one steady or wave cell: one synchronous driver per workload
/// stream against whatever listens on `port` (a server or a router —
/// clients cannot tell the difference), plus a wave thread with
/// `wave_period` when `waves`.
LoadCell RunLoadCell(uint16_t port, const Graph& client_graph,
                     const std::vector<std::vector<net::WireQuery>>& workload,
                     bool waves, std::chrono::milliseconds wave_period,
                     bool retry_overloaded = true);

/// A ServerConfig with kEngineThreads engine workers.
net::ServerConfig ServingConfig();

/// One started server over its own mutable graph copy (UPDATE_WEIGHTS
/// and REPL_APPLY mutate it, so servers cannot share one). The
/// destructor drains it.
struct ServerNode {
  ServerNode(Graph graph, net::ServerConfig config);
  explicit ServerNode(const std::string& dataset,
                      net::ServerConfig config = ServingConfig());

  uint16_t port() const { return server->port(); }
  /// RequestShutdown (a no-op after a SHUTDOWN frame) plus Wait.
  net::DrainStats Stop();

  Graph graph;
  GphiResources resources;
  std::unique_ptr<net::FannServer> server;
};

/// The in-process side of a differential: a pristine graph copy and an
/// engine over it.
struct Reference {
  explicit Reference(const std::string& dataset);

  /// testing::SolveWire over this reference.
  std::vector<net::WireResult> Solve(std::span<const net::WireQuery> jobs);

  Graph graph;
  GphiResources resources;
  std::unique_ptr<BatchQueryEngine> engine;
};

/// Bitwise answer equality: status, vertex, distance bits, subset and
/// error text, plus the g_phi work counter when `with_work` (a router
/// sums it across shards, so routed answers leave it out).
bool BitwiseEqual(const net::WireResult& a, const net::WireResult& b,
                  bool with_work = true);

struct DifferentialOutcome {
  size_t queries = 0;
  size_t mismatches = 0;
};

/// Answers a list of queries over the wire at the expected epoch;
/// nullopt marks a query that got no answer.
using WireAnswerer = std::function<std::vector<std::optional<
    net::QueryResponse>>(const std::vector<net::WireQuery>&, uint64_t)>;

/// The bench differential: 24 queries drawn from `query_seed` are
/// answered by `answer` at epoch 0, one wave drawn from `wave_seed` is
/// sent to `port` and applied to a reference, and the queries are
/// answered again at epoch 1. An answer counts as a mismatch when it is
/// missing, carries another epoch, or differs bitwise from the
/// reference.
DifferentialOutcome RunDifferential(const std::string& dataset,
                                    uint16_t port, uint32_t query_seed,
                                    uint32_t wave_seed, bool with_work,
                                    const WireAnswerer& answer);

/// Nearest-rank percentile `p` (in [0, 100]) of ascending `sorted`; 0
/// when empty.
double Percentile(const std::vector<double>& sorted, double p);

/// A JSON object built key by key, in insertion order. Doubles are
/// written with max_digits10 significant digits, so every value reads
/// back as the double that was written.
class JsonObject {
 public:
  JsonObject& Add(std::string_view key, bool value);
  JsonObject& Add(std::string_view key, double value);
  JsonObject& Add(std::string_view key, std::string_view value);
  JsonObject& Add(std::string_view key, const char* value) {
    return Add(key, std::string_view(value));
  }
  template <typename T>
    requires std::is_integral_v<T>
  JsonObject& Add(std::string_view key, T value) {
    return AddRaw(key, std::to_string(value));
  }
  JsonObject& Add(std::string_view key, const JsonObject& value);
  JsonObject& Add(std::string_view key, const std::vector<JsonObject>& rows);

  /// On one line, or (`pretty`) one key per line.
  std::string str(bool pretty = false) const;

 private:
  JsonObject& AddRaw(std::string_view key, std::string rendered);

  std::vector<std::pair<std::string, std::string>> entries_;
};

/// The JSON of a cell.
JsonObject ToJson(const LoadCell& cell);

/// Starts a BENCH file: "bench" (the name the checker dispatches on),
/// "host" (nproc, cpu_model, compiler, build_type), "dataset" and
/// "engine_threads".
JsonObject BenchJson(const std::string& bench, const std::string& dataset);

/// Writes `json` to FANNR_OUT_DIR/BENCH_<bench>.json and reports the
/// path on stdout.
void WriteBenchJson(const std::string& bench, const JsonObject& json);

}  // namespace fannr::bench

#endif  // FANNR_BENCH_COMMON_SERVING_H_
