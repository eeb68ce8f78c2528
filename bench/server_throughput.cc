// Server throughput benchmark: queries/sec and end-to-end latency of the
// FANN_R wire protocol (net/server.h) over loopback TCP, across client
// connection counts, with and without concurrent UPDATE_WEIGHTS waves.
//
// Measurements:
//   * steady cells — C synchronous clients (C in {1, 2, 8}) each stream
//     queries; qps is ok-answers per wall second, latency is per-request
//     end-to-end (client send to response decode), reported as p50/p95/p99;
//   * wave cells — the same, with an updater connection applying
//     congestion waves concurrently. Queries whose admission epoch went
//     stale are rejected per the protocol contract and re-submitted once
//     (re-submits are counted, and count toward latency like any request);
//   * pipelined cells — C connections (C in {128, 1024}) driven by one
//     poll(2) event loop with several in-flight frames per connection
//     (the protocol's request_id correlation), the workload the epoll
//     server core exists for. The CI gate requires the 128-connection
//     pipelined cell to beat the 8-connection synchronous cell ≥ 2× on
//     qps;
//   * a pipelined differential — the pipelined path's answers compared
//     bitwise (status, vertex id, distance bits, work counters, error
//     text) against an in-process BatchQueryEngine run of the same
//     queries, before and after a weight wave (gated: zero mismatches;
//     a mismatch also makes the process exit nonzero);
//   * an overload cell — a deliberately tiny admission queue behind a
//     slowed executor, hammered by 8 connections, to demonstrate
//     explicit OVERLOADED shedding (the CI gate requires a nonzero count);
//   * a drain cell — a SHUTDOWN frame lands on work queued behind a
//     slowed executor; the drain must execute or abort that work (gated:
//     a nonzero item count) and report within the drain deadline.
//
// Output: a table on stdout plus BENCH_server.json, gated in CI by
// scripts/check_serving_json.py. The shared harness and its environment
// (FANNR_DATASET, FANNR_OUT_DIR) are in common/serving.h.

#include <poll.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/serving.h"
#include "common/timer.h"
#include "net/client.h"
#include "net/iobuf.h"

namespace fannr::bench {
namespace {

constexpr size_t kQueriesPerConn = 40;
constexpr uint32_t kWorkloadSeed = 0x5EED5000u;
constexpr std::chrono::milliseconds kWavePeriod{10};

/// One nonblocking connection in the pipelined driver: an outbound byte
/// queue, an inbound byte queue cut into frames incrementally, and the
/// window of requests awaiting a response, keyed by request_id.
struct PipeConn {
  net::Socket sock;
  net::ByteQueue in;
  net::ByteQueue out;
  struct InFlight {
    Timer timer;             ///< Started at first submission (resubmits
                             ///< inherit it, like the synchronous driver).
    net::WireQuery query;    ///< Kept for the one allowed resubmission.
    bool resubmitted = false;
  };
  std::map<uint64_t, InFlight> inflight;
  const std::vector<net::WireQuery>* queries = nullptr;  ///< Pre-drawn.
  uint64_t next_id = 1;
  size_t issued = 0;  ///< Queries submitted so far.
  bool failed = false;
  bool finished = false;

  bool Done(size_t target) const {
    return failed || (issued >= target && inflight.empty());
  }
};

/// Drains as much of the outbound queue as the socket accepts right now.
void PumpOut(PipeConn& conn) {
  while (!conn.out.empty()) {
    const ssize_t sent = conn.sock.SendSome(conn.out.data(), conn.out.size());
    if (sent > 0) {
      conn.out.Consume(static_cast<size_t>(sent));
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    conn.failed = true;
    return;
  }
}

/// Encodes and queues one QUERY frame, tracking it in the in-flight map.
void SubmitQuery(PipeConn& conn, const net::WireQuery& query, Timer timer,
                 bool resubmitted) {
  const uint64_t id = conn.next_id++;
  net::QueryRequest request;
  request.query = query;
  const std::vector<uint8_t> frame =
      net::EncodeFrame(static_cast<uint16_t>(net::Opcode::kQuery), id,
                       net::EncodeQueryRequest(request));
  conn.out.Append(frame.data(), frame.size());
  conn.inflight.emplace(id, PipeConn::InFlight{timer, query, resubmitted});
}

/// Consumes one cut response frame; updates the in-flight window and the
/// per-connection outcome.
void HandleResponseFrame(PipeConn& conn, const net::FrameHeader& header,
                         const std::vector<uint8_t>& payload,
                         ClientOutcome& outcome) {
  auto it = conn.inflight.find(header.request_id);
  if (it == conn.inflight.end()) {
    conn.failed = true;  // a response for nothing we sent: desync
    return;
  }
  if (header.opcode == static_cast<uint16_t>(net::Opcode::kError)) {
    net::ErrorResponse error;
    if (!net::DecodeErrorResponse(payload, error) ||
        error.code != net::ErrorCode::kOverloaded) {
      conn.failed = true;
      return;
    }
    ++outcome.overloaded;
    // One retry, like the synchronous driver (minus its backoff — a
    // sleep here would stall every other connection on this loop). Shed
    // twice, the query is dropped and counted only as overload.
    if (!it->second.resubmitted) {
      SubmitQuery(conn, it->second.query, it->second.timer, true);
    }
    conn.inflight.erase(it);
    return;
  }
  net::QueryResponse response;
  if (header.opcode != static_cast<uint16_t>(net::Opcode::kQueryResult) ||
      !net::DecodeQueryResponse(payload, response)) {
    conn.failed = true;
    return;
  }
  const auto status = static_cast<QueryStatus>(response.result.status);
  if (status == QueryStatus::kRejected && !it->second.resubmitted) {
    // Stale admission epoch: re-submit once under the new epoch, keeping
    // the original timer so the retry costs latency like any request.
    ++outcome.rejected;
    ++outcome.resubmitted;
    SubmitQuery(conn, it->second.query, it->second.timer, true);
    conn.inflight.erase(it);
    return;
  }
  outcome.Record(response, it->second.timer.Millis());
  conn.inflight.erase(it);
}

/// Raises the soft RLIMIT_NOFILE toward what `connections` needs (both
/// socket ends live in this process) and returns the connection count
/// that actually fits. CI raises the limit before running (see the
/// server job); this is the belt-and-suspenders for other environments.
size_t ClampConnectionsToFdLimit(size_t connections) {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return connections;
  const rlim_t needed = 2 * static_cast<rlim_t>(connections) + 128;
  if (limit.rlim_cur >= needed) return connections;
  rlimit raised = limit;
  raised.rlim_cur = needed;  // refused (EINVAL) above the hard limit
  if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) return connections;
  const size_t fit = limit.rlim_cur > 192
                         ? (static_cast<size_t>(limit.rlim_cur) - 128) / 2
                         : 32;
  std::fprintf(stderr,
               "warning: RLIMIT_NOFILE %llu too low for %zu connections; "
               "clamping to %zu\n",
               static_cast<unsigned long long>(limit.rlim_cur), connections,
               fit);
  return std::min(connections, fit);
}

/// Runs one pipelined cell: `connections` nonblocking sockets driven by
/// a single poll(2) loop, each keeping up to `depth` frames in flight.
LoadCell RunPipelinedCell(const std::string& dataset,
                          const Graph& client_graph,
                          const std::vector<uint32_t>& p_ids,
                          size_t connections, bool waves,
                          size_t queries_per_conn, size_t depth) {
  connections = ClampConnectionsToFdLimit(connections);
  // The point of the cell is pipelining pressure, not admission-queue
  // shedding (the overload cell covers that): size connection and queue
  // limits to the offered load.
  net::ServerConfig config = ServingConfig();
  config.max_connections = connections + 8;
  config.max_queue_depth = connections * depth + 64;
  ServerNode node(dataset, std::move(config));
  const std::vector<std::vector<net::WireQuery>> workload = MakeWorkload(
      client_graph, p_ids, connections, queries_per_conn, kWorkloadSeed);

  std::optional<WaveThread> wave_thread;
  if (waves) wave_thread.emplace(client_graph, node.port(), kWavePeriod);

  std::vector<std::unique_ptr<PipeConn>> conns;
  conns.reserve(connections);
  for (size_t c = 0; c < connections; ++c) {
    auto conn = std::make_unique<PipeConn>();
    std::string connect_error;
    conn->sock = net::TcpConnect("127.0.0.1", node.port(), &connect_error);
    FANNR_CHECK(conn->sock.valid());
    FANNR_CHECK(conn->sock.SetNonBlocking());
    conn->queries = &workload[c];
    conns.push_back(std::move(conn));
  }

  std::vector<ClientOutcome> outcomes(connections);
  std::vector<pollfd> fds;
  std::vector<size_t> fd_conn;
  size_t active = connections;
  uint8_t scratch[64 * 1024];

  Timer wall;
  while (active > 0) {
    // Top up every window and push whatever the sockets will take.
    for (size_t c = 0; c < connections; ++c) {
      PipeConn& conn = *conns[c];
      if (conn.finished) continue;
      while (!conn.failed && conn.issued < queries_per_conn &&
             conn.inflight.size() < depth) {
        SubmitQuery(conn, (*conn.queries)[conn.issued], Timer(), false);
        ++conn.issued;
      }
      if (!conn.failed) PumpOut(conn);
      if (conn.Done(queries_per_conn)) {
        conn.finished = true;
        --active;
      }
    }
    if (active == 0) break;

    fds.clear();
    fd_conn.clear();
    for (size_t c = 0; c < connections; ++c) {
      const PipeConn& conn = *conns[c];
      if (conn.finished) continue;
      short events = POLLIN;
      if (!conn.out.empty()) events |= POLLOUT;
      fds.push_back({conn.sock.fd(), events, 0});
      fd_conn.push_back(c);
    }
    const int rc = ::poll(fds.data(), fds.size(), 5000);
    if (rc < 0) {
      FANNR_CHECK(errno == EINTR);
      continue;
    }

    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      PipeConn& conn = *conns[fd_conn[i]];
      ClientOutcome& outcome = outcomes[fd_conn[i]];
      if ((fds[i].revents & POLLOUT) != 0) PumpOut(conn);
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        while (!conn.failed) {
          const ssize_t got = conn.sock.RecvSome(scratch, sizeof(scratch));
          if (got > 0) {
            conn.in.Append(scratch, static_cast<size_t>(got));
            if (static_cast<size_t>(got) < sizeof(scratch)) break;
            continue;
          }
          if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          conn.failed = true;  // EOF or error with responses outstanding
        }
        while (!conn.failed) {
          net::FrameCut cut = net::CutFrame(conn.in);
          if (cut.kind == net::FrameCut::Kind::kNeedMore) break;
          if (cut.kind == net::FrameCut::Kind::kPoisoned) {
            conn.failed = true;
            break;
          }
          HandleResponseFrame(conn, cut.header, cut.payload, outcome);
        }
        // A resubmission queued by a response must leave this iteration
        // on the wire, not wait for the next poll round.
        if (!conn.failed) PumpOut(conn);
      }
      if (!conn.finished && conn.Done(queries_per_conn)) {
        conn.finished = true;
        --active;
      }
    }
  }
  const double wall_ms = wall.Millis();

  LoadCell cell{.connections = connections,
                .waves = waves,
                .pipelined = true,
                .depth = depth};
  if (wave_thread) cell.waves_applied = wave_thread->Stop();
  for (std::unique_ptr<PipeConn>& conn : conns) {
    FANNR_CHECK(!conn->failed);
    conn->sock.Close();
  }
  cell.Summarize(outcomes, wall_ms);
  return cell;
}

/// The pipelined side of the differential: every frame on the wire
/// before any response is read. The server is free to merge the frames
/// into whatever bursts it likes; per-job answers must not depend on
/// batch composition.
std::vector<std::optional<net::QueryResponse>> AnswerPipelined(
    uint16_t port, const std::vector<net::WireQuery>& jobs, uint64_t epoch) {
  std::string connect_error;
  net::Socket sock = net::TcpConnect("127.0.0.1", port, &connect_error);
  FANNR_CHECK(sock.valid());
  const uint64_t first_id = epoch * 1000;
  for (size_t i = 0; i < jobs.size(); ++i) {
    net::QueryRequest request;
    request.query = jobs[i];
    const std::vector<uint8_t> frame = net::EncodeFrame(
        static_cast<uint16_t>(net::Opcode::kQuery), first_id + i,
        net::EncodeQueryRequest(request));
    FANNR_CHECK(sock.WriteFull(frame.data(), frame.size()));
  }
  std::vector<std::optional<net::QueryResponse>> answers(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    uint8_t header_bytes[net::kFrameHeaderBytes];
    FANNR_CHECK(sock.ReadFull(header_bytes, sizeof(header_bytes)));
    net::FrameHeader header;
    net::DecodeFrameHeader(header_bytes, header);
    FANNR_CHECK(header.opcode ==
                static_cast<uint16_t>(net::Opcode::kQueryResult));
    std::vector<uint8_t> payload(header.payload_length);
    FANNR_CHECK(payload.empty() ||
                sock.ReadFull(payload.data(), payload.size()));
    net::QueryResponse response;
    FANNR_CHECK(net::DecodeQueryResponse(payload, response));
    const uint64_t slot = header.request_id - first_id;
    if (slot < answers.size()) answers[slot] = response;
  }
  return answers;
}

/// One engine thread behind an executor slowed to 3 ms per item, so
/// work queues up.
net::ServerConfig SlowedConfig() {
  net::ServerConfig config;
  config.engine_options.num_threads = 1;
  config.test_execution_gate = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  };
  return config;
}

/// Saturates a deliberately tiny admission queue behind a slowed
/// executor to force explicit shedding: 8 connections of 25 queries,
/// OVERLOADED answers counted and not retried.
LoadCell RunOverload(const std::string& dataset, const Graph& client_graph,
                     const std::vector<uint32_t>& p_ids) {
  net::ServerConfig config = SlowedConfig();
  config.max_queue_depth = 2;
  ServerNode node(dataset, std::move(config));
  return RunLoadCell(node.port(), client_graph,
                     MakeWorkload(client_graph, p_ids, 8, 25, kWorkloadSeed),
                     /*waves=*/false, kWavePeriod,
                     /*retry_overloaded=*/false);
}

/// A SHUTDOWN frame racing queued work: the executor is slowed so the
/// frame, sent 20 ms in, lands while 4 clients' queries are still
/// queued. The drain must finish the queued items (or abort them past
/// the deadline) and report on time.
net::DrainStats RunDrain(const std::string& dataset,
                         const Graph& client_graph,
                         const std::vector<uint32_t>& p_ids) {
  net::ServerConfig config = SlowedConfig();
  config.drain_deadline_ms = 10'000.0;
  ServerNode node(dataset, std::move(config));
  const std::vector<std::vector<net::WireQuery>> workload =
      MakeWorkload(client_graph, p_ids, 4, 10, kWorkloadSeed);
  std::vector<std::thread> drivers;
  for (size_t c = 0; c < workload.size(); ++c) {
    drivers.emplace_back([&, c] {
      DriveClient(node.port(), workload[c], /*retry_overloaded=*/false);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  net::FannClient admin;
  FANNR_CHECK(admin.Connect("127.0.0.1", node.port()) && admin.Shutdown());
  const net::DrainStats stats = node.Stop();
  for (std::thread& t : drivers) t.join();
  return stats;
}

int Main() {
  const std::string dataset = ServingDataset();
  const Graph client_graph = BuildPreset(dataset);
  const std::vector<uint32_t> p_ids = ServingDataPoints(client_graph);

  std::printf("Server throughput — dataset %s, %zu queries/conn, "
              "%zu engine threads\n",
              dataset.c_str(), kQueriesPerConn, kEngineThreads);
  std::printf("%5s %6s %5s %10s %9s %9s %9s %6s %5s %6s %7s\n", "conns",
              "waves", "depth", "qps", "p50 ms", "p95 ms", "p99 ms", "ok",
              "rej", "t/out", "epochs");
  std::vector<JsonObject> rows;
  const auto report = [&rows](const LoadCell& cell) {
    std::printf(
        "%5zu %6s %5zu %10.1f %9.2f %9.2f %9.2f %6zu %5zu %6zu %7zu\n",
        cell.connections, cell.waves ? "yes" : "no", cell.depth, cell.qps,
        cell.p50_ms, cell.p95_ms, cell.p99_ms, cell.ok, cell.rejected,
        cell.timed_out, static_cast<size_t>(cell.final_epoch));
    rows.push_back(ToJson(cell));
  };

  for (const bool waves : {false, true}) {
    for (const size_t connections : {size_t{1}, size_t{2}, size_t{8}}) {
      ServerNode node(dataset);
      report(RunLoadCell(node.port(), client_graph,
                         MakeWorkload(client_graph, p_ids, connections,
                                      kQueriesPerConn, kWorkloadSeed),
                         waves, kWavePeriod));
    }
  }

  // Pipelined cells: the event-loop workload. The 1024-connection cell
  // keeps total queries comparable by shrinking the per-connection
  // stream; its depth is lower so the offered load stays bounded.
  for (const bool waves : {false, true}) {
    report(RunPipelinedCell(dataset, client_graph, p_ids, 128, waves,
                            kQueriesPerConn, 8));
  }
  report(RunPipelinedCell(dataset, client_graph, p_ids, 1024, false,
                          kQueriesPerConn / 10, 4));

  DifferentialOutcome differential;
  {
    ServerNode node(dataset);
    differential = RunDifferential(
        dataset, node.port(), 0xD1FF0001u, 0xCA11AB1Eu, /*with_work=*/true,
        [&node](const std::vector<net::WireQuery>& jobs, uint64_t epoch) {
          return AnswerPipelined(node.port(), jobs, epoch);
        });
  }
  std::printf("\npipelined differential vs in-process engine: "
              "%zu queries, %zu mismatches\n",
              differential.queries, differential.mismatches);

  const LoadCell overload = RunOverload(dataset, client_graph, p_ids);
  std::printf("\noverload (queue depth 2, slowed executor, 8 conns): "
              "%zu OVERLOADED, %zu ok\n",
              overload.overloaded, overload.ok);

  const net::DrainStats drain = RunDrain(dataset, client_graph, p_ids);
  std::printf("drain: %.1f ms, %zu executed, %zu aborted, %s deadline\n",
              drain.drain_ms, drain.drained_items, drain.aborted_items,
              drain.within_deadline ? "within" : "PAST");

  WriteBenchJson(
      "server",
      BenchJson("server", dataset)
          .Add("queries_per_connection", kQueriesPerConn)
          .Add("cells", rows)
          .Add("pipelined_differential",
               JsonObject()
                   .Add("queries", differential.queries)
                   .Add("mismatches", differential.mismatches))
          .Add("overload", JsonObject()
                               .Add("connections", size_t{8})
                               .Add("queue_depth", size_t{2})
                               .Add("overloaded", overload.overloaded)
                               .Add("ok", overload.ok))
          .Add("drain", JsonObject()
                            .Add("drain_ms", drain.drain_ms)
                            .Add("drained_items", drain.drained_items)
                            .Add("aborted_items", drain.aborted_items)
                            .Add("within_deadline", drain.within_deadline)));
  return differential.mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace fannr::bench

int main() { return fannr::bench::Main(); }
