// fannr_router — fan FANN_R queries out to a sharded fleet and merge
// the answers; replicate weight updates with epoch positioning.
//
//   fannr_router --plan FILE.plan --shard HOST:PORT --shard HOST:PORT...
//                [options]
//
// Options:
//   --host ADDR    bind address                       (default 127.0.0.1)
//   --port N       bind port; 0 = ephemeral           (default 0)
//   --wal FILE     durable replication history — lets a restarted router
//                  keep catching restarted replicas up (DESIGN.md §2.13)
//
// --shard is repeated once per shard, in shard-id order: the i-th flag
// is shard i of the plan. Their count must equal the plan's shard
// count. Every shard must be reachable at start.
//
// Prints "listening on HOST:PORT" once ready (scripts parse this line),
// then blocks until SIGTERM/SIGINT or a client SHUTDOWN frame, drains,
// prints the drain accounting, and exits 0 iff the drain met its
// deadline. Shards are NOT shut down — they belong to the operator.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dynamic/wal.h"
#include "net/router.h"
#include "net/shard_plan.h"

namespace {

using namespace fannr;

net::FannRouter* g_router = nullptr;

void HandleSignal(int) {
  // Async-signal-safe by the serving core's contract: eventfd write(2)s
  // plus a relaxed store.
  if (g_router != nullptr) g_router->RequestShutdown();
}

int Fail(const char* message) {
  std::fprintf(stderr, "fannr_router: %s (run with --help)\n", message);
  return 2;
}

std::optional<net::ShardAddress> ParseShard(const std::string& spec) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    return std::nullopt;
  }
  const unsigned long port = std::strtoul(spec.c_str() + colon + 1, nullptr, 10);
  if (port == 0 || port > 65535) return std::nullopt;
  net::ShardAddress address;
  address.host = spec.substr(0, colon);
  address.port = static_cast<uint16_t>(port);
  return address;
}

}  // namespace

int main(int argc, char** argv) {
  std::string plan_path;
  std::string wal_path;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::vector<net::ShardAddress> shards;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help") {
      std::printf("see the header of tools/fannr_router.cc for usage\n");
      return 0;
    }
    if (i + 1 >= argc) return Fail("malformed arguments");
    const std::string value = argv[++i];
    if (flag == "--plan") {
      plan_path = value;
    } else if (flag == "--shard") {
      const std::optional<net::ShardAddress> address = ParseShard(value);
      if (!address.has_value()) return Fail("--shard wants HOST:PORT");
      shards.push_back(*address);
    } else if (flag == "--host") {
      host = value;
    } else if (flag == "--port") {
      port = static_cast<uint16_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (flag == "--wal") {
      wal_path = value;
    } else {
      return Fail("unknown flag");
    }
  }
  if (plan_path.empty()) return Fail("--plan FILE.plan is required");
  if (shards.empty()) return Fail("at least one --shard HOST:PORT is required");

  std::string error;
  const std::optional<net::ShardPlan> plan =
      net::ShardPlan::Load(plan_path, &error);
  if (!plan.has_value()) {
    std::fprintf(stderr, "fannr_router: plan: %s\n", error.c_str());
    return 1;
  }
  if (shards.size() != plan->num_shards()) {
    std::fprintf(stderr,
                 "fannr_router: plan has %u shards but %zu --shard flags "
                 "were given\n",
                 plan->num_shards(), shards.size());
    return 1;
  }
  std::printf("plan: %u shards over %zu vertices\n", plan->num_shards(),
              plan->num_vertices());

  std::unique_ptr<dynamic::UpdateWal> wal;
  if (!wal_path.empty()) {
    wal = dynamic::UpdateWal::Open(wal_path, plan->fingerprint(), &error);
    if (wal == nullptr) {
      std::fprintf(stderr, "fannr_router: wal: %s\n", error.c_str());
      return 1;
    }
    std::printf("wal: %zu record%s on hand, history ends at epoch %llu\n",
                wal->records().size(), wal->records().size() == 1 ? "" : "s",
                static_cast<unsigned long long>(wal->end_epoch()));
  }

  net::RouterConfig config;
  config.host = host;
  config.port = port;
  config.shards = std::move(shards);
  config.wal = wal.get();

  net::FannRouter router(*plan, std::move(config));
  if (!router.Start(&error)) {
    std::fprintf(stderr, "fannr_router: start failed: %s\n", error.c_str());
    return 1;
  }
  g_router = &router;
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  std::printf("replication position: epoch %llu\n",
              static_cast<unsigned long long>(router.repl_epoch()));
  std::printf("listening on %s:%u\n", host.c_str(), router.port());
  std::fflush(stdout);

  const net::DrainStats stats = router.Wait();
  g_router = nullptr;
  std::printf(
      "drained in %.1f ms (%zu item%s executed, %zu aborted, %s deadline)\n",
      stats.drain_ms, stats.drained_items,
      stats.drained_items == 1 ? "" : "s", stats.aborted_items,
      stats.within_deadline ? "within" : "PAST");
  std::printf("final stats:\n%s\n", stats.final_stats_json.c_str());
  return stats.within_deadline ? 0 : 1;
}
