#!/usr/bin/env bash
# CI smoke test for sharded serving with the real binaries: build a
# 2-shard plan, start two fannr_server shards (each with its own WAL)
# and a fannr_router in front, drive the fannr_client smoke workload
# through the router, then kill -9 one replica, advance the fleet epoch
# while it is down, restart it from its WAL, and assert the router's
# history catch-up brought it back to the live epoch (queries succeed
# and the router's catch-up counter moved).
#
# Usage: shard_smoke.sh <build-dir>
set -euo pipefail

BUILD_DIR="${1:?usage: shard_smoke.sh <build-dir>}"
SERVER="$BUILD_DIR/tools/fannr_server"
ROUTER="$BUILD_DIR/tools/fannr_router"
CLIENT="$BUILD_DIR/tools/fannr_client"
SHARDPLAN="$BUILD_DIR/tools/fannr_shardplan"

WORK="$(mktemp -d)"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

# The server/router print "listening on HOST:PORT" once ready.
wait_for_port() { # log pid name -> port on stdout
  local log="$1" pid="$2" name="$3" port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/^listening on .*:\([0-9]*\)$/\1/p' "$log")"
    [ -n "$port" ] && break
    kill -0 "$pid" 2>/dev/null || {
      cat "$log" >&2
      echo "FAIL: $name died before listening" >&2
      exit 1
    }
    sleep 0.1
  done
  [ -n "$port" ] || {
    cat "$log" >&2
    echo "FAIL: $name never reported its port" >&2
    exit 1
  }
  echo "$port"
}

"$SHARDPLAN" --preset TEST --shards 2 --out "$WORK/test.plan"

# Sets SHARD<id>_PID and SHARD<id>_PORT in the calling shell (no
# command substitution: a subshell would lose both).
start_shard() { # id port(0=ephemeral)
  local id="$1" port="$2"
  "$SERVER" --preset TEST --port "$port" --threads 2 \
    --shard-plan "$WORK/test.plan" --wal "$WORK/shard$id.wal" \
    > "$WORK/shard$id.log" 2>&1 &
  local pid=$!
  PIDS+=("$pid")
  eval "SHARD${id}_PID=$pid"
  local got
  got="$(wait_for_port "$WORK/shard$id.log" "$pid" "shard $id")"
  eval "SHARD${id}_PORT=$got"
}

start_shard 0 0
start_shard 1 0

"$ROUTER" --plan "$WORK/test.plan" \
  --shard "127.0.0.1:$SHARD0_PORT" --shard "127.0.0.1:$SHARD1_PORT" \
  --port 0 --wal "$WORK/router.wal" > "$WORK/router.log" 2>&1 &
ROUTER_PID=$!
PIDS+=("$ROUTER_PID")
ROUTER_PORT="$(wait_for_port "$WORK/router.log" "$ROUTER_PID" router)"
echo "fleet up: shards on $SHARD0_PORT/$SHARD1_PORT, router on $ROUTER_PORT"

# Phase 1: the standard smoke workload through the router — queries
# fan out across both shards, waves replicate to both.
"$CLIENT" --port "$ROUTER_PORT" --ping 3
"$CLIENT" --port "$ROUTER_PORT" --smoke --preset TEST \
  --queries 40 --update-waves 2

# Phase 2: kill -9 replica 1 (no drain, no goodbye), then advance the
# fleet epoch while it is down. The router replicates to shard 0 alone
# and journals the wave in its WAL.
kill -9 "$SHARD1_PID"
wait "$SHARD1_PID" 2>/dev/null || true
echo "killed shard 1 (pid $SHARD1_PID)"
"$CLIENT" --port "$ROUTER_PORT" --waves 1 --preset TEST --seed 77

# Phase 3: restart the replica on its old port. Its own WAL replays the
# waves it lived through; the one it missed must come from the router's
# history (triggered by the next spanning fan-out).
start_shard 1 "$SHARD1_PORT"
grep -q "wal: replayed" "$WORK/shard1.log" || {
  cat "$WORK/shard1.log"
  echo "FAIL: restarted shard 1 did not replay its WAL"
  exit 1
}
"$CLIENT" --port "$ROUTER_PORT" --smoke --preset TEST \
  --queries 20 --update-waves 0 | tee "$WORK/phase3.log"
grep -q "final epoch 3" "$WORK/phase3.log" || {
  echo "FAIL: post-restart queries not at the live epoch (want 3)"
  exit 1
}
"$CLIENT" --port "$ROUTER_PORT" --stats > "$WORK/stats.json"
grep -q '"router.catch_up.records": [1-9]' "$WORK/stats.json" || {
  cat "$WORK/stats.json"
  echo "FAIL: router replayed no catch-up records for the restarted replica"
  exit 1
}
echo "replica rejoined via WAL catch-up"

# Clean shutdown: router first, then shards, each via SIGTERM; every
# process must exit 0 (its drain met the deadline).
kill -TERM "$ROUTER_PID"
wait "$ROUTER_PID" || {
  cat "$WORK/router.log"
  echo "FAIL: router exited nonzero after SIGTERM"
  exit 1
}
grep -q "within deadline" "$WORK/router.log" || {
  echo "FAIL: router drain not within deadline"
  exit 1
}
for id in 0 1; do
  pid_var="SHARD${id}_PID"
  kill -TERM "${!pid_var}"
  wait "${!pid_var}" || {
    cat "$WORK/shard$id.log"
    echo "FAIL: shard $id exited nonzero after SIGTERM"
    exit 1
  }
  grep -q "within deadline" "$WORK/shard$id.log" || {
    echo "FAIL: shard $id drain not within deadline"
    exit 1
  }
done
echo "OK: shard smoke passed (fan-out, replication, kill -9 + WAL catch-up)"
