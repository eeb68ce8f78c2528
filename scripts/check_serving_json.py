#!/usr/bin/env python3
"""Validates a serving bench's BENCH_{server,shard,subs}.json.

The three serving benches (bench/server_throughput, shard_throughput and
subs_throughput) share one harness and one JSON writer; this checker
dispatches on the file's "bench" field. CI runs it after each bench so a
run that silently produces garbage fails the build instead of uploading
a broken artifact:

  * every file: the host block (nproc, cpu_model, compiler, build_type);
  * server: nonzero qps everywhere, ordered percentiles, update waves
    actually applied, the 128-connection pipelined cell at >= 2x the
    8-connection synchronous cell's qps, zero pipelined differential
    mismatches, OVERLOADED shedding under saturation, and a drain that
    handled queued work within its deadline;
  * shard: every routed cell paired with its single-node twin, no
    timeouts or OVERLOADED answers, zero routed differential mismatches,
    and a catch-up cell that replayed history and recovered;
  * subs: pushes delivered, suppression firing and consistent with its
    counters, no backpressure drops, ordered push latencies, final epoch
    == waves, and zero differential mismatches.

Usage: check_serving_json.py path/to/BENCH_<name>.json
"""

import json
import math
import sys

HOST = ["nproc", "cpu_model", "compiler", "build_type"]
LOAD_CELL = ["mode", "connections", "waves", "pipelined", "depth", "qps",
             "wall_ms", "p50_ms", "p95_ms", "p99_ms", "ok", "rejected",
             "timed_out", "resubmitted", "overloaded", "waves_applied",
             "final_epoch"]
SUBS_CELL = ["connections", "subscriptions", "waves", "pushes", "suppressed",
             "suppression_rate", "push_p50_ms", "push_p95_ms", "final_epoch",
             "dropped_backpressure", "differential_answers",
             "differential_mismatches"]
# Per bench: the top-level keys past "bench", "host", "dataset",
# "engine_threads" and "cells", and the keys of each cell.
SCHEMAS = {
    "server": (["queries_per_connection", "pipelined_differential",
                "overload", "drain"], LOAD_CELL),
    "shard": (["num_shards", "queries_per_connection", "differential",
               "catch_up"], LOAD_CELL),
    "subs": (["waves_per_cell", "differential"], SUBS_CELL),
}

# The epoll rebuild exists to beat the old thread-per-connection model:
# the 128-connection pipelined steady cell must deliver at least this
# multiple of the 8-connection synchronous steady cell's qps.
PIPELINED_QPS_MULTIPLE = 2.0

_errors = []


def check(condition, message):
    if not condition:
        _errors.append(message)


def finite(value, low=-math.inf):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and value >= low)


def finite_positive(value):
    return finite(value) and value > 0


def find_cell(cells, **fields):
    for cell in cells:
        if all(cell.get(k) == v for k, v in fields.items()):
            return cell
    return None


def check_differential(name, differential, count="queries"):
    check(differential.get(count, 0) > 0, f"{name} ran no {count}")
    check(differential.get("mismatches", -1) == 0,
          f"{name}: {differential.get('mismatches')} answers differed from "
          f"the in-process engine (must be bitwise identical)")


def check_load_cells(cells):
    """The checks every server and shard load cell shares."""
    for cell in cells:
        label = (f"cell {cell['mode']} conns={cell['connections']} "
                 f"waves={'on' if cell['waves'] else 'off'} "
                 f"{'pipelined' if cell['pipelined'] else 'sync'}")
        check(cell["mode"] in ("single", "routed"), f"{label}: unknown mode")
        check(finite_positive(cell["qps"]), f"{label}: qps must be positive")
        check(cell["ok"] > 0, f"{label}: no query succeeded")
        check(cell["p50_ms"] <= cell["p95_ms"] <= cell["p99_ms"],
              f"{label}: latency percentiles not monotone")
        check(cell["depth"] >= 1, f"{label}: depth must be >= 1")
        if cell["pipelined"]:
            check(cell["depth"] > 1,
                  f"{label}: a pipelined cell should keep >1 frame in flight")
        if cell["waves"]:
            check(cell["waves_applied"] > 0,
                  f"{label}: wave cell applied no update waves")
            check(cell["final_epoch"] > 0,
                  f"{label}: wave cell never advanced the graph epoch")
        else:
            check(cell["rejected"] == 0,
                  f"{label}: steady cell saw stale-admission rejections")
            check(cell["final_epoch"] == 0,
                  f"{label}: steady cell advanced the graph epoch")
    check(any(c["waves"] for c in cells), "no cell ran with update waves")


def check_server(data):
    cells = data["cells"]
    check(len(cells) >= 2, "need at least one steady and one wave cell")
    check_load_cells(cells)

    # Pipelined coverage: the cells the event loop exists for must be
    # present (128 steady + waves, and the 1024-connection scale point).
    pipelined = find_cell(cells, connections=128, waves=False, pipelined=True)
    check(pipelined is not None,
          "missing the 128-connection pipelined steady cell")
    check(find_cell(cells, connections=128, waves=True, pipelined=True),
          "missing the 128-connection pipelined wave cell")
    check(any(c["pipelined"] and not c["waves"] and c["connections"] >= 1024
              for c in cells),
          "missing the 1024-connection pipelined cell (fd limit too low?)")

    # The headline gate: pipelining at 128 connections must beat the
    # 8-connection synchronous baseline by the required multiple.
    sync = find_cell(cells, connections=8, waves=False, pipelined=False)
    check(sync is not None, "missing the 8-connection synchronous steady cell")
    if pipelined is not None and sync is not None:
        need = PIPELINED_QPS_MULTIPLE * sync["qps"]
        check(pipelined["qps"] >= need,
              f"pipelined 128-conn qps {pipelined['qps']:.1f} < "
              f"{PIPELINED_QPS_MULTIPLE}x the 8-conn synchronous baseline "
              f"({sync['qps']:.1f} qps, need {need:.1f})")

    check_differential("pipelined differential",
                       data["pipelined_differential"])
    overload = data["overload"]
    check(overload.get("overloaded", 0) > 0,
          "overload cell shed nothing: saturation must produce at least "
          "one OVERLOADED response")

    drain = data["drain"]
    check(drain.get("within_deadline") is True,
          f"drain missed its deadline ({drain.get('drain_ms')} ms)")
    check(finite(drain.get("drain_ms"), low=0),
          "drain_ms must be a finite non-negative number")
    check(drain.get("drained_items", 0) + drain.get("aborted_items", 0) > 0,
          "drain cell found no queued work: the SHUTDOWN tested nothing")
    if pipelined is None or sync is None:
        return ""
    return (f"pipelined/sync speedup {pipelined['qps'] / sync['qps']:.2f}x, "
            f"{overload.get('overloaded')} OVERLOADED under saturation, "
            f"drain of {drain.get('drained_items')} item(s) in "
            f"{drain.get('drain_ms', 0):.1f} ms")


def check_shard(data):
    check(data["num_shards"] >= 2, "a sharded bench needs >= 2 shards")
    cells = data["cells"]
    check(len(cells) >= 4, "need single and routed cells, steady and waves")
    check_load_cells(cells)
    for cell in cells:
        label = f"cell {cell['mode']} conns={cell['connections']}"
        check(cell["timed_out"] == 0, f"{label}: queries timed out")
        check(cell["overloaded"] == 0, f"{label}: answered OVERLOADED")

    # Every routed cell needs its single-node twin (and vice versa): the
    # comparison is the product, not either column alone.
    seen = {(c["mode"], c["connections"], c["waves"]) for c in cells}
    for (mode, connections, waves) in sorted(seen):
        twin = ("routed" if mode == "single" else "single", connections, waves)
        check(twin in seen, f"cell {mode} conns={connections} waves={waves} "
                            f"has no {twin[0]} twin")
    check(("routed", True) in {(m, w) for (m, _, w) in seen},
          "no routed wave cell: replication under load went unmeasured")

    # The headline gate: the fleet must answer exactly what one node
    # answers, before and after a replicated weight wave.
    check_differential("routed differential", data["differential"])

    # And a killed replica must rejoin the fleet epoch via catch-up.
    catch_up = data["catch_up"]
    check(catch_up.get("records", 0) > 0,
          "catch-up replayed no history records — the restarted replica "
          "was never behind, so the cell tested nothing")
    check(catch_up.get("recovered") is True,
          "restarted replica did not recover to the fleet epoch")
    check(catch_up.get("final_epoch", 0) > 0, "catch-up cell ended at epoch 0")
    single = find_cell(cells, mode="single", connections=1, waves=False)
    routed = find_cell(cells, mode="routed", connections=1, waves=False)
    if single is None or routed is None:
        return ""
    return (f"single/routed 1-conn qps ratio "
            f"{single['qps'] / routed['qps']:.2f}x, catch-up replayed "
            f"{catch_up['records']} record(s) to epoch "
            f"{catch_up['final_epoch']}")


def check_subs(data):
    cells = data["cells"]
    check(len(cells) >= 2,
          "need at least two cells (single- and multi-connection)")
    for cell in cells:
        label = f"cell conns={cell['connections']} subs={cell['subscriptions']}"
        check(cell["pushes"] > 0, f"{label}: no push was ever delivered")
        # Half the waves are exact re-sends: the epoch advances but no
        # answer changes, so suppression must have fired.
        check(cell["suppressed"] > 0,
              f"{label}: delta suppression never fired despite the "
              f"re-sent waves")
        decisions = cell["pushes"] + cell["suppressed"]
        check(decisions == cell["waves"] * cell["subscriptions"],
              f"{label}: pushes + suppressed != waves * subscriptions "
              f"(a re-evaluation skipped a subscription)")
        check(decisions > 0 and abs(cell["suppression_rate"] -
                                    cell["suppressed"] / decisions) < 1e-9,
              f"{label}: suppression_rate inconsistent with its counters")
        check(0.0 < cell["suppression_rate"] < 1.0,
              f"{label}: suppression_rate out of (0, 1)")
        check(finite(cell["push_p50_ms"], low=0) and
              finite(cell["push_p95_ms"], low=0),
              f"{label}: push latency percentiles must be finite and "
              f"non-negative")
        check(cell["push_p50_ms"] <= cell["push_p95_ms"],
              f"{label}: push latency percentiles not monotone")
        check(cell["push_p95_ms"] > 0,
              f"{label}: p95 push latency is zero (no latency measured)")
        check(cell["final_epoch"] == cell["waves"],
              f"{label}: final epoch {cell['final_epoch']} != waves "
              f"{cell['waves']} (a wave failed to apply)")
        check(cell["dropped_backpressure"] == 0,
              f"{label}: {cell['dropped_backpressure']} pushes dropped to "
              f"backpressure under benign load")
        check(cell["differential_answers"] > 0,
              f"{label}: differential checked no answers")
        check(cell["differential_mismatches"] == 0,
              f"{label}: {cell['differential_mismatches']} answers differed "
              f"from the in-process engine (must be bitwise identical)")
    check(any(c["connections"] > 1 for c in cells), "no multi-connection cell")

    differential = data["differential"]
    check_differential("differential", differential, count="answers")
    check(differential.get("answers", 0) ==
          sum(c["differential_answers"] for c in cells),
          "top-level differential answers != sum over cells")
    rates = ", ".join(f"{c['suppression_rate']:.2f}" for c in cells)
    return (f"{sum(c['pushes'] for c in cells)} pushes, suppression rates "
            f"[{rates}]")


CHECKERS = {"server": check_server, "shard": check_shard, "subs": check_subs}


def validate(data):
    """Returns the summary line; failures accumulate in _errors."""
    bench = data.get("bench")
    if bench not in SCHEMAS:
        check(False, f"unknown or missing \"bench\": {bench!r}")
        return ""
    top, cell_keys = SCHEMAS[bench]
    for key in ["host", "dataset", "engine_threads", "cells"] + top:
        check(key in data, f"missing top-level key '{key}'")
    host = data.get("host")
    for key in HOST:
        check(isinstance(host, dict) and host.get(key) not in (None, ""),
              f"host block lacks '{key}'")
    for i, cell in enumerate(data.get("cells", [])):
        for key in cell_keys:
            check(key in cell, f"cell {i}: missing key '{key}'")
    if _errors:
        return ""
    summary = CHECKERS[bench](data)
    return f"{bench}: {len(data['cells'])} cells, {summary}"


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    path = sys.argv[1]
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"FAIL: cannot parse {path}: {e}", file=sys.stderr)
        return 1
    summary = validate(data)
    if _errors:
        print("FAIL:\n  " + "\n  ".join(_errors), file=sys.stderr)
        return 1
    print(f"OK: {path} passes schema and sanity checks ({summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
