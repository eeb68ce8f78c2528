#!/usr/bin/env python3
"""Validates BENCH_scale.json: schema plus the scale-gate invariants.

CI runs this after the scale smoke (10^4 and 10^5 cells); a local run
can add the 10^6 cell. The hard requirements:

  * every cell's parallel DIMACS parse produced the identical graph
    (fingerprint equality, computed by the bench itself), and every
    cell's GD answers on the mmap-loaded graph are bitwise identical to
    the in-memory ones at 1 and 8 threads;
  * wherever the G-tree was built, answers through the mmap-loaded index
    are bitwise identical to the built-in-memory index at 1 and 8
    threads, and the largest cell in the file must have built it (CI's
    default gate is 150k, so the 10^5 smoke cell carries the index
    differential there).

Usage: check_scale_json.py [path-to-BENCH_scale.json]
"""

import json
import math
import sys

REQUIRED_CELL = [
    "target_vertices",
    "num_vertices",
    "num_edges",
    "gen_ms",
    "parse_seq_ms",
    "parse_par_ms",
    "parse_speedup",
    "parallel_load_identical",
    "graph",
    "gtree",
    "query_mean_ms_t1",
    "query_mean_ms_t8",
    "query_identical",
]
REQUIRED_GRAPH = [
    "v3_bytes",
    "v3_save_ms",
    "v3_mmap_load_ms",
]

REQUIRED_GTREE = [
    "leaf_capacity",
    "build_ms",
    "v3_bytes",
    "v3_mmap_load_ms",
    "query_mean_ms_t1",
    "query_mean_ms_t8",
    "query_identical",
]

_errors = []


def check(condition, message):
    if not condition:
        _errors.append(message)


def finite_positive(value):
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_scale.json"
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"FAIL: cannot parse {path}: {e}", file=sys.stderr)
        return 1

    cells = data.get("cells")
    check(isinstance(cells, list) and len(cells) > 0,
          "cells must be a non-empty array")
    if _errors:
        print("FAIL:\n  " + "\n  ".join(_errors), file=sys.stderr)
        return 1

    for cell in cells:
        for key in REQUIRED_CELL:
            check(key in cell,
                  f"cell |V|={cell.get('num_vertices', '?')}: "
                  f"missing key '{key}'")
        if _errors:
            break
        label = f"cell |V|={cell['num_vertices']}"
        for key in REQUIRED_GRAPH:
            check(key in cell["graph"], f"{label}: graph missing key '{key}'")
        if _errors:
            break

        check(cell["num_vertices"] > 0, f"{label}: empty graph")
        check(cell["parallel_load_identical"] is True,
              f"{label}: parallel DIMACS parse produced a DIFFERENT graph")
        check(cell["query_identical"] is True,
              f"{label}: answers on the mmap-loaded graph are not bitwise "
              f"identical to the in-memory ones")
        for key in ("gen_ms", "parse_seq_ms", "parse_par_ms"):
            check(finite_positive(cell[key]),
                  f"{label}: {key} must be positive and finite")

        graph = cell["graph"]
        check(graph["v3_bytes"] > 0, f"{label}: cache file is empty")
        check(finite_positive(graph["v3_mmap_load_ms"]),
              f"{label}: load timing must be positive and finite")

        gtree = cell["gtree"]
        if gtree.get("built"):
            for key in REQUIRED_GTREE:
                check(key in gtree, f"{label}: gtree missing key '{key}'")
            check(finite_positive(gtree.get("v3_mmap_load_ms", 0)),
                  f"{label}: gtree load timing must be positive and finite")
            check(gtree.get("v3_bytes", 0) > 0,
                  f"{label}: gtree v3 file is empty")
            check(gtree.get("query_identical") is True,
                  f"{label}: answers on the mmap-loaded G-tree are not "
                  f"bitwise identical to the built-in-memory index")

    if not _errors:
        largest = max(cells, key=lambda c: c["num_vertices"])
        check(largest["gtree"].get("built") is True,
              f"the largest cell (|V|={largest['num_vertices']}) must build "
              f"the G-tree so the index differential has something to "
              f"compare")

    if _errors:
        print("FAIL:\n  " + "\n  ".join(_errors), file=sys.stderr)
        return 1
    sizes = ", ".join(str(c["num_vertices"]) for c in cells)
    print(f"OK: {path} passes the scale gate ({len(cells)} cells: {sizes})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
