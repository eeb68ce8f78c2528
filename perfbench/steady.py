#!/usr/bin/env python3
"""Shows whether the benchmark is steady: runs workloads N times, one seed each.

Usage, from the root of a fannr checkout:

    python3 perfbench/steady.py --workload cold-batch --runs 5
    python3 perfbench/steady.py --runs 10            # every workload

For each end-to-end metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)), and the spread
(q3 - q1) / median against the metric's bound from BENCHMARK.json. A spread
at or under a third of the bound is "steady"; under the bound, "loose";
otherwise "TOO WIDE". setup_s is judged only by its median, never its spread.
--trace 1 summarizes the per-layer metrics instead (no bounds).
Exit status: 0 when every bounded spread is within its bound, else 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=False)
    lines = proc.stdout.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" %
                           (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def main():
    config = load_config()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    all_within = True
    for workload in workloads:
        values = {}
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                raise RuntimeError("%s seed %d: answers mismatched" %
                                   (workload, seed))
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("%s: %d runs, seeds %d..%d, %d s each, %d failed operations" %
              (workload, args.runs, args.first_seed,
               args.first_seed + args.runs - 1, args.seconds, failed))
        print("  %-32s %12s %12s %12s %8s %6s  %s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for name, v in values.items():
            median = statistics.median(v)
            q1, _, q3 = (statistics.quantiles(v, n=4) if len(v) > 1
                         else (v[0], v[0], v[0]))
            spread = (q3 - q1) / abs(median) if median else float("inf")
            bound = bounds.get(name) if args.trace == 0 else None
            if bound is None:
                verdict, bound_text = "", "-"
            elif name == "setup_s":
                verdict, bound_text = "median only", "%.2f" % bound
            else:
                bound_text = "%.2f" % bound
                if spread <= bound / 3:
                    verdict = "steady"
                elif spread <= bound:
                    verdict = "loose"
                else:
                    verdict = "TOO WIDE"
                    all_within = False
            print("  %-32s %12.6g %12.6g %12.6g %8.4f %6s  %s" %
                  (name, median, q1, q3, spread, bound_text, verdict))
        sys.stdout.flush()
    return 0 if all_within else 1


if __name__ == "__main__":
    sys.exit(main())
