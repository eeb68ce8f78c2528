#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage, from the root of a fannr checkout:

    python3 perfbench/run.py --workload cold-batch --seed 1 --seconds 20 --trace 0

The binary comes from a CMake package (perfbench/CMakeLists.txt) compiled
from the checkout's own src/ into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). The first run configures and builds it; later runs
rebuild only what changed. Result files and the traced run's span dump go to
.bench_results/. The last line of standard output is the run's result JSON.

Exit status: the binary's own (0 ok, 1 answer mismatch, 2 could not
measure); 2 as well when the build fails or the run overstays its time.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def run_step(cmd, timeout, what):
    """Runs a build step, sending its output to stderr; exits 2 on failure."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout,
                              check=False)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out\n" % what)
        sys.exit(2)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
        sys.stderr.write("perfbench: %s failed\n" % what)
        sys.exit(2)


def build(targets):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        run_step(["cmake", "-S", BENCH_DIR, "-B", out,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, "configure")
    run_step(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
              "--target"] + targets, BUILD_TIMEOUT_S, "build")
    return out


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.decode().strip() or "none"


def source_digest():
    """SHA-256 over the paths and bytes of every file the build compiles."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "net", "server.h")):
        sys.stderr.write("perfbench: no fannr sources under %s\n" % ROOT)
        return 2

    if args.selftest:
        out = build(["perfbench_test"])
        return subprocess.run([os.path.join(out, "perfbench_test")],
                              timeout=RUN_TIMEOUT_S, check=False).returncode
    if not args.workload:
        parser.error("--workload is required")

    out = build(["perfbench"])
    results = os.path.join(ROOT, ".bench_results")
    os.makedirs(results, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", results, "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 2
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
