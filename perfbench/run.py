#!/usr/bin/env python3
"""End-to-end benchmark of the learned-index library.

Builds the C++ benchmark program next to this file (CMakeLists.txt,
e2e.cc) from the library sources of the checkout it sits in, runs one
workload, checks the result against BENCHMARK.json and prints it as the
last line of stdout:

    python3 perfbench/run.py --workload ycsb_c_range --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) under the repository root; the first run compiles
the library, later runs rebuild only what changed. A run is ROUNDS
processes of --seconds / ROUNDS each; an end-to-end metric is the best
value over them, a per-layer one the median (see summarize). The
write-ahead log of ycsb_e goes to a fresh directory under the build
directory, removed after each process. The workloads and metrics are
listed in BENCHMARK.json and described at the top of e2e.cc. Exits
non-zero without printing a result when the build, the run or the result
is bad.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# On a shared virtual machine the speed of one process differs from the
# next by up to ~40% (4.6 to 8.5 Mops/s on ycsb_c_range, back to back),
# while inside a process it holds to a few percent, and the whole host
# slows by as much for a minute or two at a time. Many short processes
# spread over the run give the best of them a calm stretch to land in.
ROUNDS = 10


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    """Configures once, then builds incrementally; returns the build dir."""
    if not os.path.isfile(
            os.path.join(ROOT, "src", "index", "any_range_index.h")):
        fail("the library sources (src/) are not in this checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", out, "-j", jobs]]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return out


def run_once(out, args, seconds):
    """Runs the program once, in a fresh process and log directory."""
    wal_dir = tempfile.mkdtemp(prefix="wal-", dir=out)
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--trace", str(args.trace), "--wal-dir", wal_dir]
    try:
        # Set-up and the closing checks take a few seconds beyond the
        # measured seconds.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + 60)
    except subprocess.TimeoutExpired:
        fail("perfbench timed out")
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"perfbench exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("perfbench printed no result")


def summarize(metric):
    """How one metric's values over the processes of a run combine.

    Other tenants of a shared host only ever slow a process down, by a
    share that shifts from one process to the next and from minute to
    minute, so the best process of the run is the steadiest estimate of
    what the program itself costs (Chen and Revels, "Robust benchmarking
    in noisy environments", 2016). Every process runs the whole workload,
    merges included, so the best one still pays for all of it. Per-layer
    metrics (no bound) describe the typical process: they take the median.
    """
    if "bound" not in metric:
        return statistics.median
    return max if metric["better"] == "higher" else min


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description="Run one workload.")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    out = build()
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in metrics}
    seconds = args.seconds / ROUNDS
    results = []
    for _ in range(ROUNDS):
        result = run_once(out, args, seconds)
        got = {name: m.get("unit")
               for name, m in result.get("metrics", {}).items()}
        if set(result) != RESULT_KEYS or got != want:
            fail("the result does not match BENCHMARK.json")
        results.append(result)

    print(json.dumps({
        "correct": all(r["correct"] is True for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            m["name"]: {"value": summarize(m)(
                            r["metrics"][m["name"]]["value"] for r in results),
                        "unit": m["unit"]}
            for m in metrics},
    }))


if __name__ == "__main__":
    main()
