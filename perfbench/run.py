#!/usr/bin/env python3
"""Build and run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles ../src)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, runs
the workload, and prints as its last line one JSON object: correct,
attempted, failed, and the metrics BENCHMARK.json declares for the mode
(end_to_end with --trace 0, per_layer with --trace 1), each with its
unit. Exits nonzero, printing no result, if the build fails, a check
fails, or a declared metric is missing. Traced runs write their spans,
trace, profile and flows under the build directory's trace/ folder.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per checkout; later runs find it up to date.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "perfbench",
             "-j", str(min(4, os.cpu_count() or 1))],
            check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        exe = build(os.path.join(build_root, "perfbench"))
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")
    out_dir = os.path.join(build_root, "perfbench", "trace")
    os.makedirs(out_dir, exist_ok=True)

    proc = subprocess.run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", out_dir],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        raw = None
    if proc.returncode != 0 or raw is None or not raw.get("correct"):
        fail(f"{args.workload} failed (exit {proc.returncode})")

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in declared:
        v = raw["values"].get(m["name"])
        if v is None or not math.isfinite(v):
            fail(f"metric {m['name']} missing from {args.workload}")
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    print(json.dumps({"correct": True, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
