#!/usr/bin/env python3
"""Builds the teamdisc /find benchmark and runs one workload.

Run from the root of a teamdisc checkout:

    python3 perfbench/run.py --workload light_http --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR (default .bench_build, relative to the
checkout root). The serving snapshot is prepared once per build under it,
outside every timed interval; traces and a results log are written there
too. The last line of standard output is the result JSON; see README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must finish within 180 s; stop the child before that.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    out = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return out if os.path.isabs(out) else os.path.join(ROOT, out)


def build(out):
    """Configures and builds the benchmark binary; returns its path."""
    cmake = shutil.which("cmake")
    if cmake is None:
        raise RuntimeError("cmake not found")
    subprocess.run([cmake, "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run([cmake, "--build", out, "--target", "teamdisc_perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "teamdisc_perfbench")


def snapshot(binary, out):
    """The serving snapshot for this build, prepared on first use."""
    with open(binary, "rb") as f:
        key = hashlib.sha256(f.read()).hexdigest()[:16]
    cache = os.path.join(out, "perfbench-cache")
    snap = os.path.join(cache, "snap-" + key)
    if not os.path.exists(os.path.join(snap, "manifest.txt")):
        if os.path.isdir(cache):
            for stale in os.listdir(cache):
                shutil.rmtree(os.path.join(cache, stale), ignore_errors=True)
        os.makedirs(cache, exist_ok=True)
        subprocess.run([binary, "prepare", "--out", snap], stdout=sys.stderr,
                       check=True, timeout=RUN_TIMEOUT_S)
    return snap


def expected_digest(workload, seed):
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    if seed != expected["seed"]:
        return None
    return expected["digests"][workload]


def run(args, out):
    binary = build(out)
    snap = snapshot(binary, out)
    cmd = [binary, "run", "--snapshot", snap, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--record", os.path.join(out, "perfbench-results.jsonl")]
    digest = expected_digest(args.workload, args.seed)
    if digest:
        cmd += ["--expect-digest", digest]
    if args.trace:
        traces = os.path.join(out, "perfbench-traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) or \
            set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        raise RuntimeError(f"benchmark exited {proc.returncode} without a result")
    sys.stdout.write(proc.stdout)


def self_test(out):
    binary = build(out)
    work = os.path.join(out, "perfbench-selftest-work")
    os.makedirs(work, exist_ok=True)
    return subprocess.run(
        [binary, "self-test", "--benchmark-json",
         os.path.join(ROOT, "BENCHMARK.json")],
        cwd=work, timeout=600).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["light_http", "heavy_holders", "live_churn"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    out = build_dir()
    try:
        if args.self_test:
            return self_test(out)
        if args.workload is None:
            parser.error("--workload is required")
        run(args, out)
        return 0
    except (OSError, RuntimeError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
