#!/usr/bin/env python3
"""CI perf gate for the PLL batched-distance kernel: dispatched vs scalar.

bench_runtime times the batched-distance benchmark twice in one process:
BM_PllBatchedDistances/<n> on the dispatched kernel backend, and
BM_PllBatchedDistancesScalar/<n> on a copy of the same index pinned to the
scalar reference. The gate fails unless, for every target count n, the
dispatched time is at most MAX_RATIO of the scalar time. The gate exists to
catch a silent fallback to the scalar kernel (a ratio near 1.0), and a ratio
taken inside one process does not depend on how fast the host is.

Usage:
  bench_runtime --benchmark_filter=BM_PllBatchedDistances \\
                --benchmark_repetitions=5 \\
                --benchmark_out=report.json --benchmark_out_format=json
  check_bench_regression.py --bench-json report.json
"""

import argparse
import json
import sys

# Dispatched / scalar ceiling for every target count. AVX2 measured
# 0.26-0.38 against scalar; a fallback reads ~1.0.
MAX_RATIO = 0.5

DISPATCHED = "BM_PllBatchedDistances/"
SCALAR = "BM_PllBatchedDistancesScalar/"

_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"error: cannot read {path}: {e}")


def measured_ns(report):
    """Map benchmark name -> real_time in ns from a google-benchmark report.

    Plain runs report one entry per benchmark. Runs with
    --benchmark_repetitions report per-repetition entries plus aggregates
    (and only aggregates under --benchmark_report_aggregates_only); prefer
    the median aggregate when present, else the raw single-run entry.
    """
    raw, medians = {}, {}
    for b in report.get("benchmarks", []):
        unit = b.get("time_unit", "ns")
        if unit not in _TO_NS:
            sys.exit(f"error: unknown time_unit {unit!r} for {b.get('name')}")
        ns = float(b["real_time"]) * _TO_NS[unit]
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "median":
                medians[b.get("run_name", b["name"].rsplit("_", 1)[0])] = ns
        else:
            raw.setdefault(b["name"], ns)  # first repetition wins
    return {**raw, **medians}


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--bench-json", required=True,
                   help="google-benchmark JSON report from bench_runtime")
    args = p.parse_args()

    report = measured_ns(load_json(args.bench_json))
    sizes = sorted(int(name[len(DISPATCHED):]) for name in report
                   if name.startswith(DISPATCHED))
    if not sizes:
        sys.exit(f"error: no {DISPATCHED}<n> benchmark in the report "
                 "(wrong --benchmark_filter?)")

    failed = 0
    for n in sizes:
        dispatched = report[f"{DISPATCHED}{n}"]
        scalar = report.get(f"{SCALAR}{n}")
        if scalar is None:
            print(f"  {'MISSING':>8}  {SCALAR}{n} is not in the report")
            failed += 1
            continue
        ratio = dispatched / scalar
        verdict = "ok" if ratio <= MAX_RATIO else "FAIL"
        print(f"  {verdict:>8}  {n:>4} targets: dispatched {dispatched:>10.1f} ns"
              f"   scalar {scalar:>10.1f} ns   ratio {ratio:.2f}")
        if verdict != "ok":
            failed += 1

    if failed:
        print(f"\nFAIL: {failed}/{len(sizes)} target count(s) above the "
              f"{MAX_RATIO} dispatched/scalar ceiling: the dispatched kernel "
              "is not faster than the scalar reference (check the label's "
              "kernel=<name> and TEAMDISC_KERNEL).")
        return 1
    print(f"\nOK: dispatched/scalar <= {MAX_RATIO} at all {len(sizes)} "
          "target counts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
