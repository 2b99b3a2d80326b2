#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the README reports it.

Usage (from the repository root):

    python3 perfbench/spread.py --workload scans --seeds 1-10

Runs the benchmark once per seed (untraced, ``run_seconds`` from
BENCHMARK.json), then prints for each metric the median, the quartiles
(``statistics.quantiles(values, n=4)``), the quartile distance as a share
of the median, and the metric's bound.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[key]}

    runs = []
    for seed in range(first, last + 1):
        proc = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]),
                                "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"failed {result['failed']}/{result['attempted']}", flush=True)

    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{args.workload}: {len(runs)} runs, failed share {sorted(shares)}, "
          f"all correct: {all(r['correct'] for r in runs)}")
    for name in bounds:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        if len(values) < 2:
            print(f"{name:40s} {med:12.6g}")
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        print(f"{name:40s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {spread:7.2%}" + (f"  bound {bound:.0%}" if bound else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
