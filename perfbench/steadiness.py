#!/usr/bin/env python3
"""Runs each workload K times, one seed per run, and prints each metric's
spread: median, quartiles, (Q3-Q1)/median and (max-min)/median.

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 5 --workloads auto-spill

Quartiles are statistics.quantiles(values, n=4), the same figures the
acceptance check takes. Against each end-to-end metric the table shows
its bound from BENCHMARK.json and flags a quartile spread above a third of
it. The bounds in BENCHMARK.json are set from this script's output.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def benchmark_spec():
    """Bounds, workload names and run length from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["bound"] for m in spec["end_to_end"]},
            [w["name"] for w in spec["workloads"]], spec["run_seconds"])


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect output")
    return {name: m["value"] for name, m in result["metrics"].items()}


def report(workload, runs, limits):
    print(f"\n== {workload} ({len(runs)} runs)")
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s} {'rng/med':>8s} {'bound':>6s}")
    for name in runs[0]:
        values = [r[name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(values) - min(values)) / med if med else 0.0
        bound = limits.get(name)
        flag = ""
        if bound is not None:
            flag = f"{bound:6.3f}" + (" !" if iqr > bound / 3 else "")
        print(f"{name:32s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{iqr:8.4f} {rng:8.4f} {flag}")


def main():
    limits, names, run_seconds = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=names)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    for workload in args.workloads:
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(run_once(workload, seed, run_seconds))
            print(f"{workload} seed {seed} done", file=sys.stderr)
        report(workload, runs, limits)


if __name__ == "__main__":
    main()
