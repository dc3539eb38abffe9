#!/usr/bin/env python3
"""Compares freshly generated BENCH_*.json files against the committed
baselines and flags per-benchmark real_time regressions.

Usage:
    scripts/bench_diff.py [--threshold 0.15] [--baseline-ref HEAD]
                          [--strict] [files...]

With no files, every BENCH_*.json at the repo root is checked. The baseline
for a file is the version committed at --baseline-ref (default HEAD), read
via `git show`, so the script works after bench/run_benches.sh has
overwritten the working-tree copy with fresh numbers. Files without a
committed baseline (first run of a new suite) are reported and skipped.

Each benchmark is represented by its median over repetitions (the single
run when there are none). A benchmark regresses when
new_time > (1 + limit) * old_time, where limit = max(threshold, 2 * cv)
and cv is the larger coefficient of variation of its repetitions in the
two files: a change inside twice the run-to-run spread is noise, not a
regression. By default regressions are printed as warnings and the exit
code stays 0 so a noisy laptop run does not fail the whole bench script;
pass --strict to exit 1 when any regression is found (for CI).
"""

import argparse
import json
import pathlib
import subprocess
import sys


def repo_root() -> pathlib.Path:
    out = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        capture_output=True, text=True, check=True)
    return pathlib.Path(out.stdout.strip())


def committed_json(ref: str, relpath: str):
    """The file's content at `ref`, or None when it is not committed."""
    proc = subprocess.run(
        ["git", "show", f"{ref}:{relpath}"], capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)


# A change must exceed this many coefficients of variation to count.
CV_FACTOR = 2.0


def benchmark_times(merged: dict):
    """Flattens a merged BENCH_*.json into ({(suite, name): real_time},
    {(suite, name): cv}).

    When a benchmark ran with repetitions, google-benchmark emits both the
    per-repetition entries and aggregates; the median aggregate is preferred
    (one slow outlier moves a mean, not a median) and the raw repetitions
    are dropped. The cv aggregate is the repetitions' relative spread.
    """
    times = {}
    cvs = {}
    preferred = {}  # keys whose value came from a median aggregate
    for suite, benchmarks in merged.get("suites", {}).items():
        for entry in benchmarks:
            if "real_time" not in entry:
                continue
            name = entry.get("run_name", entry.get("name", ""))
            key = (suite, name)
            aggregate = entry.get("aggregate_name")
            if aggregate == "median":
                times[key] = float(entry["real_time"])
                preferred[key] = True
            elif aggregate == "cv":
                cvs[key] = float(entry["real_time"])
            elif aggregate:
                continue  # mean/stddev: not the representative time
            elif not preferred.get(key):
                times[key] = float(entry["real_time"])
    return times, cvs


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Flag bench regressions vs the committed baselines.")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="relative slowdown that counts as a regression "
                             "(default 0.15 = +15%%)")
    parser.add_argument("--baseline-ref", default="HEAD",
                        help="git ref holding the baseline JSONs")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when any regression is found")
    parser.add_argument("files", nargs="*",
                        help="BENCH_*.json files (default: repo root glob)")
    args = parser.parse_args()

    root = repo_root()
    files = ([pathlib.Path(f) for f in args.files]
             if args.files else sorted(root.glob("BENCH_*.json")))
    if not files:
        print("bench_diff: no BENCH_*.json files found", file=sys.stderr)
        return 0

    regressions = []
    for path in files:
        relpath = path.resolve().relative_to(root).as_posix()
        baseline = committed_json(args.baseline_ref, relpath)
        if baseline is None:
            print(f"{relpath}: no baseline at {args.baseline_ref} "
                  "(new suite?), skipping")
            continue
        fresh = json.loads(path.read_text())
        old_times, old_cvs = benchmark_times(baseline)
        new_times, new_cvs = benchmark_times(fresh)

        for key in sorted(new_times):
            if key not in old_times or old_times[key] <= 0:
                continue
            suite, name = key
            ratio = new_times[key] / old_times[key]
            cv = max(old_cvs.get(key, 0.0), new_cvs.get(key, 0.0))
            limit = max(args.threshold, CV_FACTOR * cv)
            tag = "ok"
            if ratio > 1 + limit:
                tag = "REGRESSION"
                regressions.append((relpath, suite, name, ratio, limit))
            elif ratio < 1 - limit:
                tag = "improved"
            print(f"{relpath}: {suite}/{name}: "
                  f"{old_times[key]:.3g} -> {new_times[key]:.3g} "
                  f"({(ratio - 1) * 100:+.1f}%, limit "
                  f"{limit * 100:.0f}%) {tag}")

    if regressions:
        print(f"\nbench_diff: {len(regressions)} regression(s) past "
              f"max(+{args.threshold * 100:.0f}%, {CV_FACTOR:g} x cv):",
              file=sys.stderr)
        for relpath, suite, name, ratio, limit in regressions:
            print(f"  {relpath}: {suite}/{name} ({(ratio - 1) * 100:+.1f}%, "
                  f"limit {limit * 100:.0f}%)", file=sys.stderr)
        return 1 if args.strict else 0
    print("bench_diff: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
