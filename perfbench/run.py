#!/usr/bin/env python3
"""Builds the service benchmark from source and runs one workload.

    python3 perfbench/run.py --workload nested-olap --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root (any directory works; paths resolve from this
file). The first call configures and builds perfbench/ (the engine's
libraries from src/ plus the harness) in RelWithDebInfo under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only rebuild what changed. Build output goes to standard error, so the last
line of standard output is the harness's JSON result.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ["nested-olap", "short-lookup", "auto-spill"]
BUILD_TYPE = "RelWithDebInfo"
BUILD_TIMEOUT_S = 850
# One run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_root():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def git_sha():
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def call(cmd, timeout):
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"engine sources not found under {ROOT / 'src'}")
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                 f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
    if call(configure, BUILD_TIMEOUT_S) != 0:
        fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if call(["cmake", "--build", str(build_dir), "--target", "svc_bench",
             "-j", jobs], BUILD_TIMEOUT_S) != 0:
        fail("build failed")
    return build_dir / "svc_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true",
                        help="check every workload's references against "
                             "the naive strategy on scaled-down data")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build(build_root() / "perfbench")
    out_dir = build_root() / "perfbench-out"
    if args.self_test:
        cmd = [str(binary), "--self-test", "--out-dir", str(out_dir)]
    else:
        cmd = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(out_dir),
               "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
