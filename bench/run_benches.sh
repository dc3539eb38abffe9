#!/usr/bin/env bash
# Runs the nest-join benchmark suites and merges their google-benchmark
# JSON output into BENCH_nestjoin.json at the repo root, then the spill
# suite (in-memory vs budget-forced spilling) into BENCH_spill.json.
#
# Usage: bench/run_benches.sh [build-dir]   (default: build)
#
# The table1 suite carries the serial-vs-threaded comparison
# (BM_NestJoinHash vs BM_NestJoinHashT{2,4}); the impls suite compares the
# nest join against the outerjoin+nu* composition, serial and threaded.
# Note: threaded variants only beat serial on multi-core hosts — the
# "num_cpus" field in the JSON context records what this run had.
set -euo pipefail

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
# The commit benchmarked, read before any BENCH_*.json is rewritten;
# "-dirty" when the tree had uncommitted changes.
GIT_SHA="$(git -C "$REPO_ROOT" rev-parse HEAD)"
if [[ -n "$(git -C "$REPO_ROOT" status --porcelain)" ]]; then
  GIT_SHA+="-dirty"
fi
OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT

# Generous wall-clock cap per suite so a wedged benchmark kills the run
# instead of hanging CI. Override with BENCH_TIMEOUT=<duration>.
BENCH_TIMEOUT="${BENCH_TIMEOUT:-30m}"

run() {
  local name="$1"
  shift
  local bin="$BUILD_DIR/bench/$name"
  if [[ ! -x "$bin" ]]; then
    echo "error: bench binary missing: $bin (build the '$name' target first)" >&2
    exit 1
  fi
  timeout "$BENCH_TIMEOUT" "$bin" \
    --benchmark_out="$OUT_DIR/$name.json" \
    --benchmark_out_format=json "$@" >/dev/null
  echo "ran $name" >&2
}

# Random interleaving + repetitions so the guarded-vs-unguarded delta
# (BM_NestJoinHashGuarded) is not polluted by process-lifetime drift —
# in registration order the guarded variant always runs later and
# inherits whatever the allocator/CPU state has become by then. Five
# repetitions give every join bar a median and a spread.
run bench_table1_nestjoin --benchmark_filter='BM_NestJoinHash' \
  --benchmark_enable_random_interleaving=true --benchmark_repetitions=5
run bench_nestjoin_impls \
  --benchmark_filter='BM_(NestJoinHash|OuterJoinThenNest)(T4)?/' \
  --benchmark_enable_random_interleaving=true --benchmark_repetitions=5

# Merges one suite directory into a BENCH_*.json whose context also names
# the build: the git commit, the CMake build type and the C++ compiler's id
# and version.
merge() {
python3 - "$1" "$2" "$BUILD_DIR" "$GIT_SHA" <<'EOF'
import json, pathlib, re, sys

out_dir, dest = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])
build_dir = pathlib.Path(sys.argv[3])

def cmake_set(text, name):
    m = re.search(r'set\(' + name + r' "([^"]*)"\)', text)
    return m.group(1) if m else ""

build = {"git_sha": sys.argv[4]}
cache = build_dir / "CMakeCache.txt"
if cache.exists():
    m = re.search(r"^CMAKE_BUILD_TYPE:STRING=(.*)$", cache.read_text(), re.M)
    build["cmake_build_type"] = m.group(1) if m else ""
for cxx in build_dir.glob("CMakeFiles/*/CMakeCXXCompiler.cmake"):
    text = cxx.read_text()
    build["compiler_id"] = cmake_set(text, "CMAKE_CXX_COMPILER_ID")
    build["compiler_version"] = cmake_set(text, "CMAKE_CXX_COMPILER_VERSION")

merged = {"context": None, "suites": {}}
# A committed file may keep, under "parent", the run of the commit before
# the change it was recorded for; a rerun rewrites only the fresh side.
if dest.exists():
    parent = json.loads(dest.read_text()).get("parent")
    if parent is not None:
        merged["parent"] = parent
for path in sorted(out_dir.glob("*.json")):
    data = json.loads(path.read_text())
    if merged["context"] is None:
        merged["context"] = dict(data.get("context", {}), **build)
    merged["suites"][path.stem] = data.get("benchmarks", [])
dest.write_text(json.dumps(merged, indent=2) + "\n")
print(f"wrote {dest}", file=sys.stderr)
EOF
}

merge "$OUT_DIR" "$REPO_ROOT/BENCH_nestjoin.json"

# Spill suite in its own JSON: in-memory baseline vs budget-forced Grace
# partitioning (192 KiB = deep recursion, 512 KiB = shallow), five
# interleaved repetitions. The committed file also keeps, under "parent",
# the run of the commit before the hash join and ν moved onto one Grace
# module (src/exec/spill_util.cc); a rerun here rewrites only the fresh
# side.
SPILL_OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR" "$SPILL_OUT_DIR"' EXIT
(
  OUT_DIR="$SPILL_OUT_DIR"
  run bench_spill --benchmark_repetitions=5 \
    --benchmark_enable_random_interleaving=true
)
merge "$SPILL_OUT_DIR" "$REPO_ROOT/BENCH_spill.json"

# Subplan memoization suite: cached vs uncached correlated subqueries under
# the naive strategy, across hit ratios (~99.9% down to ~0%).
SUBPLAN_OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR" "$SPILL_OUT_DIR" "$SUBPLAN_OUT_DIR"' EXIT
(
  OUT_DIR="$SUBPLAN_OUT_DIR"
  run bench_subplan
)
merge "$SUBPLAN_OUT_DIR" "$REPO_ROOT/BENCH_subplan.json"

# Columnar suite: row vs columnar execution of the same plan shapes —
# scan+filter across selectivities, the Table 1 nest-equijoin shape and
# the Table 2 semi-join shape, serial and with a 4-thread pool, the joins
# also under the service's 32 MiB admission slice. Five interleaved
# repetitions give each bar a spread.
COLUMNAR_OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR" "$SPILL_OUT_DIR" "$SUBPLAN_OUT_DIR" "$COLUMNAR_OUT_DIR"' EXIT
(
  OUT_DIR="$COLUMNAR_OUT_DIR"
  run bench_columnar --benchmark_repetitions=5 \
    --benchmark_enable_random_interleaving=true
)
merge "$COLUMNAR_OUT_DIR" "$REPO_ROOT/BENCH_columnar.json"

# Strategy suite: cost-based auto against each forced strategy on the
# high- and low-hit-ratio correlated workloads, plus the adaptive
# mid-query switch under a thrashing cache. Auto should sit within ~10%
# of the best forced bar on both workloads.
STRATEGY_OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR" "$SPILL_OUT_DIR" "$SUBPLAN_OUT_DIR" "$COLUMNAR_OUT_DIR" "$STRATEGY_OUT_DIR"' EXIT
(
  OUT_DIR="$STRATEGY_OUT_DIR"
  run bench_strategy
)
merge "$STRATEGY_OUT_DIR" "$REPO_ROOT/BENCH_strategy.json"

# Scheduler suite: static per-thread pre-splitting (one morsel of n/T rows
# per thread) vs dynamic morsel stealing on a skewed Table-1 workload at
# 1/2/4/8 threads, both on the one scheduler, the two-query interference
# pair, and the real skewed hash nest join end to end, five interleaved
# repetitions. Caveat: on a single-core CI host stealing never fires and
# the static-vs-stealing gap collapses — read the context "num_cpus" field
# before comparing bars across machines.
SCHED_OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR" "$SPILL_OUT_DIR" "$SUBPLAN_OUT_DIR" "$COLUMNAR_OUT_DIR" "$STRATEGY_OUT_DIR" "$SCHED_OUT_DIR"' EXIT
(
  OUT_DIR="$SCHED_OUT_DIR"
  run bench_sched --benchmark_repetitions=5 \
    --benchmark_enable_random_interleaving=true
)
merge "$SCHED_OUT_DIR" "$REPO_ROOT/BENCH_sched.json"

# Value codec suite: the service's kRows payload encode, the client's
# decode and the drop of the decoded rows for three response shapes (int
# pairs, int triples, sets of short strings), five interleaved
# repetitions. The committed file also keeps, under "parent", the run of
# the commit before scalars moved into the Value handle.
CODEC_OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR" "$SPILL_OUT_DIR" "$SUBPLAN_OUT_DIR" "$COLUMNAR_OUT_DIR" "$STRATEGY_OUT_DIR" "$SCHED_OUT_DIR" "$CODEC_OUT_DIR"' EXIT
(
  OUT_DIR="$CODEC_OUT_DIR"
  run bench_value_codec --benchmark_repetitions=5 \
    --benchmark_enable_random_interleaving=true
)
merge "$CODEC_OUT_DIR" "$REPO_ROOT/BENCH_value_codec.json"

# Compare the fresh numbers against the committed baselines; warns on
# median real_time regressions past max(15%, 2 x cv) (pass --strict via
# BENCH_DIFF_ARGS to make that fatal in CI).
python3 "$REPO_ROOT/scripts/bench_diff.py" ${BENCH_DIFF_ARGS:-} || exit 1
