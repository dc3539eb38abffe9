#!/usr/bin/env bash
# Tier-1 verification: normal build + full ctest, then sanitizer builds:
# TSan over the suites that exercise cross-thread interleavings, ASan over
# every suite for leaks/overflows (a mid-build abort that leaks shows up
# here, not in ctest), UBSan for undefined behaviour on the shared hash
# table's and the value layer's paths.
#
# Usage: scripts/tier1.sh
set -euo pipefail

cd "$(dirname "$0")/.."

# Every tree is built whole, nproc compiles at a time: a bare -j starts all
# of a tree's translation units at once, which a host shared with other
# jobs may not have the memory for, and a --target list builds its targets
# one after another, one compile at a time.
cmake -B build -S .
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j)

# Low-memory-budget sweep: the differential matrix (strategy x spill x
# threads x join impl, all cells asserted row-identical to naive serial)
# re-run at budgets from "barely above the hash join's skew bound" to
# "spills only the big build sides". Each setting moves the trip points —
# which operator spills first, how deep partitions recurse, whether the
# external sort needs one merge pass or several — so one green sweep
# covers many more degrade paths than the single baked-in budget.
for budget in 131072 262144 524288; do
  TMDB_DIFF_BUDGET_BYTES=$budget ./build/tests/differential_exec_test
done

# TSan pass over the parallel + fault-injection + spill paths. The spill
# suites bake in tiny (tens-of-KiB) memory budgets, so every run here
# partitions to disk — races between morsel workers and the spill
# write-out, and leaks on I/O-fault unwinds, surface in these trees and
# not in plain ctest. Sanitizers need their own object files, so each
# gets a dedicated build tree.
cmake -B build-tsan -S . -DTMDB_SANITIZE=thread
cmake --build build-tsan -j "$(nproc)"
./build-tsan/tests/parallel_exec_test
# sched_test is the work-stealing scheduler's own suite: deque discipline,
# per-query caps, the multi-query soak (several tagged queries sharing the
# one pool), and cancellation isolation — the highest-value TSan target in
# the tree, since every interleaving it finds is a real scheduler race.
./build-tsan/tests/sched_test
./build-tsan/tests/fault_injection_test
./build-tsan/tests/spill_codec_test
./build-tsan/tests/spill_exec_test
./build-tsan/tests/subplan_cache_test
./build-tsan/tests/columnar_exec_test
./build-tsan/tests/differential_exec_test
# cost_model_test covers the strategy = auto paths: sampling under the
# guard, the adaptive controller's cross-thread Observe, and the
# mid-query kStrategySwitch restart.
./build-tsan/tests/cost_model_test
# Net suites bind port 0 (ephemeral), so parallel CI jobs never collide;
# on failure they print the TMDB_NET_SEED that reproduces the schedule.
./build-tsan/tests/net_service_test
./build-tsan/tests/executor_reuse_soak_test
# join_table_test: the hash join's and ν's one table — morsel builds, and
# parallel probes filling the shared per-slot sets (claim, wait, publish).
./build-tsan/tests/join_table_test
# value_test: the lock-free names memo that parallel probes share, and
# handles to one rep copied and dropped from several threads.
./build-tsan/tests/value_test

# ASan pass over every ctest suite: every injected fault must unwind
# without leaking operator, pool, or spill-file state, and every suite
# copies and drops values, whose String/Tuple/Set/List reps are freed by
# their own reference counts — a missed or extra release anywhere shows up
# here as a use-after-free or a LeakSanitizer leak.
cmake -B build-asan -S . -DTMDB_SANITIZE=address
cmake --build build-asan -j "$(nproc)"
(cd build-asan && ctest --output-on-failure -j "$(nproc)")

# UBSan pass over the suites that drive JoinTable — the one hash table of
# the hash join, the nest join's per-slot sets and ν/ν*'s grouping — on its
# serial, parallel, spill and fault-unwind paths: signed overflow in key
# hashing, misaligned or out-of-range slot and chain reads, and invalid
# enum loads in the key-encoding switches abort the run here. The value
# layer and the codecs run here too, for the reps' downcasts and the
# handle's payload union.
cmake -B build-ubsan -S . -DTMDB_SANITIZE=undefined
cmake --build build-ubsan -j "$(nproc)"
export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
./build-ubsan/tests/columnar_exec_test
./build-ubsan/tests/differential_exec_test
./build-ubsan/tests/spill_exec_test
./build-ubsan/tests/parallel_exec_test
./build-ubsan/tests/fault_injection_test
./build-ubsan/tests/join_table_test
./build-ubsan/tests/value_test
./build-ubsan/tests/spill_codec_test
./build-ubsan/tests/net_wire_test

echo "tier1: OK"
