// Experiment SCHED — static pre-split dispatch vs the process-wide
// work-stealing scheduler on a skewed Table-1-shaped workload.
//
// The skew model: a probe of the Table 1 nest equijoin where one hot key
// owns a quarter of the rows and its grouping work costs ~9x a cold row
// (big group appends, set-value construction). Under the old static
// dispatch each thread got exactly one pre-cut chunk, so the chunk holding
// the hot range became a straggler and the other threads idled; with
// dynamic morsel claiming the hot range is ~64 separate morsels that idle
// threads steal.
//
//   BM_StaticSplit/T       one morsel of n/T rows per thread, cap = T
//   BM_WorkStealing/T      SplitMorsels + scheduler claim loop, cap = T
//   BM_Interference*       two concurrent 4-way "queries" on the one
//                          scheduler: static splits vs SplitMorsels
//   BM_SkewedNestJoinHash  the real operator path end to end at each cap
//
// CI caveat: on a single-core host the scheduler has one worker, stealing
// never fires, and every variant collapses to serial — the context block's
// "num_cpus" field in BENCH_sched.json records what a run actually had.
// The >=2x static-vs-stealing gap at T=4 is a multi-core claim.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "base/random.h"
#include "bench/bench_util.h"
#include "catalog/table.h"
#include "exec/basic_ops.h"
#include "exec/executor.h"
#include "exec/hash_join.h"
#include "exec/parallel_util.h"
#include "sched/scheduler.h"

namespace tmdb {
namespace {

using bench::CheckOk;

// ----------------------------------------------- synthetic skewed kernel

constexpr size_t kRows = size_t{1} << 16;
constexpr size_t kHotRows = kRows / 4;

/// Hot rows (the big group) cost 9x a cold row: ~75% of the total work
/// sits in the first quarter of the index space, i.e. inside one static
/// chunk whenever threads <= 4.
uint64_t SpinRow(size_t i) {
  uint64_t h = (i + 1) * 0x9E3779B97F4A7C15ull;
  const uint64_t iters = (i < kHotRows ? 9 : 1) * 40;
  for (uint64_t k = 0; k < iters; ++k) {
    h = h * 6364136223846793005ull + 1442695040888963407ull;
  }
  return h;
}

uint64_t DoMorsel(MorselRange m) {
  uint64_t acc = 0;
  for (size_t i = m.begin; i < m.end; ++i) acc ^= SpinRow(i);
  return acc;
}

/// Static dispatch: exactly one contiguous morsel of n/T rows per thread,
/// fixed before any work runs, so the morsel holding the hot range is a
/// straggler no idle thread can split.
std::vector<MorselRange> StaticSplit(int threads) {
  const size_t chunk = (kRows + threads - 1) / threads;
  std::vector<MorselRange> morsels;
  for (size_t begin = 0; begin < kRows; begin += chunk) {
    morsels.push_back({begin, std::min(kRows, begin + chunk)});
  }
  return morsels;
}

/// Runs `morsels` on the scheduler under `sched`'s cap.
uint64_t RunMorsels(QuerySched* sched,
                    const std::vector<MorselRange>& morsels) {
  std::vector<uint64_t> slots(morsels.size(), 0);
  Status status = Scheduler::Global().RunTaskSet(
      sched, morsels.size(), [&](size_t i) {
        slots[i] = DoMorsel(morsels[i]);
        return Status::OK();
      });
  CheckOk(status, "task set");
  uint64_t acc = 0;
  for (uint64_t s : slots) acc ^= s;
  return acc;
}

uint64_t RunStatic(QuerySched* sched) {
  return RunMorsels(sched, StaticSplit(sched->max_parallelism()));
}

uint64_t RunStealing(QuerySched* sched) {
  return RunMorsels(sched, SplitMorsels(kRows, sched->max_parallelism()));
}

void BM_StaticSplit(benchmark::State& state) {
  QuerySched sched(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunStatic(&sched));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kRows));
}

void BM_WorkStealing(benchmark::State& state) {
  QuerySched sched(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunStealing(&sched));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kRows));
}

BENCHMARK(BM_StaticSplit)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_WorkStealing)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// -------------------------------------------- two-query interference

/// Two concurrent 4-way queries statically split on the one scheduler:
/// each query's straggler morsel holds its hot range whole, so an idle
/// thread has nothing left to steal from it.
void BM_InterferenceStaticSplit(benchmark::State& state) {
  QuerySched sched_a(4);
  QuerySched sched_b(4);
  for (auto _ : state) {
    std::thread query_b([&] {
      benchmark::DoNotOptimize(RunStatic(&sched_b));
    });
    benchmark::DoNotOptimize(RunStatic(&sched_a));
    query_b.join();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * kRows));
}

/// The same two queries as caps on the one scheduler: both tagged, both
/// capped at 4, sharing whatever workers the hardware has. A straggler
/// morsel in either query is stolen by whoever is idle, regardless of
/// which query submitted it.
void BM_InterferenceSharedScheduler(benchmark::State& state) {
  QuerySched sched_a(4);
  QuerySched sched_b(4);
  for (auto _ : state) {
    std::thread query_b([&] {
      benchmark::DoNotOptimize(RunStealing(&sched_b));
    });
    benchmark::DoNotOptimize(RunStealing(&sched_a));
    query_b.join();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * kRows));
}

BENCHMARK(BM_InterferenceStaticSplit)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_InterferenceSharedScheduler)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// ------------------------------------------- real operator path, skewed

/// Table-1 shape with a hot key: ~10% of Y lands on b = 0 (a group ~20x
/// the average) and a quarter of X probes it, so the build partition and
/// probe morsels touching key 0 dwarf the rest without making the output
/// quadratic in the table size.
std::pair<std::shared_ptr<Table>, std::shared_ptr<Table>>& SkewedXY() {
  static auto& tables =
      *new std::pair<std::shared_ptr<Table>, std::shared_ptr<Table>>([] {
        auto x = CheckOk(Table::Create("X", Type::Tuple({{"e", Type::Int()},
                                                         {"d", Type::Int()}})),
                         "X");
        auto y = CheckOk(Table::Create("Y", Type::Tuple({{"a", Type::Int()},
                                                         {"b", Type::Int()}})),
                         "Y");
        Random rng(7);
        const size_t nx = 2000, ny = 2 * nx;
        for (size_t i = 0; i < nx; ++i) {
          const int64_t d = (i % 4 == 0) ? 0 : rng.UniformInt(1, 200);
          CheckOk(x->Insert(Value::Tuple(
                      {"e", "d"},
                      {Value::Int(static_cast<int64_t>(i)), Value::Int(d)})),
                  "X row");
        }
        for (size_t i = 0; i < ny; ++i) {
          const int64_t b = (i % 10 == 0) ? 0 : rng.UniformInt(1, 200);
          CheckOk(y->Insert(Value::Tuple(
                      {"a", "b"},
                      {Value::Int(static_cast<int64_t>(i)), Value::Int(b)})),
                  "Y row");
        }
        return std::make_pair(std::move(x), std::move(y));
      }());
  return tables;
}

void BM_SkewedNestJoinHash(benchmark::State& state) {
  auto& xy = SkewedXY();
  Expr xv = Expr::Var("x", xy.first->schema());
  Expr yv = Expr::Var("y", xy.second->schema());
  JoinSpec spec;
  spec.mode = JoinMode::kNestJoin;
  spec.left_var = "x";
  spec.right_var = "y";
  spec.right_type = xy.second->schema();
  spec.pred = Expr::True();
  spec.func = yv;
  spec.label = "s";
  PhysicalOpPtr join(new HashJoinOp(
      PhysicalOpPtr(new TableScanOp(xy.first)),
      PhysicalOpPtr(new TableScanOp(xy.second)), std::move(spec),
      {Expr::Must(Expr::Field(xv, "d"))}, {Expr::Must(Expr::Field(yv, "b"))}));
  Executor executor(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto rows = CheckOk(executor.RunPhysical(join.get()), "run");
    benchmark::DoNotOptimize(rows.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(xy.first->NumRows()));
}

BENCHMARK(BM_SkewedNestJoinHash)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace tmdb

BENCHMARK_MAIN();
