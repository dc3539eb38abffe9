// Columnar vs row execution of the hot scan/filter/join loops.
//
// Every benchmark here comes in a Row and a Columnar variant running the
// *same* physical plan shape over the same cached tables — the only delta
// is the columnar machinery (ColumnBatch scans, compiled column
// predicates, raw word keys in the hash join's table; the Row joins key
// the same table by composite key Values). Both variants produce
// bit-identical rows (columnar_exec_test asserts this); the numbers below
// measure what that costs or saves.
//
//   - BM_Filter{Row,Col}*: scan → σ(x.v < c) at selectivities 1%, 50%,
//     99%, under 1 and 4 executor threads (the filter itself is serial —
//     the thread axis documents that the columnar path is unaffected by a
//     pool being attached).
//   - BM_T1Nest{Row,Col}*: the Table 1 shape — nest equijoin X ⋈ Y on
//     x.v = y.v with G = identity. The argument is the average number of
//     matches per key (2 = the paper's Table 1 density, 16 = group-heavy,
//     where the nest join's shared per-slot sets pay off on both
//     variants).
//   - BM_T2Semi{Row,Col}*: the Table 2 EXISTS shape — semi join where
//     most probes miss, so per-probe key handling dominates.
//   - *Slice variants: the T1/T2 joins under a 32 MiB memory budget — the
//     admission slice every service request without a budget of its own
//     inherits. Raw keys and the nest join's per-slot sets run under a
//     budget too (the join table charges exactly), so these bars are the
//     service's join path. The T1 nest join runs at a quarter of the rows:
//     at full size its grouped output alone outgrows the slice.

#include <cstdio>
#include <map>
#include <memory>
#include <utility>

#include <benchmark/benchmark.h>

#include "base/random.h"
#include "bench/bench_util.h"
#include "catalog/table.h"
#include "exec/basic_ops.h"
#include "exec/columnar.h"
#include "exec/executor.h"
#include "exec/hash_join.h"

namespace tmdb {
namespace {

using bench::CheckOk;

// Filter input: kFilterRows rows, v uniform in [0, kDomain) so a cutoff of
// kDomain * s gives selectivity s.
constexpr size_t kFilterRows = 1 << 18;
constexpr int64_t kDomain = 1'000'000;

std::shared_ptr<Table> MakeFlat(const char* name, size_t n, int64_t domain,
                                uint64_t seed) {
  auto t = CheckOk(Table::Create(name, Type::Tuple({{"v", Type::Int()},
                                                    {"w", Type::Int()}})),
                   name);
  Random rng(seed);
  for (size_t i = 0; i < n; ++i) {
    CheckOk(t->Insert(Value::Tuple({"v", "w"},
                                   {Value::Int(rng.UniformInt(0, domain - 1)),
                                    Value::Int(static_cast<int64_t>(i))})),
            name);
  }
  return t;
}

/// Tables cached by name — every variant and thread count measures the
/// identical loaded instance.
std::shared_ptr<Table> Cached(const char* name, size_t n, int64_t domain,
                              uint64_t seed) {
  static auto& tables =
      *new std::map<std::string, std::shared_ptr<Table>>();
  auto it = tables.find(name);
  if (it == tables.end()) {
    it = tables.emplace(name, MakeFlat(name, n, domain, seed)).first;
  }
  return it->second;
}

PhysicalOpPtr MakeFilterPlan(bool columnar, int64_t cutoff) {
  auto t = Cached("F", kFilterRows, kDomain, 7);
  Expr xv = Expr::Var("x", t->schema());
  Expr pred = Expr::Must(Expr::Binary(BinaryOp::kLt,
                                      Expr::Must(Expr::Field(xv, "v")),
                                      Expr::Literal(Value::Int(cutoff))));
  std::optional<ColumnPredicate> cpred;
  if (columnar) {
    cpred = ColumnPredicate::Compile(pred, "x", t->schema());
    if (!cpred.has_value()) {
      std::fprintf(stderr, "bench setup failed: filter predicate did not "
                           "compile to a column program\n");
      std::abort();
    }
  }
  PhysicalOpPtr scan(new TableScanOp(t, columnar));
  return PhysicalOpPtr(
      new FilterOp(std::move(scan), "x", std::move(pred), std::move(cpred)));
}

void BM_Filter(benchmark::State& state, bool columnar, int threads) {
  // range(0) is the selectivity in per mille: 10 / 500 / 990.
  const int64_t cutoff = kDomain * state.range(0) / 1000;
  PhysicalOpPtr plan = MakeFilterPlan(columnar, cutoff);
  Executor executor(threads);
  for (auto _ : state) {
    auto rows = CheckOk(executor.RunPhysical(plan.get()), "filter");
    benchmark::DoNotOptimize(rows.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kFilterRows));
}

// Join inputs. Table 1 shape: keys in [0, n/2) on both sides, so every
// probe finds ~2 matches. Table 2 shape: build side covers ~6% of the
// probe key domain, so most probes miss.
constexpr size_t kJoinRows = 1 << 16;

PhysicalOpPtr MakeJoinPlan(bool columnar, JoinMode mode, int matches,
                           size_t nest_rows) {
  std::shared_ptr<Table> x, y;
  if (mode == JoinMode::kNestJoin) {
    const auto domain =
        static_cast<int64_t>(nest_rows) / static_cast<int64_t>(matches);
    const std::string suffix =
        std::to_string(matches) + "/" + std::to_string(nest_rows);
    x = Cached(("XN" + suffix).c_str(), nest_rows, domain, 11);
    y = Cached(("YN" + suffix).c_str(), nest_rows, domain, 13);
  } else {
    x = Cached("XS", kJoinRows, kDomain, 17);
    y = Cached("YS", kJoinRows / 4, kDomain, 19);
  }
  Expr xv = Expr::Var("x", x->schema());
  Expr yv = Expr::Var("y", y->schema());
  Expr xd = Expr::Must(Expr::Field(xv, "v"));
  Expr yb = Expr::Must(Expr::Field(yv, "v"));
  JoinSpec spec;
  spec.mode = mode;
  spec.left_var = "x";
  spec.right_var = "y";
  spec.pred = Expr::True();
  spec.right_type = y->schema();
  if (mode == JoinMode::kNestJoin) {
    spec.func = yv;
    spec.label = "s";
  }
  std::optional<FastKeySpec> fast;
  if (columnar) {
    fast = ResolveFastKeys({xd}, {yb}, "x", "y");
    if (!fast.has_value()) {
      std::fprintf(stderr, "bench setup failed: join keys did not resolve "
                           "to a raw-key spec\n");
      std::abort();
    }
  }
  PhysicalOpPtr l(new TableScanOp(std::move(x), columnar));
  PhysicalOpPtr r(new TableScanOp(std::move(y), columnar));
  return PhysicalOpPtr(new HashJoinOp(std::move(l), std::move(r),
                                      std::move(spec), {xd}, {yb},
                                      std::move(fast)));
}

// The server's default admission slice: 256 MiB shared by 8 queries.
constexpr uint64_t kSliceBudget = 32ull << 20;

void BM_Join(benchmark::State& state, bool columnar, JoinMode mode,
             int threads, uint64_t budget = 0) {
  // range(0) is the average matches per key for the nest-join shape; the
  // semi-join shape ignores it.
  const int matches =
      mode == JoinMode::kNestJoin ? static_cast<int>(state.range(0)) : 0;
  const size_t nest_rows = budget == 0 ? kJoinRows : kJoinRows / 4;
  PhysicalOpPtr plan = MakeJoinPlan(columnar, mode, matches, nest_rows);
  Executor executor(threads);
  GuardLimits limits;
  limits.memory_budget_bytes = budget;
  executor.set_limits(limits);
  for (auto _ : state) {
    auto rows = CheckOk(executor.RunPhysical(plan.get()), "join");
    benchmark::DoNotOptimize(rows.size());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(mode == JoinMode::kNestJoin ? nest_rows
                                                       : kJoinRows));
}

void BM_FilterRowT1(benchmark::State& s) { BM_Filter(s, false, 1); }
void BM_FilterColT1(benchmark::State& s) { BM_Filter(s, true, 1); }
void BM_FilterRowT4(benchmark::State& s) { BM_Filter(s, false, 4); }
void BM_FilterColT4(benchmark::State& s) { BM_Filter(s, true, 4); }

void BM_T1NestRowT1(benchmark::State& s) {
  BM_Join(s, false, JoinMode::kNestJoin, 1);
}
void BM_T1NestColT1(benchmark::State& s) {
  BM_Join(s, true, JoinMode::kNestJoin, 1);
}
void BM_T1NestRowT4(benchmark::State& s) {
  BM_Join(s, false, JoinMode::kNestJoin, 4);
}
void BM_T1NestColT4(benchmark::State& s) {
  BM_Join(s, true, JoinMode::kNestJoin, 4);
}

void BM_T2SemiRowT1(benchmark::State& s) {
  BM_Join(s, false, JoinMode::kSemi, 1);
}
void BM_T2SemiColT1(benchmark::State& s) {
  BM_Join(s, true, JoinMode::kSemi, 1);
}
void BM_T2SemiRowT4(benchmark::State& s) {
  BM_Join(s, false, JoinMode::kSemi, 4);
}
void BM_T2SemiColT4(benchmark::State& s) {
  BM_Join(s, true, JoinMode::kSemi, 4);
}

void BM_T1NestRowT1Slice(benchmark::State& s) {
  BM_Join(s, false, JoinMode::kNestJoin, 1, kSliceBudget);
}
void BM_T1NestColT1Slice(benchmark::State& s) {
  BM_Join(s, true, JoinMode::kNestJoin, 1, kSliceBudget);
}
void BM_T1NestRowT4Slice(benchmark::State& s) {
  BM_Join(s, false, JoinMode::kNestJoin, 4, kSliceBudget);
}
void BM_T1NestColT4Slice(benchmark::State& s) {
  BM_Join(s, true, JoinMode::kNestJoin, 4, kSliceBudget);
}
void BM_T2SemiRowT1Slice(benchmark::State& s) {
  BM_Join(s, false, JoinMode::kSemi, 1, kSliceBudget);
}
void BM_T2SemiColT1Slice(benchmark::State& s) {
  BM_Join(s, true, JoinMode::kSemi, 1, kSliceBudget);
}
void BM_T2SemiRowT4Slice(benchmark::State& s) {
  BM_Join(s, false, JoinMode::kSemi, 4, kSliceBudget);
}
void BM_T2SemiColT4Slice(benchmark::State& s) {
  BM_Join(s, true, JoinMode::kSemi, 4, kSliceBudget);
}

#define TMDB_FILTER_ARGS ->Arg(10)->Arg(500)->Arg(990)\
    ->Unit(benchmark::kMillisecond)
BENCHMARK(BM_FilterRowT1) TMDB_FILTER_ARGS;
BENCHMARK(BM_FilterColT1) TMDB_FILTER_ARGS;
BENCHMARK(BM_FilterRowT4) TMDB_FILTER_ARGS;
BENCHMARK(BM_FilterColT4) TMDB_FILTER_ARGS;
#undef TMDB_FILTER_ARGS

BENCHMARK(BM_T1NestRowT1)->Arg(2)->Arg(16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_T1NestColT1)->Arg(2)->Arg(16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_T1NestRowT4)->Arg(2)->Arg(16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_T1NestColT4)->Arg(2)->Arg(16)->Unit(benchmark::kMillisecond);

BENCHMARK(BM_T2SemiRowT1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_T2SemiColT1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_T2SemiRowT4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_T2SemiColT4)->Unit(benchmark::kMillisecond);

BENCHMARK(BM_T1NestRowT1Slice)->Arg(2)->Arg(16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_T1NestColT1Slice)->Arg(2)->Arg(16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_T1NestRowT4Slice)->Arg(2)->Arg(16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_T1NestColT4Slice)->Arg(2)->Arg(16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_T2SemiRowT1Slice)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_T2SemiColT1Slice)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_T2SemiRowT4Slice)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_T2SemiColT4Slice)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tmdb

BENCHMARK_MAIN();
