// Columnar execution must be invisible except in speed: for every query,
// RunOptions::enable_columnar on vs off produces BIT-IDENTICAL rows (order
// included) and identical ExecStats (guard_checkpoints excepted — the two
// paths checkpoint on different schedules), serial and parallel, spill on
// and off. Under a memory budget tight enough to spill, on succeeds
// whenever off does, with the same rows. Also unit-tests the pieces:
// ColumnStore kind-exactness and dictionary rep-sharing, ColumnPredicate
// compilation and semantics, ResolveFastKeys, arena charging through the
// guard, the Charge() granularity contract, and fault-injection sweeps
// over the new checkpoints, budgeted ones included.

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/fault_injector.h"
#include "catalog/table.h"
#include "core/database.h"
#include "exec/arena.h"
#include "exec/basic_ops.h"
#include "exec/columnar.h"
#include "exec/executor.h"
#include "exec/hash_join.h"
#include "exec/query_guard.h"
#include "optimizer/planner.h"
#include "tests/test_util.h"
#include "values/column_store.h"
#include "workload/generators.h"

namespace tmdb {
namespace {

namespace fs = std::filesystem;

using testutil::IntRow;
using testutil::StatsMatch;

/// The fuzz corpus: every nested-query shape the suite seeds from, over the
/// Section 2 R(a,b,c) / S(c,d) schema.
const char* kSeedQueries[] = {
    "SELECT x FROM R x WHERE x.b = count(SELECT y.d FROM S y "
    "WHERE x.c = y.c)",
    "SELECT (a = x.a, zs = SELECT y.d FROM S y WHERE x.c = y.c) FROM R x",
    "SELECT x.a FROM R x WHERE x.a IN (SELECT y.d FROM S y) AND x.b > 0 "
    "OR NOT EXISTS v IN {1, 2} (v = x.a)",
    "UNNEST(SELECT (SELECT (a = x.a, d = y.d) FROM S y WHERE x.c = y.c) "
    "FROM R x)",
    "SELECT x FROM R x WHERE count(z) = 0 WITH z = (SELECT y FROM S y "
    "WHERE x.c = y.c)",
};

/// A flat selection: the compiled column predicate over a columnar scan.
const char* kFlatSelection = "SELECT x FROM R x WHERE x.a > 10 AND x.b < 30";

::testing::AssertionResult BitIdentical(const std::vector<Value>& actual,
                                        const std::vector<Value>& expected) {
  if (actual.size() != expected.size()) {
    return ::testing::AssertionFailure()
           << "row counts differ: " << actual.size() << " vs "
           << expected.size();
  }
  for (size_t i = 0; i < actual.size(); ++i) {
    if (!actual[i].Equals(expected[i])) {
      return ::testing::AssertionFailure()
             << "row " << i << " differs: " << actual[i].ToString() << " vs "
             << expected[i].ToString();
    }
  }
  return ::testing::AssertionSuccess();
}

/// Runs `query` with columnar off (reference) and on, asserting identical
/// rows and stats. Without a spilling budget: budgets tight enough to spill
/// can make spill decisions diverge between paths (different transient
/// footprints), which is covered separately with rows-only equality.
void ExpectColumnarParity(Database* db, const std::string& query,
                          RunOptions options) {
  options.enable_columnar = false;
  auto row_result = db->Run(query, options);
  options.enable_columnar = true;
  auto col_result = db->Run(query, options);
  ASSERT_EQ(row_result.ok(), col_result.ok())
      << "one path failed: row="
      << (row_result.ok() ? "ok" : row_result.status().ToString())
      << " col=" << (col_result.ok() ? "ok" : col_result.status().ToString());
  if (!row_result.ok()) {
    EXPECT_EQ(row_result.status().code(), col_result.status().code());
    return;
  }
  EXPECT_TRUE(BitIdentical(col_result->rows, row_result->rows));
  EXPECT_TRUE(StatsMatch(col_result->stats, row_result->stats));
}

// ------------------------------------------------ end-to-end query parity

class ColumnarQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CountBugConfig rs;
    rs.num_r = 120;
    rs.num_s = 240;
    TMDB_ASSERT_OK(LoadCountBugTables(&db_, rs));
  }

  Database db_;
};

TEST_F(ColumnarQueryTest, CorpusParityAcrossThreadsAndStrategies) {
  for (const char* query : kSeedQueries) {
    for (Strategy strategy : {Strategy::kNestJoin, Strategy::kOuterJoin}) {
      for (int threads : {1, 2, 4}) {
        SCOPED_TRACE(std::string(query) + " / threads=" +
                     std::to_string(threads));
        RunOptions options;
        options.strategy = strategy;
        options.num_threads = threads;
        ExpectColumnarParity(&db_, query, options);
      }
    }
  }
}

TEST_F(ColumnarQueryTest, CountBugShapeAllStrategies) {
  // The COUNT-bug query itself: Kim's strategy is deliberately wrong, but
  // it must be *identically* wrong with columnar on.
  const std::string query = kSeedQueries[0];
  for (Strategy strategy : {Strategy::kNaive, Strategy::kKim,
                            Strategy::kOuterJoin, Strategy::kNestJoin}) {
    SCOPED_TRACE(StrategyName(strategy));
    RunOptions options;
    options.strategy = strategy;
    ExpectColumnarParity(&db_, query, options);
  }
}

TEST_F(ColumnarQueryTest, SubsetBugShape) {
  Database db;
  SubsetBugConfig config;
  config.num_x = 80;
  config.num_y = 160;
  TMDB_ASSERT_OK(LoadSubsetBugTables(&db, config));
  // X.a is set-valued, so X never columnarises — the fallback must be
  // transparent while Y (flat) still takes the fast paths.
  const std::string query =
      "SELECT x FROM X x WHERE FORALL y IN "
      "(SELECT y FROM Y y WHERE x.b = y.b) (EXISTS v IN x.a (v = y.a))";
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    RunOptions options;
    options.num_threads = threads;
    ExpectColumnarParity(&db_, kSeedQueries[1], options);
    ExpectColumnarParity(&db, query, options);
  }
}

/// Runs `query` under `budget` (spill on) with columnar on and off. Under a
/// budget the two paths may spill at different points (their transient
/// footprints differ), so only the rows are compared — each against the
/// unbudgeted run, which the spill tests already prove bit-identical.
/// Returns whether the row path succeeded.
bool ExpectBudgetedParity(Database* db, const std::string& query,
                          int threads, uint64_t budget) {
  SCOPED_TRACE(query + " / threads=" + std::to_string(threads) +
               " / budget=" + std::to_string(budget));
  RunOptions reference;
  reference.num_threads = threads;
  reference.enable_columnar = true;
  auto expected = db->Run(query, reference);
  EXPECT_TRUE(expected.ok()) << expected.status().ToString();
  if (!expected.ok()) return false;

  RunOptions budgeted = reference;
  budgeted.memory_budget_bytes = budget;
  budgeted.enable_spill = true;
  auto spilled = db->Run(query, budgeted);
  budgeted.enable_columnar = false;
  auto row_spilled = db->Run(query, budgeted);
  // enable_columnar must not change the budgeted outcome: both paths
  // succeed (with rows identical to the unbudgeted run) or both trip with
  // the same code — the columnar filter falls back to the row filter on a
  // memory trip, and the hash join's one table charges either key encoding
  // exactly.
  EXPECT_EQ(spilled.ok(), row_spilled.ok())
      << "columnar=" << (spilled.ok() ? "ok" : spilled.status().ToString())
      << " row="
      << (row_spilled.ok() ? "ok" : row_spilled.status().ToString());
  if (spilled.ok() != row_spilled.ok()) return row_spilled.ok();
  if (spilled.ok()) {
    EXPECT_TRUE(BitIdentical(spilled->rows, expected->rows));
    EXPECT_TRUE(BitIdentical(row_spilled->rows, expected->rows));
  } else {
    EXPECT_EQ(spilled.status().code(), row_spilled.status().code());
  }
  return row_spilled.ok();
}

TEST_F(ColumnarQueryTest, SpillParityRowsOnly) {
  // Budgets from "below the working set of every shape" to "spills nothing",
  // each moving where the arena-backed paths trip and fall back.
  for (const char* query : kSeedQueries) {
    for (uint64_t budget : {64ull << 10, 96ull << 10, 128ull << 10,
                            256ull << 10, 512ull << 10, 2ull << 20}) {
      for (int threads : {1, 2, 4}) {
        ExpectBudgetedParity(&db_, query, threads, budget);
      }
    }
  }
}

TEST_F(ColumnarQueryTest, CountBugAt96KiBSerialSucceedsOnBothPaths) {
  // Regression: with the fast paths charging whole 64 KiB arena blocks for
  // a few KiB of keys and chains, this cell failed with columnar on
  // ("materialised 130390 bytes, over the memory budget of 98304") while
  // the row path succeeded.
  EXPECT_TRUE(ExpectBudgetedParity(&db_, kSeedQueries[0], 1, 96 << 10))
      << "the row path no longer succeeds in this cell";
}

TEST_F(ColumnarQueryTest, FilterBelowItsScratchRunsTheRowPath) {
  // The columnar filter's batch scratch (selection vector, mask, one slot
  // per predicate register) is tens of KiB; the row filter holds none. At
  // 16 KiB the scratch allocation trips at Open, and the filter must fall
  // back to the row path rather than fail the query.
  for (int threads : {1, 2}) {
    EXPECT_TRUE(ExpectBudgetedParity(&db_, kFlatSelection, threads, 16 << 10))
        << "the row path no longer succeeds in this cell";
  }
}

/// The first HashJoinOp in `op`'s subtree, or null.
const HashJoinOp* FindHashJoin(const PhysicalOp* op) {
  if (const auto* join = dynamic_cast<const HashJoinOp*>(op)) return join;
  for (const PhysicalOp* child : op->children()) {
    if (const HashJoinOp* join = FindHashJoin(child)) return join;
  }
  return nullptr;
}

/// Whether `query`'s hash join keeps raw word keys when planned with
/// `enable_columnar` and run at `threads` under `budget`.
bool JoinRunsRawKeys(Database* db, const std::string& query,
                     bool enable_columnar, int threads, uint64_t budget) {
  auto logical = db->Plan(query, Strategy::kNestJoin);
  EXPECT_TRUE(logical.ok()) << logical.status().ToString();
  if (!logical.ok()) return false;
  PlannerOptions planner_options;
  planner_options.num_threads = threads;
  planner_options.enable_columnar = enable_columnar;
  auto plan = Planner(planner_options).Plan(*logical);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (!plan.ok()) return false;
  const HashJoinOp* join = FindHashJoin(plan->get());
  EXPECT_NE(join, nullptr) << "no hash join in the plan";
  if (join == nullptr) return false;
  Executor executor(threads);
  GuardLimits limits;
  limits.memory_budget_bytes = budget;
  executor.set_limits(limits);
  EXPECT_TRUE(executor.RunPhysical(plan->get()).ok());
  return join->raw_keys();
}

TEST_F(ColumnarQueryTest, FastPathsEngageUnderTheServiceSlice) {
  // A service request with no budget of its own inherits a 32 MiB
  // admission slice. Under it the columnar filter and the raw-key join must
  // run — same rows and stats as the row path — not stand down. The filter
  // checkpoints on a different schedule from the row filter, so identical
  // guard_checkpoints would mean the row filter ran both times; the join
  // probes one batch at a time on either key encoding, so its planned
  // operator reports which encoding it kept.
  for (const char* query : {kSeedQueries[0], kFlatSelection}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(query) + " / threads=" +
                   std::to_string(threads));
      RunOptions options;
      options.num_threads = threads;
      options.memory_budget_bytes = 32ull << 20;
      options.enable_columnar = false;
      TMDB_ASSERT_OK_AND_ASSIGN(QueryResult row, db_.Run(query, options));
      options.enable_columnar = true;
      TMDB_ASSERT_OK_AND_ASSIGN(QueryResult col, db_.Run(query, options));
      EXPECT_TRUE(BitIdentical(col.rows, row.rows));
      EXPECT_TRUE(StatsMatch(col.stats, row.stats));
      if (query == kFlatSelection) {
        EXPECT_NE(col.stats.guard_checkpoints, row.stats.guard_checkpoints);
      } else {
        EXPECT_TRUE(JoinRunsRawKeys(&db_, query, true, threads, 32ull << 20));
        EXPECT_FALSE(
            JoinRunsRawKeys(&db_, query, false, threads, 32ull << 20));
      }
    }
  }
}

TEST_F(ColumnarQueryTest, MemoryBudgetStillTripsWithColumnarEnabled) {
  // With enable_columnar set, a budget far below the working set must trip
  // exactly as before — the columnar machinery neither hides allocations
  // from the guard (ArenaTest proves arena charges land) nor bypasses the
  // budget (a memory trip on a fast path falls back to the row path, which
  // meets the same budget).
  RunOptions options;
  options.enable_columnar = true;
  options.memory_budget_bytes = 2 << 10;  // 2 KiB: far below the working set
  auto result = db_.Run(kSeedQueries[0], options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
  // The database stays usable afterwards.
  options.memory_budget_bytes = 0;
  TMDB_ASSERT_OK(db_.Run(kSeedQueries[0], options).status());
}

// -------------------------------------------------- fault-injection sweep

TEST_F(ColumnarQueryTest, FaultSweepOverColumnarCheckpoints) {
  // Every guard checkpoint the columnar plan passes — arena binding,
  // column-batch boundaries, fast-build loops included — must unwind to a
  // clean error and leave the database reusable with identical results.
  FaultInjector injector;
  RunOptions options;
  options.enable_columnar = true;
  options.fault_injector = &injector;

  injector.ArmNth(0);  // count-only
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult baseline,
                            db_.Run(kSeedQueries[0], options));
  const uint64_t total = injector.checkpoints_seen();
  ASSERT_GT(total, 0u);

  const uint64_t stride = std::max<uint64_t>(1, total / 16);
  for (uint64_t n = 1; n <= total; n += stride) {
    injector.ArmNth(n);
    auto poisoned = db_.Run(kSeedQueries[0], options);
    ASSERT_FALSE(poisoned.ok()) << "checkpoint " << n << " did not fire";
    EXPECT_EQ(poisoned.status().code(), StatusCode::kInternal)
        << poisoned.status().ToString();

    injector.Disarm();
    TMDB_ASSERT_OK_AND_ASSIGN(QueryResult recovered,
                              db_.Run(kSeedQueries[0], options));
    ASSERT_TRUE(BitIdentical(recovered.rows, baseline.rows))
        << "state leaked across fault at checkpoint " << n;
  }
}

// ------------------------------------------------ budgeted fault sweeps

std::string MakeSpillBase(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("tmdb-test-" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

::testing::AssertionResult SpillBaseEmpty(const std::string& base) {
  if (!fs::exists(base)) return ::testing::AssertionSuccess();
  for (const auto& entry : fs::directory_iterator(base)) {
    return ::testing::AssertionFailure()
           << "leaked spill artefact: " << entry.path().string();
  }
  return ::testing::AssertionSuccess();
}

/// Sweeps checkpoint faults (ArmNth over a stride of every checkpoint) and,
/// when the baseline spilled, I/O faults (ArmIo on each channel) across one
/// budgeted run on a reused executor. Every fault must unwind to its typed
/// status with the guard's memory back at zero and the spill directory
/// `base` (empty = spill off) bare; the next disarmed run must reproduce
/// the baseline rows.
void SweepBudgetedFaults(
    const std::function<Result<std::vector<Value>>()>& run,
    Executor* executor, FaultInjector* injector, const std::string& base) {
  auto expect_clean_unwind = [&](const Result<std::vector<Value>>& poisoned,
                                 StatusCode code,
                                 const std::vector<Value>& baseline) {
    ASSERT_FALSE(poisoned.ok()) << "injected fault did not surface";
    EXPECT_EQ(poisoned.status().code(), code) << poisoned.status().ToString();
    EXPECT_EQ(executor->guard()->memory_used(), 0);
    EXPECT_TRUE(SpillBaseEmpty(base));
    injector->Disarm();
    injector->DisarmIo();
    auto recovered = run();
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_TRUE(BitIdentical(*recovered, baseline));
    EXPECT_TRUE(SpillBaseEmpty(base));
  };

  injector->ArmNth(0);  // count checkpoints only
  injector->ArmIo(IoFaultKind::kShortWrite, 0);  // count I/O only
  TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> baseline, run());
  const uint64_t checkpoints = injector->checkpoints_seen();
  const uint64_t writes = injector->io_writes_seen();
  const uint64_t reads = injector->io_reads_seen();
  ASSERT_GT(checkpoints, 0u);

  const uint64_t stride = std::max<uint64_t>(1, checkpoints / 16);
  for (uint64_t n = 1; n <= checkpoints; n += stride) {
    SCOPED_TRACE("checkpoint " + std::to_string(n) + "/" +
                 std::to_string(checkpoints));
    injector->ArmNth(n);
    expect_clean_unwind(run(), StatusCode::kInternal, baseline);
  }

  struct Channel {
    IoFaultKind kind;
    uint64_t ops;
  };
  const Channel channels[] = {{IoFaultKind::kShortWrite, writes},
                              {IoFaultKind::kEnospc, writes},
                              {IoFaultKind::kCorruptRead, reads}};
  for (const Channel& ch : channels) {
    const uint64_t io_stride = std::max<uint64_t>(1, ch.ops / 5);
    for (uint64_t n = 1; n <= ch.ops; n += io_stride) {
      SCOPED_TRACE("io kind=" + std::to_string(static_cast<int>(ch.kind)) +
                   " n=" + std::to_string(n));
      injector->ArmIo(ch.kind, n);
      expect_clean_unwind(run(), StatusCode::kIoError, baseline);
    }
  }
}

TEST(ColumnarBudgetedFaultTest, FastBuildSpillSweep) {
  // The COUNT-bug query with S three MiB wide at a 256 KiB budget: the raw-
  // key build trips, falls back to the row build, and that trips into the
  // Grace spill — the fallback chain under every checkpoint and I/O fault.
  Database db;
  CountBugConfig config;
  config.num_r = 100;
  config.num_s = 12000;
  config.match_fraction = 0.5;
  config.domain_scale = 256;
  TMDB_ASSERT_OK(LoadCountBugTables(&db, config));
  // A physical plan that outlives every run, so the guard's memory reading
  // covers exactly what one run allocated.
  TMDB_ASSERT_OK_AND_ASSIGN(LogicalOpPtr logical,
                            db.Plan(kSeedQueries[0], Strategy::kNestJoin));
  TMDB_ASSERT_OK_AND_ASSIGN(PhysicalOpPtr plan, Planner().Plan(logical));
  for (int threads : {1, 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Executor reference(threads);
    TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> unbudgeted,
                              reference.RunPhysical(plan.get()));
    const std::string base =
        MakeSpillBase("columnar-fault-t" + std::to_string(threads));
    FaultInjector injector;
    Executor executor(threads);
    GuardLimits limits;
    limits.memory_budget_bytes = 256 << 10;
    executor.set_limits(limits);
    executor.set_spill_options(true, base, 4096);
    executor.set_fault_injector(&injector);
    auto run = [&] { return executor.RunPhysical(plan.get()); };
    TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> spilled, run());
    EXPECT_TRUE(BitIdentical(spilled, unbudgeted));
    ASSERT_GT(executor.stats().spill_partitions, 0u)
        << "the budget never spilled the build: "
        << executor.stats().ToString();
    SweepBudgetedFaults(run, &executor, &injector, base);
    fs::remove_all(base);
  }
}

TEST(ColumnarBudgetedFaultTest, ProbePhaseDegradeSweep) {
  // A nest join over 4000 build rows sharing 16 keys at 272 KiB, no spill:
  // a build holding a key per build row (~113 KiB of raw keys and chains,
  // or one key Value per row) does not fit beside the nest join's output.
  // The table holds one slot per distinct key, so raw keys and Value keys
  // (fast_keys = nullopt) must both complete, serially and at 2 threads,
  // under every checkpoint fault.
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto left, Table::Create("L", Type::Tuple({{"k", Type::Int()},
                                                 {"v", Type::Int()}})));
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto right, Table::Create("R", Type::Tuple({{"j", Type::Int()},
                                                  {"w", Type::Int()}})));
  for (int i = 0; i < 64; ++i) {
    TMDB_ASSERT_OK(left->Insert(IntRow({"k", "v"}, {i % 32, i})));
  }
  for (int i = 0; i < 4000; ++i) {
    TMDB_ASSERT_OK(right->Insert(IntRow({"j", "w"}, {i % 16, i})));
  }
  Expr xv = Expr::Var("x", left->schema());
  Expr yv = Expr::Var("y", right->schema());
  JoinSpec spec;
  spec.mode = JoinMode::kNestJoin;
  spec.left_var = "x";
  spec.right_var = "y";
  spec.right_type = right->schema();
  spec.pred = Expr::True();
  spec.func = yv;
  spec.label = "g";
  std::vector<Expr> lk = {Expr::Must(Expr::Field(xv, "k"))};
  std::vector<Expr> rk = {Expr::Must(Expr::Field(yv, "j"))};
  std::optional<FastKeySpec> fk = ResolveFastKeys(lk, rk, "x", "y");
  ASSERT_TRUE(fk.has_value());

  const std::optional<FastKeySpec> encodings[] = {fk, std::nullopt};
  for (const std::optional<FastKeySpec>& keys : encodings) {
    HashJoinOp join(PhysicalOpPtr(new TableScanOp(left)),
                    PhysicalOpPtr(new TableScanOp(right)), spec, lk, rk,
                    keys);
    for (int threads : {1, 2}) {
      SCOPED_TRACE(std::string(keys.has_value() ? "raw" : "value") +
                   " keys / threads=" + std::to_string(threads));
      Executor reference(threads);
      TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> unbudgeted,
                                reference.RunPhysical(&join));
      FaultInjector injector;
      Executor executor(threads);
      GuardLimits limits;
      limits.memory_budget_bytes = 272 << 10;
      executor.set_limits(limits);
      executor.set_fault_injector(&injector);
      auto run = [&] { return executor.RunPhysical(&join); };
      TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> budgeted, run());
      EXPECT_TRUE(BitIdentical(budgeted, unbudgeted));
      EXPECT_EQ(join.raw_keys(), keys.has_value());
      SweepBudgetedFaults(run, &executor, &injector, /*base=*/"");
    }
  }
}

// ------------------------------------------------------------ ColumnStore

TEST(ColumnStoreTest, BuildsFlatBasicTables) {
  Type schema = Type::Tuple({{"i", Type::Int()},
                             {"r", Type::Real()},
                             {"b", Type::Bool()},
                             {"s", Type::String()}});
  std::vector<Value> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back(Value::Tuple(
        {"i", "r", "b", "s"},
        {Value::Int(i), Value::Real(i * 0.5), Value::Bool(i % 2 == 0),
         Value::String(i % 3 == 0 ? "fizz" : "buzz")}));
  }
  auto store = ColumnStore::Build(schema, rows);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->num_rows(), 10u);
  EXPECT_EQ(store->num_columns(), 4u);
  EXPECT_EQ(store->column(store->ColumnIndex("i")).i64[3], 3);
  EXPECT_EQ(store->column(store->ColumnIndex("r")).f64[4], 2.0);
  EXPECT_EQ(store->column(store->ColumnIndex("b")).b8[2], 1);
  // Two distinct strings → a two-entry dictionary.
  const Column& s = store->column(store->ColumnIndex("s"));
  ASSERT_NE(s.dict, nullptr);
  EXPECT_EQ(s.dict->size(), 2u);
  for (uint32_t id = 0; id < 10; ++id) {
    EXPECT_TRUE(store->RowValue(id).Equals(rows[id]));
  }
}

TEST(ColumnStoreTest, RefusesNonColumnarShapes) {
  // Set-valued attribute: not columnar.
  Type nested = Type::Tuple({{"a", Type::Set(Type::Int())}});
  std::vector<Value> rows = {
      Value::Tuple({"a"}, {Value::Set({Value::Int(1)})})};
  EXPECT_EQ(ColumnStore::Build(nested, rows), nullptr);

  // NULL in a fixed-width column: not columnar (row NULL semantics win).
  Type flat = Type::Tuple({{"i", Type::Int()}});
  rows = {Value::Tuple({"i"}, {Value::Null()})};
  EXPECT_EQ(ColumnStore::Build(flat, rows), nullptr);

  // Int value in a REAL attribute (ConformsTo admits it; the row path
  // compares Int/Int exactly where doubles round): kind-exactness refuses.
  Type real = Type::Tuple({{"r", Type::Real()}});
  rows = {Value::Tuple({"r"}, {Value::Int(7)})};
  EXPECT_EQ(ColumnStore::Build(real, rows), nullptr);
}

TEST(ColumnStoreTest, DictionaryAndRowsShareValueReps) {
  // The column → row round trip must hand back the ORIGINAL reps: RowValue
  // shares the inserted row's handle, and each dictionary code holds the
  // first-occurrence string handle. Identity is observable through the
  // address of the interned std::string payload.
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto table,
      Table::Create("T", Type::Tuple({{"k", Type::Int()},
                                      {"s", Type::String()}})));
  for (int i = 0; i < 6; ++i) {
    TMDB_ASSERT_OK(table->Insert(
        Value::Tuple({"k", "s"}, {Value::Int(i),
                                  Value::String(i % 2 == 0 ? "even" : "odd")})));
  }
  auto store = table->columnar_store();
  ASSERT_NE(store, nullptr);
  const Column& s = store->column(store->ColumnIndex("s"));
  ASSERT_NE(s.dict, nullptr);
  EXPECT_EQ(s.dict->size(), 2u);
  for (uint32_t id = 0; id < 6; ++id) {
    const Value& original = table->rows()[id];
    // Row handles share reps with the table's rows.
    EXPECT_EQ(&store->RowValue(id).FindField("s")->AsString(),
              &original.FindField("s")->AsString());
    // The dictionary entry for this row's code is the first row that
    // carried the string — later equal strings re-use its rep.
    const Value& interned = s.dict->value(s.codes[id]);
    const Value& first = table->rows()[id % 2 == 0 ? 0 : 1];
    EXPECT_EQ(&interned.AsString(), &first.FindField("s")->AsString());
  }
  // The cache is stable across calls and invalidated by growth.
  EXPECT_EQ(table->columnar_store().get(), store.get());
  TMDB_ASSERT_OK(table->Insert(
      Value::Tuple({"k", "s"}, {Value::Int(100), Value::String("even")})));
  auto rebuilt = table->columnar_store();
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_NE(rebuilt.get(), store.get());
  EXPECT_EQ(rebuilt->num_rows(), 7u);
}

// -------------------------------------------------- physical-level filter

class ColumnarFilterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TMDB_ASSERT_OK_AND_ASSIGN(
        table_,
        Table::Create("T", Type::Tuple({{"i", Type::Int()},
                                        {"r", Type::Real()},
                                        {"b", Type::Bool()},
                                        {"s", Type::String()}})));
    for (int i = 0; i < 3000; ++i) {
      TMDB_ASSERT_OK(table_->Insert(Value::Tuple(
          {"i", "r", "b", "s"},
          {Value::Int(i), Value::Real(i * 0.25), Value::Bool(i % 2 == 0),
           Value::String(i % 5 == 0 ? "lo" : "hi")})));
    }
  }

  /// σ_pred over a scan, columnar or row, and the run's stats.
  Result<std::vector<Value>> RunFilter(const Expr& pred, bool columnar,
                                       ExecStats* stats) {
    std::optional<ColumnPredicate> cpred;
    if (columnar) {
      cpred = ColumnPredicate::Compile(pred, "x", table_->schema());
      EXPECT_TRUE(cpred.has_value()) << pred.ToString();
    }
    FilterOp filter(PhysicalOpPtr(new TableScanOp(table_, columnar)), "x",
                    pred, std::move(cpred));
    Executor executor(1);
    auto rows = executor.RunPhysical(&filter);
    *stats = executor.stats();
    return rows;
  }

  void ExpectFilterParity(const Expr& pred) {
    ExecStats row_stats, col_stats;
    TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> expected,
                              RunFilter(pred, false, &row_stats));
    TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> actual,
                              RunFilter(pred, true, &col_stats));
    EXPECT_TRUE(BitIdentical(actual, expected));
    EXPECT_TRUE(StatsMatch(col_stats, row_stats));
  }

  Expr Var() const { return Expr::Var("x", table_->schema()); }

  std::shared_ptr<Table> table_;
};

TEST_F(ColumnarFilterTest, PredicateShapesMatchRowSemantics) {
  Expr x = Var();
  auto field = [&](const char* name) { return Expr::Must(Expr::Field(x, name)); };
  std::vector<Expr> predicates = {
      // Int comparisons, all six operators.
      Expr::Must(Expr::Binary(BinaryOp::kLt, field("i"),
                              Expr::Literal(Value::Int(500)))),
      Expr::Must(Expr::Binary(BinaryOp::kEq, field("i"),
                              Expr::Literal(Value::Int(1234)))),
      Expr::Must(Expr::Binary(BinaryOp::kGe, field("i"),
                              Expr::Literal(Value::Int(2990)))),
      // Mixed Int/Real comparison promotes through double, like the rows.
      Expr::Must(Expr::Binary(BinaryOp::kGt, field("r"), field("i"))),
      // Arithmetic with wrapping Int semantics.
      Expr::Must(Expr::Binary(
          BinaryOp::kEq,
          Expr::Must(Expr::Binary(BinaryOp::kMul, field("i"),
                                  Expr::Literal(Value::Int(3)))),
          Expr::Literal(Value::Int(90)))),
      // Bool column and logical connectives.
      Expr::And(field("b"),
                Expr::Must(Expr::Binary(BinaryOp::kLe, field("i"),
                                        Expr::Literal(Value::Int(100))))),
      Expr::Must(Expr::Binary(
          BinaryOp::kOr, Expr::Not(field("b")),
          Expr::Must(Expr::Binary(BinaryOp::kEq, field("s"),
                                  Expr::Literal(Value::String("lo")))))),
      // String equality and ordering.
      Expr::Must(Expr::Binary(BinaryOp::kNe, field("s"),
                              Expr::Literal(Value::String("hi")))),
      Expr::Must(Expr::Binary(BinaryOp::kLt, field("s"),
                              Expr::Literal(Value::String("lz")))),
      // Constant-foldable and empty/full selections.
      Expr::True(),
      Expr::False(),
      Expr::Must(Expr::Binary(BinaryOp::kLt, field("i"),
                              Expr::Literal(Value::Int(-1)))),
  };
  for (const Expr& pred : predicates) {
    SCOPED_TRACE(pred.ToString());
    ExpectFilterParity(pred);
  }
}

TEST_F(ColumnarFilterTest, SelectionOverSelectionStaysColumnar) {
  // The second filter consumes id-vector (non-dense) batches of the first.
  Expr x = Var();
  Expr inner_pred = Expr::Must(Expr::Binary(
      BinaryOp::kLt, Expr::Must(Expr::Field(x, "i")),
      Expr::Literal(Value::Int(2000))));
  Expr outer_pred = Expr::Must(Expr::Binary(
      BinaryOp::kEq, Expr::Must(Expr::Field(x, "s")),
      Expr::Literal(Value::String("lo"))));

  auto build = [&](bool columnar) {
    std::optional<ColumnPredicate> inner_c, outer_c;
    if (columnar) {
      inner_c = ColumnPredicate::Compile(inner_pred, "x", table_->schema());
      outer_c = ColumnPredicate::Compile(outer_pred, "x", table_->schema());
      EXPECT_TRUE(inner_c.has_value());
      EXPECT_TRUE(outer_c.has_value());
    }
    PhysicalOpPtr inner(new FilterOp(
        PhysicalOpPtr(new TableScanOp(table_, columnar)), "x", inner_pred,
        std::move(inner_c)));
    return PhysicalOpPtr(new FilterOp(std::move(inner), "x", outer_pred,
                                      std::move(outer_c)));
  };

  PhysicalOpPtr row_plan = build(false);
  PhysicalOpPtr col_plan = build(true);
  Executor reference(1);
  TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> expected,
                            reference.RunPhysical(row_plan.get()));
  Executor executor(1);
  TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> actual,
                            executor.RunPhysical(col_plan.get()));
  EXPECT_TRUE(BitIdentical(actual, expected));
  EXPECT_TRUE(StatsMatch(executor.stats(), reference.stats()));
}

TEST_F(ColumnarFilterTest, CompileRefusesWhatItCannotMirror) {
  Expr x = Var();
  Expr other = Expr::Var("y", table_->schema());
  // Foreign variable.
  EXPECT_FALSE(ColumnPredicate::Compile(
                   Expr::Must(Expr::Binary(
                       BinaryOp::kLt, Expr::Must(Expr::Field(other, "i")),
                       Expr::Literal(Value::Int(5)))),
                   "x", table_->schema())
                   .has_value());
  // Division (runtime error on zero cannot be reproduced columnar-ly).
  EXPECT_FALSE(ColumnPredicate::Compile(
                   Expr::Must(Expr::Binary(
                       BinaryOp::kEq,
                       Expr::Must(Expr::Binary(
                           BinaryOp::kDiv, Expr::Must(Expr::Field(x, "i")),
                           Expr::Literal(Value::Int(2)))),
                       Expr::Literal(Value::Int(3)))),
                   "x", table_->schema())
                   .has_value());
  // Unknown field.
  EXPECT_FALSE(Expr::Field(x, "nope").ok());
}

// ------------------------------------------------------- fast joins

class ColumnarJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TMDB_ASSERT_OK_AND_ASSIGN(
        left_, Table::Create("L", Type::Tuple({{"k", Type::Int()},
                                               {"v", Type::Int()}})));
    TMDB_ASSERT_OK_AND_ASSIGN(
        right_, Table::Create("R", Type::Tuple({{"j", Type::Int()},
                                                {"w", Type::Int()}})));
    for (int i = 0; i < 400; ++i) {
      TMDB_ASSERT_OK(left_->Insert(IntRow({"k", "v"}, {i % 60, i})));
      TMDB_ASSERT_OK(right_->Insert(IntRow({"j", "w"}, {i % 90, i})));
    }
  }

  PhysicalOpPtr MakeJoin(JoinMode mode, bool fast) const {
    Expr xv = Expr::Var("x", left_->schema());
    Expr yv = Expr::Var("y", right_->schema());
    JoinSpec spec;
    spec.mode = mode;
    spec.left_var = "x";
    spec.right_var = "y";
    spec.right_type = right_->schema();
    spec.pred = Expr::True();
    spec.func = yv;  // identity G: nest the whole right row
    spec.label = "g";
    std::vector<Expr> lk = {Expr::Must(Expr::Field(xv, "k"))};
    std::vector<Expr> rk = {Expr::Must(Expr::Field(yv, "j"))};
    std::optional<FastKeySpec> fk;
    if (fast) {
      fk = ResolveFastKeys(lk, rk, "x", "y");
      EXPECT_TRUE(fk.has_value());
    }
    return PhysicalOpPtr(new HashJoinOp(
        PhysicalOpPtr(new TableScanOp(left_)),
        PhysicalOpPtr(new TableScanOp(right_)), std::move(spec),
        std::move(lk), std::move(rk), std::move(fk)));
  }

  std::shared_ptr<Table> left_;
  std::shared_ptr<Table> right_;
};

TEST_F(ColumnarJoinTest, AllModesFastPathParity) {
  for (JoinMode mode : {JoinMode::kInner, JoinMode::kSemi, JoinMode::kAnti,
                        JoinMode::kLeftOuter, JoinMode::kNestJoin}) {
    for (int threads : {1, 2, 4}) {
      SCOPED_TRACE(JoinModeName(mode) + "/threads=" + std::to_string(threads));
      PhysicalOpPtr row_plan = MakeJoin(mode, false);
      PhysicalOpPtr fast_plan = MakeJoin(mode, true);
      Executor reference(threads);
      TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> expected,
                                reference.RunPhysical(row_plan.get()));
      Executor executor(threads);
      TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> actual,
                                executor.RunPhysical(fast_plan.get()));
      EXPECT_TRUE(BitIdentical(actual, expected));
      EXPECT_TRUE(StatsMatch(executor.stats(), reference.stats()));
    }
  }
}

TEST_F(ColumnarJoinTest, StringAndRealKeysAndCrossKindProbes) {
  // S(k: STRING) ⋈ and a REAL build side probed by INT keys — the Int/Real
  // cross-kind match must work through the double image, like Value::Hash.
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto sl, Table::Create("SL", Type::Tuple({{"k", Type::String()},
                                                {"v", Type::Int()}})));
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto sr, Table::Create("SR", Type::Tuple({{"j", Type::String()},
                                                {"w", Type::Int()}})));
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto il, Table::Create("IL", Type::Tuple({{"k", Type::Int()},
                                                {"v", Type::Int()}})));
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto rr, Table::Create("RR", Type::Tuple({{"j", Type::Real()},
                                                {"w", Type::Int()}})));
  for (int i = 0; i < 200; ++i) {
    TMDB_ASSERT_OK(sl->Insert(Value::Tuple(
        {"k", "v"},
        {Value::String("k" + std::to_string(i % 40)), Value::Int(i)})));
    TMDB_ASSERT_OK(sr->Insert(Value::Tuple(
        {"j", "w"},
        {Value::String("k" + std::to_string(i % 25)), Value::Int(i)})));
    TMDB_ASSERT_OK(il->Insert(IntRow({"k", "v"}, {i % 50, i})));
    TMDB_ASSERT_OK(rr->Insert(Value::Tuple(
        {"j", "w"}, {Value::Real(static_cast<double>(i % 30)),
                     Value::Int(i)})));
  }

  auto run_pair = [&](std::shared_ptr<Table> l, std::shared_ptr<Table> r) {
    Expr xv = Expr::Var("x", l->schema());
    Expr yv = Expr::Var("y", r->schema());
    std::vector<Expr> lk = {Expr::Must(Expr::Field(xv, "k"))};
    std::vector<Expr> rk = {Expr::Must(Expr::Field(yv, "j"))};
    std::optional<FastKeySpec> fk = ResolveFastKeys(lk, rk, "x", "y");
    EXPECT_TRUE(fk.has_value());
    JoinSpec spec;
    spec.mode = JoinMode::kInner;
    spec.left_var = "x";
    spec.right_var = "y";
    spec.right_type = r->schema();
    spec.pred = Expr::True();
    std::vector<Value> baseline_rows;
    ExecStats baseline_stats;
    for (bool fast : {false, true}) {
      JoinSpec s2 = spec;
      HashJoinOp join(PhysicalOpPtr(new TableScanOp(l)),
                      PhysicalOpPtr(new TableScanOp(r)), std::move(s2), lk,
                      rk, fast ? fk : std::nullopt);
      Executor executor(1);
      TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> rows,
                                executor.RunPhysical(&join));
      if (!fast) {
        baseline_rows = std::move(rows);
        baseline_stats = executor.stats();
      } else {
        EXPECT_TRUE(BitIdentical(rows, baseline_rows));
        EXPECT_TRUE(StatsMatch(executor.stats(), baseline_stats));
      }
    }
  };
  run_pair(sl, sr);  // string keys
  run_pair(il, rr);  // Int probe keys against a Real build side
}

TEST_F(ColumnarJoinTest, BuildSideKindDeviationFallsBack) {
  // A REAL-typed build key that holds an Int value at runtime: the table
  // must switch from raw to Value keys mid-build — same rows either way.
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto r, Table::Create("RD", Type::Tuple({{"j", Type::Real()},
                                               {"w", Type::Int()}})));
  TMDB_ASSERT_OK(r->Insert(Value::Tuple(
      {"j", "w"}, {Value::Real(1.0), Value::Int(10)})));
  TMDB_ASSERT_OK(r->Insert(Value::Tuple(
      {"j", "w"}, {Value::Int(2), Value::Int(20)})));  // deviating kind

  Expr xv = Expr::Var("x", left_->schema());
  Expr yv = Expr::Var("y", r->schema());
  std::vector<Expr> lk = {Expr::Must(Expr::Field(xv, "k"))};
  std::vector<Expr> rk = {Expr::Must(Expr::Field(yv, "j"))};
  std::optional<FastKeySpec> fk = ResolveFastKeys(lk, rk, "x", "y");
  ASSERT_TRUE(fk.has_value());

  JoinSpec spec;
  spec.mode = JoinMode::kInner;
  spec.left_var = "x";
  spec.right_var = "y";
  spec.right_type = r->schema();
  spec.pred = Expr::True();

  JoinSpec s1 = spec;
  HashJoinOp row_join(PhysicalOpPtr(new TableScanOp(left_)),
                      PhysicalOpPtr(new TableScanOp(r)), std::move(s1), lk,
                      rk, std::nullopt);
  JoinSpec s2 = spec;
  HashJoinOp fast_join(PhysicalOpPtr(new TableScanOp(left_)),
                       PhysicalOpPtr(new TableScanOp(r)), std::move(s2), lk,
                       rk, std::move(fk));
  // Serial and parallel builds (the switch re-keys with morsels), with and
  // without a budget the switched table must fit.
  for (int threads : {1, 2}) {
    for (uint64_t budget : {uint64_t{0}, uint64_t{256} << 10}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " budget=" + std::to_string(budget));
      GuardLimits limits;
      limits.memory_budget_bytes = budget;
      Executor reference(threads);
      reference.set_limits(limits);
      TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> expected,
                                reference.RunPhysical(&row_join));
      Executor executor(threads);
      executor.set_limits(limits);
      TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> actual,
                                executor.RunPhysical(&fast_join));
      EXPECT_TRUE(BitIdentical(actual, expected));
      EXPECT_TRUE(StatsMatch(executor.stats(), reference.stats()));
      EXPECT_FALSE(fast_join.raw_keys());
      // Both Real(1.0) and the deviating Int(2) build rows join their 7
      // left partners each (k = i % 60 over 400 rows → 7 hits per key in
      // [0, 40)).
      EXPECT_EQ(actual.size(), 14u);
    }
  }
}

TEST(ResolveFastKeysTest, KindRules) {
  Type lt = Type::Tuple({{"i", Type::Int()},
                         {"r", Type::Real()},
                         {"s", Type::String()},
                         {"b", Type::Bool()}});
  Type rt = lt;
  Expr x = Expr::Var("x", lt);
  Expr y = Expr::Var("y", rt);
  auto key = [&](const Expr& base, const char* f) {
    return Expr::Must(Expr::Field(base, f));
  };

  auto resolve = [&](const char* lf, const char* rf) {
    return ResolveFastKeys({key(x, lf)}, {key(y, rf)}, "x", "y");
  };
  // Int = Int → kI64.
  auto ii = resolve("i", "i");
  ASSERT_TRUE(ii.has_value());
  EXPECT_EQ(ii->kind, FastKeySpec::Kind::kI64);
  // String = String → kStr.
  auto ss = resolve("s", "s");
  ASSERT_TRUE(ss.has_value());
  EXPECT_EQ(ss->kind, FastKeySpec::Kind::kStr);
  // Numeric with a Real build (right) side → kF64, either probe kind.
  auto ir = resolve("i", "r");
  ASSERT_TRUE(ir.has_value());
  EXPECT_EQ(ir->kind, FastKeySpec::Kind::kF64);
  // Real probe against an Int build side: the build table would be exact
  // Int, but Real probes need double semantics → refused.
  EXPECT_FALSE(resolve("r", "i").has_value());
  // Bools and cross-basic-kind pairs are refused.
  EXPECT_FALSE(resolve("b", "b").has_value());
  EXPECT_FALSE(resolve("s", "i").has_value());
  // Multi-key composites are refused (composite Value path handles them).
  EXPECT_FALSE(ResolveFastKeys({key(x, "i"), key(x, "s")},
                               {key(y, "i"), key(y, "s")}, "x", "y")
                   .has_value());
}

// ----------------------------------------------- arena + charge granularity

TEST(ArenaTest, ExactBlocksChargeOnlyTheBytesAskedFor) {
  ExecStats stats;
  QueryGuard guard;
  GuardLimits limits;
  limits.memory_budget_bytes = 1 << 10;
  guard.Reset(limits, &stats, nullptr);

  // A 1 KiB budget holds 800 + 96 bytes: each allocation is charged its
  // 16-byte aligned size.
  Arena arena;
  arena.Bind(&guard);
  TMDB_ASSERT_OK_AND_ASSIGN(int64_t* p, arena.AllocateArray<int64_t>(100));
  p[99] = 1;
  TMDB_ASSERT_OK_AND_ASSIGN(uint8_t* q, arena.AllocateArray<uint8_t>(90));
  q[89] = 1;
  EXPECT_EQ(arena.bytes_charged(), 800u + 96u);
  EXPECT_EQ(guard.memory_used(), 800 + 96);
  // Past the budget, the allocation trips as a memory trip.
  auto blown = arena.AllocateArray<int64_t>(100);
  ASSERT_FALSE(blown.ok());
  EXPECT_TRUE(arena.IsMemoryTrip(blown.status()));
  // Reset refunds everything.
  arena.Reset();
  EXPECT_EQ(guard.memory_used(), 0);

  // A budget below the first allocation: it trips at once.
  GuardLimits small;
  small.memory_budget_bytes = 512;
  guard.Reset(small, &stats, nullptr);
  arena.Bind(&guard);
  auto first = arena.AllocateArray<int64_t>(100);
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(arena.IsMemoryTrip(first.status()));
  arena.Reset();
  EXPECT_EQ(guard.memory_used(), 0);
}

TEST(ChargeGranularityTest, TripsWithinOneGranuleOfTheLimit) {
  // Satellite regression: Charge() defers the *checkpoint*, never the
  // accounting. With budget B and granularity G, charging in tiny steps
  // must fail before B + G + step bytes have been accepted.
  ExecStats stats;
  QueryGuard guard;
  GuardLimits limits;
  const uint64_t kBudget = 128 << 10;
  limits.memory_budget_bytes = kBudget;
  guard.Reset(limits, &stats, nullptr);

  GuardReservation res;
  res.Reset(&guard);
  const uint64_t kStep = 64;
  uint64_t accepted = 0;
  Status tripped = Status::OK();
  for (int i = 0; i < 1 << 20; ++i) {
    tripped = res.Charge(kStep);
    if (!tripped.ok()) break;
    accepted += kStep;
  }
  ASSERT_FALSE(tripped.ok()) << "budget never tripped";
  EXPECT_EQ(tripped.code(), StatusCode::kResourceExhausted);
  EXPECT_LE(accepted, kBudget + res.charge_granularity() + kStep);
  // memory_used stayed exact the whole time (accounting not deferred).
  EXPECT_GE(guard.memory_used(), static_cast<int64_t>(accepted));
  res.Release();
  EXPECT_EQ(guard.memory_used(), 0);
}

}  // namespace
}  // namespace tmdb
