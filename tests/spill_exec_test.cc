// Graceful degradation under memory pressure, end to end: hash/nest joins
// whose build side dwarfs the memory budget complete by Grace-style
// recursive partitioning to disk, with results BIT-IDENTICAL (same rows,
// same order) to the unbudgeted in-memory run, serial and parallel alike.
// Injected I/O faults on any spill read/write unwind to a clean kIoError
// with zero leaked temp files and a reusable executor; injected unlink
// failures never affect the query. The paper's bug queries (COUNT bug,
// SUBSETEQ bug) keep their exact semantics while spilling multiple levels
// deep. Plus the ValueMemory phantom-charge regression: NestOp's parallel
// path must refund its stage-1 scratch.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/fault_injector.h"
#include "base/logging.h"
#include "base/random.h"
#include "catalog/table.h"
#include "core/database.h"
#include "exec/basic_ops.h"
#include "exec/executor.h"
#include "exec/hash_join.h"
#include "exec/merge_join.h"
#include "exec/nest_op.h"
#include "exec/query_guard.h"
#include "sched/scheduler.h"
#include "spill/partition.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace tmdb {
namespace {

namespace fs = std::filesystem;
using testutil::IntRow;
using testutil::RowsEqual;

/// A per-test spill base directory, so "no leaked temp files" is checkable
/// as "this directory is empty".
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

/// Exact-sequence equality — the spill path must reproduce the in-memory
/// output bit for bit, order included.
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

// ------------------------------------------------- op-level spilled joins

/// Build side: fat rows (a 160-byte pad) so a few thousand of them dwarf a
/// small budget. Probe side: few skinny rows, near-unique keys, so the
/// *output* stays far under the budget — spilling relieves build residency,
/// it cannot shrink the result itself.
class SpillJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Random rng(101);
    TMDB_ASSERT_OK_AND_ASSIGN(
        left_, Table::Create("L", Type::Tuple({{"e", Type::Int()},
                                               {"d", Type::Int()}})));
    // Few probe rows with near-unique keys on both sides: even the
    // output-every-left-row modes (nest join, left outer, anti) emit only
    // ~80 rows, keeping the result far below the budget — spilling relieves
    // build residency; it cannot shrink the result itself.
    for (int i = 0; i < 80; ++i) {
      TMDB_ASSERT_OK(left_->Insert(
          IntRow({"e", "d"}, {i, rng.UniformInt(0, 100000)})));
    }
    TMDB_ASSERT_OK_AND_ASSIGN(
        right_,
        Table::Create("R", Type::Tuple({{"a", Type::Int()},
                                        {"b", Type::Int()},
                                        {"pad", Type::String()}})));
    const std::string pad(160, 'p');
    for (int i = 0; i < 6000; ++i) {
      TMDB_ASSERT_OK(right_->Insert(Value::Tuple(
          {"a", "b", "pad"},
          {Value::Int(i), Value::Int(rng.UniformInt(0, 100000)),
           Value::String(pad)})));
    }
  }

  PhysicalOpPtr MakeJoin(JoinMode mode) const {
    Expr xv = Expr::Var("x", left_->schema());
    Expr yv = Expr::Var("y", right_->schema());
    JoinSpec spec;
    spec.mode = mode;
    spec.left_var = "x";
    spec.right_var = "y";
    spec.right_type = right_->schema();
    spec.pred = Expr::True();
    // Nest join nests only the key attribute, keeping outputs skinny.
    spec.func = Expr::Must(Expr::Field(yv, "a"));
    spec.label = "s";
    return PhysicalOpPtr(new HashJoinOp(
        PhysicalOpPtr(new TableScanOp(left_)),
        PhysicalOpPtr(new TableScanOp(right_)), std::move(spec),
        {Expr::Must(Expr::Field(xv, "d"))},
        {Expr::Must(Expr::Field(yv, "b"))}));
  }

  PhysicalOpPtr MakeMergeJoin(JoinMode mode) const {
    Expr xv = Expr::Var("x", left_->schema());
    Expr yv = Expr::Var("y", right_->schema());
    JoinSpec spec;
    spec.mode = mode;
    spec.left_var = "x";
    spec.right_var = "y";
    spec.right_type = right_->schema();
    spec.pred = Expr::True();
    spec.func = Expr::Must(Expr::Field(yv, "a"));
    spec.label = "s";
    return PhysicalOpPtr(new MergeJoinOp(
        PhysicalOpPtr(new TableScanOp(left_)),
        PhysicalOpPtr(new TableScanOp(right_)), std::move(spec),
        {Expr::Must(Expr::Field(xv, "d"))},
        {Expr::Must(Expr::Field(yv, "b"))}));
  }

  static constexpr uint64_t kBudget = 128 << 10;  // build side is ~8-20× this

  std::shared_ptr<Table> left_;
  std::shared_ptr<Table> right_;
};

TEST_F(SpillJoinTest, AllModesSpillBitIdenticalSerialAndParallel) {
  for (JoinMode mode : {JoinMode::kInner, JoinMode::kSemi, JoinMode::kAnti,
                        JoinMode::kLeftOuter, JoinMode::kNestJoin}) {
    SCOPED_TRACE(JoinModeName(mode));
    PhysicalOpPtr plan = MakeJoin(mode);

    Executor reference(1);
    TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> baseline,
                              reference.RunPhysical(plan.get()));
    EXPECT_EQ(reference.stats().spill_partitions, 0u);

    for (int threads : {1, 2, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const std::string base =
          MakeSpillBase("join-" + JoinModeName(mode) + "-t" +
                        std::to_string(threads));
      Executor executor(threads);
      GuardLimits limits;
      limits.memory_budget_bytes = kBudget;
      executor.set_limits(limits);
      executor.set_spill_options(true, base, /*block_bytes=*/4096);
      executor.mutable_stats()->Reset();

      TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> spilled,
                                executor.RunPhysical(plan.get()));
      EXPECT_TRUE(BitIdentical(spilled, baseline));
      EXPECT_GT(executor.stats().spill_partitions, 0u)
          << "budget never engaged the spill path";
      EXPECT_GT(executor.stats().spill_bytes_written, 0u);
      EXPECT_GT(executor.stats().spill_bytes_read, 0u);
      EXPECT_TRUE(SpillBaseEmpty(base));
      fs::remove_all(base);
    }
  }
}

TEST_F(SpillJoinTest, BuildFarOverBudgetRecursesMultipleLevels) {
  PhysicalOpPtr plan = MakeJoin(JoinMode::kNestJoin);
  Executor reference(1);
  TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> baseline,
                            reference.RunPhysical(plan.get()));

  const std::string base = MakeSpillBase("multilevel");
  Executor executor(1);
  GuardLimits limits;
  limits.memory_budget_bytes = 160 << 10;  // level-0 partitions still overflow
  executor.set_limits(limits);
  executor.set_spill_options(true, base, 4096);
  TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> spilled,
                            executor.RunPhysical(plan.get()));
  EXPECT_TRUE(BitIdentical(spilled, baseline));
  EXPECT_GE(executor.stats().spill_max_depth, 2u)
      << "budget did not force recursive partitioning; stats: "
      << executor.stats().ToString();
  EXPECT_TRUE(SpillBaseEmpty(base));
  fs::remove_all(base);
}

TEST(SpillDepthBoundTest, HotBuildKeyFailsAtTheRecursionLimit) {
  // Every build row shares one key, so no rehash can split the partition:
  // the Grace path recurses to the depth bound and fails there with a typed
  // error, leaving no spill file and no reserved byte behind.
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto left, Table::Create("L", Type::Tuple({{"e", Type::Int()},
                                                 {"d", Type::Int()}})));
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto right,
      Table::Create("R", Type::Tuple({{"a", Type::Int()},
                                      {"b", Type::Int()},
                                      {"pad", Type::String()}})));
  for (int i = 0; i < 20; ++i) {
    TMDB_ASSERT_OK(left->Insert(IntRow({"e", "d"}, {i, i % 2 == 0 ? 7 : i})));
  }
  const std::string pad(160, 'p');
  for (int i = 0; i < 12000; ++i) {
    TMDB_ASSERT_OK(right->Insert(Value::Tuple(
        {"a", "b", "pad"},
        {Value::Int(i), Value::Int(7), Value::String(pad)})));
  }
  Expr xv = Expr::Var("x", left->schema());
  Expr yv = Expr::Var("y", right->schema());
  JoinSpec spec;
  spec.mode = JoinMode::kNestJoin;
  spec.left_var = "x";
  spec.right_var = "y";
  spec.right_type = right->schema();
  spec.pred = Expr::True();
  // Each output set is {7}: the build side alone exceeds the budget.
  spec.func = Expr::Must(Expr::Field(yv, "b"));
  spec.label = "s";
  HashJoinOp join(PhysicalOpPtr(new TableScanOp(left)),
                  PhysicalOpPtr(new TableScanOp(right)), std::move(spec),
                  {Expr::Must(Expr::Field(xv, "d"))},
                  {Expr::Must(Expr::Field(yv, "b"))});

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string base =
        MakeSpillBase("hot-build-key-t" + std::to_string(threads));
    Executor executor(threads);
    GuardLimits limits;
    limits.memory_budget_bytes = 128 << 10;
    executor.set_limits(limits);
    executor.set_spill_options(true, base, /*block_bytes=*/4096);
    executor.mutable_stats()->Reset();
    auto run = executor.RunPhysical(&join);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted)
        << run.status().ToString();
    EXPECT_NE(run.status().message().find("spill recursion limit"),
              std::string::npos)
        << run.status().ToString();
    EXPECT_EQ(executor.stats().spill_max_depth,
              static_cast<uint64_t>(kMaxSpillDepth) + 1);
    EXPECT_TRUE(SpillBaseEmpty(base));
    EXPECT_EQ(executor.guard()->materialized_bytes(), 0);
    fs::remove_all(base);
  }
}

TEST(SpillProbeTest, TripInsideAProbeBatchDivertsToSpill) {
  // 2000 probe rows each match one of 4000 fat build rows, and each output
  // row is a fresh tuple. Between about three quarters and the whole of the
  // no-spill peak the build table fits, but one probe batch's output does
  // not fit beside it: the trip lands on a checkpoint inside the batch, and
  // the join hands that row and the rest of the probe to the Grace path.
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto left, Table::Create("L", Type::Tuple({{"e", Type::Int()},
                                                 {"d", Type::Int()}})));
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto right,
      Table::Create("R", Type::Tuple({{"a", Type::Int()},
                                      {"b", Type::Int()},
                                      {"pad", Type::String()}})));
  for (int i = 0; i < 2000; ++i) {
    TMDB_ASSERT_OK(left->Insert(IntRow({"e", "d"}, {i, (i * 7) % 4000})));
  }
  const std::string pad(160, 'p');
  for (int i = 0; i < 4000; ++i) {
    TMDB_ASSERT_OK(right->Insert(Value::Tuple(
        {"a", "b", "pad"},
        {Value::Int(i), Value::Int(i), Value::String(pad)})));
  }
  Expr xv = Expr::Var("x", left->schema());
  Expr yv = Expr::Var("y", right->schema());
  JoinSpec spec;
  spec.mode = JoinMode::kInner;
  spec.left_var = "x";
  spec.right_var = "y";
  spec.right_type = right->schema();
  spec.pred = Expr::True();
  HashJoinOp join(PhysicalOpPtr(new TableScanOp(left)),
                  PhysicalOpPtr(new TableScanOp(right)), std::move(spec),
                  {Expr::Must(Expr::Field(xv, "d"))},
                  {Expr::Must(Expr::Field(yv, "b"))});
  Executor reference(1);
  TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> baseline,
                            reference.RunPhysical(&join));

  // The least budget the join needs without spill, by bisection.
  uint64_t lo = 0;
  uint64_t hi = 64 << 20;
  while (hi - lo > 1024) {
    const uint64_t mid = lo + (hi - lo) / 2;
    Executor executor(1);
    GuardLimits limits;
    limits.memory_budget_bytes = mid;
    executor.set_limits(limits);
    (executor.RunPhysical(&join).ok() ? hi : lo) = mid;
  }
  const std::string base = MakeSpillBase("probe-divert");
  for (uint64_t percent : {80, 86, 92}) {
    SCOPED_TRACE("budget " + std::to_string(percent) + "% of " +
                 std::to_string(hi));
    Executor executor(1);
    GuardLimits limits;
    limits.memory_budget_bytes = hi * percent / 100;
    executor.set_limits(limits);
    executor.set_spill_options(true, base, /*block_bytes=*/4096);
    TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> spilled,
                              executor.RunPhysical(&join));
    EXPECT_TRUE(BitIdentical(spilled, baseline));
    EXPECT_GT(executor.stats().spill_partitions, 0u);
    EXPECT_TRUE(SpillBaseEmpty(base));
  }
  fs::remove_all(base);
}

/// A nest join of 20 probe rows, half of them on the one key all 6000 fat
/// build rows share, with G = y.a: each hot row's set holds 6000 values.
/// With `residual`, an always-true residual predicate makes every hot row
/// walk its 6000 pairs and build a set of its own; without it, the hot rows
/// share their slot's one set.
std::unique_ptr<HashJoinOp> HotProbeKeyJoin(bool residual) {
  auto left = Table::Create("L", Type::Tuple({{"e", Type::Int()},
                                              {"d", Type::Int()}}));
  auto right = Table::Create("R", Type::Tuple({{"a", Type::Int()},
                                               {"b", Type::Int()},
                                               {"pad", Type::String()}}));
  TMDB_CHECK(left.ok() && right.ok());
  for (int i = 0; i < 20; ++i) {
    TMDB_CHECK((*left)->Insert(IntRow({"e", "d"}, {i, i % 2 == 0 ? 7 : i}))
                   .ok());
  }
  const std::string pad(160, 'p');
  for (int i = 0; i < 6000; ++i) {
    TMDB_CHECK((*right)
                   ->Insert(Value::Tuple(
                       {"a", "b", "pad"},
                       {Value::Int(i), Value::Int(7), Value::String(pad)}))
                   .ok());
  }
  Expr xv = Expr::Var("x", (*left)->schema());
  Expr yv = Expr::Var("y", (*right)->schema());
  JoinSpec spec;
  spec.mode = JoinMode::kNestJoin;
  spec.left_var = "x";
  spec.right_var = "y";
  spec.right_type = (*right)->schema();
  spec.pred = residual ? Expr::Must(Expr::Binary(
                             BinaryOp::kGe, Expr::Must(Expr::Field(yv, "a")),
                             Expr::Literal(Value::Int(0))))
                       : Expr::True();
  spec.func = Expr::Must(Expr::Field(yv, "a"));
  spec.label = "s";
  return std::make_unique<HashJoinOp>(
      PhysicalOpPtr(new TableScanOp(*left)),
      PhysicalOpPtr(new TableScanOp(*right)), std::move(spec),
      std::vector<Expr>{Expr::Must(Expr::Field(xv, "d"))},
      std::vector<Expr>{Expr::Must(Expr::Field(yv, "b"))});
}

TEST(SpillProbeTest, HotProbeKeyFailsAlikeAtEveryThreadCount) {
  // Under 128 KiB the build fits, but the first hot row's own set does not
  // fit beside it: the trip lands inside the probe, the join diverts that
  // row and the rest to the Grace path, and Grace recurses to the depth
  // bound on the hot key. A parallel round's trip probes on in one-batch
  // rounds and diverts as a threads-1 run does, so both thread counts fail
  // there, with the same error and the same spill counters, and leave
  // nothing behind.
  std::unique_ptr<HashJoinOp> join = HotProbeKeyJoin(/*residual=*/true);
  std::vector<Status> failures;
  std::vector<ExecStats> stats;
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string base =
        MakeSpillBase("hot-probe-key-t" + std::to_string(threads));
    Executor executor(threads);
    GuardLimits limits;
    limits.memory_budget_bytes = 128 << 10;
    executor.set_limits(limits);
    executor.set_spill_options(true, base, /*block_bytes=*/4096);
    executor.mutable_stats()->Reset();
    auto run = executor.RunPhysical(join.get());
    ASSERT_FALSE(run.ok());
    failures.push_back(run.status());
    stats.push_back(executor.stats());
    EXPECT_TRUE(SpillBaseEmpty(base));
    EXPECT_EQ(executor.guard()->materialized_bytes(), 0);
    fs::remove_all(base);
  }
  EXPECT_EQ(failures[0].code(), StatusCode::kResourceExhausted)
      << failures[0].ToString();
  EXPECT_NE(failures[0].message().find("spill recursion limit"),
            std::string::npos)
      << failures[0].ToString();
  EXPECT_EQ(failures[1].code(), failures[0].code());
  EXPECT_EQ(failures[1].message(), failures[0].message());
  EXPECT_GT(stats[0].spill_partitions, 0u);
  EXPECT_EQ(stats[1].spill_partitions, stats[0].spill_partitions);
  EXPECT_EQ(stats[1].spill_max_depth, stats[0].spill_max_depth);
}

TEST(SpillProbeTest, TripPastTheLastProbeRowNeedsNoGrace) {
  // The hot rows share their slot's set, so the probe fits under 128 KiB;
  // what the caller collects of the output then leaves no room for the
  // build table. The round that pulls the left input's last row also finds
  // its end, so the probe ends with it and the table goes: no refill runs
  // with nothing left to probe, and nothing is written to disk.
  std::unique_ptr<HashJoinOp> join = HotProbeKeyJoin(/*residual=*/false);
  Executor reference(1);
  TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> baseline,
                            reference.RunPhysical(join.get()));
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string base =
        MakeSpillBase("hot-probe-end-t" + std::to_string(threads));
    Executor executor(threads);
    GuardLimits limits;
    limits.memory_budget_bytes = 128 << 10;
    executor.set_limits(limits);
    executor.set_spill_options(true, base, /*block_bytes=*/4096);
    executor.mutable_stats()->Reset();
    TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> rows,
                              executor.RunPhysical(join.get()));
    EXPECT_TRUE(BitIdentical(rows, baseline));
    EXPECT_EQ(executor.stats().spill_partitions, 0u);
    EXPECT_EQ(executor.stats().spill_bytes_written, 0u);
    EXPECT_TRUE(SpillBaseEmpty(base));
    fs::remove_all(base);
  }
}

/// Passes its child through and counts the child's opens.
class CountingOpens final : public PhysicalOp {
 public:
  CountingOpens(PhysicalOpPtr child, int* opens)
      : child_(std::move(child)), opens_(opens) {}
  Status Open(ExecContext* ctx) override {
    ++*opens_;
    return child_->Open(ctx);
  }
  Result<size_t> NextBatch(std::vector<Value>* out, size_t max) override {
    return child_->NextBatch(out, max);
  }
  void Close() override { child_->Close(); }
  std::string Describe() const override { return "CountingOpens"; }
  std::vector<const PhysicalOp*> children() const override {
    return {child_.get()};
  }

 private:
  PhysicalOpPtr child_;
  int* opens_;
};

TEST(SpillProbeTest, ParallelRoundTripProbesOnInOneBatchRounds) {
  // A parallel probe round holds every left row's output and charges the
  // round's left and output slots; one-batch rounds hold one batch's worth.
  // Between the two peaks, a 4-thread run's round trips and the join probes
  // on in one-batch rounds: same rows, no Grace partition, and the left
  // input opened once, never re-run.
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto left, Table::Create("L", Type::Tuple({{"e", Type::Int()},
                                                 {"d", Type::Int()}})));
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto right, Table::Create("R", Type::Tuple({{"a", Type::Int()},
                                                  {"b", Type::Int()}})));
  for (int i = 0; i < 8000; ++i) {
    TMDB_ASSERT_OK(left->Insert(IntRow({"e", "d"}, {i, (i * 7) % 8000})));
    TMDB_ASSERT_OK(right->Insert(IntRow({"a", "b"}, {i, i})));
  }
  Expr xv = Expr::Var("x", left->schema());
  Expr yv = Expr::Var("y", right->schema());
  JoinSpec spec;
  spec.mode = JoinMode::kInner;
  spec.left_var = "x";
  spec.right_var = "y";
  spec.right_type = right->schema();
  spec.pred = Expr::True();
  int opens = 0;
  HashJoinOp join(PhysicalOpPtr(new CountingOpens(
                      PhysicalOpPtr(new TableScanOp(left)), &opens)),
                  PhysicalOpPtr(new TableScanOp(right)), std::move(spec),
                  {Expr::Must(Expr::Field(xv, "d"))},
                  {Expr::Must(Expr::Field(yv, "b"))});
  Executor reference(1);
  TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> baseline,
                            reference.RunPhysical(&join));

  // The least budget the join needs without spill, by bisection.
  auto least_budget = [&](int threads) {
    uint64_t lo = 0;
    uint64_t hi = 64 << 20;
    while (hi - lo > 1024) {
      const uint64_t mid = lo + (hi - lo) / 2;
      Executor executor(threads);
      GuardLimits limits;
      limits.memory_budget_bytes = mid;
      executor.set_limits(limits);
      (executor.RunPhysical(&join).ok() ? hi : lo) = mid;
    }
    return hi;
  };
  const uint64_t serial = least_budget(1);
  const uint64_t parallel = least_budget(4);
  ASSERT_GT(parallel, serial + 4096);

  const std::string base = MakeSpillBase("parallel-round-trip");
  Executor executor(4);
  GuardLimits limits;
  limits.memory_budget_bytes = serial + (parallel - serial) / 2;
  executor.set_limits(limits);
  executor.set_spill_options(true, base, /*block_bytes=*/4096);
  opens = 0;
  TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> rows,
                            executor.RunPhysical(&join));
  EXPECT_TRUE(BitIdentical(rows, baseline));
  EXPECT_EQ(opens, 1);
  EXPECT_EQ(executor.stats().spill_partitions, 0u);
  EXPECT_TRUE(SpillBaseEmpty(base));
  fs::remove_all(base);
}

TEST_F(SpillJoinTest, SpillDisabledStillFailsFast) {
  PhysicalOpPtr plan = MakeJoin(JoinMode::kNestJoin);
  Executor executor(1);
  GuardLimits limits;
  limits.memory_budget_bytes = kBudget;
  executor.set_limits(limits);  // spill NOT enabled
  auto run = executor.RunPhysical(plan.get());
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted)
      << run.status().ToString();
}

TEST_F(SpillJoinTest, MaxRowsTripIsNeverSpilled) {
  // max_rows surfaces as the same kResourceExhausted, but disk cannot help
  // a work bound: the spill path must not engage.
  PhysicalOpPtr plan = MakeJoin(JoinMode::kInner);
  const std::string base = MakeSpillBase("maxrows");
  Executor executor(1);
  GuardLimits limits;
  limits.max_rows = 500;
  executor.set_limits(limits);
  executor.set_spill_options(true, base, 4096);
  executor.mutable_stats()->Reset();
  auto run = executor.RunPhysical(plan.get());
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted)
      << run.status().ToString();
  EXPECT_EQ(executor.stats().spill_partitions, 0u);
  EXPECT_TRUE(SpillBaseEmpty(base));
  fs::remove_all(base);
}

// ---------------------------------------------- merge join external sort

TEST_F(SpillJoinTest, MergeJoinAllModesExternalSortBitIdentical) {
  for (JoinMode mode : {JoinMode::kInner, JoinMode::kSemi, JoinMode::kAnti,
                        JoinMode::kLeftOuter, JoinMode::kNestJoin}) {
    SCOPED_TRACE(JoinModeName(mode));
    PhysicalOpPtr plan = MakeMergeJoin(mode);

    Executor reference(1);
    TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> baseline,
                              reference.RunPhysical(plan.get()));
    EXPECT_EQ(reference.stats().spill_sort_runs, 0u);

    for (int threads : {1, 2}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const std::string base =
          MakeSpillBase("mj-" + JoinModeName(mode) + "-t" +
                        std::to_string(threads));
      Executor executor(threads);
      GuardLimits limits;
      limits.memory_budget_bytes = kBudget;
      executor.set_limits(limits);
      executor.set_spill_options(true, base, /*block_bytes=*/4096);
      executor.mutable_stats()->Reset();

      TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> spilled,
                                executor.RunPhysical(plan.get()));
      EXPECT_TRUE(BitIdentical(spilled, baseline));
      EXPECT_GT(executor.stats().spill_sort_runs, 0u)
          << "budget never engaged the external sort: "
          << executor.stats().ToString();
      EXPECT_GT(executor.stats().spill_bytes_written, 0u);
      EXPECT_GT(executor.stats().spill_bytes_read, 0u);
      EXPECT_EQ(executor.stats().rows_emitted, reference.stats().rows_emitted);
      EXPECT_TRUE(SpillBaseEmpty(base));
      fs::remove_all(base);
    }
  }
}

TEST_F(SpillJoinTest, MergeJoinSpillDisabledStillFailsFast) {
  PhysicalOpPtr plan = MakeMergeJoin(JoinMode::kNestJoin);
  Executor executor(1);
  GuardLimits limits;
  limits.memory_budget_bytes = kBudget;
  executor.set_limits(limits);  // spill NOT enabled
  auto run = executor.RunPhysical(plan.get());
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted)
      << run.status().ToString();
}

// ----------------------------------------------- ν grouped-materialisation

/// Many input rows in a small group-key domain: the drain's slot charges
/// dwarf the budget long before grouping starts, while a tiny element
/// domain (c ∈ [0,5), deduped by set semantics at emit) keeps the grouped
/// *output* far below it — spilling relieves input residency; it cannot
/// shrink the result.
class SpillNestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Random rng(77);
    TMDB_ASSERT_OK_AND_ASSIGN(
        table_, Table::Create("T", Type::Tuple({{"a", Type::Int()},
                                                {"b", Type::Int()},
                                                {"c", Type::Int()}})));
    for (int i = 0; i < 12000; ++i) {
      TMDB_ASSERT_OK(table_->Insert(IntRow(
          {"a", "b", "c"}, {i, rng.UniformInt(0, 40), i % 5})));
    }
  }

  PhysicalOpPtr MakeNest() const {
    Expr j = Expr::Var("j", table_->schema());
    return PhysicalOpPtr(new NestOp(
        PhysicalOpPtr(new TableScanOp(table_)), {"b"}, "j",
        Expr::Must(Expr::Field(j, "c")), "s",
        /*null_group_to_empty=*/false));
  }

  static constexpr uint64_t kBudget = 128 << 10;

  std::shared_ptr<Table> table_;
};

TEST_F(SpillNestTest, GroupingSpillsBitIdenticalSerialAndParallel) {
  PhysicalOpPtr plan = MakeNest();
  Executor reference(1);
  TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> baseline,
                            reference.RunPhysical(plan.get()));
  EXPECT_EQ(reference.stats().spill_partitions, 0u);

  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string base = MakeSpillBase("nest-t" + std::to_string(threads));
    Executor executor(threads);
    GuardLimits limits;
    limits.memory_budget_bytes = kBudget;
    executor.set_limits(limits);
    executor.set_spill_options(true, base, /*block_bytes=*/4096);
    executor.mutable_stats()->Reset();

    TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> spilled,
                              executor.RunPhysical(plan.get()));
    EXPECT_TRUE(BitIdentical(spilled, baseline));
    EXPECT_GT(executor.stats().spill_partitions, 0u)
        << "budget never engaged the ν spill path: "
        << executor.stats().ToString();
    EXPECT_GT(executor.stats().spill_bytes_written, 0u);
    EXPECT_GT(executor.stats().spill_bytes_read, 0u);
    EXPECT_EQ(executor.stats().rows_emitted, reference.stats().rows_emitted);
    EXPECT_TRUE(SpillBaseEmpty(base));
    fs::remove_all(base);
  }
}

TEST_F(SpillNestTest, NuStarNullPaddingDroppedAcrossSpill) {
  // ν* variant: all-NULL padded elements (outerjoin dangles) must become
  // empty sets — not lost rows, not sets holding a null — even when the
  // grouping spills; the padding check runs on decoded spill records too.
  Random rng(99);
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto padded,
      Table::Create("P",
                    Type::Tuple({{"id", Type::Int()},
                                 {"k", Type::Int()},
                                 {"p", Type::Tuple({{"q", Type::Int()}})}})));
  for (int i = 0; i < 12000; ++i) {
    const int k = rng.UniformInt(0, 40);
    const bool dangle = k >= 30;  // keys 30..39 carry only padding
    TMDB_ASSERT_OK(padded->Insert(Value::Tuple(
        {"id", "k", "p"},
        {Value::Int(i), Value::Int(k),
         Value::Tuple({"q"},
                      {dangle ? Value::Null() : Value::Int(i % 5)})})));
  }
  Expr row = Expr::Var("t", padded->schema());
  PhysicalOpPtr plan(new NestOp(
      PhysicalOpPtr(new TableScanOp(padded)), {"k"}, "t",
      Expr::Must(Expr::Field(row, "p")), "ps",
      /*null_group_to_empty=*/true));

  Executor reference(1);
  TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> baseline,
                            reference.RunPhysical(plan.get()));
  size_t empty_sets = 0;
  for (const Value& out_row : baseline) {
    TMDB_ASSERT_OK_AND_ASSIGN(Value s, out_row.Field("ps"));
    if (s.Equals(Value::EmptySet())) ++empty_sets;
  }
  ASSERT_GT(empty_sets, 0u) << "workload produced no dangling groups";

  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string base =
        MakeSpillBase("nustar-t" + std::to_string(threads));
    Executor executor(threads);
    GuardLimits limits;
    limits.memory_budget_bytes = kBudget;
    executor.set_limits(limits);
    executor.set_spill_options(true, base, /*block_bytes=*/4096);
    executor.mutable_stats()->Reset();

    TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> spilled,
                              executor.RunPhysical(plan.get()));
    EXPECT_TRUE(BitIdentical(spilled, baseline));
    EXPECT_GT(executor.stats().spill_partitions, 0u)
        << "budget never engaged the ν* spill path: "
        << executor.stats().ToString();
    EXPECT_TRUE(SpillBaseEmpty(base));
    fs::remove_all(base);
  }
}

TEST(SpillNestDepthBoundTest, HotGroupKeyTakesTheForcedPass) {
  // One group key holds every row, and its chained elements alone exceed
  // the budget (the set they dedupe to stays small). No rehash can split
  // it, so ν groups it in a forced pass with the memory comparison
  // suspended instead of recursing or failing.
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto table, Table::Create("T", Type::Tuple({{"a", Type::Int()},
                                                  {"b", Type::Int()},
                                                  {"c", Type::Int()}})));
  for (int i = 0; i < 12000; ++i) {
    TMDB_ASSERT_OK(table->Insert(IntRow({"a", "b", "c"}, {i, 3, i % 5})));
  }
  Expr j = Expr::Var("j", table->schema());
  PhysicalOpPtr plan(new NestOp(PhysicalOpPtr(new TableScanOp(table)), {"b"},
                                "j", Expr::Must(Expr::Field(j, "c")), "s",
                                /*null_group_to_empty=*/false));
  Executor reference(1);
  TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> baseline,
                            reference.RunPhysical(plan.get()));
  ASSERT_EQ(baseline.size(), 1u);

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string base =
        MakeSpillBase("hot-group-key-t" + std::to_string(threads));
    Executor executor(threads);
    GuardLimits limits;
    limits.memory_budget_bytes = 128 << 10;
    executor.set_limits(limits);
    executor.set_spill_options(true, base, /*block_bytes=*/4096);
    executor.mutable_stats()->Reset();
    TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> spilled,
                              executor.RunPhysical(plan.get()));
    EXPECT_TRUE(BitIdentical(spilled, baseline));
    EXPECT_EQ(executor.stats().spill_partitions, kSpillFanout)
        << "one key must not repartition: " << executor.stats().ToString();
    EXPECT_EQ(executor.stats().spill_max_depth, 1u);
    EXPECT_TRUE(SpillBaseEmpty(base));
    EXPECT_EQ(executor.guard()->materialized_bytes(), 0);
    fs::remove_all(base);
  }
}

TEST_F(SpillNestTest, SpillDisabledStillFailsFast) {
  PhysicalOpPtr plan = MakeNest();
  Executor executor(1);
  GuardLimits limits;
  limits.memory_budget_bytes = kBudget;
  executor.set_limits(limits);  // spill NOT enabled
  auto run = executor.RunPhysical(plan.get());
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted)
      << run.status().ToString();
}

// --------------------------------------------------- I/O fault injection

TEST_F(SpillJoinTest, IoFaultSweepUnwindsCleanlyAndLeaksNothing) {
  PhysicalOpPtr plan = MakeJoin(JoinMode::kNestJoin);
  const std::string base = MakeSpillBase("iofault");

  FaultInjector injector;
  Executor executor(1);
  GuardLimits limits;
  limits.memory_budget_bytes = kBudget;
  executor.set_limits(limits);
  executor.set_fault_injector(&injector);
  executor.set_spill_options(true, base, 4096);

  // Counting pass: an installed-but-unarmed injector must not perturb the
  // run, and its counters size the sweep.
  injector.ArmIo(IoFaultKind::kShortWrite, 0);
  TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> baseline,
                            executor.RunPhysical(plan.get()));
  const uint64_t writes = injector.io_writes_seen();
  const uint64_t reads = injector.io_reads_seen();
  const uint64_t unlinks = injector.io_unlinks_seen();
  ASSERT_GT(writes, 0u);
  ASSERT_GT(reads, 0u);
  ASSERT_GT(unlinks, 0u);
  EXPECT_TRUE(SpillBaseEmpty(base));

  struct Channel {
    IoFaultKind kind;
    uint64_t ops;
  };
  const Channel channels[] = {{IoFaultKind::kShortWrite, writes},
                              {IoFaultKind::kEnospc, writes},
                              {IoFaultKind::kCorruptRead, reads}};
  for (const Channel& ch : channels) {
    const uint64_t stride = std::max<uint64_t>(1, ch.ops / 7);
    for (uint64_t n = 1; n <= ch.ops; n += stride) {
      SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(ch.kind)) +
                   " n=" + std::to_string(n));
      injector.ArmIo(ch.kind, n);
      auto poisoned = executor.RunPhysical(plan.get());
      ASSERT_FALSE(poisoned.ok()) << "injected I/O fault did not surface";
      EXPECT_EQ(poisoned.status().code(), StatusCode::kIoError)
          << poisoned.status().ToString();
      EXPECT_EQ(injector.io_faults_fired(), 1u);
      EXPECT_TRUE(SpillBaseEmpty(base)) << "fault leaked spill files";

      // The same executor completes the same plan right afterwards.
      injector.DisarmIo();
      TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> recovered,
                                executor.RunPhysical(plan.get()));
      EXPECT_TRUE(BitIdentical(recovered, baseline));
      EXPECT_TRUE(SpillBaseEmpty(base));
    }
  }
  fs::remove_all(base);
}

TEST_F(SpillJoinTest, UnlinkFaultsNeverAffectTheQuery) {
  PhysicalOpPtr plan = MakeJoin(JoinMode::kNestJoin);
  const std::string base = MakeSpillBase("unlinkfault");

  FaultInjector injector;
  Executor executor(1);
  GuardLimits limits;
  limits.memory_budget_bytes = kBudget;
  executor.set_limits(limits);
  executor.set_fault_injector(&injector);
  executor.set_spill_options(true, base, 4096);

  injector.ArmIo(IoFaultKind::kUnlinkFail, 0);
  TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> baseline,
                            executor.RunPhysical(plan.get()));
  const uint64_t unlinks = injector.io_unlinks_seen();
  ASSERT_GT(unlinks, 0u);

  const uint64_t stride = std::max<uint64_t>(1, unlinks / 5);
  for (uint64_t n = 1; n <= unlinks; n += stride) {
    SCOPED_TRACE("n=" + std::to_string(n));
    injector.ArmIo(IoFaultKind::kUnlinkFail, n);
    // A failed unlink defers that file to the end-of-run sweep; the query
    // itself must succeed with identical output and still leak nothing.
    TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> rows,
                              executor.RunPhysical(plan.get()));
    EXPECT_TRUE(BitIdentical(rows, baseline));
    EXPECT_EQ(injector.io_faults_fired(), 1u);
    EXPECT_TRUE(SpillBaseEmpty(base));
  }
  fs::remove_all(base);
}

// --------------------------------------------------- cancellation mid-spill

/// Finite source of fat rows that cancels the query's guard from inside the
/// stream after `cancel_after` rows — timed to land while the consuming
/// join is already writing spill partitions.
class CancellingFatSource final : public PhysicalOp {
 public:
  CancellingFatSource(uint64_t total, uint64_t cancel_after)
      : total_(total), cancel_after_(cancel_after) {}

  Status Open(ExecContext* ctx) override {
    ctx_ = ctx;
    emitted_ = 0;
    return Status::OK();
  }

  Result<size_t> NextBatch(std::vector<Value>* out, size_t max) override {
    size_t appended = 0;
    for (; appended < max && emitted_ < total_; ++appended) {
      ++emitted_;
      if (emitted_ == cancel_after_ && ctx_ != nullptr &&
          ctx_->guard != nullptr) {
        ctx_->guard->Cancel();
      }
      out->push_back(Value::Tuple(
          {"a", "b", "pad"},
          {Value::Int(static_cast<int64_t>(emitted_)),
           Value::Int(static_cast<int64_t>(emitted_ % 97)),
           Value::String(std::string(160, 'p'))}));
    }
    return appended;
  }

  void Close() override {}
  std::string Describe() const override { return "CancellingFatSource"; }
  std::vector<const PhysicalOp*> children() const override { return {}; }

  static Type RowType() {
    return Type::Tuple({{"a", Type::Int()},
                        {"b", Type::Int()},
                        {"pad", Type::String()}});
  }

 private:
  uint64_t total_;
  uint64_t cancel_after_;
  ExecContext* ctx_ = nullptr;
  uint64_t emitted_ = 0;
};

TEST(SpillCancellationTest, CancelMidSpillUnwindsAndCleansUp) {
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto left, Table::Create("L", Type::Tuple({{"e", Type::Int()},
                                                 {"d", Type::Int()}})));
  TMDB_ASSERT_OK(left->Insert(IntRow({"e", "d"}, {1, 2})));
  // The 64 KiB budget trips after a few hundred fat rows, engaging the
  // spill write-out; the cancel lands thousands of rows later, mid-spill.
  auto* source = new CancellingFatSource(/*total=*/20000,
                                         /*cancel_after=*/10000);
  Expr xv = Expr::Var("x", left->schema());
  Expr yv = Expr::Var("y", CancellingFatSource::RowType());
  JoinSpec spec;
  spec.mode = JoinMode::kInner;
  spec.left_var = "x";
  spec.right_var = "y";
  spec.right_type = CancellingFatSource::RowType();
  spec.pred = Expr::True();
  PhysicalOpPtr plan(new HashJoinOp(
      PhysicalOpPtr(new TableScanOp(left)), PhysicalOpPtr(source),
      std::move(spec), {Expr::Must(Expr::Field(xv, "d"))},
      {Expr::Must(Expr::Field(yv, "b"))}));

  const std::string base = MakeSpillBase("cancel");
  // A count-only injector proves the cancel landed mid-spill: spill writes
  // happened before the cancellation aborted the write-out (aggregate spill
  // stats are only recorded once a write-out completes).
  FaultInjector injector;
  Executor executor(1);
  GuardLimits limits;
  limits.memory_budget_bytes = 64 << 10;
  executor.set_limits(limits);
  executor.set_fault_injector(&injector);
  executor.set_spill_options(true, base, 4096);
  injector.ArmIo(IoFaultKind::kShortWrite, 0);  // count, never fire
  auto run = executor.RunPhysical(plan.get());
  ASSERT_FALSE(run.ok()) << "cancel was lost";
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled)
      << run.status().ToString();
  EXPECT_GT(injector.io_writes_seen(), 0u)
      << "cancel landed before the spill engaged — tighten the budget";
  EXPECT_TRUE(SpillBaseEmpty(base)) << "cancellation leaked spill files";
  fs::remove_all(base);
}

// ------------------------------------- paper semantics under spilling, e2e

/// COUNT-bug and SUBSETEQ-bug queries over generated tables big enough to
/// force multi-level spilling of the nest-join build side, while a tiny
/// match fraction keeps the *result* (nested sets included) far below the
/// budget. Exactness here is the whole point: the nest join's dangling-row
/// semantics (empty set, not a lost row) must survive partitioning to disk.
class SpillSemanticsTest : public ::testing::Test {
 protected:
  static RunOptions Opts(uint64_t budget, bool spill, int threads,
                         const std::string& dir) {
    RunOptions o;
    o.strategy = Strategy::kNestJoin;
    o.join_impl = JoinImpl::kHash;
    o.num_threads = threads;
    o.memory_budget_bytes = budget;
    o.enable_spill = spill;
    o.spill_dir = dir;
    o.spill_block_bytes = 4096;
    return o;
  }

  /// Runs `query` unbudgeted, then with a budget forcing the spill path,
  /// serial and threaded; every result must be bit-identical, and the
  /// spill directory empty afterwards.
  void ExpectSpilledRunsMatch(Database* db, const std::string& query,
                              uint64_t budget) {
    const std::string base = MakeSpillBase("semantics");
    TMDB_ASSERT_OK_AND_ASSIGN(
        QueryResult unbudgeted, db->Run(query, Opts(0, false, 1, "")));

    for (int threads : {1, 2, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      TMDB_ASSERT_OK_AND_ASSIGN(
          QueryResult spilled,
          db->Run(query, Opts(budget, true, threads, base)));
      EXPECT_TRUE(BitIdentical(spilled.rows, unbudgeted.rows));
      EXPECT_GT(spilled.stats.spill_partitions, 0u)
          << "budget never engaged the spill path";
      EXPECT_TRUE(SpillBaseEmpty(base));
    }

    // With spilling off the same budget fails fast — and the database
    // stays usable (the unbudgeted rerun below).
    auto hard_fail = db->Run(query, Opts(budget, false, 1, ""));
    ASSERT_FALSE(hard_fail.ok());
    EXPECT_EQ(hard_fail.status().code(), StatusCode::kResourceExhausted)
        << hard_fail.status().ToString();
    TMDB_ASSERT_OK_AND_ASSIGN(
        QueryResult again, db->Run(query, Opts(0, false, 1, "")));
    EXPECT_TRUE(BitIdentical(again.rows, unbudgeted.rows));
    fs::remove_all(base);
  }
};

TEST_F(SpillSemanticsTest, CountBugQuerySpillsExactly) {
  Database db;
  CountBugConfig config;
  config.num_r = 100;
  config.num_s = 24000;
  // Wide, sparse key domain: join keys partition well, half the R rows
  // dangle (the COUNT bug's trigger), and most S rows match no R row — so
  // the result stays far below the budget while the build side dwarfs it.
  config.match_fraction = 0.5;
  config.domain_scale = 64;
  TMDB_ASSERT_OK(LoadCountBugTables(&db, config));
  const std::string query =
      "SELECT x FROM R x WHERE x.b = count(SELECT y.d FROM S y "
      "WHERE x.c = y.c)";
  ExpectSpilledRunsMatch(&db, query, /*budget=*/256 << 10);

  // And the spilled nest-join answer is still the *correct* answer (naive
  // reference), not merely self-consistent.
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult spilled,
                            db.Run(query, Opts(256 << 10, true, 1,
                                               MakeSpillBase("cb-ref"))));
  RunOptions naive;
  naive.strategy = Strategy::kNaive;
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult reference, db.Run(query, naive));
  EXPECT_TRUE(RowsEqual(spilled.rows, reference.rows));
}

TEST_F(SpillSemanticsTest, SubsetEqBugQuerySpillsExactly) {
  Database db;
  SubsetBugConfig config;
  config.num_x = 100;
  config.num_y = 24000;
  config.match_fraction = 0.5;
  config.domain_scale = 64;
  // A wide element domain keeps the generated Y rows distinct — tables are
  // sets, so a narrow domain would dedup the build side to a handful of
  // rows and the budget would never trip.
  config.value_domain = 1 << 20;
  TMDB_ASSERT_OK(LoadSubsetBugTables(&db, config));
  const std::string query =
      "SELECT x FROM X x WHERE x.a SUBSETEQ (SELECT y.a FROM Y y "
      "WHERE x.b = y.b)";
  ExpectSpilledRunsMatch(&db, query, /*budget=*/256 << 10);
}

TEST_F(SpillSemanticsTest, CountBugQueryMergeJoinExternalSortsExactly) {
  Database db;
  CountBugConfig config;
  config.num_r = 100;
  config.num_s = 24000;
  config.match_fraction = 0.5;
  config.domain_scale = 64;
  TMDB_ASSERT_OK(LoadCountBugTables(&db, config));
  const std::string query =
      "SELECT x FROM R x WHERE x.b = count(SELECT y.d FROM S y "
      "WHERE x.c = y.c)";
  const std::string base = MakeSpillBase("mj-e2e");

  RunOptions unbudgeted = Opts(0, false, 1, "");
  unbudgeted.join_impl = JoinImpl::kMerge;
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult reference, db.Run(query, unbudgeted));

  // The same budget with spilling off fails fast …
  RunOptions hard = Opts(256 << 10, false, 1, "");
  hard.join_impl = JoinImpl::kMerge;
  auto hard_fail = db.Run(query, hard);
  ASSERT_FALSE(hard_fail.ok());
  EXPECT_EQ(hard_fail.status().code(), StatusCode::kResourceExhausted)
      << hard_fail.status().ToString();

  // … and with spilling on, the merge join degrades to sorted runs on disk
  // and reproduces the in-memory answer bit for bit.
  RunOptions opts = Opts(256 << 10, true, 1, base);
  opts.join_impl = JoinImpl::kMerge;
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult spilled, db.Run(query, opts));
  EXPECT_TRUE(BitIdentical(spilled.rows, reference.rows));
  EXPECT_GT(spilled.stats.spill_sort_runs, 0u)
      << "budget never engaged the external sort: "
      << spilled.stats.ToString();
  EXPECT_EQ(spilled.stats.rows_emitted, reference.stats.rows_emitted);
  EXPECT_TRUE(SpillBaseEmpty(base));

  // And the spilled merge-join answer matches the naive reference.
  RunOptions naive;
  naive.strategy = Strategy::kNaive;
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult truth, db.Run(query, naive));
  EXPECT_TRUE(RowsEqual(spilled.rows, truth.rows));
  fs::remove_all(base);
}

// A trip while the merge join merges moves a side's resident sorted rest
// to disk and retries. Just under the least budget the COUNT-bug query
// needs without spill (in the budget sweep's setup), both sides still sort
// in memory and the trip lands in the merge: without spill that is the
// run's failure, with spill the query must pass.
TEST_F(SpillSemanticsTest, CountBugQueryMergeJoinSpillsWhileMerging) {
  Database db;
  CountBugConfig config;
  config.num_r = 120;
  config.num_s = 240;
  TMDB_ASSERT_OK(LoadCountBugTables(&db, config));
  const std::string query =
      "SELECT x FROM R x WHERE x.b = count(SELECT y.d FROM S y "
      "WHERE x.c = y.c)";
  const std::string base = MakeSpillBase("mj-merge-trip");

  RunOptions unbudgeted = Opts(0, false, 1, "");
  unbudgeted.join_impl = JoinImpl::kMerge;
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult reference, db.Run(query, unbudgeted));
  EXPECT_EQ(reference.stats.spill_bytes_written, 0u);

  for (int threads : {1, 4}) {
    for (bool columnar : {false, true}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   (columnar ? " columnar" : " row"));
      auto opts = [&](uint64_t budget, bool spill) {
        RunOptions o = Opts(budget, spill, threads, spill ? base : "");
        o.join_impl = JoinImpl::kMerge;
        o.enable_columnar = columnar;
        return o;
      };
      uint64_t lo = 0;        // fails without spill
      uint64_t hi = 1 << 20;  // succeeds without spill
      while (hi - lo > 64) {
        const uint64_t mid = lo + (hi - lo) / 2;
        (db.Run(query, opts(mid, false)).ok() ? hi : lo) = mid;
      }
      auto hard_fail = db.Run(query, opts(lo, false));
      ASSERT_FALSE(hard_fail.ok());
      EXPECT_NE(hard_fail.status().ToString().find("equal-key run"),
                std::string::npos)
          << "the trip did not land in the merge: "
          << hard_fail.status().ToString();

      TMDB_ASSERT_OK_AND_ASSIGN(QueryResult spilled,
                                db.Run(query, opts(lo, true)));
      EXPECT_TRUE(BitIdentical(spilled.rows, reference.rows));
      EXPECT_GT(spilled.stats.spill_sort_runs, 0u)
          << "budget=" << lo << " never engaged the sorter's spill: "
          << spilled.stats.ToString();
      EXPECT_TRUE(SpillBaseEmpty(base));
    }
  }
  fs::remove_all(base);
}

TEST_F(SpillSemanticsTest, OuterJoinNuStarGroupingSpillsExactly) {
  // Ganski–Wong (outerjoin + ν*): the flat outerjoin and the ν* regrouping
  // must survive partitioning to disk, null-padding drops included. The
  // outerjoin's flat output is resident state no amount of spilling can
  // shed, so the key domain is extra sparse (domain_scale 256) to keep it
  // small while the build side still dwarfs the budget.
  Database db;
  CountBugConfig config;
  config.num_r = 100;
  config.num_s = 24000;
  config.match_fraction = 0.5;
  config.domain_scale = 256;
  TMDB_ASSERT_OK(LoadCountBugTables(&db, config));
  const std::string query =
      "SELECT x FROM R x WHERE x.b = count(SELECT y.d FROM S y "
      "WHERE x.c = y.c)";
  const std::string base = MakeSpillBase("nustar-e2e");

  RunOptions unbudgeted = Opts(0, false, 1, "");
  unbudgeted.strategy = Strategy::kOuterJoin;
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult reference, db.Run(query, unbudgeted));

  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    RunOptions opts = Opts(256 << 10, true, threads, base);
    opts.strategy = Strategy::kOuterJoin;
    TMDB_ASSERT_OK_AND_ASSIGN(QueryResult spilled, db.Run(query, opts));
    EXPECT_TRUE(BitIdentical(spilled.rows, reference.rows));
    EXPECT_GT(spilled.stats.spill_partitions, 0u)
        << "budget never engaged the spill path: "
        << spilled.stats.ToString();
    EXPECT_TRUE(SpillBaseEmpty(base));
  }

  RunOptions naive;
  naive.strategy = Strategy::kNaive;
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult truth, db.Run(query, naive));
  EXPECT_TRUE(RowsEqual(reference.rows, truth.rows));
  fs::remove_all(base);
}

TEST_F(SpillSemanticsTest, MultiLevelSpillReachesDepthTwo) {
  Database db;
  CountBugConfig config;
  config.num_r = 100;
  config.num_s = 24000;
  config.match_fraction = 0.5;
  config.domain_scale = 64;
  TMDB_ASSERT_OK(LoadCountBugTables(&db, config));
  const std::string query =
      "SELECT x FROM R x WHERE x.b = count(SELECT y.d FROM S y "
      "WHERE x.c = y.c)";
  const std::string base = MakeSpillBase("depth");
  // A budget well under the level-0 partition size forces recursion.
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult spilled,
                            db.Run(query, Opts(192 << 10, true, 1, base)));
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult unbudgeted,
                            db.Run(query, Opts(0, false, 1, "")));
  EXPECT_TRUE(BitIdentical(spilled.rows, unbudgeted.rows));
  EXPECT_GE(spilled.stats.spill_max_depth, 2u)
      << spilled.stats.ToString();
  EXPECT_TRUE(SpillBaseEmpty(base));
  fs::remove_all(base);
}

TEST_F(SpillSemanticsTest, IoFaultsSurfaceThroughRunOptions) {
  Database db;
  CountBugConfig config;
  config.num_r = 100;
  config.num_s = 16000;
  config.match_fraction = 0.5;
  config.domain_scale = 32;
  TMDB_ASSERT_OK(LoadCountBugTables(&db, config));
  const std::string query =
      "SELECT x FROM R x WHERE x.b = count(SELECT y.d FROM S y "
      "WHERE x.c = y.c)";
  const std::string base = MakeSpillBase("e2e-fault");

  FaultInjector injector;
  RunOptions opts = Opts(256 << 10, true, 1, base);
  opts.fault_injector = &injector;

  injector.ArmIo(IoFaultKind::kEnospc, 0);  // count only
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult baseline, db.Run(query, opts));
  ASSERT_GT(injector.io_writes_seen(), 0u);

  injector.ArmIo(IoFaultKind::kEnospc, injector.io_writes_seen() / 2 + 1);
  auto poisoned = db.Run(query, opts);
  ASSERT_FALSE(poisoned.ok());
  EXPECT_EQ(poisoned.status().code(), StatusCode::kIoError)
      << poisoned.status().ToString();
  EXPECT_TRUE(SpillBaseEmpty(base));

  injector.DisarmIo();
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult recovered, db.Run(query, opts));
  EXPECT_TRUE(BitIdentical(recovered.rows, baseline.rows));
  EXPECT_TRUE(SpillBaseEmpty(base));
  fs::remove_all(base);
}

// ------------------------------------ phantom-charge regression (NestOp)

/// NestOp's parallel path allocates per-row scratch (keys, hashes, element
/// images) that dies before Open returns. The charge for it must be
/// refunded: a lingering phantom would make the parallel path report far
/// more resident memory than the serial path for the same input, eating
/// budget the spill accounting relies on.
TEST(PhantomChargeTest, NestOpParallelPathRefundsScratch) {
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto table, Table::Create("T", Type::Tuple({{"a", Type::Int()},
                                                  {"b", Type::Int()}})));
  const size_t n = 20000;
  for (size_t i = 0; i < n; ++i) {
    TMDB_ASSERT_OK(table->Insert(
        IntRow({"a", "b"}, {static_cast<int64_t>(i),
                            static_cast<int64_t>(i % 50)})));
  }
  Expr j = Expr::Var("j", table->schema());
  Expr elem = Expr::Must(Expr::Field(j, "a"));

  // Budget high enough to never trip — it only turns on memory tracking.
  GuardLimits limits;
  limits.memory_budget_bytes = 1ull << 30;

  auto measure = [&](bool parallel) -> int64_t {
    NestOp op(PhysicalOpPtr(new TableScanOp(table)), {"b"}, "j", elem, "s",
              /*null_group_to_empty=*/false);
    ExecStats stats;
    QueryGuard guard;
    guard.Reset(limits, &stats, nullptr);
    QuerySched sched(2);
    ExecContext ctx;
    ctx.stats = &stats;
    ctx.guard = &guard;
    ctx.sched = parallel ? &sched : nullptr;
    ctx.num_threads = parallel ? 2 : 1;
    Status s = op.Open(&ctx);
    EXPECT_TRUE(s.ok()) << s.ToString();
    const int64_t used = guard.memory_used();
    op.Close();
    return used;
  };

  const int64_t serial = measure(false);
  const int64_t parallel = measure(true);
  // Identical input, identical output: post-Open residency must match up
  // to noise. The unfixed phantom left ~n·(3·sizeof(Value)+8) extra bytes
  // charged on the parallel path — orders of magnitude over this margin.
  EXPECT_LE(parallel, serial + static_cast<int64_t>(n * 8))
      << "parallel NestOp retains a phantom scratch charge (serial="
      << serial << ", parallel=" << parallel << ")";
}

}  // namespace
}  // namespace tmdb
