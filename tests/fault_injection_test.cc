// Robustness of the executor under resource governance and injected faults:
//  - sweeping a deterministic fault across every guard checkpoint of every
//    operator family must unwind into a clean Status, after which the same
//    executor (and its thread pool) runs the same plan to the correct result;
//  - random (seeded) fault rates must behave the same way;
//  - cancellation is observed within one batch (kExecBatchSize rows) of the
//    flag being set, for every materialising operator family;
//  - RunOptions limits surface end-to-end as kDeadlineExceeded /
//    kResourceExhausted without killing the process or the database.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/subplan.h"
#include "base/fault_injector.h"
#include "base/random.h"
#include "catalog/table.h"
#include "core/database.h"
#include "exec/basic_ops.h"
#include "exec/executor.h"
#include "exec/hash_join.h"
#include "exec/merge_join.h"
#include "exec/nest_op.h"
#include "exec/nested_loop_join.h"
#include "exec/query_guard.h"
#include "optimizer/planner.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace tmdb {
namespace {

namespace fs = std::filesystem;

using testutil::IntRow;

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

// ------------------------------------------------------------ test sources

/// Endless stream of fresh ⟨a, b⟩ tuples. Optionally cancels the query's
/// guard after `cancel_after` rows, from inside the stream — the tightest
/// possible race against the consuming operator's checkpoints.
class EndlessSource final : public PhysicalOp {
 public:
  explicit EndlessSource(uint64_t cancel_after = 0)
      : cancel_after_(cancel_after) {}

  Status Open(ExecContext* ctx) override {
    ctx_ = ctx;
    emitted_ = 0;
    return Status::OK();
  }

  Result<size_t> NextBatch(std::vector<Value>* out, size_t max) override {
    for (size_t i = 0; i < max; ++i) {
      ++emitted_;
      if (emitted_ == cancel_after_ && ctx_ != nullptr &&
          ctx_->guard != nullptr) {
        ctx_->guard->Cancel();
      }
      out->push_back(IntRow({"a", "b"}, {static_cast<int64_t>(emitted_),
                                         static_cast<int64_t>(emitted_ % 37)}));
    }
    return max;
  }

  void Close() override {}
  std::string Describe() const override { return "EndlessSource"; }
  std::vector<const PhysicalOp*> children() const override { return {}; }

  uint64_t emitted() const { return emitted_; }

  static Type RowType() {
    return Type::Tuple({{"a", Type::Int()}, {"b", Type::Int()}});
  }

 private:
  uint64_t cancel_after_;
  ExecContext* ctx_ = nullptr;
  uint64_t emitted_ = 0;
};

// --------------------------------------------- plans over every op family

/// Builds X(e, d) and Y(a, b) with skewed join keys, plus plan factories
/// for each operator family. Sizes are chosen so every plan passes through
/// at least a handful of guard checkpoints without making sweeps slow.
class FaultSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Random rng(23);
    TMDB_ASSERT_OK_AND_ASSIGN(
        x_, Table::Create("X", Type::Tuple({{"e", Type::Int()},
                                            {"d", Type::Int()}})));
    TMDB_ASSERT_OK_AND_ASSIGN(
        y_, Table::Create("Y", Type::Tuple({{"a", Type::Int()},
                                            {"b", Type::Int()}})));
    for (int i = 0; i < 300; ++i) {
      TMDB_ASSERT_OK(x_->Insert(IntRow({"e", "d"},
                                       {i, rng.UniformInt(0, 60)})));
    }
    for (int i = 0; i < 600; ++i) {
      TMDB_ASSERT_OK(y_->Insert(IntRow({"a", "b"},
                                       {i, rng.UniformInt(0, 60)})));
    }
  }

  JoinSpec MakeSpec(JoinMode mode, bool with_pred) const {
    Expr xv = Expr::Var("x", x_->schema());
    Expr yv = Expr::Var("y", y_->schema());
    JoinSpec spec;
    spec.mode = mode;
    spec.left_var = "x";
    spec.right_var = "y";
    spec.right_type = y_->schema();
    spec.pred = with_pred
                    ? Expr::Must(Expr::Binary(
                          BinaryOp::kEq, Expr::Must(Expr::Field(xv, "d")),
                          Expr::Must(Expr::Field(yv, "b"))))
                    : Expr::True();
    spec.func = yv;
    spec.label = "s";
    return spec;
  }

  PhysicalOpPtr MakeHashJoin(JoinMode mode) const {
    Expr xv = Expr::Var("x", x_->schema());
    Expr yv = Expr::Var("y", y_->schema());
    return PhysicalOpPtr(new HashJoinOp(
        PhysicalOpPtr(new TableScanOp(x_)), PhysicalOpPtr(new TableScanOp(y_)),
        MakeSpec(mode, /*with_pred=*/false),
        {Expr::Must(Expr::Field(xv, "d"))},
        {Expr::Must(Expr::Field(yv, "b"))}));
  }

  PhysicalOpPtr MakeMergeJoin(JoinMode mode) const {
    Expr xv = Expr::Var("x", x_->schema());
    Expr yv = Expr::Var("y", y_->schema());
    return PhysicalOpPtr(new MergeJoinOp(
        PhysicalOpPtr(new TableScanOp(x_)), PhysicalOpPtr(new TableScanOp(y_)),
        MakeSpec(mode, /*with_pred=*/false),
        {Expr::Must(Expr::Field(xv, "d"))},
        {Expr::Must(Expr::Field(yv, "b"))}));
  }

  PhysicalOpPtr MakeNestedLoopJoin(JoinMode mode) const {
    return PhysicalOpPtr(new NestedLoopJoinOp(
        PhysicalOpPtr(new TableScanOp(x_)), PhysicalOpPtr(new TableScanOp(y_)),
        MakeSpec(mode, /*with_pred=*/true)));
  }

  /// ν over Y grouped by b, then μ back — covers Nest and Unnest together.
  PhysicalOpPtr MakeNestUnnest() const {
    Expr j = Expr::Var("j", y_->schema());
    Expr elem = Expr::Must(Expr::MakeTuple(
        {"a"}, {Expr::Must(Expr::Field(j, "a"))}));
    PhysicalOpPtr nest(new NestOp(PhysicalOpPtr(new TableScanOp(y_)), {"b"},
                                  "j", elem, "s",
                                  /*null_group_to_empty=*/false));
    return PhysicalOpPtr(new UnnestOp(std::move(nest), "s"));
  }

  /// σ over map over union, minus a filtered copy — Filter, Map, Union and
  /// Difference in one plan.
  PhysicalOpPtr MakeBasicsPipeline() const {
    Expr yv = Expr::Var("y", y_->schema());
    Expr keep = Expr::Must(Expr::Binary(BinaryOp::kLt,
                                        Expr::Must(Expr::Field(yv, "b")),
                                        Expr::Literal(Value::Int(45))));
    PhysicalOpPtr both(new UnionOp(PhysicalOpPtr(new TableScanOp(y_)),
                                   PhysicalOpPtr(new TableScanOp(y_))));
    PhysicalOpPtr filtered(new FilterOp(std::move(both), "y", keep));
    PhysicalOpPtr mapped(new MapOp(std::move(filtered), "y", yv));
    PhysicalOpPtr drop(new FilterOp(
        PhysicalOpPtr(new TableScanOp(y_)), "y",
        Expr::Must(Expr::Binary(BinaryOp::kLt,
                                Expr::Must(Expr::Field(yv, "b")),
                                Expr::Literal(Value::Int(10))))));
    return PhysicalOpPtr(
        new DifferenceOp(std::move(mapped), std::move(drop)));
  }

  std::shared_ptr<Table> x_;
  std::shared_ptr<Table> y_;
};

/// Sweeps ArmNth across (a stride of) every guard checkpoint the plan
/// passes: each armed run must fail with the injected kInternal, and an
/// immediately following disarmed run on the SAME executor must reproduce
/// the baseline — proving the unwind left no partial operator state and the
/// pool is reusable. A nonzero `memory_budget` plus a `spill_base` runs the
/// whole sweep on the spill path instead: the baseline must actually engage
/// it, and every poisoned unwind must leave the spill directory bare.
void SweepInjectionPoints(PhysicalOp* plan, int threads,
                          uint64_t memory_budget = 0,
                          const std::string& spill_base = "") {
  FaultInjector injector;
  Executor executor(threads);
  executor.set_fault_injector(&injector);
  if (memory_budget > 0) {
    GuardLimits limits;
    limits.memory_budget_bytes = memory_budget;
    executor.set_limits(limits);
  }
  if (!spill_base.empty()) {
    executor.set_spill_options(true, spill_base, /*block_bytes=*/4096);
  }
  executor.mutable_stats()->Reset();

  injector.ArmNth(0);  // count-only baseline
  auto baseline = executor.RunPhysical(plan);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const uint64_t total = injector.checkpoints_seen();
  ASSERT_GT(total, 0u) << "plan passed no guard checkpoints";
  if (!spill_base.empty()) {
    ASSERT_GT(executor.stats().spill_partitions +
                  executor.stats().spill_sort_runs,
              0u)
        << "budget never engaged the spill path; stats: "
        << executor.stats().ToString();
  }

  const uint64_t stride = std::max<uint64_t>(1, total / 12);
  for (uint64_t n = 1; n <= total; n += stride) {
    injector.ArmNth(n);
    auto poisoned = executor.RunPhysical(plan);
    ASSERT_FALSE(poisoned.ok())
        << "checkpoint " << n << "/" << total << " did not fire";
    EXPECT_EQ(poisoned.status().code(), StatusCode::kInternal)
        << poisoned.status().ToString();
    EXPECT_NE(poisoned.status().ToString().find("injected fault"),
              std::string::npos)
        << poisoned.status().ToString();
    EXPECT_EQ(injector.faults_fired(), 1u);
    if (!spill_base.empty()) {
      EXPECT_TRUE(SpillBaseEmpty(spill_base))
          << "fault at checkpoint " << n << " leaked spill files";
    }

    injector.Disarm();
    auto recovered = executor.RunPhysical(plan);
    ASSERT_TRUE(recovered.ok())
        << "run after fault at checkpoint " << n
        << " failed: " << recovered.status().ToString();
    ASSERT_EQ(recovered->size(), baseline->size())
        << "partial state leaked across fault at checkpoint " << n;
    for (size_t i = 0; i < recovered->size(); ++i) {
      ASSERT_TRUE((*recovered)[i].Equals((*baseline)[i]))
          << "row " << i << " diverges after fault at checkpoint " << n;
    }
  }
}

TEST_F(FaultSweepTest, HashJoinAllModesAllThreadCounts) {
  for (JoinMode mode : {JoinMode::kInner, JoinMode::kSemi, JoinMode::kAnti,
                        JoinMode::kLeftOuter, JoinMode::kNestJoin}) {
    PhysicalOpPtr plan = MakeHashJoin(mode);
    for (int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE(JoinModeName(mode) + "/threads=" +
                   std::to_string(threads));
      SweepInjectionPoints(plan.get(), threads);
    }
  }
}

TEST_F(FaultSweepTest, NestedLoopJoin) {
  // The NL join is serial; inner/nestjoin cover both emission shapes.
  for (JoinMode mode : {JoinMode::kInner, JoinMode::kNestJoin}) {
    PhysicalOpPtr plan = MakeNestedLoopJoin(mode);
    SCOPED_TRACE(JoinModeName(mode));
    SweepInjectionPoints(plan.get(), 1);
  }
}

TEST_F(FaultSweepTest, MergeJoin) {
  for (JoinMode mode : {JoinMode::kInner, JoinMode::kNestJoin}) {
    PhysicalOpPtr plan = MakeMergeJoin(mode);
    SCOPED_TRACE(JoinModeName(mode));
    SweepInjectionPoints(plan.get(), 1);
  }
}

TEST_F(FaultSweepTest, NestAndUnnest) {
  PhysicalOpPtr plan = MakeNestUnnest();
  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SweepInjectionPoints(plan.get(), threads);
  }
}

TEST_F(FaultSweepTest, FilterMapUnionDifference) {
  PhysicalOpPtr plan = MakeBasicsPipeline();
  SweepInjectionPoints(plan.get(), 1);
}

// ------------------------------------ subplan and cache checkpoints

/// Plans whose expressions embed correlated subplans: every evaluation
/// passes the subplan-entry checkpoint, every memoized insertion passes the
/// cache-insertion checkpoint (the GuardReservation charge), and the inner
/// plan adds its own per-batch checkpoints. The sweep must reach all of
/// them: an injected fault mid-eviction or mid-subplan unwinds into the
/// same clean kInternal, and the executor (cache included) is reusable.
class SubplanFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Random rng(29);
    TMDB_ASSERT_OK_AND_ASSIGN(
        x_, Table::Create("X", Type::Tuple({{"e", Type::Int()},
                                            {"d", Type::Int()}})));
    TMDB_ASSERT_OK_AND_ASSIGN(
        z_, Table::Create("Z", Type::Tuple({{"k", Type::Int()},
                                            {"v", Type::Int()}})));
    for (int i = 0; i < 120; ++i) {
      TMDB_ASSERT_OK(x_->Insert(IntRow({"e", "d"},
                                       {i, rng.UniformInt(0, 20)})));
    }
    for (int i = 0; i < 60; ++i) {
      TMDB_ASSERT_OK(z_->Insert(IntRow({"k", "v"}, {i % 21, i})));
    }
  }

  /// SELECT z.v FROM Z z WHERE z.k = `outer_field`, correlated on
  /// `outer_var`.
  Expr MakeSubplan(const std::string& outer_var, const Expr& outer_field) {
    auto scan = LogicalOp::Scan(z_);
    EXPECT_TRUE(scan.ok());
    Expr zv = Expr::Var("z", z_->schema());
    Expr pred = Expr::Must(Expr::Binary(BinaryOp::kEq,
                                        Expr::Must(Expr::Field(zv, "k")),
                                        outer_field));
    auto select = LogicalOp::Select(std::move(*scan), "z", pred);
    EXPECT_TRUE(select.ok());
    Expr mv = Expr::Var("m", (*select)->output_type());
    auto map = LogicalOp::Map(std::move(*select), "m",
                              Expr::Must(Expr::Field(mv, "v")));
    EXPECT_TRUE(map.ok());
    return PlanSubplan::MakeExpr(std::move(*map), {outer_var});
  }

  /// σ_{x.d ∈ subplan(x)}(X): one subplan evaluation per row, serial.
  PhysicalOpPtr MakeSubplanFilter() {
    Expr xv = Expr::Var("x", x_->schema());
    Expr pred = Expr::Must(Expr::Binary(
        BinaryOp::kIn, Expr::Must(Expr::Field(xv, "d")),
        MakeSubplan("x", Expr::Must(Expr::Field(xv, "d")))));
    return PhysicalOpPtr(
        new FilterOp(PhysicalOpPtr(new TableScanOp(x_)), "x", pred));
  }

  /// Self-join of X with subplan-valued hash keys and a subplan membership
  /// test in the residual predicate — subplans on the build side, the probe
  /// side, and inside parallel morsels.
  PhysicalOpPtr MakeSubplanHashJoin() {
    Expr xv = Expr::Var("x", x_->schema());
    Expr yv = Expr::Var("y", x_->schema());
    Expr left_key = Expr::Must(Expr::Aggregate(
        AggFunc::kCount, MakeSubplan("x", Expr::Must(Expr::Field(xv, "d")))));
    Expr right_key = Expr::Must(Expr::Aggregate(
        AggFunc::kCount, MakeSubplan("y", Expr::Must(Expr::Field(yv, "d")))));
    JoinSpec spec;
    spec.mode = JoinMode::kNestJoin;
    spec.left_var = "x";
    spec.right_var = "y";
    spec.right_type = x_->schema();
    spec.pred = Expr::Must(Expr::Binary(
        BinaryOp::kIn, Expr::Must(Expr::Field(yv, "d")),
        MakeSubplan("x", Expr::Must(Expr::Field(xv, "d")))));
    spec.func = yv;
    spec.label = "s";
    return PhysicalOpPtr(new HashJoinOp(
        PhysicalOpPtr(new TableScanOp(x_)), PhysicalOpPtr(new TableScanOp(x_)),
        std::move(spec), {left_key}, {right_key}));
  }

  std::shared_ptr<Table> x_;
  std::shared_ptr<Table> z_;
};

TEST_F(SubplanFaultTest, FilterWithSubplanPredicate) {
  PhysicalOpPtr plan = MakeSubplanFilter();
  SweepInjectionPoints(plan.get(), 1);
}

TEST_F(SubplanFaultTest, HashJoinWithSubplansAllThreadCounts) {
  PhysicalOpPtr plan = MakeSubplanHashJoin();
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SweepInjectionPoints(plan.get(), threads);
  }
}

TEST_F(SubplanFaultTest, SweepWithCacheDisabledMatchesEnabledRows) {
  // The sweep holds with memoization off too (more checkpoints, no cache
  // insertion sites), and both configurations agree on the result.
  PhysicalOpPtr plan = MakeSubplanFilter();
  Executor cached(1);
  TMDB_ASSERT_OK_AND_ASSIGN(auto cached_rows, cached.RunPhysical(plan.get()));
  Executor uncached(1);
  uncached.set_subplan_cache_bytes(0);
  FaultInjector injector;
  uncached.set_fault_injector(&injector);
  injector.ArmNth(0);
  TMDB_ASSERT_OK_AND_ASSIGN(auto uncached_rows,
                            uncached.RunPhysical(plan.get()));
  ASSERT_EQ(uncached_rows.size(), cached_rows.size());
  for (size_t i = 0; i < cached_rows.size(); ++i) {
    ASSERT_TRUE(uncached_rows[i].Equals(cached_rows[i]));
  }
  const uint64_t total = injector.checkpoints_seen();
  ASSERT_GT(total, 0u);
  const uint64_t stride = std::max<uint64_t>(1, total / 6);
  for (uint64_t n = 1; n <= total; n += stride) {
    injector.ArmNth(n);
    auto poisoned = uncached.RunPhysical(plan.get());
    ASSERT_FALSE(poisoned.ok()) << "checkpoint " << n << " did not fire";
    EXPECT_EQ(poisoned.status().code(), StatusCode::kInternal);
    injector.Disarm();
    auto recovered = uncached.RunPhysical(plan.get());
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    ASSERT_EQ(recovered->size(), cached_rows.size());
  }
}

/// Random fault rates under several seeds: every failing run fails with the
/// injected kInternal (never a crash, never a mangled code), and a disarmed
/// rerun on the same executor matches the clean baseline.
TEST_F(FaultSweepTest, RandomRatesUnwindCleanly) {
  PhysicalOpPtr plan = MakeHashJoin(JoinMode::kNestJoin);
  for (int threads : {1, 4}) {
    FaultInjector injector;
    Executor executor(threads);
    executor.set_fault_injector(&injector);
    auto baseline = executor.RunPhysical(plan.get());
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

    uint64_t total_fired = 0;
    for (uint64_t seed : {3u, 17u, 99u, 1234u}) {
      for (double rate : {0.02, 0.10}) {
        injector.ArmRate(rate, seed);
        auto run = executor.RunPhysical(plan.get());
        if (!run.ok()) {
          EXPECT_EQ(run.status().code(), StatusCode::kInternal)
              << run.status().ToString();
        }
        total_fired += injector.faults_fired();

        injector.Disarm();
        auto recovered = executor.RunPhysical(plan.get());
        ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
        ASSERT_EQ(recovered->size(), baseline->size());
      }
    }
    // At 10% over hundreds of checkpoints at least one fault must fire.
    EXPECT_GT(total_fired, 0u);
  }
}

// ------------------------------------------------------ guard trip timing

/// The guard-checkpoint invariant, observed externally: once Cancel() is
/// set, no operator family pulls more than one batch of further rows from
/// its input before the trip surfaces.
void ExpectPromptCancellation(EndlessSource* source, PhysicalOpPtr plan,
                              uint64_t cancel_after) {
  Executor executor(1);
  auto run = executor.RunPhysical(plan.get());
  ASSERT_FALSE(run.ok()) << "endless plan completed?";
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled)
      << run.status().ToString();
  EXPECT_LE(source->emitted(), cancel_after + kExecBatchSize)
      << "operator ran more than one batch past the cancellation flag";
}

TEST(GuardTripTimingTest, FilterPullPath) {
  const uint64_t kCancelAfter = 2500;
  auto* source = new EndlessSource(kCancelAfter);
  PhysicalOpPtr plan(new FilterOp(PhysicalOpPtr(source), "y", Expr::True()));
  ExpectPromptCancellation(source, std::move(plan), kCancelAfter);
}

TEST(GuardTripTimingTest, HashJoinBuildPhase) {
  const uint64_t kCancelAfter = 2500;
  auto* source = new EndlessSource(kCancelAfter);
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto left, Table::Create("L", Type::Tuple({{"e", Type::Int()},
                                                 {"d", Type::Int()}})));
  TMDB_ASSERT_OK(left->Insert(IntRow({"e", "d"}, {1, 2})));
  Expr xv = Expr::Var("x", left->schema());
  Expr yv = Expr::Var("y", EndlessSource::RowType());
  JoinSpec spec;
  spec.mode = JoinMode::kInner;
  spec.left_var = "x";
  spec.right_var = "y";
  spec.right_type = EndlessSource::RowType();
  spec.pred = Expr::True();
  PhysicalOpPtr plan(new HashJoinOp(
      PhysicalOpPtr(new TableScanOp(left)), PhysicalOpPtr(source),
      std::move(spec), {Expr::Must(Expr::Field(xv, "d"))},
      {Expr::Must(Expr::Field(yv, "b"))}));
  ExpectPromptCancellation(source, std::move(plan), kCancelAfter);
}

TEST(GuardTripTimingTest, NestedLoopJoinBuildPhase) {
  const uint64_t kCancelAfter = 2500;
  auto* source = new EndlessSource(kCancelAfter);
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto left, Table::Create("L", Type::Tuple({{"e", Type::Int()},
                                                 {"d", Type::Int()}})));
  TMDB_ASSERT_OK(left->Insert(IntRow({"e", "d"}, {1, 2})));
  JoinSpec spec;
  spec.mode = JoinMode::kInner;
  spec.left_var = "x";
  spec.right_var = "y";
  spec.right_type = EndlessSource::RowType();
  spec.pred = Expr::True();
  PhysicalOpPtr plan(new NestedLoopJoinOp(
      PhysicalOpPtr(new TableScanOp(left)), PhysicalOpPtr(source),
      std::move(spec)));
  ExpectPromptCancellation(source, std::move(plan), kCancelAfter);
}

TEST(GuardTripTimingTest, MergeJoinSortPhase) {
  const uint64_t kCancelAfter = 2500;
  auto* source = new EndlessSource(kCancelAfter);
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto left, Table::Create("L", Type::Tuple({{"e", Type::Int()},
                                                 {"d", Type::Int()}})));
  TMDB_ASSERT_OK(left->Insert(IntRow({"e", "d"}, {1, 2})));
  Expr xv = Expr::Var("x", left->schema());
  Expr yv = Expr::Var("y", EndlessSource::RowType());
  JoinSpec spec;
  spec.mode = JoinMode::kInner;
  spec.left_var = "x";
  spec.right_var = "y";
  spec.right_type = EndlessSource::RowType();
  spec.pred = Expr::True();
  PhysicalOpPtr plan(new MergeJoinOp(
      PhysicalOpPtr(new TableScanOp(left)), PhysicalOpPtr(source),
      std::move(spec), {Expr::Must(Expr::Field(xv, "d"))},
      {Expr::Must(Expr::Field(yv, "b"))}));
  ExpectPromptCancellation(source, std::move(plan), kCancelAfter);
}

TEST(GuardTripTimingTest, NestBuildPhase) {
  const uint64_t kCancelAfter = 2500;
  auto* source = new EndlessSource(kCancelAfter);
  Expr j = Expr::Var("j", EndlessSource::RowType());
  Expr elem = Expr::Must(Expr::Field(j, "a"));
  PhysicalOpPtr plan(new NestOp(PhysicalOpPtr(source), {"b"}, "j", elem, "s",
                                /*null_group_to_empty=*/false));
  ExpectPromptCancellation(source, std::move(plan), kCancelAfter);
}

TEST(GuardTripTimingTest, CancelFromAnotherThread) {
  auto* source = new EndlessSource(/*cancel_after=*/0);  // never self-cancels
  PhysicalOpPtr plan(
      new FilterOp(PhysicalOpPtr(source), "y", Expr::True()));
  Executor executor(1);
  GuardLimits backstop;  // keeps the test finite even if the cancel is lost
  backstop.timeout_ms = 10000;
  executor.set_limits(backstop);
  std::thread canceller([&executor] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    executor.guard()->Cancel();
  });
  auto run = executor.RunPhysical(plan.get());
  canceller.join();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled)
      << run.status().ToString();
}

// ------------------------------------------------------- executor limits

TEST(ExecutorLimitsTest, DeadlineExceededOnEndlessPlan) {
  auto* source = new EndlessSource();
  PhysicalOpPtr plan(
      new FilterOp(PhysicalOpPtr(source), "y", Expr::True()));
  Executor executor(1);
  GuardLimits limits;
  limits.timeout_ms = 50;
  executor.set_limits(limits);
  auto run = executor.RunPhysical(plan.get());
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded)
      << run.status().ToString();
}

TEST(ExecutorLimitsTest, MaxRowsTripsDeterministically) {
  auto* source = new EndlessSource();
  PhysicalOpPtr plan(
      new FilterOp(PhysicalOpPtr(source), "y", Expr::True()));
  Executor executor(1);
  GuardLimits limits;
  limits.max_rows = 5000;
  executor.set_limits(limits);
  auto run = executor.RunPhysical(plan.get());
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted)
      << run.status().ToString();
  // Processed-row budgets observe the same one-batch bound as cancellation.
  EXPECT_LE(source->emitted(), limits.max_rows + 2 * kExecBatchSize);
}

TEST(ExecutorLimitsTest, MemoryBudgetTripsBeforeTheAllocator) {
  auto* source = new EndlessSource();
  PhysicalOpPtr plan(
      new FilterOp(PhysicalOpPtr(source), "y", Expr::True()));
  Executor executor(1);
  GuardLimits limits;
  limits.memory_budget_bytes = 1 << 20;  // 1 MiB of fresh tuples
  executor.set_limits(limits);
  auto run = executor.RunPhysical(plan.get());
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted)
      << run.status().ToString();
  // A later unlimited run on the same executor is unaffected (tracking
  // baselines reset per run).
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto table, Table::Create("T", Type::Tuple({{"a", Type::Int()}})));
  TMDB_ASSERT_OK(table->Insert(IntRow({"a"}, {1})));
  executor.set_limits(GuardLimits());
  PhysicalOpPtr scan(new TableScanOp(table));
  auto ok_run = executor.RunPhysical(scan.get());
  ASSERT_TRUE(ok_run.ok()) << ok_run.status().ToString();
  EXPECT_EQ(ok_run->size(), 1u);
}

// ------------------------------------------------- end-to-end RunOptions

class DatabaseLimitsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TMDB_ASSERT_OK(db_.ExecuteScript(
                       "CREATE TABLE X (e : INT, d : INT);"
                       "CREATE TABLE Y (a : INT, b : INT)")
                       .status());
    Random rng(31);
    for (int i = 0; i < 60; ++i) {
      TMDB_ASSERT_OK(db_.Insert("X", IntRow({"e", "d"},
                                            {i, rng.UniformInt(0, 12)})));
    }
    for (int i = 0; i < 120; ++i) {
      TMDB_ASSERT_OK(db_.Insert("Y", IntRow({"a", "b"},
                                            {i, rng.UniformInt(0, 12)})));
    }
  }

  static constexpr const char* kQuery =
      "SELECT x.e FROM X x WHERE 1 IN (SELECT y.a FROM Y y WHERE x.d = y.b)";

  Database db_;
};

TEST_F(DatabaseLimitsTest, MaxRowsSurfacesAsResourceExhausted) {
  RunOptions limited;
  limited.max_rows = 10;
  auto run = db_.Run(kQuery, limited);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted)
      << run.status().ToString();

  // The database (catalog included) stays fully usable after the trip.
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult full, db_.Run(kQuery));
  RunOptions generous;
  generous.max_rows = 1000000;
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult under_budget,
                            db_.Run(kQuery, generous));
  EXPECT_TRUE(testutil::RowsEqual(under_budget.rows, full.rows));
}

TEST_F(DatabaseLimitsTest, MemoryBudgetSurfacesAsResourceExhausted) {
  RunOptions limited;
  limited.memory_budget_bytes = 2048;  // far below the build tables
  auto run = db_.Run(kQuery, limited);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted)
      << run.status().ToString();

  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult full, db_.Run(kQuery));
  RunOptions generous;
  generous.memory_budget_bytes = 256ull << 20;
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult under_budget,
                            db_.Run(kQuery, generous));
  EXPECT_TRUE(testutil::RowsEqual(under_budget.rows, full.rows));
}

TEST_F(DatabaseLimitsTest, TimeoutSurfacesAsDeadlineExceeded) {
  // Grow Y until the naive (correlated re-execution) strategy overruns a
  // small timeout; each doubling multiplies the subplan work.
  RunOptions naive;
  naive.strategy = Strategy::kNaive;
  naive.timeout_ms = 5;
  bool tripped = false;
  int next_id = 1000;
  for (int round = 0; round < 8 && !tripped; ++round) {
    auto run = db_.Run(kQuery, naive);
    if (!run.ok()) {
      ASSERT_EQ(run.status().code(), StatusCode::kDeadlineExceeded)
          << run.status().ToString();
      tripped = true;
      break;
    }
    const int grow = 2000 * (1 << round);
    for (int i = 0; i < grow; ++i, ++next_id) {
      TMDB_ASSERT_OK(db_.Insert("Y", IntRow({"a", "b"},
                                            {next_id, next_id % 13})));
    }
  }
  EXPECT_TRUE(tripped) << "timeout never fired despite growing inputs";
  // And the database still answers once the pressure is off.
  TMDB_ASSERT_OK(db_.Run(kQuery).status());
}

TEST_F(DatabaseLimitsTest, FaultInjectorThreadsThroughRunOptions) {
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult baseline, db_.Run(kQuery));

  FaultInjector injector;
  injector.ArmNth(5);
  RunOptions options;
  options.fault_injector = &injector;
  auto poisoned = db_.Run(kQuery, options);
  ASSERT_FALSE(poisoned.ok());
  EXPECT_EQ(poisoned.status().code(), StatusCode::kInternal)
      << poisoned.status().ToString();

  injector.Disarm();
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult recovered, db_.Run(kQuery, options));
  EXPECT_TRUE(testutil::RowsEqual(recovered.rows, baseline.rows));
}

// ------------------------------ spill write-out paths under injected faults

/// Budgeted plans that engage the spill write-out paths — the merge join's
/// external sort and ν's grouped-materialisation spill — with the same
/// shapes as the spill execution tests: inputs that dwarf a 128 KiB budget
/// while the output stays far below it.
class SpillPathFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Random rng(101);
    TMDB_ASSERT_OK_AND_ASSIGN(
        left_, Table::Create("L", Type::Tuple({{"e", Type::Int()},
                                               {"d", Type::Int()}})));
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
    TMDB_ASSERT_OK_AND_ASSIGN(
        t_, Table::Create("T", Type::Tuple({{"a", Type::Int()},
                                            {"b", Type::Int()},
                                            {"c", Type::Int()}})));
    for (int i = 0; i < 12000; ++i) {
      TMDB_ASSERT_OK(t_->Insert(
          IntRow({"a", "b", "c"}, {i, rng.UniformInt(0, 40), i % 5})));
    }
  }

  PhysicalOpPtr MakeMergeJoin() const {
    Expr xv = Expr::Var("x", left_->schema());
    Expr yv = Expr::Var("y", right_->schema());
    JoinSpec spec;
    spec.mode = JoinMode::kNestJoin;
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

  PhysicalOpPtr MakeNest() const {
    Expr j = Expr::Var("j", t_->schema());
    return PhysicalOpPtr(new NestOp(PhysicalOpPtr(new TableScanOp(t_)), {"b"},
                                    "j", Expr::Must(Expr::Field(j, "c")), "s",
                                    /*null_group_to_empty=*/false));
  }

  static constexpr uint64_t kBudget = 128 << 10;

  std::shared_ptr<Table> left_;
  std::shared_ptr<Table> right_;
  std::shared_ptr<Table> t_;
};

TEST_F(SpillPathFaultTest, MergeJoinExternalSortCheckpointSweep) {
  PhysicalOpPtr plan = MakeMergeJoin();
  const std::string base = MakeSpillBase("fault-sort");
  SweepInjectionPoints(plan.get(), 1, kBudget, base);
  fs::remove_all(base);
}

TEST_F(SpillPathFaultTest, NestSpillCheckpointSweepAllThreadCounts) {
  PhysicalOpPtr plan = MakeNest();
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string base =
        MakeSpillBase("fault-nest-t" + std::to_string(threads));
    SweepInjectionPoints(plan.get(), threads, kBudget, base);
    fs::remove_all(base);
  }
}

/// ArmIo sweep over a budgeted plan: every write/read fault must surface as
/// kIoError with nothing left on disk, and a disarmed rerun on the same
/// executor must reproduce the baseline.
void SweepIoFaults(PhysicalOp* plan, int threads, uint64_t budget,
                   const std::string& base) {
  FaultInjector injector;
  Executor executor(threads);
  GuardLimits limits;
  limits.memory_budget_bytes = budget;
  executor.set_limits(limits);
  executor.set_fault_injector(&injector);
  executor.set_spill_options(true, base, 4096);

  injector.ArmIo(IoFaultKind::kShortWrite, 0);  // count only
  auto baseline = executor.RunPhysical(plan);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const uint64_t writes = injector.io_writes_seen();
  const uint64_t reads = injector.io_reads_seen();
  ASSERT_GT(writes, 0u) << "budget never engaged the spill path";
  ASSERT_GT(reads, 0u);

  struct Channel {
    IoFaultKind kind;
    uint64_t ops;
  };
  const Channel channels[] = {{IoFaultKind::kShortWrite, writes},
                              {IoFaultKind::kEnospc, writes},
                              {IoFaultKind::kCorruptRead, reads}};
  for (const Channel& ch : channels) {
    const uint64_t stride = std::max<uint64_t>(1, ch.ops / 5);
    for (uint64_t n = 1; n <= ch.ops; n += stride) {
      SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(ch.kind)) +
                   " n=" + std::to_string(n));
      injector.ArmIo(ch.kind, n);
      auto poisoned = executor.RunPhysical(plan);
      ASSERT_FALSE(poisoned.ok()) << "injected I/O fault did not surface";
      EXPECT_EQ(poisoned.status().code(), StatusCode::kIoError)
          << poisoned.status().ToString();
      EXPECT_TRUE(SpillBaseEmpty(base)) << "fault leaked spill files";

      injector.DisarmIo();
      auto recovered = executor.RunPhysical(plan);
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      ASSERT_EQ(recovered->size(), baseline->size());
      for (size_t i = 0; i < recovered->size(); ++i) {
        ASSERT_TRUE((*recovered)[i].Equals((*baseline)[i]))
            << "row " << i << " diverges after I/O fault";
      }
      EXPECT_TRUE(SpillBaseEmpty(base));
    }
  }
}

TEST_F(SpillPathFaultTest, MergeJoinExternalSortIoFaultSweep) {
  PhysicalOpPtr plan = MakeMergeJoin();
  const std::string base = MakeSpillBase("iofault-sort");
  SweepIoFaults(plan.get(), 1, kBudget, base);
  fs::remove_all(base);
}

TEST_F(SpillPathFaultTest, NestSpillIoFaultSweepSerialAndParallel) {
  PhysicalOpPtr plan = MakeNest();
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string base =
        MakeSpillBase("iofault-nest-t" + std::to_string(threads));
    SweepIoFaults(plan.get(), threads, kBudget, base);
    fs::remove_all(base);
  }
}

// --------------------------- guard trips landing mid-spill, new write paths

TEST_F(SpillPathFaultTest, CancelMidExternalSortUnwindsAndCleansUp) {
  // An endless sort input under a small budget spills runs forever; the
  // cancel lands thousands of rows in, mid write-out.
  auto* source = new EndlessSource(/*cancel_after=*/10000);
  Expr xv = Expr::Var("x", left_->schema());
  Expr yv = Expr::Var("y", EndlessSource::RowType());
  JoinSpec spec;
  spec.mode = JoinMode::kInner;
  spec.left_var = "x";
  spec.right_var = "y";
  spec.right_type = EndlessSource::RowType();
  spec.pred = Expr::True();
  PhysicalOpPtr plan(new MergeJoinOp(
      PhysicalOpPtr(new TableScanOp(left_)), PhysicalOpPtr(source),
      std::move(spec), {Expr::Must(Expr::Field(xv, "d"))},
      {Expr::Must(Expr::Field(yv, "b"))}));

  const std::string base = MakeSpillBase("cancel-sort");
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
      << "cancel landed before the sort spilled — tighten the budget";
  EXPECT_TRUE(SpillBaseEmpty(base)) << "cancellation leaked sort runs";
  fs::remove_all(base);
}

TEST_F(SpillPathFaultTest, DeadlineMidExternalSortSurfaces) {
  auto* source = new EndlessSource();  // never self-cancels
  Expr xv = Expr::Var("x", left_->schema());
  Expr yv = Expr::Var("y", EndlessSource::RowType());
  JoinSpec spec;
  spec.mode = JoinMode::kInner;
  spec.left_var = "x";
  spec.right_var = "y";
  spec.right_type = EndlessSource::RowType();
  spec.pred = Expr::True();
  PhysicalOpPtr plan(new MergeJoinOp(
      PhysicalOpPtr(new TableScanOp(left_)), PhysicalOpPtr(source),
      std::move(spec), {Expr::Must(Expr::Field(xv, "d"))},
      {Expr::Must(Expr::Field(yv, "b"))}));

  const std::string base = MakeSpillBase("deadline-sort");
  Executor executor(1);
  GuardLimits limits;
  limits.memory_budget_bytes = 64 << 10;
  limits.timeout_ms = 100;
  executor.set_limits(limits);
  executor.set_spill_options(true, base, 4096);
  auto run = executor.RunPhysical(plan.get());
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded)
      << run.status().ToString();
  EXPECT_TRUE(SpillBaseEmpty(base)) << "deadline trip leaked sort runs";
  fs::remove_all(base);
}

TEST_F(SpillPathFaultTest, CancelMidNestSpillUnwindsAndCleansUp) {
  // ν over an endless stream grows 37 groups without bound: the budget
  // engages the grouped-materialisation spill, then the cancel lands.
  auto* source = new EndlessSource(/*cancel_after=*/10000);
  Expr j = Expr::Var("j", EndlessSource::RowType());
  PhysicalOpPtr plan(new NestOp(PhysicalOpPtr(source), {"b"}, "j",
                                Expr::Must(Expr::Field(j, "a")), "s",
                                /*null_group_to_empty=*/false));

  const std::string base = MakeSpillBase("cancel-nest");
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
      << "cancel landed before ν spilled — tighten the budget";
  EXPECT_TRUE(SpillBaseEmpty(base)) << "cancellation leaked ν partitions";
  fs::remove_all(base);
}

// ------------------------------- subplan-cache overflow under I/O faults

TEST_F(SubplanFaultTest, CacheOverflowIoFaultsDegradeWithoutFailing) {
  // A 1-byte soft cap over a thrashing key cycle keeps the disk-overflow
  // path hot: constant writes (evictions), reads (fault-ins) and unlinks.
  // Unlike the operator spill paths, every cache I/O failure must DEGRADE —
  // a failed write drops the entry, a corrupt read recomputes — never fail
  // the query, and never change its rows.
  PhysicalOpPtr plan = MakeSubplanFilter();
  const std::string base = MakeSpillBase("iofault-subcache");
  FaultInjector injector;
  Executor executor(1);
  executor.set_subplan_cache_bytes(1);
  executor.set_fault_injector(&injector);
  executor.set_spill_options(true, base, 4096);

  injector.ArmIo(IoFaultKind::kShortWrite, 0);  // count only
  TMDB_ASSERT_OK_AND_ASSIGN(auto baseline, executor.RunPhysical(plan.get()));
  const uint64_t writes = injector.io_writes_seen();
  const uint64_t reads = injector.io_reads_seen();
  const uint64_t unlinks = injector.io_unlinks_seen();
  ASSERT_GT(writes, 0u) << "soft cap never overflowed to disk";
  ASSERT_GT(reads, 0u) << "no overflow entry was ever faulted back in";
  ASSERT_GT(unlinks, 0u);
  EXPECT_TRUE(SpillBaseEmpty(base));

  struct Channel {
    IoFaultKind kind;
    uint64_t ops;
  };
  const Channel channels[] = {{IoFaultKind::kShortWrite, writes},
                              {IoFaultKind::kEnospc, writes},
                              {IoFaultKind::kCorruptRead, reads},
                              {IoFaultKind::kUnlinkFail, unlinks}};
  for (const Channel& ch : channels) {
    const uint64_t stride = std::max<uint64_t>(1, ch.ops / 5);
    for (uint64_t n = 1; n <= ch.ops; n += stride) {
      SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(ch.kind)) +
                   " n=" + std::to_string(n));
      injector.ArmIo(ch.kind, n);
      auto run = executor.RunPhysical(plan.get());
      ASSERT_TRUE(run.ok())
          << "cache overflow I/O fault failed the query: "
          << run.status().ToString();
      ASSERT_EQ(run->size(), baseline.size());
      for (size_t i = 0; i < run->size(); ++i) {
        ASSERT_TRUE((*run)[i].Equals(baseline[i]))
            << "row " << i << " diverges under cache I/O fault";
      }
      EXPECT_EQ(injector.io_faults_fired(), 1u) << "fault never fired";
      EXPECT_TRUE(SpillBaseEmpty(base));
    }
  }
  fs::remove_all(base);
}

// ------------------- strategy = auto under faults and cancellation
//
// The auto path adds two phases in front of ordinary execution — cost-model
// sampling and (after a mid-query switch) a second attempt — and both run
// under the same guard as the query itself. The sweeps below walk a fault
// across the combined checkpoint sequence, so sampling, attempt 1 and the
// re-planned attempt 2 all get poisoned.

class AutoStrategyFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // 10 distinct correlation values over 1000 outer rows: the cost model
    // picks memoized naive, and a 1-byte cache then thrashes it into an
    // adaptive switch at the 64th probe (serial execution).
    CorrelatedConfig config;
    config.num_outer = 1000;
    config.num_inner = 60;
    config.correlation_scale = 10;
    TMDB_ASSERT_OK(LoadCorrelatedTables(&db_, config));
  }

  static RunOptions ThrashAutoOptions(FaultInjector* injector) {
    RunOptions options;
    options.strategy = Strategy::kAuto;
    options.subplan_cache_bytes = 1;
    options.fault_injector = injector;
    return options;
  }

  static void ExpectSameRows(const QueryResult& run,
                             const QueryResult& baseline) {
    ASSERT_EQ(run.rows.size(), baseline.rows.size());
    for (size_t i = 0; i < run.rows.size(); ++i) {
      ASSERT_TRUE(run.rows[i].Equals(baseline.rows[i]))
          << "row " << i << " diverges";
    }
  }

  static constexpr const char* kCorrelated =
      "SELECT (a = o.a, n = count(SELECT i.v FROM I i WHERE o.k = i.k)) "
      "FROM O o";

  Database db_;
  Executor executor_{1};
};

TEST_F(AutoStrategyFaultTest, CheckpointSweepAcrossSamplingAndSwitch) {
  FaultInjector injector;
  const RunOptions options = ThrashAutoOptions(&injector);

  injector.ArmNth(0);  // count-only baseline
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult baseline,
                            db_.Run(kCorrelated, options, &executor_));
  ASSERT_EQ(baseline.stats.strategy_switches, 1u)
      << "thrashing workload no longer triggers the adaptive switch; the "
         "sweep would not cover attempt 2";
  EXPECT_TRUE(baseline.auto_strategy);
  EXPECT_NE(baseline.strategy, Strategy::kNaive);
  const uint64_t total = injector.checkpoints_seen();
  ASSERT_GT(total, 0u);

  const uint64_t stride = std::max<uint64_t>(1, total / 12);
  for (uint64_t n = 1; n <= total; n += stride) {
    SCOPED_TRACE("checkpoint " + std::to_string(n) + " of " +
                 std::to_string(total));
    injector.ArmNth(n);
    auto poisoned = db_.Run(kCorrelated, options, &executor_);
    ASSERT_FALSE(poisoned.ok()) << "checkpoint " << n << " did not fire";
    EXPECT_EQ(poisoned.status().code(), StatusCode::kInternal)
        << poisoned.status().ToString();
    EXPECT_NE(poisoned.status().message().find("injected fault"),
              std::string::npos)
        << "fault surfaced as something other than the injected error: "
        << poisoned.status().ToString();
    EXPECT_EQ(injector.faults_fired(), 1u);

    // The same executor recovers to the exact baseline — including the
    // adaptive switch firing again at the same probe.
    injector.Disarm();
    auto recovered = db_.Run(kCorrelated, options, &executor_);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    ExpectSameRows(*recovered, baseline);
    EXPECT_EQ(recovered->stats.strategy_switches, 1u);
    EXPECT_EQ(recovered->strategy, baseline.strategy);
  }
}

TEST_F(AutoStrategyFaultTest, RandomRatesUnwindCleanly) {
  FaultInjector injector;
  const RunOptions options = ThrashAutoOptions(&injector);
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult baseline,
                            db_.Run(kCorrelated, options, &executor_));

  for (uint64_t seed : {3u, 17u, 99u, 1234u}) {
    for (double rate : {0.002, 0.02}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " rate=" + std::to_string(rate));
      injector.ArmRate(rate, seed);
      auto run = db_.Run(kCorrelated, options, &executor_);
      if (run.ok()) {
        ExpectSameRows(*run, baseline);
      } else {
        EXPECT_EQ(run.status().code(), StatusCode::kInternal)
            << run.status().ToString();
      }

      injector.Disarm();
      auto recovered = db_.Run(kCorrelated, options, &executor_);
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      ExpectSameRows(*recovered, baseline);
    }
  }
}

TEST_F(AutoStrategyFaultTest, CacheOverflowIoFaultsDegradeUnderAuto) {
  // With spill enabled the 1-byte cap overflows entries to disk and faults
  // them back in as hits, so cache I/O runs hot through the auto path.
  // Cache I/O failures must degrade (drop the entry / recompute), never
  // fail the query or change its rows.
  const std::string base = MakeSpillBase("iofault-auto");
  FaultInjector injector;
  RunOptions options = ThrashAutoOptions(&injector);
  options.enable_spill = true;
  options.spill_dir = base;
  options.spill_block_bytes = 4096;

  injector.ArmIo(IoFaultKind::kShortWrite, 0);  // count only
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult baseline,
                            db_.Run(kCorrelated, options, &executor_));
  const uint64_t writes = injector.io_writes_seen();
  const uint64_t reads = injector.io_reads_seen();
  ASSERT_GT(writes, 0u) << "soft cap never overflowed to disk";
  ASSERT_GT(reads, 0u) << "no overflow entry was ever faulted back in";
  EXPECT_TRUE(SpillBaseEmpty(base));

  struct Channel {
    IoFaultKind kind;
    uint64_t ops;
  };
  const Channel channels[] = {{IoFaultKind::kShortWrite, writes},
                              {IoFaultKind::kEnospc, writes},
                              {IoFaultKind::kCorruptRead, reads}};
  for (const Channel& ch : channels) {
    const uint64_t stride = std::max<uint64_t>(1, ch.ops / 4);
    for (uint64_t n = 1; n <= ch.ops; n += stride) {
      SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(ch.kind)) +
                   " n=" + std::to_string(n));
      injector.ArmIo(ch.kind, n);
      auto run = db_.Run(kCorrelated, options, &executor_);
      ASSERT_TRUE(run.ok()) << "cache overflow I/O fault failed the query: "
                            << run.status().ToString();
      ExpectSameRows(*run, baseline);
      EXPECT_TRUE(SpillBaseEmpty(base));
    }
  }
  injector.DisarmIo();
  fs::remove_all(base);
}

TEST_F(AutoStrategyFaultTest, CancelRacingTheAdaptiveSwitchNeverLeaks) {
  // A cancel landing anywhere in the auto pipeline — sampling, attempt 1,
  // the switch unwind, attempt 2 — must surface as kCancelled or lose the
  // race and leave a clean result. kStrategySwitch is an internal control
  // code and must never escape; neither may any other error.
  RunOptions options;
  options.strategy = Strategy::kAuto;
  options.subplan_cache_bytes = 1;
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult baseline,
                            db_.Run(kCorrelated, options, &executor_));
  ASSERT_EQ(baseline.stats.strategy_switches, 1u);

  for (int delay_us : {0, 50, 100, 200, 400, 800, 1600, 3200}) {
    SCOPED_TRACE("delay_us=" + std::to_string(delay_us));
    std::thread canceller([this, delay_us] {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      executor_.guard()->Cancel();
    });
    auto run = db_.Run(kCorrelated, options, &executor_);
    canceller.join();
    if (run.ok()) {
      ExpectSameRows(*run, baseline);
    } else {
      EXPECT_EQ(run.status().code(), StatusCode::kCancelled)
          << run.status().ToString();
      EXPECT_NE(run.status().message().find("query cancelled"),
                std::string::npos)
          << run.status().ToString();
    }

    // The executor is reusable after every outcome.
    auto next = db_.Run(kCorrelated, options, &executor_);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    ExpectSameRows(*next, baseline);
  }
}

// ------------------------------------------------- fault injector itself

TEST(FaultInjectorTest, NthModeFiresExactlyOnce) {
  FaultInjector injector;
  injector.ArmNth(3);
  EXPECT_TRUE(injector.enabled());
  EXPECT_FALSE(injector.ShouldFail());
  EXPECT_FALSE(injector.ShouldFail());
  EXPECT_TRUE(injector.ShouldFail());
  EXPECT_FALSE(injector.ShouldFail());
  EXPECT_EQ(injector.checkpoints_seen(), 4u);
  EXPECT_EQ(injector.faults_fired(), 1u);
}

TEST(FaultInjectorTest, CountOnlyModeNeverFires) {
  FaultInjector injector;
  injector.ArmNth(0);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(injector.ShouldFail());
  EXPECT_EQ(injector.checkpoints_seen(), 100u);
  EXPECT_EQ(injector.faults_fired(), 0u);
}

TEST(FaultInjectorTest, RateModeIsDeterministicPerSeed) {
  auto fire_pattern = [](uint64_t seed) {
    FaultInjector injector;
    injector.ArmRate(0.25, seed);
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) fired.push_back(injector.ShouldFail());
    return fired;
  };
  EXPECT_EQ(fire_pattern(7), fire_pattern(7));
  EXPECT_NE(fire_pattern(7), fire_pattern(8));

  FaultInjector injector;
  injector.ArmRate(0.25, 7);
  for (int i = 0; i < 2000; ++i) injector.ShouldFail();
  // ~500 expected; the hash would have to be badly broken to leave [350,650].
  EXPECT_GT(injector.faults_fired(), 350u);
  EXPECT_LT(injector.faults_fired(), 650u);

  injector.Disarm();
  EXPECT_FALSE(injector.enabled());
}

}  // namespace
}  // namespace tmdb
