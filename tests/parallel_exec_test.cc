// Determinism tests for intra-operator parallelism: any num_threads must
// produce results *identical* to serial execution — same rows, same order,
// same ExecStats. Also unit-tests the ParallelForMorsels entry point over
// the shared work-stealing scheduler.

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
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
#include "exec/parallel_util.h"
#include "optimizer/planner.h"
#include "sched/scheduler.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace tmdb {
namespace {

using testutil::IntRow;

// ----------------------------------------------------- ParallelForMorsels

TEST(ParallelForMorselsTest, ThrowingBodyBecomesStatusAndSchedulerSurvives) {
  QuerySched sched(4);
  std::vector<MorselRange> morsels = SplitMorsels(100, 4);
  std::atomic<int> calls{0};
  Status status = ParallelForMorsels(
      &sched, /*guard=*/nullptr, morsels,
      [&calls](size_t index, MorselRange) -> Status {
        calls.fetch_add(1, std::memory_order_relaxed);
        if (index == 2) throw std::runtime_error("boom in morsel");
        return Status::OK();
      });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status.ToString();
  EXPECT_NE(status.ToString().find("parallel task threw"), std::string::npos)
      << status.ToString();
  // The shared scheduler must keep serving work after the contained
  // exception — including for the same query registration.
  std::atomic<size_t> covered{0};
  Status after = ParallelForMorsels(
      &sched, /*guard=*/nullptr, SplitMorsels(100, 4),
      [&covered](size_t, MorselRange m) -> Status {
        covered.fetch_add(m.end - m.begin, std::memory_order_relaxed);
        return Status::OK();
      });
  ASSERT_TRUE(after.ok()) << after.ToString();
  EXPECT_EQ(covered.load(), 100u);
}

TEST(ParallelForMorselsTest, FirstErrorInMorselOrderWins) {
  QuerySched sched(4);
  std::vector<MorselRange> morsels = SplitMorsels(64, 4);
  Status status = ParallelForMorsels(
      &sched, /*guard=*/nullptr, morsels,
      [](size_t index, MorselRange) -> Status {
        if (index >= 1) {
          return Status::Internal("morsel " + std::to_string(index));
        }
        return Status::OK();
      });
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("morsel 1"), std::string::npos)
      << status.ToString();
}

TEST(ParallelForMorselsTest, NullSchedRunsInlineAndKeepsFirstError) {
  // sched == nullptr is the serial path: every morsel still runs (so guard
  // checkpoint counts stay deterministic) and the first error in morsel
  // order wins.
  std::vector<MorselRange> morsels = SplitMorsels(4096, 4);
  ASSERT_GT(morsels.size(), 3u);
  std::atomic<int> calls{0};
  Status status = ParallelForMorsels(
      nullptr, /*guard=*/nullptr, morsels,
      [&calls](size_t index, MorselRange) -> Status {
        calls.fetch_add(1, std::memory_order_relaxed);
        if (index == 3 || index == 1) {
          return Status::Internal("morsel " + std::to_string(index));
        }
        return Status::OK();
      });
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("morsel 1"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(calls.load(), static_cast<int>(morsels.size()));
}

TEST(MorselSplitTest, CoversRangeExactlyOnce) {
  for (size_t n : {0u, 1u, 7u, 1000u}) {
    for (int threads : {1, 2, 8}) {
      std::vector<MorselRange> morsels = SplitMorsels(n, threads);
      size_t pos = 0;
      for (const MorselRange& m : morsels) {
        EXPECT_EQ(m.begin, pos);
        EXPECT_LT(m.begin, m.end);
        pos = m.end;
      }
      EXPECT_EQ(pos, n);
    }
  }
}

// ------------------------------------- serial vs parallel exact equality

void ExpectIdentical(const std::vector<Value>& actual,
                     const std::vector<Value>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_TRUE(actual[i].Equals(expected[i]))
        << "row " << i << " differs:\n  parallel = " << actual[i].ToString()
        << "\n  serial   = " << expected[i].ToString();
  }
}

void ExpectSameStats(const ExecStats& a, const ExecStats& b) {
  EXPECT_EQ(a.rows_emitted, b.rows_emitted);
  EXPECT_EQ(a.predicate_evals, b.predicate_evals);
  EXPECT_EQ(a.subplan_evals, b.subplan_evals);
  EXPECT_EQ(a.hash_probes, b.hash_probes);
  EXPECT_EQ(a.rows_built, b.rows_built);
  // Memoization counters are scheduling-independent: misses = distinct
  // correlation keys, hits = acquires − misses, both fixed by the data.
  EXPECT_EQ(a.subplan_cache_hits, b.subplan_cache_hits);
  EXPECT_EQ(a.subplan_cache_misses, b.subplan_cache_misses);
  EXPECT_EQ(a.subplan_cache_evictions, b.subplan_cache_evictions);
}

struct RunOutcome {
  std::vector<Value> rows;
  ExecStats stats;
};

RunOutcome RunWithThreads(PhysicalOp* op, int threads) {
  Executor executor(threads);
  auto rows = executor.RunPhysical(op);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  RunOutcome out;
  if (rows.ok()) out.rows = std::move(rows).value();
  out.stats = executor.stats();
  return out;
}

class ParallelHashJoinTest : public ::testing::TestWithParam<JoinMode> {
 protected:
  void SetUp() override {
    // Table-1-shaped data, scaled up: X(e, d), Y(a, b), equijoin d = b,
    // with dangling rows on both sides and groups of varying size.
    Random rng(11);
    TMDB_ASSERT_OK_AND_ASSIGN(
        x_, Table::Create("X", Type::Tuple({{"e", Type::Int()},
                                            {"d", Type::Int()}})));
    TMDB_ASSERT_OK_AND_ASSIGN(
        y_, Table::Create("Y", Type::Tuple({{"a", Type::Int()},
                                            {"b", Type::Int()}})));
    for (int i = 0; i < 500; ++i) {
      TMDB_ASSERT_OK(x_->Insert(IntRow({"e", "d"},
                                       {i, rng.UniformInt(0, 120)})));
    }
    for (int i = 0; i < 900; ++i) {
      TMDB_ASSERT_OK(y_->Insert(IntRow({"a", "b"},
                                       {i, rng.UniformInt(0, 120)})));
    }
  }

  PhysicalOpPtr MakeHashJoin(JoinMode mode) {
    Expr xv = Expr::Var("x", x_->schema());
    Expr yv = Expr::Var("y", y_->schema());
    Expr xd = Expr::Must(Expr::Field(xv, "d"));
    Expr yb = Expr::Must(Expr::Field(yv, "b"));
    JoinSpec spec;
    spec.mode = mode;
    spec.left_var = "x";
    spec.right_var = "y";
    spec.right_type = y_->schema();
    spec.pred = Expr::True();
    spec.func = yv;
    spec.label = "s";
    return PhysicalOpPtr(new HashJoinOp(
        PhysicalOpPtr(new TableScanOp(x_)), PhysicalOpPtr(new TableScanOp(y_)),
        std::move(spec), {xd}, {yb}));
  }

  std::shared_ptr<Table> x_;
  std::shared_ptr<Table> y_;
};

TEST_P(ParallelHashJoinTest, MatchesSerialExactly) {
  PhysicalOpPtr op = MakeHashJoin(GetParam());
  RunOutcome serial = RunWithThreads(op.get(), 1);
  for (int threads : {2, 4, 8}) {
    RunOutcome parallel = RunWithThreads(op.get(), threads);
    ExpectIdentical(parallel.rows, serial.rows);
    ExpectSameStats(parallel.stats, serial.stats);
  }
}

TEST_P(ParallelHashJoinTest, PoolReusableAfterFailedParallelBuild) {
  // Kill the build mid-flight with an injected fault, then reuse the SAME
  // executor (and pool): the rerun must match a clean serial run exactly.
  PhysicalOpPtr op = MakeHashJoin(GetParam());
  RunOutcome serial = RunWithThreads(op.get(), 1);

  FaultInjector injector;
  Executor executor(4);
  executor.set_fault_injector(&injector);
  injector.ArmNth(0);
  auto sized = executor.RunPhysical(op.get());
  ASSERT_TRUE(sized.ok()) << sized.status().ToString();
  const uint64_t total = injector.checkpoints_seen();
  ASSERT_GT(total, 1u);

  injector.ArmNth(total / 2);
  auto poisoned = executor.RunPhysical(op.get());
  ASSERT_FALSE(poisoned.ok());
  EXPECT_EQ(poisoned.status().code(), StatusCode::kInternal)
      << poisoned.status().ToString();

  injector.Disarm();
  auto recovered = executor.RunPhysical(op.get());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectIdentical(*recovered, serial.rows);
}

/// Emits `total` rows in batches of at most 1000, cycling through 1000
/// distinct rows, so its batches never line up with a probe round.
class ShortBatchSource final : public PhysicalOp {
 public:
  explicit ShortBatchSource(size_t total) : total_(total) {
    for (int i = 0; i < 1000; ++i) {
      cycle_.push_back(IntRow({"e", "d"}, {i, i % 64}));
    }
  }
  Status Open(ExecContext*) override {
    emitted_ = 0;
    return Status::OK();
  }
  Result<size_t> NextBatch(std::vector<Value>* out, size_t max) override {
    const size_t n = std::min({max, size_t{1000}, total_ - emitted_});
    for (size_t i = 0; i < n; ++i) out->push_back(cycle_[emitted_++ % 1000]);
    return n;
  }
  void Close() override {}
  std::string Describe() const override { return "ShortBatchSource"; }
  std::vector<const PhysicalOp*> children() const override { return {}; }

 private:
  size_t total_;
  size_t emitted_ = 0;
  std::vector<Value> cycle_;
};

TEST(ParallelProbeRoundTest, LeftInputLongerThanOneRoundMatchesSerial) {
  // One parallel probe round takes kMaxMorselsPerDispatch ×
  // kMorselTargetRows left rows; a left input one short batch past that
  // needs a second round, over rows the first did not join.
  const size_t round = kMaxMorselsPerDispatch * kMorselTargetRows;
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto y, Table::Create("Y", Type::Tuple({{"a", Type::Int()},
                                              {"b", Type::Int()}})));
  for (int i = 0; i < 32; ++i) {
    TMDB_ASSERT_OK(y->Insert(IntRow({"a", "b"}, {i, 2 * i})));
  }
  Type x_type = Type::Tuple({{"e", Type::Int()}, {"d", Type::Int()}});
  Expr xv = Expr::Var("x", x_type);
  Expr yv = Expr::Var("y", y->schema());
  JoinSpec spec;
  spec.mode = JoinMode::kSemi;
  spec.left_var = "x";
  spec.right_var = "y";
  spec.right_type = y->schema();
  spec.pred = Expr::True();
  HashJoinOp join(PhysicalOpPtr(new ShortBatchSource(round + 700)),
                  PhysicalOpPtr(new TableScanOp(y)), std::move(spec),
                  {Expr::Must(Expr::Field(xv, "d"))},
                  {Expr::Must(Expr::Field(yv, "b"))});
  RunOutcome serial = RunWithThreads(&join, 1);
  ASSERT_EQ(serial.rows.size(), (round + 700) / 2);
  RunOutcome parallel = RunWithThreads(&join, 4);
  ExpectIdentical(parallel.rows, serial.rows);
  ExpectSameStats(parallel.stats, serial.stats);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ParallelHashJoinTest,
    ::testing::Values(JoinMode::kInner, JoinMode::kSemi, JoinMode::kAnti,
                      JoinMode::kLeftOuter, JoinMode::kNestJoin),
    [](const ::testing::TestParamInfo<JoinMode>& info) {
      return JoinModeName(info.param);
    });

// ν and ν* grouping: nest over a scan, and the Section 6 outerjoin-then-ν*
// composition (NULL groups → ∅), both with parallel grouping.

class ParallelNestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Random rng(13);
    TMDB_ASSERT_OK_AND_ASSIGN(
        x_, Table::Create("X", Type::Tuple({{"e", Type::Int()},
                                            {"d", Type::Int()}})));
    TMDB_ASSERT_OK_AND_ASSIGN(
        y_, Table::Create("Y", Type::Tuple({{"a", Type::Int()},
                                            {"b", Type::Int()}})));
    for (int i = 0; i < 400; ++i) {
      TMDB_ASSERT_OK(x_->Insert(IntRow({"e", "d"},
                                       {i, rng.UniformInt(0, 90)})));
    }
    for (int i = 0; i < 800; ++i) {
      TMDB_ASSERT_OK(y_->Insert(IntRow({"a", "b"},
                                       {i, rng.UniformInt(0, 90)})));
    }
  }

  std::shared_ptr<Table> x_;
  std::shared_ptr<Table> y_;
};

TEST_F(ParallelNestTest, PlainNestMatchesSerial) {
  // ν: group Y by b, collecting the a values.
  TMDB_ASSERT_OK_AND_ASSIGN(LogicalOpPtr scan, LogicalOp::Scan(y_));
  Expr yv = Expr::Var("j", y_->schema());
  Expr elem = Expr::Must(Expr::Field(yv, "a"));
  TMDB_ASSERT_OK_AND_ASSIGN(
      LogicalOpPtr nest,
      LogicalOp::Nest(std::move(scan), {"b"}, "j", elem, "s",
                      /*null_group_to_empty=*/false));
  Planner planner;
  TMDB_ASSERT_OK_AND_ASSIGN(PhysicalOpPtr plan, planner.Plan(nest));
  RunOutcome serial = RunWithThreads(plan.get(), 1);
  for (int threads : {2, 4, 8}) {
    RunOutcome parallel = RunWithThreads(plan.get(), threads);
    ExpectIdentical(parallel.rows, serial.rows);
    ExpectSameStats(parallel.stats, serial.stats);
  }
}

TEST_F(ParallelNestTest, OuterJoinThenNestStarMatchesSerial) {
  // ν*(X ⟖ Y): the Section 6 equivalent of the nest join; dangling X rows
  // must come out with s = ∅, not {NULL}, under every thread count.
  TMDB_ASSERT_OK_AND_ASSIGN(LogicalOpPtr xs, LogicalOp::Scan(x_));
  TMDB_ASSERT_OK_AND_ASSIGN(LogicalOpPtr ys, LogicalOp::Scan(y_));
  Expr xv = Expr::Var("x", x_->schema());
  Expr yv = Expr::Var("y", y_->schema());
  Expr pred = Expr::Must(Expr::Binary(BinaryOp::kEq,
                                      Expr::Must(Expr::Field(xv, "d")),
                                      Expr::Must(Expr::Field(yv, "b"))));
  TMDB_ASSERT_OK_AND_ASSIGN(
      LogicalOpPtr joined,
      LogicalOp::OuterJoin(std::move(xs), std::move(ys), "x", "y", pred));
  Expr j = Expr::Var("j", joined->output_type());
  Expr elem = Expr::Must(Expr::MakeTuple(
      {"a", "b"}, {Expr::Must(Expr::Field(j, "a")),
                   Expr::Must(Expr::Field(j, "b"))}));
  TMDB_ASSERT_OK_AND_ASSIGN(
      LogicalOpPtr nest,
      LogicalOp::Nest(std::move(joined), {"e", "d"}, "j", elem, "s",
                      /*null_group_to_empty=*/true));

  PlannerOptions options;
  options.join_impl = JoinImpl::kHash;
  Planner planner(options);
  TMDB_ASSERT_OK_AND_ASSIGN(PhysicalOpPtr plan, planner.Plan(nest));
  RunOutcome serial = RunWithThreads(plan.get(), 1);
  for (int threads : {2, 4, 8}) {
    RunOutcome parallel = RunWithThreads(plan.get(), threads);
    ExpectIdentical(parallel.rows, serial.rows);
    ExpectSameStats(parallel.stats, serial.stats);
  }
}

// --------------------------------------- end-to-end: Section 8 pipeline

TEST(ParallelPipelineTest, Section8MatchesSerial) {
  Database db;
  Section8Config config;
  config.num_x = 60;
  config.num_y = 120;
  config.num_z = 240;
  config.b_domain = 31;
  config.d_domain = 61;
  config.seed = 44;
  TMDB_ASSERT_OK(LoadSection8Tables(&db, config));

  const char* kQueries[] = {
      // Three-block subset pipeline: two nest joins (steps (1)-(4)).
      "SELECT x FROM X x WHERE x.a SUBSETEQ ("
      "SELECT y.a FROM Y y WHERE x.b = y.b AND y.c SUBSETEQ ("
      "SELECT z.c FROM Z z WHERE y.d = z.d))",
      // Membership variant: semijoin + antijoin.
      "SELECT x FROM X x WHERE 2 IN ("
      "SELECT y.a FROM Y y WHERE x.b = y.b AND 3 NOT IN ("
      "SELECT z.c FROM Z z WHERE y.d = z.d))",
  };
  for (const char* query : kQueries) {
    RunOptions serial_options;
    serial_options.strategy = Strategy::kNestJoin;
    TMDB_ASSERT_OK_AND_ASSIGN(QueryResult serial,
                              db.Run(query, serial_options));
    for (int threads : {2, 4, 8}) {
      RunOptions options;
      options.strategy = Strategy::kNestJoin;
      options.num_threads = threads;
      TMDB_ASSERT_OK_AND_ASSIGN(QueryResult parallel, db.Run(query, options));
      ExpectIdentical(parallel.rows, serial.rows);
    }
  }
}

// ------------------ nest join: one set per slot, any threads and budget
//
// A nest join with a literal-true residual and a G that reads neither x nor
// a subplan builds one set per build key and shares it between probes. The
// shape must not depend on the thread count or the memory budget: rows and
// stats equal the serial unbudgeted run everywhere.

TEST(NestJoinSlotSetTest, PaperShapesUnderTheServiceSliceMatchSerial) {
  Database db;
  CountBugConfig rs;
  rs.num_r = 400;
  rs.num_s = 800;
  rs.seed = 21;
  TMDB_ASSERT_OK(LoadCountBugTables(&db, rs));
  CompanyConfig company;
  company.num_depts = 20;
  company.num_emps = 300;
  company.seed = 22;
  TMDB_ASSERT_OK(LoadCompanyTables(&db, company));
  const char* kQueries[] = {
      // The COUNT-bug shape: G = y.d.
      "SELECT x FROM R x WHERE x.b = count(SELECT y.d FROM S y "
      "WHERE x.c = y.c)",
      // Company Q2: G = e.name.
      "SELECT (dname = d.dname, emps = SELECT e.name FROM EMP e "
      "WHERE e.address.city = d.address.city) FROM DEPT d",
  };
  for (const char* query : kQueries) {
    SCOPED_TRACE(query);
    RunOptions serial_options;
    serial_options.strategy = Strategy::kNestJoin;
    TMDB_ASSERT_OK_AND_ASSIGN(QueryResult serial,
                              db.Run(query, serial_options));
    ASSERT_FALSE(serial.rows.empty());
    for (int threads : {1, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      RunOptions options = serial_options;
      options.num_threads = threads;
      options.memory_budget_bytes = 32ull << 20;
      TMDB_ASSERT_OK_AND_ASSIGN(QueryResult run, db.Run(query, options));
      ExpectIdentical(run.rows, serial.rows);
      ExpectSameStats(run.stats, serial.stats);
    }
  }
}

class NestJoinSlotSetOpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Random rng(19);
    TMDB_ASSERT_OK_AND_ASSIGN(
        x_, Table::Create("X", Type::Tuple({{"e", Type::Int()},
                                            {"d", Type::Int()}})));
    TMDB_ASSERT_OK_AND_ASSIGN(
        y_, Table::Create("Y", Type::Tuple({{"a", Type::Int()},
                                            {"b", Type::Int()}})));
    for (int i = 0; i < 3000; ++i) {
      TMDB_ASSERT_OK(x_->Insert(IntRow({"e", "d"},
                                       {i, rng.UniformInt(0, 60)})));
    }
    for (int i = 0; i < 900; ++i) {
      // b = 7 only on row 0, so a G that divides by (b - 7) fails on one
      // build row.
      TMDB_ASSERT_OK(y_->Insert(
          IntRow({"a", "b"}, {i, i == 0 ? 7 : 8 + rng.UniformInt(0, 60)})));
    }
  }

  /// X ▵ Y on x.d = y.b with G = `func` over y.
  PhysicalOpPtr MakeNestJoin(const std::function<Expr(const Expr&)>& func) {
    Expr xv = Expr::Var("x", x_->schema());
    Expr yv = Expr::Var("y", y_->schema());
    JoinSpec spec;
    spec.mode = JoinMode::kNestJoin;
    spec.left_var = "x";
    spec.right_var = "y";
    spec.right_type = y_->schema();
    spec.pred = Expr::True();
    spec.func = func(yv);
    spec.label = "s";
    return PhysicalOpPtr(new HashJoinOp(
        PhysicalOpPtr(new TableScanOp(x_)), PhysicalOpPtr(new TableScanOp(y_)),
        std::move(spec), {Expr::Must(Expr::Field(xv, "d"))},
        {Expr::Must(Expr::Field(yv, "b"))}));
  }

  static Result<std::vector<Value>> Run(PhysicalOp* op, int threads,
                                        uint64_t budget, ExecStats* stats) {
    Executor executor(threads);
    GuardLimits limits;
    limits.memory_budget_bytes = budget;
    executor.set_limits(limits);
    Result<std::vector<Value>> rows = executor.RunPhysical(op);
    *stats = executor.stats();
    return rows;
  }

  std::shared_ptr<Table> x_;
  std::shared_ptr<Table> y_;
};

TEST_F(NestJoinSlotSetOpTest, ProbesOfOneKeyShareOneSet) {
  PhysicalOpPtr op = MakeNestJoin(
      [](const Expr& y) { return Expr::Must(Expr::Field(y, "a")); });
  ExecStats serial_stats;
  TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> serial,
                            Run(op.get(), 1, 0, &serial_stats));
  for (int threads : {1, 4}) {
    for (uint64_t budget : {uint64_t{0}, uint64_t{32} << 20}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " budget=" + std::to_string(budget));
      ExecStats stats;
      TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> rows,
                                Run(op.get(), threads, budget, &stats));
      ExpectIdentical(rows, serial);
      ExpectSameStats(stats, serial_stats);
      // Every left row with the same key holds the very same set.
      std::map<int64_t, const std::vector<Value>*> first;
      size_t shared = 0;
      for (const Value& row : rows) {
        const Value& set = *row.FindField("s");
        if (set.NumElements() == 0) continue;
        auto [it, inserted] =
            first.emplace(row.FindField("d")->AsInt(), &set.Elements());
        if (!inserted) {
          ASSERT_EQ(it->second, &set.Elements());
          ++shared;
        }
      }
      EXPECT_GT(shared, 1000u);
    }
  }
}

TEST_F(NestJoinSlotSetOpTest, FailingGReturnsTheSameStatusAtAnyThreadCount) {
  // G = y.a / (y.b - 7) divides by zero on one build row; the probes of its
  // slot all meet the error, and the query fails the same way everywhere.
  PhysicalOpPtr op = MakeNestJoin([](const Expr& y) {
    Expr denom = Expr::Must(
        Expr::Binary(BinaryOp::kSub, Expr::Must(Expr::Field(y, "b")),
                     Expr::Literal(Value::Int(7))));
    return Expr::Must(Expr::Binary(BinaryOp::kDiv,
                                   Expr::Must(Expr::Field(y, "a")), denom));
  });
  // Some left row must probe key 7, or nothing fails.
  TMDB_ASSERT_OK(x_->Insert(IntRow({"e", "d"}, {5000, 7})));
  ExecStats stats;
  Result<std::vector<Value>> serial = Run(op.get(), 1, 0, &stats);
  ASSERT_FALSE(serial.ok());
  EXPECT_EQ(serial.status().code(), StatusCode::kInvalidArgument);
  for (int threads : {1, 4}) {
    for (uint64_t budget : {uint64_t{0}, uint64_t{32} << 20}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " budget=" + std::to_string(budget));
      Result<std::vector<Value>> run = Run(op.get(), threads, budget, &stats);
      ASSERT_FALSE(run.ok());
      EXPECT_EQ(run.status().ToString(), serial.status().ToString());
    }
  }
}

// Reopening a parallel op must reset all materialised state.

// ----------------------- correlated subplans inside parallel operators
//
// These plans embed kSubplan expressions in hash-join keys, probe
// predicates, and nest element functions — the sites that used to force a
// serial fallback. Workers now evaluate them through per-morsel forked
// SubplanRunners sharing one memo cache, so every thread count must still
// be bit-identical to serial, stats included.

class SubplanParallelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Random rng(17);
    TMDB_ASSERT_OK_AND_ASSIGN(
        x_, Table::Create("X", Type::Tuple({{"e", Type::Int()},
                                            {"d", Type::Int()}})));
    TMDB_ASSERT_OK_AND_ASSIGN(
        y_, Table::Create("Y", Type::Tuple({{"a", Type::Int()},
                                            {"b", Type::Int()}})));
    TMDB_ASSERT_OK_AND_ASSIGN(
        z_, Table::Create("Z", Type::Tuple({{"k", Type::Int()},
                                            {"v", Type::Int()}})));
    for (int i = 0; i < 300; ++i) {
      TMDB_ASSERT_OK(x_->Insert(IntRow({"e", "d"},
                                       {i, rng.UniformInt(0, 40)})));
    }
    for (int i = 0; i < 500; ++i) {
      TMDB_ASSERT_OK(y_->Insert(IntRow({"a", "b"},
                                       {i, rng.UniformInt(0, 40)})));
    }
    for (int i = 0; i < 150; ++i) {
      // Unique rows (tables are sets): k cycles the join domain, v tags i.
      TMDB_ASSERT_OK(z_->Insert(IntRow({"k", "v"}, {i % 41, i})));
    }
  }

  /// SELECT z.v FROM Z z WHERE z.k = `outer_field` — a subplan correlated
  /// on the outer variable `outer_var`, of type P(INT).
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

  /// Hash join whose build/probe keys count a correlated subplan and whose
  /// residual predicate tests membership in another — the exact shapes the
  /// old AnyHasSubplan gate forced serial.
  PhysicalOpPtr MakeSubplanHashJoin(JoinMode mode) {
    Expr xv = Expr::Var("x", x_->schema());
    Expr yv = Expr::Var("y", y_->schema());
    Expr left_key = Expr::Must(Expr::Aggregate(
        AggFunc::kCount, MakeSubplan("x", Expr::Must(Expr::Field(xv, "d")))));
    Expr right_key = Expr::Must(Expr::Aggregate(
        AggFunc::kCount, MakeSubplan("y", Expr::Must(Expr::Field(yv, "b")))));
    JoinSpec spec;
    spec.mode = mode;
    spec.left_var = "x";
    spec.right_var = "y";
    spec.right_type = y_->schema();
    spec.pred = Expr::Must(Expr::Binary(
        BinaryOp::kIn, Expr::Must(Expr::Field(yv, "b")),
        MakeSubplan("x", Expr::Must(Expr::Field(xv, "d")))));
    spec.func = yv;
    spec.label = "s";
    return PhysicalOpPtr(new HashJoinOp(
        PhysicalOpPtr(new TableScanOp(x_)), PhysicalOpPtr(new TableScanOp(y_)),
        std::move(spec), {left_key}, {right_key}));
  }

  std::shared_ptr<Table> x_;
  std::shared_ptr<Table> y_;
  std::shared_ptr<Table> z_;
};

TEST_F(SubplanParallelTest, HashJoinWithSubplanKeysAndPredMatchesSerial) {
  for (JoinMode mode : {JoinMode::kInner, JoinMode::kNestJoin}) {
    SCOPED_TRACE(JoinModeName(mode));
    PhysicalOpPtr op = MakeSubplanHashJoin(mode);
    RunOutcome serial = RunWithThreads(op.get(), 1);
    EXPECT_GT(serial.stats.subplan_cache_hits, 0u);
    for (int threads : {2, 4, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      RunOutcome parallel = RunWithThreads(op.get(), threads);
      ExpectIdentical(parallel.rows, serial.rows);
      ExpectSameStats(parallel.stats, serial.stats);
    }
  }
}

TEST_F(SubplanParallelTest, HashJoinWithSubplansAndCacheOffMatchesSerial) {
  PhysicalOpPtr op = MakeSubplanHashJoin(JoinMode::kNestJoin);
  auto run = [&](int threads) {
    Executor executor(threads);
    executor.set_subplan_cache_bytes(0);
    auto rows = executor.RunPhysical(op.get());
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    RunOutcome out;
    if (rows.ok()) out.rows = std::move(rows).value();
    out.stats = executor.stats();
    return out;
  };
  RunOutcome serial = run(1);
  EXPECT_EQ(serial.stats.subplan_cache_hits, 0u);
  EXPECT_EQ(serial.stats.subplan_cache_misses, 0u);
  for (int threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    RunOutcome parallel = run(threads);
    ExpectIdentical(parallel.rows, serial.rows);
    ExpectSameStats(parallel.stats, serial.stats);
  }
}

TEST_F(SubplanParallelTest, NestWithSubplanElemMatchesSerial) {
  // ν grouping Y by b where the collected element is itself a correlated
  // subquery result — the old ExprHasSubplan gate in NestOp.
  TMDB_ASSERT_OK_AND_ASSIGN(LogicalOpPtr scan, LogicalOp::Scan(y_));
  Expr j = Expr::Var("j", y_->schema());
  Expr elem = MakeSubplan("j", Expr::Must(Expr::Field(j, "b")));
  TMDB_ASSERT_OK_AND_ASSIGN(
      LogicalOpPtr nest,
      LogicalOp::Nest(std::move(scan), {"b"}, "j", elem, "s",
                      /*null_group_to_empty=*/false));
  Planner planner;
  TMDB_ASSERT_OK_AND_ASSIGN(PhysicalOpPtr plan, planner.Plan(nest));
  RunOutcome serial = RunWithThreads(plan.get(), 1);
  EXPECT_GT(serial.stats.subplan_cache_hits, 0u);
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    RunOutcome parallel = RunWithThreads(plan.get(), threads);
    ExpectIdentical(parallel.rows, serial.rows);
    ExpectSameStats(parallel.stats, serial.stats);
  }
}

// End to end: the COUNT-bug and SUBSETEQ-bug query shapes through
// Database::Run, threads {1, 2, 4} × cache on/off × naive and nest-join
// strategies. Rows must be bit-identical everywhere; stats must not depend
// on the thread count for a fixed configuration.

TEST(SubplanParallelE2eTest, CorrelatedShapesAcrossThreadsAndCacheModes) {
  Database db;
  CountBugConfig rs;
  rs.num_r = 80;
  rs.num_s = 160;
  TMDB_ASSERT_OK(LoadCountBugTables(&db, rs));
  SubsetBugConfig xy;
  xy.num_x = 80;
  xy.num_y = 160;
  TMDB_ASSERT_OK(LoadSubsetBugTables(&db, xy));

  const char* kQueries[] = {
      // COUNT-bug shape: aggregate over a correlated subquery.
      "SELECT (b = r.b, n = count(SELECT s.d FROM S s WHERE r.c = s.c)) "
      "FROM R r",
      // SUBSETEQ-bug shape: set comparison against a correlated subquery.
      "SELECT x FROM X x WHERE x.a SUBSETEQ "
      "(SELECT y.a FROM Y y WHERE x.b = y.b)",
  };
  for (const char* query : kQueries) {
    SCOPED_TRACE(query);
    for (Strategy strategy : {Strategy::kNaive, Strategy::kNestJoin}) {
      for (uint64_t cache_bytes : {uint64_t{0}, uint64_t{16} << 20}) {
        SCOPED_TRACE(StrategyName(strategy) + "/cache=" +
                     std::to_string(cache_bytes));
        RunOptions reference_options;
        reference_options.strategy = strategy;
        reference_options.subplan_cache_bytes = cache_bytes;
        TMDB_ASSERT_OK_AND_ASSIGN(QueryResult reference,
                                  db.Run(query, reference_options));
        for (int threads : {2, 4}) {
          RunOptions options = reference_options;
          options.num_threads = threads;
          TMDB_ASSERT_OK_AND_ASSIGN(QueryResult parallel,
                                    db.Run(query, options));
          ExpectIdentical(parallel.rows, reference.rows);
          ExpectSameStats(parallel.stats, reference.stats);
        }
      }
    }
  }
}

TEST_F(ParallelNestTest, ReopenIsDeterministic) {
  TMDB_ASSERT_OK_AND_ASSIGN(LogicalOpPtr xs, LogicalOp::Scan(x_));
  TMDB_ASSERT_OK_AND_ASSIGN(LogicalOpPtr ys, LogicalOp::Scan(y_));
  Expr xv = Expr::Var("x", x_->schema());
  Expr yv = Expr::Var("y", y_->schema());
  Expr pred = Expr::Must(Expr::Binary(BinaryOp::kEq,
                                      Expr::Must(Expr::Field(xv, "d")),
                                      Expr::Must(Expr::Field(yv, "b"))));
  TMDB_ASSERT_OK_AND_ASSIGN(
      LogicalOpPtr nj,
      LogicalOp::NestJoin(std::move(xs), std::move(ys), "x", "y", pred, yv,
                          "s"));
  PlannerOptions options;
  options.join_impl = JoinImpl::kHash;
  Planner planner(options);
  TMDB_ASSERT_OK_AND_ASSIGN(PhysicalOpPtr plan, planner.Plan(nj));

  Executor executor(4);
  TMDB_ASSERT_OK_AND_ASSIGN(auto first, executor.RunPhysical(plan.get()));
  TMDB_ASSERT_OK_AND_ASSIGN(auto second, executor.RunPhysical(plan.get()));
  ExpectIdentical(second, first);
  RunOutcome serial = RunWithThreads(plan.get(), 1);
  ExpectIdentical(first, serial.rows);
}

}  // namespace
}  // namespace tmdb
