// Cross-checks every join implementation (nested-loop, hash, sort-merge)
// against each other in every mode (inner, semi, anti, left-outer, nest
// join), on the paper's Table 1 instance and on random data.

#include <gtest/gtest.h>

#include "base/random.h"
#include "catalog/table.h"
#include "exec/basic_ops.h"
#include "exec/executor.h"
#include "exec/hash_join.h"
#include "exec/merge_join.h"
#include "exec/nested_loop_join.h"
#include "tests/test_util.h"

namespace tmdb {
namespace {

using testutil::IntRow;
using testutil::RowsEqual;

enum class Impl { kNestedLoop, kHash, kMerge };

std::string ImplName(Impl impl) {
  switch (impl) {
    case Impl::kNestedLoop:
      return "NestedLoop";
    case Impl::kHash:
      return "Hash";
    case Impl::kMerge:
      return "Merge";
  }
  return "?";
}

struct JoinCase {
  Impl impl;
  JoinMode mode;
};

std::string CaseName(const ::testing::TestParamInfo<JoinCase>& info) {
  return ImplName(info.param.impl) + JoinModeName(info.param.mode);
}

class JoinOpsTest : public ::testing::TestWithParam<JoinCase> {
 protected:
  void SetUp() override {
    // Paper Table 1: X(e, d) = {(1,1),(2,1),(3,3)}... transcribed:
    // X rows (e, d): (1,1), (2,1)?? — Table 1 shows X with rows keyed e,d
    // and Y(a, b); the nest equijoin is on the *second* attribute.
    TMDB_ASSERT_OK_AND_ASSIGN(
        x_, Table::Create("X", Type::Tuple({{"e", Type::Int()},
                                            {"d", Type::Int()}})));
    TMDB_ASSERT_OK(x_->InsertAll({IntRow({"e", "d"}, {1, 1}),
                                  IntRow({"e", "d"}, {2, 2}),
                                  IntRow({"e", "d"}, {3, 3})}));
    TMDB_ASSERT_OK_AND_ASSIGN(
        y_, Table::Create("Y", Type::Tuple({{"a", Type::Int()},
                                            {"b", Type::Int()}})));
    TMDB_ASSERT_OK(y_->InsertAll({IntRow({"a", "b"}, {1, 1}),
                                  IntRow({"a", "b"}, {2, 1}),
                                  IntRow({"a", "b"}, {3, 3})}));
  }

  /// Builds the join physical op for the given implementation over table
  /// scans of x_/y_ with join predicate x.d = y.b (+ func y for nestjoin).
  /// With `residual`, the predicate also requires x.e <= y.a and the nest
  /// join's G is y.a, so neither the literal-true residual nor the identity
  /// G shortcut applies.
  PhysicalOpPtr MakeJoin(Impl impl, JoinMode mode,
                         std::shared_ptr<Table> left,
                         std::shared_ptr<Table> right,
                         bool residual = false) {
    Expr xv = Expr::Var("x", left->schema());
    Expr yv = Expr::Var("y", right->schema());
    Expr xe = Expr::Must(Expr::Field(xv, left->schema().fields()[0].name));
    Expr xd = Expr::Must(Expr::Field(xv, left->schema().fields()[1].name));
    Expr ya = Expr::Must(Expr::Field(yv, right->schema().fields()[0].name));
    Expr yb = Expr::Must(Expr::Field(yv, right->schema().fields()[1].name));
    Expr rest = residual ? Expr::Must(Expr::Binary(BinaryOp::kLe, xe, ya))
                         : Expr::True();

    JoinSpec spec;
    spec.mode = mode;
    spec.left_var = "x";
    spec.right_var = "y";
    spec.right_type = right->schema();
    spec.func = residual ? ya : yv;  // G = identity (paper's Table 1)
    spec.label = "s";

    PhysicalOpPtr l(new TableScanOp(left));
    PhysicalOpPtr r(new TableScanOp(right));
    switch (impl) {
      case Impl::kNestedLoop: {
        spec.pred = Expr::Must(Expr::Binary(BinaryOp::kEq, xd, yb));
        if (residual) {
          spec.pred = Expr::Must(Expr::Binary(BinaryOp::kAnd, spec.pred, rest));
        }
        return PhysicalOpPtr(
            new NestedLoopJoinOp(std::move(l), std::move(r), std::move(spec)));
      }
      case Impl::kHash: {
        spec.pred = rest;
        return PhysicalOpPtr(new HashJoinOp(std::move(l), std::move(r),
                                            std::move(spec), {xd}, {yb}));
      }
      case Impl::kMerge: {
        spec.pred = rest;
        return PhysicalOpPtr(new MergeJoinOp(std::move(l), std::move(r),
                                             std::move(spec), {xd}, {yb}));
      }
    }
    return nullptr;
  }

  /// 200 X rows against 300 Y rows on join keys drawn from [0, 30]: about
  /// ten matches per left row, so most left rows emit more than three rows.
  void MakeRandomTables(std::shared_ptr<Table>* big_x,
                        std::shared_ptr<Table>* big_y) {
    Random rng(7);
    TMDB_ASSERT_OK_AND_ASSIGN(
        *big_x, Table::Create("BX", Type::Tuple({{"e", Type::Int()},
                                                 {"d", Type::Int()}})));
    TMDB_ASSERT_OK_AND_ASSIGN(
        *big_y, Table::Create("BY", Type::Tuple({{"a", Type::Int()},
                                                 {"b", Type::Int()}})));
    for (int i = 0; i < 200; ++i) {
      TMDB_ASSERT_OK((*big_x)->Insert(
          IntRow({"e", "d"}, {i, rng.UniformInt(0, 30)})));
    }
    for (int i = 0; i < 300; ++i) {
      TMDB_ASSERT_OK((*big_y)->Insert(
          IntRow({"a", "b"}, {i, rng.UniformInt(0, 30)})));
    }
  }

  std::vector<Value> Run(PhysicalOp* op) {
    Executor executor;
    auto rows = executor.RunPhysical(op);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return rows.ok() ? std::move(rows).value() : std::vector<Value>();
  }

  std::shared_ptr<Table> x_;
  std::shared_ptr<Table> y_;
};

TEST_P(JoinOpsTest, MatchesNestedLoopReference) {
  const JoinCase param = GetParam();
  PhysicalOpPtr reference =
      MakeJoin(Impl::kNestedLoop, param.mode, x_, y_);
  PhysicalOpPtr tested = MakeJoin(param.impl, param.mode, x_, y_);
  EXPECT_TRUE(RowsEqual(Run(tested.get()), Run(reference.get())));
}

TEST_P(JoinOpsTest, MatchesNestedLoopReferenceOnRandomData) {
  const JoinCase param = GetParam();
  std::shared_ptr<Table> big_x, big_y;
  MakeRandomTables(&big_x, &big_y);
  PhysicalOpPtr reference =
      MakeJoin(Impl::kNestedLoop, param.mode, big_x, big_y);
  PhysicalOpPtr tested = MakeJoin(param.impl, param.mode, big_x, big_y);
  EXPECT_TRUE(RowsEqual(Run(tested.get()), Run(reference.get())));
}

TEST_P(JoinOpsTest, MatchesNestedLoopReferenceWithResidualAndG) {
  const JoinCase param = GetParam();
  std::shared_ptr<Table> big_x, big_y;
  MakeRandomTables(&big_x, &big_y);
  PhysicalOpPtr reference = MakeJoin(Impl::kNestedLoop, param.mode, big_x,
                                     big_y, /*residual=*/true);
  PhysicalOpPtr tested =
      MakeJoin(param.impl, param.mode, big_x, big_y, /*residual=*/true);
  std::vector<Value> expected = Run(reference.get());
  EXPECT_TRUE(RowsEqual(Run(tested.get()), expected));
  // The residual rejects some key matches: semi and anti both keep rows.
  EXPECT_FALSE(expected.empty());
}

TEST_P(JoinOpsTest, DrainsAtEveryBatchSize) {
  // A consumer may ask for any number of rows per call. Inner and outer
  // left rows here emit about ten rows each, so a drain at 1 or 3 stops
  // inside one left row's output and resumes there.
  const JoinCase param = GetParam();
  std::shared_ptr<Table> big_x, big_y;
  MakeRandomTables(&big_x, &big_y);
  for (bool residual : {false, true}) {
    SCOPED_TRACE(residual ? "residual" : "keys only");
    PhysicalOpPtr op =
        MakeJoin(param.impl, param.mode, big_x, big_y, residual);
    std::vector<Value> rows;
    EXPECT_TRUE(testutil::DrainsAgreeAtEveryBatchSize(op.get(), &rows));
    if (param.mode == JoinMode::kInner || param.mode == JoinMode::kLeftOuter) {
      EXPECT_GT(rows.size(), 3 * big_x->NumRows());
    }
  }
}

TEST_P(JoinOpsTest, EmptyRightInput) {
  const JoinCase param = GetParam();
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto empty_y, Table::Create("EY", Type::Tuple({{"a", Type::Int()},
                                                     {"b", Type::Int()}})));
  PhysicalOpPtr reference =
      MakeJoin(Impl::kNestedLoop, param.mode, x_, empty_y);
  PhysicalOpPtr tested = MakeJoin(param.impl, param.mode, x_, empty_y);
  std::vector<Value> expected = Run(reference.get());
  EXPECT_TRUE(RowsEqual(Run(tested.get()), expected));
  // Sanity on semantics over ∅: anti keeps all, semi/inner keep none,
  // outer pads all, nest join emits every x with s = ∅.
  switch (param.mode) {
    case JoinMode::kAnti:
    case JoinMode::kLeftOuter:
    case JoinMode::kNestJoin:
      EXPECT_EQ(expected.size(), x_->NumRows());
      break;
    case JoinMode::kInner:
    case JoinMode::kSemi:
      EXPECT_TRUE(expected.empty());
      break;
  }
}

TEST_P(JoinOpsTest, EmptyLeftInput) {
  const JoinCase param = GetParam();
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto empty_x, Table::Create("EX", Type::Tuple({{"e", Type::Int()},
                                                     {"d", Type::Int()}})));
  PhysicalOpPtr tested = MakeJoin(param.impl, param.mode, empty_x, y_);
  EXPECT_TRUE(Run(tested.get()).empty());
}

TEST_P(JoinOpsTest, ReopenResetsState) {
  const JoinCase param = GetParam();
  PhysicalOpPtr op = MakeJoin(param.impl, param.mode, x_, y_);
  std::vector<Value> first = Run(op.get());
  std::vector<Value> second = Run(op.get());
  EXPECT_TRUE(RowsEqual(std::move(second), std::move(first)));
}

INSTANTIATE_TEST_SUITE_P(
    AllImplsAllModes, JoinOpsTest,
    ::testing::Values(
        JoinCase{Impl::kNestedLoop, JoinMode::kInner},
        JoinCase{Impl::kNestedLoop, JoinMode::kSemi},
        JoinCase{Impl::kNestedLoop, JoinMode::kAnti},
        JoinCase{Impl::kNestedLoop, JoinMode::kLeftOuter},
        JoinCase{Impl::kNestedLoop, JoinMode::kNestJoin},
        JoinCase{Impl::kHash, JoinMode::kInner},
        JoinCase{Impl::kHash, JoinMode::kSemi},
        JoinCase{Impl::kHash, JoinMode::kAnti},
        JoinCase{Impl::kHash, JoinMode::kLeftOuter},
        JoinCase{Impl::kHash, JoinMode::kNestJoin},
        JoinCase{Impl::kMerge, JoinMode::kInner},
        JoinCase{Impl::kMerge, JoinMode::kSemi},
        JoinCase{Impl::kMerge, JoinMode::kAnti},
        JoinCase{Impl::kMerge, JoinMode::kLeftOuter},
        JoinCase{Impl::kMerge, JoinMode::kNestJoin}),
    CaseName);

// ------------------------------------------------ Table 1, pinned exactly

TEST(Table1Test, NestEquijoinOfPaperInstance) {
  // Table 1 of the paper: X and Y flat relations, nest equijoin on the
  // second attribute with the identity function. The dangling X tuple gets
  // the empty set.
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto x, Table::Create("X", Type::Tuple({{"e", Type::Int()},
                                              {"d", Type::Int()}})));
  TMDB_ASSERT_OK(x->InsertAll({IntRow({"e", "d"}, {1, 1}),
                               IntRow({"e", "d"}, {2, 2}),
                               IntRow({"e", "d"}, {3, 3})}));
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto y, Table::Create("Y", Type::Tuple({{"a", Type::Int()},
                                              {"b", Type::Int()}})));
  TMDB_ASSERT_OK(y->InsertAll({IntRow({"a", "b"}, {1, 1}),
                               IntRow({"a", "b"}, {2, 1}),
                               IntRow({"a", "b"}, {3, 3})}));

  JoinSpec spec;
  spec.mode = JoinMode::kNestJoin;
  spec.left_var = "x";
  spec.right_var = "y";
  spec.right_type = y->schema();
  Expr xv = Expr::Var("x", x->schema());
  Expr yv = Expr::Var("y", y->schema());
  spec.pred = Expr::Must(Expr::Binary(
      BinaryOp::kEq, Expr::Must(Expr::Field(xv, "d")),
      Expr::Must(Expr::Field(yv, "b"))));
  spec.func = yv;
  spec.label = "s";
  NestedLoopJoinOp join(PhysicalOpPtr(new TableScanOp(x)),
                        PhysicalOpPtr(new TableScanOp(y)), std::move(spec));
  Executor executor;
  TMDB_ASSERT_OK_AND_ASSIGN(auto rows, executor.RunPhysical(&join));

  auto y_row = [](int64_t a, int64_t b) { return IntRow({"a", "b"}, {a, b}); };
  std::vector<Value> expected = {
      Value::Tuple({"e", "d", "s"},
                   {Value::Int(1), Value::Int(1),
                    Value::Set({y_row(1, 1), y_row(2, 1)})}),
      Value::Tuple({"e", "d", "s"},
                   {Value::Int(2), Value::Int(2), Value::EmptySet()}),
      Value::Tuple({"e", "d", "s"},
                   {Value::Int(3), Value::Int(3),
                    Value::Set({y_row(3, 3)})}),
  };
  EXPECT_TRUE(RowsEqual(rows, expected));
}

}  // namespace
}  // namespace tmdb
