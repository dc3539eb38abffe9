// Unit tests for the non-join physical operators: scan, filter, map
// (set-semantics dedup), nest (ν and ν*), unnest (μ), union, difference,
// expr-source, and the work counters.

#include <gtest/gtest.h>

#include "catalog/table.h"
#include "exec/basic_ops.h"
#include "exec/executor.h"
#include "exec/nest_op.h"
#include "tests/test_util.h"
#include "values/value_ops.h"

namespace tmdb {
namespace {

using testutil::IntRow;
using testutil::IntSet;
using testutil::RowsEqual;

class ExecOpsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TMDB_ASSERT_OK_AND_ASSIGN(
        table_, Table::Create("T", Type::Tuple({{"k", Type::Int()},
                                                {"v", Type::Int()}})));
    TMDB_ASSERT_OK(table_->InsertAll({
        IntRow({"k", "v"}, {1, 10}),
        IntRow({"k", "v"}, {1, 20}),
        IntRow({"k", "v"}, {2, 30}),
        IntRow({"k", "v"}, {3, 10}),
    }));
  }

  std::vector<Value> Run(PhysicalOp* op) {
    stats_.Reset();
    ExecContext ctx;
    ctx.stats = &stats_;
    auto rows = CollectRows(op, &ctx);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return rows.ok() ? std::move(rows).value() : std::vector<Value>();
  }

  Expr RowVar() { return Expr::Var("t", table_->schema()); }
  Expr FieldOf(const char* f) {
    return Expr::Must(Expr::Field(RowVar(), f));
  }

  std::shared_ptr<Table> table_;
  ExecStats stats_;
};

TEST_F(ExecOpsTest, TableScanEmitsAllRows) {
  TableScanOp scan(table_);
  EXPECT_EQ(Run(&scan).size(), 4u);
  EXPECT_EQ(stats_.rows_emitted, 4u);
}

TEST_F(ExecOpsTest, FilterCountsPredicateEvals) {
  FilterOp filter(PhysicalOpPtr(new TableScanOp(table_)), "t",
                  Expr::Must(Expr::Binary(BinaryOp::kEq, FieldOf("k"),
                                          Expr::Literal(Value::Int(1)))));
  EXPECT_EQ(Run(&filter).size(), 2u);
  EXPECT_EQ(stats_.predicate_evals, 4u);
}

TEST_F(ExecOpsTest, MapDeduplicates) {
  // Projection onto k produces {1, 2, 3} — set semantics collapse the two
  // k=1 rows.
  MapOp map(PhysicalOpPtr(new TableScanOp(table_)), "t", FieldOf("k"));
  std::vector<Value> rows = Run(&map);
  EXPECT_TRUE(RowsEqual(rows, {Value::Int(1), Value::Int(2), Value::Int(3)}));
}

TEST_F(ExecOpsTest, NestGroupsByAttribute) {
  NestOp nest(PhysicalOpPtr(new TableScanOp(table_)), {"k"}, "t",
              FieldOf("v"), "vs", /*null_group_to_empty=*/false);
  std::vector<Value> rows = Run(&nest);
  EXPECT_TRUE(RowsEqual(
      rows, {Value::Tuple({"k", "vs"}, {Value::Int(1), IntSet({10, 20})}),
             Value::Tuple({"k", "vs"}, {Value::Int(2), IntSet({30})}),
             Value::Tuple({"k", "vs"}, {Value::Int(3), IntSet({10})})}));
}

TEST_F(ExecOpsTest, NestStarDropsNullPadding) {
  // Simulate outerjoin output: one group whose only element is NULL, one
  // whose only element is an all-NULL tuple, one real group.
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto padded,
      Table::Create("P", Type::Tuple({{"k", Type::Int()},
                                      {"p", Type::Tuple({{"q", Type::Int()}})}})));
  TMDB_ASSERT_OK(padded->Insert(Value::Tuple(
      {"k", "p"}, {Value::Int(1),
                   Value::Tuple({"q"}, {Value::Null()})})));
  TMDB_ASSERT_OK(padded->Insert(Value::Tuple(
      {"k", "p"}, {Value::Int(2), Value::Tuple({"q"}, {Value::Int(7)})})));
  Expr row = Expr::Var("t", padded->schema());
  NestOp nest(PhysicalOpPtr(new TableScanOp(padded)), {"k"}, "t",
              Expr::Must(Expr::Field(row, "p")), "ps",
              /*null_group_to_empty=*/true);
  std::vector<Value> rows = Run(&nest);
  EXPECT_TRUE(RowsEqual(
      rows,
      {Value::Tuple({"k", "ps"}, {Value::Int(1), Value::EmptySet()}),
       Value::Tuple({"k", "ps"},
                    {Value::Int(2),
                     Value::Set({Value::Tuple({"q"}, {Value::Int(7)})})})}));
}

TEST_F(ExecOpsTest, UnnestFlattens) {
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto nested,
      Table::Create("N", Type::Tuple(
                             {{"k", Type::Int()},
                              {"s", Type::Set(Type::Tuple(
                                        {{"e", Type::Int()}}))}})));
  auto elem = [](int64_t e) { return Value::Tuple({"e"}, {Value::Int(e)}); };
  TMDB_ASSERT_OK(nested->Insert(Value::Tuple(
      {"k", "s"}, {Value::Int(1), Value::Set({elem(10), elem(11)})})));
  TMDB_ASSERT_OK(nested->Insert(
      Value::Tuple({"k", "s"}, {Value::Int(2), Value::EmptySet()})));
  UnnestOp unnest(PhysicalOpPtr(new TableScanOp(nested)), "s");
  std::vector<Value> rows = Run(&unnest);
  // k=2 vanishes: μ is not information-preserving.
  EXPECT_TRUE(RowsEqual(rows, {IntRow({"k", "e"}, {1, 10}),
                               IntRow({"k", "e"}, {1, 11})}));
}

TEST_F(ExecOpsTest, UnionDeduplicatesAcrossInputs) {
  UnionOp u(PhysicalOpPtr(new TableScanOp(table_)),
            PhysicalOpPtr(new TableScanOp(table_)));
  EXPECT_EQ(Run(&u).size(), 4u);
}

TEST_F(ExecOpsTest, DifferenceRemovesRightRows) {
  FilterOp* right = new FilterOp(
      PhysicalOpPtr(new TableScanOp(table_)), "t",
      Expr::Must(Expr::Binary(BinaryOp::kEq, FieldOf("k"),
                              Expr::Literal(Value::Int(1)))));
  DifferenceOp diff(PhysicalOpPtr(new TableScanOp(table_)),
                    PhysicalOpPtr(right));
  std::vector<Value> rows = Run(&diff);
  EXPECT_TRUE(RowsEqual(rows, {IntRow({"k", "v"}, {2, 30}),
                               IntRow({"k", "v"}, {3, 10})}));
}

TEST_F(ExecOpsTest, ExprSourceIteratesCorrelatedCollection) {
  ExprSourceOp source(Expr::Literal(IntSet({5, 6})));
  std::vector<Value> rows = Run(&source);
  EXPECT_TRUE(RowsEqual(rows, {Value::Int(5), Value::Int(6)}));

  // With a correlation environment.
  Environment env;
  env.Bind("o", Value::Tuple({"s"}, {IntSet({7})}));
  Expr o = Expr::Var("o", Type::Tuple({{"s", Type::Set(Type::Int())}}));
  ExprSourceOp correlated(Expr::Must(Expr::Field(o, "s")));
  ExecContext ctx;
  ctx.outer_env = &env;
  ctx.stats = &stats_;
  TMDB_ASSERT_OK_AND_ASSIGN(auto corr_rows, CollectRows(&correlated, &ctx));
  EXPECT_TRUE(RowsEqual(corr_rows, {Value::Int(7)}));
}

TEST_F(ExecOpsTest, EveryOperatorDrainsAtEveryBatchSize) {
  // A consumer may ask for any number of rows per call; a drain at 1, 3 or
  // kExecBatchSize rows a call must match CollectRows row for row, stats
  // included. 50 rows over 7 keys; each nested set has 5 elements.
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto nested,
      Table::Create("N", Type::Tuple(
                             {{"k", Type::Int()},
                              {"v", Type::Int()},
                              {"s", Type::Set(Type::Tuple(
                                        {{"e", Type::Int()}}))}})));
  for (int64_t i = 0; i < 50; ++i) {
    std::vector<Value> elems;
    for (int64_t e = 0; e < 5; ++e) {
      elems.push_back(Value::Tuple({"e"}, {Value::Int(i * 10 + e)}));
    }
    TMDB_ASSERT_OK(nested->Insert(Value::Tuple(
        {"k", "v", "s"},
        {Value::Int(i % 7), Value::Int(i),
         i % 9 == 0 ? Value::EmptySet() : Value::Set(std::move(elems))})));
  }
  Expr row = Expr::Var("t", nested->schema());
  Expr k = Expr::Must(Expr::Field(row, "k"));
  Expr v = Expr::Must(Expr::Field(row, "v"));
  Expr k_le_3 = Expr::Must(
      Expr::Binary(BinaryOp::kLe, k, Expr::Literal(Value::Int(3))));
  Expr k_ge_2 = Expr::Must(
      Expr::Binary(BinaryOp::kGe, k, Expr::Literal(Value::Int(2))));
  auto scan = [&] { return PhysicalOpPtr(new TableScanOp(nested)); };
  auto filter = [&](const Expr& pred) {
    return PhysicalOpPtr(new FilterOp(scan(), "t", pred));
  };

  struct Case {
    const char* name;
    PhysicalOpPtr op;
    size_t rows;
  };
  std::vector<Case> cases;
  cases.push_back({"scan", scan(), 50});
  cases.push_back({"expr source",
                   PhysicalOpPtr(new ExprSourceOp(Expr::Literal(
                       IntSet({1, 2, 3, 4, 5, 6, 7})))),
                   7});
  cases.push_back({"row filter", filter(k_le_3), 29});
  cases.push_back({"map", PhysicalOpPtr(new MapOp(scan(), "t", k)), 7});
  cases.push_back({"nest",
                   PhysicalOpPtr(new NestOp(scan(), {"k"}, "t", v, "vs",
                                            /*null_group_to_empty=*/false)),
                   7});
  cases.push_back({"unnest", PhysicalOpPtr(new UnnestOp(scan(), "s")), 220});
  cases.push_back(
      {"union", PhysicalOpPtr(new UnionOp(filter(k_le_3), filter(k_ge_2))),
       50});
  cases.push_back({"difference",
                   PhysicalOpPtr(new DifferenceOp(scan(), filter(k_le_3))),
                   21});
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<Value> rows;
    EXPECT_TRUE(testutil::DrainsAgreeAtEveryBatchSize(c.op.get(), &rows));
    EXPECT_EQ(rows.size(), c.rows);
  }
}

TEST_F(ExecOpsTest, ColumnarFilterDrainsAtEveryBatchSize) {
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto flat, Table::Create("F", Type::Tuple({{"k", Type::Int()},
                                                 {"v", Type::Int()}})));
  for (int64_t i = 0; i < 3000; ++i) {
    TMDB_ASSERT_OK(flat->Insert(IntRow({"k", "v"}, {i % 7, i})));
  }
  Expr row = Expr::Var("t", flat->schema());
  Expr pred = Expr::Must(Expr::Binary(BinaryOp::kLe,
                                      Expr::Must(Expr::Field(row, "k")),
                                      Expr::Literal(Value::Int(3))));
  std::optional<ColumnPredicate> cpred =
      ColumnPredicate::Compile(pred, "t", flat->schema());
  ASSERT_TRUE(cpred.has_value());
  FilterOp filter(PhysicalOpPtr(new TableScanOp(flat, /*try_columnar=*/true)),
                  "t", pred, std::move(cpred));
  ExecStats stats;
  ExecContext ctx;
  ctx.stats = &stats;
  TMDB_ASSERT_OK(filter.Open(&ctx));
  EXPECT_TRUE(filter.columnar_ready());
  filter.Close();
  std::vector<Value> rows;
  EXPECT_TRUE(testutil::DrainsAgreeAtEveryBatchSize(&filter, &rows));
  EXPECT_EQ(rows.size(), 1716u);
}

TEST_F(ExecOpsTest, StatsToStringMentionsAllCounters) {
  ExecStats stats;
  stats.rows_emitted = 1;
  const std::string s = stats.ToString();
  EXPECT_NE(s.find("rows_emitted=1"), std::string::npos);
  EXPECT_NE(s.find("predicate_evals"), std::string::npos);
  EXPECT_NE(s.find("subplan_evals"), std::string::npos);
}

TEST_F(ExecOpsTest, PhysicalPlanToString) {
  FilterOp filter(PhysicalOpPtr(new TableScanOp(table_)), "t", Expr::True());
  const std::string rendered = filter.ToString();
  EXPECT_NE(rendered.find("Filter"), std::string::npos);
  EXPECT_NE(rendered.find("TableScan(T)"), std::string::npos);
}

}  // namespace
}  // namespace tmdb
