// Plan validator tests, and a sweep asserting that every
// plan the engine produces — naive and rewritten, across the whole query
// catalog — passes validation.

#include "algebra/validate.h"

#include <gtest/gtest.h>

#include "core/database.h"
#include "tests/test_util.h"

namespace tmdb {
namespace {

class ValidateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TMDB_ASSERT_OK(db_.ExecuteScript(
                       "CREATE TABLE X (a : P(INT), b : INT, c : INT);"
                       "CREATE TABLE Y (a : INT, b : INT)")
                     .status());
  }
  Database db_;
};

TEST_F(ValidateTest, AllStrategiesProduceValidPlans) {
  const char* queries[] = {
      "SELECT x.c FROM X x WHERE x.c IN (SELECT y.a FROM Y y WHERE x.b = y.b)",
      "SELECT x.c FROM X x WHERE x.a SUBSETEQ (SELECT y.a FROM Y y "
      "WHERE x.b = y.b)",
      "SELECT (c = x.c, zs = SELECT y.a FROM Y y WHERE x.b = y.b) FROM X x",
      "SELECT x.c FROM X x WHERE x.a SUBSETEQ (SELECT y.a FROM Y y WHERE "
      "x.b = y.b AND y.a IN (SELECT y2.a FROM Y y2 WHERE y.b = y2.b))",
      "SELECT x.c FROM X x WHERE count(SELECT y.a FROM Y y WHERE x.b = y.b) "
      "= count(SELECT y2.b FROM Y y2 WHERE x.c = y2.a)",
      "UNNEST(SELECT (SELECT (c = x.c, a = y.a) FROM Y y WHERE x.b = y.b) "
      "FROM X x)",
  };
  for (const char* query : queries) {
    for (Strategy strategy :
         {Strategy::kNaive, Strategy::kNestJoin, Strategy::kNestJoinOnly}) {
      TMDB_ASSERT_OK_AND_ASSIGN(LogicalOpPtr plan,
                                db_.Plan(query, strategy));
      TMDB_EXPECT_OK(ValidatePlan(*plan));
    }
  }
}

TEST_F(ValidateTest, BaselinePlansValidate) {
  const std::string query =
      "SELECT x.c FROM X x WHERE x.a SUBSETEQ (SELECT y.a FROM Y y "
      "WHERE x.b = y.b)";
  for (Strategy strategy : {Strategy::kKim, Strategy::kOuterJoin}) {
    TMDB_ASSERT_OK_AND_ASSIGN(LogicalOpPtr plan, db_.Plan(query, strategy));
    TMDB_EXPECT_OK(ValidatePlan(*plan));
  }
}

TEST_F(ValidateTest, DetectsOutOfScopeVariable) {
  // Build a Select whose predicate references a variable the plan never
  // binds.
  TMDB_ASSERT_OK_AND_ASSIGN(auto table, db_.catalog()->GetTable("Y"));
  TMDB_ASSERT_OK_AND_ASSIGN(LogicalOpPtr scan, LogicalOp::Scan(table));
  Expr stray = Expr::Must(Expr::Binary(
      BinaryOp::kGt,
      Expr::Must(Expr::Field(
          Expr::Var("ghost", Type::Tuple({{"k", Type::Int()}})), "k")),
      Expr::Literal(Value::Int(0))));
  TMDB_ASSERT_OK_AND_ASSIGN(LogicalOpPtr bad,
                            LogicalOp::Select(scan, "y", stray));
  Status status = ValidatePlan(*bad);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("ghost"), std::string::npos);
}

TEST_F(ValidateTest, DetectsIncompatibleVariableType) {
  TMDB_ASSERT_OK_AND_ASSIGN(auto table, db_.catalog()->GetTable("Y"));
  TMDB_ASSERT_OK_AND_ASSIGN(LogicalOpPtr scan, LogicalOp::Scan(table));
  // Variable typed with a field Y does not have.
  Expr wrong = Expr::Must(Expr::Binary(
      BinaryOp::kGt,
      Expr::Must(Expr::Field(
          Expr::Var("y", Type::Tuple({{"nope", Type::Int()}})), "nope")),
      Expr::Literal(Value::Int(0))));
  TMDB_ASSERT_OK_AND_ASSIGN(LogicalOpPtr bad,
                            LogicalOp::Select(scan, "y", wrong));
  EXPECT_FALSE(ValidatePlan(*bad).ok());
}

TEST_F(ValidateTest, AcceptsNarrowedVariableTypes) {
  // Rewrites leave references typed with a *prefix* of the actual row —
  // the validator must accept field-subset compatibility.
  TMDB_ASSERT_OK_AND_ASSIGN(auto table, db_.catalog()->GetTable("Y"));
  TMDB_ASSERT_OK_AND_ASSIGN(LogicalOpPtr scan, LogicalOp::Scan(table));
  Expr narrow = Expr::Must(Expr::Binary(
      BinaryOp::kGt,
      Expr::Must(Expr::Field(Expr::Var("y", Type::Tuple({{"a", Type::Int()}})),
                             "a")),
      Expr::Literal(Value::Int(0))));
  TMDB_ASSERT_OK_AND_ASSIGN(LogicalOpPtr plan,
                            LogicalOp::Select(scan, "y", narrow));
  TMDB_EXPECT_OK(ValidatePlan(*plan));
}

}  // namespace
}  // namespace tmdb
