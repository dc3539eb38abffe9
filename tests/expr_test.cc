#include "expr/expr.h"

#include <gtest/gtest.h>

#include "expr/eval.h"
#include "tests/test_util.h"

namespace tmdb {
namespace {

using testutil::IntSet;

Expr IntLit(int64_t v) { return Expr::Literal(Value::Int(v)); }

TEST(ExprTest, LiteralTypes) {
  EXPECT_TRUE(IntLit(1).type().is_int());
  EXPECT_TRUE(Expr::Literal(Value::Real(1.0)).type().is_real());
  EXPECT_TRUE(Expr::True().type().is_bool());
  EXPECT_TRUE(Expr::Literal(IntSet({1})).type().is_set());
}

TEST(ExprTest, BinaryTypeRules) {
  // arithmetic
  TMDB_ASSERT_OK_AND_ASSIGN(Expr add,
                            Expr::Binary(BinaryOp::kAdd, IntLit(1), IntLit(2)));
  EXPECT_TRUE(add.type().is_int());
  TMDB_ASSERT_OK_AND_ASSIGN(
      Expr addr, Expr::Binary(BinaryOp::kAdd, IntLit(1),
                              Expr::Literal(Value::Real(2.0))));
  EXPECT_TRUE(addr.type().is_real());
  EXPECT_FALSE(Expr::Binary(BinaryOp::kAdd, IntLit(1), Expr::True()).ok());
  // comparison
  TMDB_ASSERT_OK_AND_ASSIGN(Expr lt,
                            Expr::Binary(BinaryOp::kLt, IntLit(1), IntLit(2)));
  EXPECT_TRUE(lt.type().is_bool());
  EXPECT_FALSE(Expr::Binary(BinaryOp::kLt, Expr::True(), IntLit(1)).ok());
  // membership
  TMDB_ASSERT_OK_AND_ASSIGN(
      Expr in, Expr::Binary(BinaryOp::kIn, IntLit(1),
                            Expr::Literal(IntSet({1, 2}))));
  EXPECT_TRUE(in.type().is_bool());
  EXPECT_FALSE(Expr::Binary(BinaryOp::kIn, IntLit(1), IntLit(2)).ok());
  // set algebra
  TMDB_ASSERT_OK_AND_ASSIGN(
      Expr uni, Expr::Binary(BinaryOp::kUnion, Expr::Literal(IntSet({1})),
                             Expr::Literal(IntSet({2}))));
  EXPECT_TRUE(uni.type().is_set());
  EXPECT_FALSE(
      Expr::Binary(BinaryOp::kSubsetEq, IntLit(1), IntLit(2)).ok());
}

TEST(ExprTest, VarAndFieldAccess) {
  Type row = Type::Tuple({{"a", Type::Int()}, {"s", Type::Set(Type::Int())}});
  Expr x = Expr::Var("x", row);
  TMDB_ASSERT_OK_AND_ASSIGN(Expr xa, Expr::Field(x, "a"));
  EXPECT_TRUE(xa.type().is_int());
  EXPECT_EQ(xa.ToString(), "x.a");
  EXPECT_FALSE(Expr::Field(x, "nope").ok());
  EXPECT_FALSE(Expr::Field(IntLit(1), "a").ok());
}

TEST(ExprTest, FieldOfTupleCtorCollapses) {
  TMDB_ASSERT_OK_AND_ASSIGN(
      Expr tuple, Expr::MakeTuple({"a", "b"}, {IntLit(1), IntLit(2)}));
  TMDB_ASSERT_OK_AND_ASSIGN(Expr b, Expr::Field(tuple, "b"));
  EXPECT_TRUE(b.is_literal());
  EXPECT_EQ(b.literal_value().AsInt(), 2);
}

TEST(ExprTest, QuantifierAndAggregateTyping) {
  Expr set = Expr::Literal(IntSet({1, 2, 3}));
  TMDB_ASSERT_OK_AND_ASSIGN(
      Expr pred, Expr::Binary(BinaryOp::kGt, Expr::Var("v", Type::Int()),
                              IntLit(1)));
  TMDB_ASSERT_OK_AND_ASSIGN(
      Expr q, Expr::Quantifier(QuantKind::kExists, "v", set, pred));
  EXPECT_TRUE(q.type().is_bool());
  EXPECT_FALSE(Expr::Quantifier(QuantKind::kExists, "v", IntLit(1),
                                Expr::True())
                   .ok());

  TMDB_ASSERT_OK_AND_ASSIGN(Expr cnt, Expr::Aggregate(AggFunc::kCount, set));
  EXPECT_TRUE(cnt.type().is_int());
  TMDB_ASSERT_OK_AND_ASSIGN(Expr avg, Expr::Aggregate(AggFunc::kAvg, set));
  EXPECT_TRUE(avg.type().is_real());
  EXPECT_FALSE(Expr::Aggregate(AggFunc::kSum, IntLit(1)).ok());
}

TEST(ExprTest, FreeVarsAndShadowing) {
  Type row = Type::Tuple({{"a", Type::Set(Type::Int())}});
  Expr x = Expr::Var("x", row);
  TMDB_ASSERT_OK_AND_ASSIGN(Expr xa, Expr::Field(x, "a"));
  // EXISTS x IN x.a (x = 1): the quantifier variable shadows the outer x
  // inside the body, but the collection sees the outer x.
  TMDB_ASSERT_OK_AND_ASSIGN(
      Expr body, Expr::Binary(BinaryOp::kEq, Expr::Var("x", Type::Int()),
                              IntLit(1)));
  TMDB_ASSERT_OK_AND_ASSIGN(
      Expr q, Expr::Quantifier(QuantKind::kExists, "x", xa, body));
  std::set<std::string> free = q.FreeVars();
  EXPECT_EQ(free, std::set<std::string>{"x"});  // from the collection only
}

TEST(ExprTest, SubstituteIsCaptureAvoiding) {
  // Substituting x inside EXISTS x IN S (x > 0) must not touch the body.
  Expr set = Expr::Literal(IntSet({1}));
  TMDB_ASSERT_OK_AND_ASSIGN(
      Expr body, Expr::Binary(BinaryOp::kGt, Expr::Var("x", Type::Int()),
                              IntLit(0)));
  TMDB_ASSERT_OK_AND_ASSIGN(
      Expr q, Expr::Quantifier(QuantKind::kExists, "x", set, body));
  TMDB_ASSERT_OK_AND_ASSIGN(Expr substituted, q.Substitute("x", IntLit(9)));
  EXPECT_TRUE(substituted.Equals(q));
}

TEST(ExprTest, StructuralEquality) {
  TMDB_ASSERT_OK_AND_ASSIGN(Expr a,
                            Expr::Binary(BinaryOp::kAdd, IntLit(1), IntLit(2)));
  TMDB_ASSERT_OK_AND_ASSIGN(Expr b,
                            Expr::Binary(BinaryOp::kAdd, IntLit(1), IntLit(2)));
  TMDB_ASSERT_OK_AND_ASSIGN(Expr c,
                            Expr::Binary(BinaryOp::kSub, IntLit(1), IntLit(2)));
  EXPECT_TRUE(a.Equals(b));
  EXPECT_FALSE(a.Equals(c));
}

TEST(ExprTest, AndSimplification) {
  Expr t = Expr::True();
  TMDB_ASSERT_OK_AND_ASSIGN(Expr cmp,
                            Expr::Binary(BinaryOp::kLt, IntLit(1), IntLit(2)));
  EXPECT_TRUE(Expr::And(t, cmp).Equals(cmp));
  EXPECT_TRUE(Expr::And(cmp, t).Equals(cmp));
  EXPECT_TRUE(Expr::AndAll({}).Equals(Expr::True()));
}

// ----------------------------------------------------------------- eval

class EvalTest : public ::testing::Test {
 protected:
  Result<Value> Eval(const Expr& e) { return EvalExpr(e, env_); }
  Environment env_;
};

TEST_F(EvalTest, ArithmeticAndComparison) {
  TMDB_ASSERT_OK_AND_ASSIGN(
      Expr e, Expr::Binary(BinaryOp::kMul, IntLit(6), IntLit(7)));
  TMDB_ASSERT_OK_AND_ASSIGN(Value v, Eval(e));
  EXPECT_EQ(v.AsInt(), 42);

  TMDB_ASSERT_OK_AND_ASSIGN(
      Expr cmp, Expr::Binary(BinaryOp::kLe, IntLit(3), IntLit(3)));
  TMDB_ASSERT_OK_AND_ASSIGN(Value b, Eval(cmp));
  EXPECT_TRUE(b.AsBool());
}

TEST_F(EvalTest, ShortCircuitAndOr) {
  // (false AND (1/0 = 1)) must not evaluate the division.
  TMDB_ASSERT_OK_AND_ASSIGN(
      Expr div, Expr::Binary(BinaryOp::kDiv, IntLit(1), IntLit(0)));
  TMDB_ASSERT_OK_AND_ASSIGN(Expr bad,
                            Expr::Binary(BinaryOp::kEq, div, IntLit(1)));
  TMDB_ASSERT_OK_AND_ASSIGN(
      Expr guarded, Expr::Binary(BinaryOp::kAnd, Expr::False(), bad));
  TMDB_ASSERT_OK_AND_ASSIGN(Value v, Eval(guarded));
  EXPECT_FALSE(v.AsBool());
  // Without the guard the error surfaces.
  EXPECT_FALSE(Eval(bad).ok());
  // OR short-circuits symmetrically.
  TMDB_ASSERT_OK_AND_ASSIGN(
      Expr guarded_or, Expr::Binary(BinaryOp::kOr, Expr::True(), bad));
  TMDB_ASSERT_OK_AND_ASSIGN(Value v2, Eval(guarded_or));
  EXPECT_TRUE(v2.AsBool());
}

TEST_F(EvalTest, EnvironmentScoping) {
  env_.Bind("x", Value::Int(10));
  Environment inner(&env_);
  inner.Bind("x", Value::Int(20));
  TMDB_ASSERT_OK_AND_ASSIGN(Value outer,
                            EvalExpr(Expr::Var("x", Type::Int()), env_));
  EXPECT_EQ(outer.AsInt(), 10);
  TMDB_ASSERT_OK_AND_ASSIGN(Value shadowed,
                            EvalExpr(Expr::Var("x", Type::Int()), inner));
  EXPECT_EQ(shadowed.AsInt(), 20);
  EXPECT_FALSE(EvalExpr(Expr::Var("unbound", Type::Int()), env_).ok());
}

TEST(EnvironmentTest, FramesRebindAndShadowPastTheirInlineBindings) {
  // Four names in one frame: the first two sit in the object, the rest
  // past it. Rebinding replaces in place wherever the name lives.
  Environment outer;
  for (int i = 0; i < 4; ++i) {
    outer.Bind("v" + std::to_string(i), Value::Int(i));
  }
  outer.Bind("v0", Value::Int(100));
  outer.Bind("v3", Value::Int(103));
  Environment inner(&outer);
  inner.Bind("v1", Value::Int(201));
  inner.Bind("w", Value::String("inner"));
  inner.Bind("v2", Value::Int(202));  // the inner frame's third binding
  inner.Bind("w", Value::String("rebound"));

  ASSERT_NE(outer.Lookup("v1"), nullptr);
  EXPECT_EQ(outer.Lookup("v0")->AsInt(), 100);
  EXPECT_EQ(outer.Lookup("v1")->AsInt(), 1);
  EXPECT_EQ(outer.Lookup("v2")->AsInt(), 2);
  EXPECT_EQ(outer.Lookup("v3")->AsInt(), 103);
  EXPECT_EQ(outer.Lookup("w"), nullptr);
  // The innermost binding wins; the rest resolve outward.
  EXPECT_EQ(inner.Lookup("v0")->AsInt(), 100);
  EXPECT_EQ(inner.Lookup("v1")->AsInt(), 201);
  EXPECT_EQ(inner.Lookup("v2")->AsInt(), 202);
  EXPECT_EQ(inner.Lookup("v3")->AsInt(), 103);
  EXPECT_EQ(inner.Lookup("w")->AsString(), "rebound");
  EXPECT_EQ(inner.Lookup("absent"), nullptr);
}

TEST_F(EvalTest, Quantifiers) {
  Expr set = Expr::Literal(IntSet({1, 2, 3}));
  Expr v = Expr::Var("v", Type::Int());
  TMDB_ASSERT_OK_AND_ASSIGN(Expr gt2, Expr::Binary(BinaryOp::kGt, v, IntLit(2)));
  TMDB_ASSERT_OK_AND_ASSIGN(Expr gt0, Expr::Binary(BinaryOp::kGt, v, IntLit(0)));

  TMDB_ASSERT_OK_AND_ASSIGN(
      Expr ex, Expr::Quantifier(QuantKind::kExists, "v", set, gt2));
  TMDB_ASSERT_OK_AND_ASSIGN(Value b1, Eval(ex));
  EXPECT_TRUE(b1.AsBool());

  TMDB_ASSERT_OK_AND_ASSIGN(
      Expr fa, Expr::Quantifier(QuantKind::kForAll, "v", set, gt2));
  TMDB_ASSERT_OK_AND_ASSIGN(Value b2, Eval(fa));
  EXPECT_FALSE(b2.AsBool());

  TMDB_ASSERT_OK_AND_ASSIGN(
      Expr fa0, Expr::Quantifier(QuantKind::kForAll, "v", set, gt0));
  TMDB_ASSERT_OK_AND_ASSIGN(Value b3, Eval(fa0));
  EXPECT_TRUE(b3.AsBool());

  // Vacuous truth / falsity over ∅.
  Expr empty = Expr::Literal(Value::EmptySet());
  TMDB_ASSERT_OK_AND_ASSIGN(
      Expr ex_e, Expr::Quantifier(QuantKind::kExists, "v", empty,
                                  Expr::True()));
  TMDB_ASSERT_OK_AND_ASSIGN(Value b4, Eval(ex_e));
  EXPECT_FALSE(b4.AsBool());
  TMDB_ASSERT_OK_AND_ASSIGN(
      Expr fa_e, Expr::Quantifier(QuantKind::kForAll, "v", empty,
                                  Expr::False()));
  TMDB_ASSERT_OK_AND_ASSIGN(Value b5, Eval(fa_e));
  EXPECT_TRUE(b5.AsBool());
}

TEST_F(EvalTest, TupleAndSetConstructors) {
  TMDB_ASSERT_OK_AND_ASSIGN(
      Expr tuple, Expr::MakeTuple({"a", "b"}, {IntLit(1), IntLit(2)}));
  TMDB_ASSERT_OK_AND_ASSIGN(Value t, Eval(tuple));
  EXPECT_EQ(t.TupleSize(), 2u);

  TMDB_ASSERT_OK_AND_ASSIGN(
      Expr set, Expr::MakeSet({IntLit(2), IntLit(1), IntLit(2)}));
  TMDB_ASSERT_OK_AND_ASSIGN(Value s, Eval(set));
  EXPECT_TRUE(s.Equals(IntSet({1, 2})));  // constructor dedupes
}

TEST_F(EvalTest, UnnestOperator) {
  Expr sets = Expr::Literal(Value::Set({IntSet({1, 2}), IntSet({3})}));
  TMDB_ASSERT_OK_AND_ASSIGN(Expr unnest, Expr::Unary(UnaryOp::kUnnest, sets));
  TMDB_ASSERT_OK_AND_ASSIGN(Value v, Eval(unnest));
  EXPECT_TRUE(v.Equals(IntSet({1, 2, 3})));
}

TEST_F(EvalTest, SubplanWithoutEvaluatorErrors) {
  // An expression containing a subplan needs the executor; the plain
  // evaluator reports Unsupported instead of crashing.
  class FakeSubplan : public SubplanBase {
   public:
    std::string ToString() const override { return "fake"; }
    const std::set<std::string>& free_vars() const override { return free_; }

   private:
    std::set<std::string> free_;
  };
  Expr subplan = Expr::Subplan(std::make_shared<FakeSubplan>(),
                               Type::Set(Type::Int()));
  auto result = EvalExpr(subplan, env_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnsupported);
}

TEST_F(EvalTest, EvalPredicateRejectsNonBool) {
  EXPECT_FALSE(EvalPredicate(IntLit(1), env_).ok());
  TMDB_ASSERT_OK_AND_ASSIGN(bool b, EvalPredicate(Expr::True(), env_));
  EXPECT_TRUE(b);
}

}  // namespace
}  // namespace tmdb
