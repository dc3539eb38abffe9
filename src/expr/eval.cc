#include "expr/eval.h"

#include <utility>

#include "base/string_util.h"
#include "values/value_ops.h"

namespace tmdb {

void Environment::Bind(const std::string& name, Value value) {
  for (size_t i = 0; i < num_inline_; ++i) {
    if (inline_[i].first == name) {
      inline_[i].second = std::move(value);
      return;
    }
  }
  for (auto& [n, v] : more_) {
    if (n == name) {
      v = std::move(value);
      return;
    }
  }
  if (num_inline_ < kInlineBindings) {
    inline_[num_inline_].first = name;
    inline_[num_inline_].second = std::move(value);
    ++num_inline_;
    return;
  }
  more_.emplace_back(name, std::move(value));
}

const Value* Environment::Lookup(const std::string& name) const {
  for (const Environment* env = this; env != nullptr; env = env->parent_) {
    for (size_t i = 0; i < env->num_inline_; ++i) {
      if (env->inline_[i].first == name) return &env->inline_[i].second;
    }
    for (const auto& [n, v] : env->more_) {
      if (n == name) return &v;
    }
  }
  return nullptr;
}

namespace {

Result<Value> EvalBinary(const Expr& e, const Environment& env,
                         SubplanEvaluator* subplans) {
  const BinaryOp op = e.binary_op();

  // Short-circuit connectives first.
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    TMDB_ASSIGN_OR_RETURN(Value l, EvalExpr(e.lhs(), env, subplans));
    if (!l.is_bool()) {
      return Status::TypeError(
          StrCat("boolean connective on non-boolean ", l.ToString()));
    }
    if (op == BinaryOp::kAnd && !l.AsBool()) return Value::Bool(false);
    if (op == BinaryOp::kOr && l.AsBool()) return Value::Bool(true);
    TMDB_ASSIGN_OR_RETURN(Value r, EvalExpr(e.rhs(), env, subplans));
    if (!r.is_bool()) {
      return Status::TypeError(
          StrCat("boolean connective on non-boolean ", r.ToString()));
    }
    return r;
  }

  TMDB_ASSIGN_OR_RETURN(Value l, EvalExpr(e.lhs(), env, subplans));
  TMDB_ASSIGN_OR_RETURN(Value r, EvalExpr(e.rhs(), env, subplans));
  switch (op) {
    case BinaryOp::kAdd:
      return NumericAdd(l, r);
    case BinaryOp::kSub:
      return NumericSub(l, r);
    case BinaryOp::kMul:
      return NumericMul(l, r);
    case BinaryOp::kDiv:
      return NumericDiv(l, r);
    case BinaryOp::kEq:
      return Value::Bool(l.Equals(r));
    case BinaryOp::kNe:
      return Value::Bool(!l.Equals(r));
    case BinaryOp::kLt:
      return OrderedCompare(CompareOpKind::kLt, l, r);
    case BinaryOp::kLe:
      return OrderedCompare(CompareOpKind::kLe, l, r);
    case BinaryOp::kGt:
      return OrderedCompare(CompareOpKind::kGt, l, r);
    case BinaryOp::kGe:
      return OrderedCompare(CompareOpKind::kGe, l, r);
    case BinaryOp::kIn:
      if (!r.is_collection()) {
        return Status::TypeError(
            StrCat("IN requires a collection, got ", r.ToString()));
      }
      return Value::Bool(r.Contains(l));
    case BinaryOp::kNotIn:
      if (!r.is_collection()) {
        return Status::TypeError(
            StrCat("NOT IN requires a collection, got ", r.ToString()));
      }
      return Value::Bool(!r.Contains(l));
    case BinaryOp::kUnion:
      return SetUnion(l, r);
    case BinaryOp::kIntersect:
      return SetIntersect(l, r);
    case BinaryOp::kDifference:
      return SetDifference(l, r);
    case BinaryOp::kSubsetEq:
      return SetSubsetEq(l, r);
    case BinaryOp::kSubset:
      return SetSubset(l, r);
    case BinaryOp::kSupersetEq:
      return SetSubsetEq(r, l);
    case BinaryOp::kSuperset:
      return SetSubset(r, l);
    case BinaryOp::kAnd:
    case BinaryOp::kOr:
      break;  // handled above
  }
  return Status::Internal("unhandled binary operator");
}

Result<Value> EvalQuantifier(const Expr& e, const Environment& env,
                             SubplanEvaluator* subplans) {
  TMDB_ASSIGN_OR_RETURN(Value coll,
                        EvalExpr(e.quant_collection(), env, subplans));
  if (!coll.is_collection()) {
    return Status::TypeError(
        StrCat("quantifier range is not a collection: ", coll.ToString()));
  }
  const bool exists = e.quant_kind() == QuantKind::kExists;
  Environment inner(&env);
  for (const Value& elem : coll.Elements()) {
    inner.Bind(e.quant_var(), elem);
    TMDB_ASSIGN_OR_RETURN(Value p, EvalExpr(e.quant_pred(), inner, subplans));
    if (!p.is_bool()) {
      return Status::TypeError(
          StrCat("quantifier body is not boolean: ", p.ToString()));
    }
    if (exists && p.AsBool()) return Value::Bool(true);
    if (!exists && !p.AsBool()) return Value::Bool(false);
  }
  return Value::Bool(!exists);
}

}  // namespace

Result<Value> EvalExpr(const Expr& expr, const Environment& env,
                       SubplanEvaluator* subplans) {
  switch (expr.expr_kind()) {
    case ExprKind::kLiteral:
      return expr.literal_value();
    case ExprKind::kVarRef: {
      const Value* v = env.Lookup(expr.var_name());
      if (v == nullptr) {
        return Status::NotFound(
            StrCat("unbound variable '", expr.var_name(), "'"));
      }
      return *v;
    }
    case ExprKind::kFieldAccess: {
      TMDB_ASSIGN_OR_RETURN(Value base,
                            EvalExpr(expr.field_base(), env, subplans));
      return base.Field(expr.field_name());
    }
    case ExprKind::kBinary:
      return EvalBinary(expr, env, subplans);
    case ExprKind::kUnary: {
      TMDB_ASSIGN_OR_RETURN(Value v, EvalExpr(expr.operand(), env, subplans));
      switch (expr.unary_op()) {
        case UnaryOp::kNot:
          if (!v.is_bool()) {
            return Status::TypeError(
                StrCat("NOT on non-boolean ", v.ToString()));
          }
          return Value::Bool(!v.AsBool());
        case UnaryOp::kNeg:
          return NumericNeg(v);
        case UnaryOp::kIsNull:
          return Value::Bool(v.is_null());
        case UnaryOp::kUnnest:
          return UnnestSetOfSets(v);
      }
      return Status::Internal("unhandled unary operator");
    }
    case ExprKind::kQuantifier:
      return EvalQuantifier(expr, env, subplans);
    case ExprKind::kAggregate: {
      TMDB_ASSIGN_OR_RETURN(Value coll, EvalExpr(expr.agg_arg(), env, subplans));
      switch (expr.agg_func()) {
        case AggFunc::kCount:
          return AggCount(coll);
        case AggFunc::kSum:
          return AggSum(coll);
        case AggFunc::kAvg:
          return AggAvg(coll);
        case AggFunc::kMin:
          return AggMin(coll);
        case AggFunc::kMax:
          return AggMax(coll);
      }
      return Status::Internal("unhandled aggregate function");
    }
    case ExprKind::kTupleCtor: {
      std::vector<Value> values;
      values.reserve(expr.ctor_elements().size());
      for (const Expr& c : expr.ctor_elements()) {
        TMDB_ASSIGN_OR_RETURN(Value v, EvalExpr(c, env, subplans));
        values.push_back(std::move(v));
      }
      return Value::SharedTuple(expr.ctor_tuple_names(), std::move(values));
    }
    case ExprKind::kSetCtor: {
      std::vector<Value> values;
      values.reserve(expr.ctor_elements().size());
      for (const Expr& c : expr.ctor_elements()) {
        TMDB_ASSIGN_OR_RETURN(Value v, EvalExpr(c, env, subplans));
        values.push_back(std::move(v));
      }
      return Value::Set(std::move(values));
    }
    case ExprKind::kSubplan: {
      if (subplans == nullptr) {
        return Status::Unsupported(
            "subplan expression reached an evaluator without subplan "
            "support");
      }
      return subplans->EvaluateSubplan(expr.subplan(), env);
    }
  }
  return Status::Internal("unhandled expression kind");
}

Result<bool> EvalPredicate(const Expr& expr, const Environment& env,
                           SubplanEvaluator* subplans) {
  TMDB_ASSIGN_OR_RETURN(Value v, EvalExpr(expr, env, subplans));
  if (!v.is_bool()) {
    return Status::TypeError(
        StrCat("predicate did not evaluate to a boolean: ", v.ToString()));
  }
  return v.AsBool();
}

}  // namespace tmdb
