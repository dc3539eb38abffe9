#include "exec/join_common.h"

#include <utility>

#include "expr/eval.h"

namespace tmdb {

std::string JoinModeName(JoinMode mode) {
  switch (mode) {
    case JoinMode::kInner:
      return "Inner";
    case JoinMode::kSemi:
      return "Semi";
    case JoinMode::kAnti:
      return "Anti";
    case JoinMode::kLeftOuter:
      return "LeftOuter";
    case JoinMode::kNestJoin:
      return "NestJoin";
  }
  return "?";
}

Result<Value> EvalCompositeKey(const std::vector<Expr>& keys,
                               const std::string& var, const Value& row,
                               ExecContext* ctx) {
  Environment env(ctx->outer_env);
  env.Bind(var, row);
  std::vector<Value> parts;
  parts.reserve(keys.size());
  for (const Expr& key : keys) {
    TMDB_ASSIGN_OR_RETURN(Value v, EvalExpr(key, env, ctx->subplans));
    // Canonicalise Int vs Real so 1 and 1.0 land in the same bucket even
    // though Value already hashes them identically — the list wrapper
    // preserves that property, nothing extra needed.
    parts.push_back(std::move(v));
  }
  return Value::List(std::move(parts));
}

Result<bool> EvalJoinPred(const JoinSpec& spec, const Value& left_row,
                          const Value& right_row, ExecContext* ctx) {
  ctx->stats->predicate_evals++;
  Environment env(ctx->outer_env);
  env.Bind(spec.left_var, left_row);
  env.Bind(spec.right_var, right_row);
  return EvalPredicate(spec.pred, env, ctx->subplans);
}

Result<Value> EvalJoinFunc(const JoinSpec& spec, const Value& left_row,
                           const Value& right_row, ExecContext* ctx) {
  Environment env(ctx->outer_env);
  env.Bind(spec.left_var, left_row);
  env.Bind(spec.right_var, right_row);
  return EvalExpr(spec.func, env, ctx->subplans);
}

Status JoinKernel::Image(const Value& left_row, const Value& right_row,
                         ExecContext* ctx, std::vector<Value>* group) const {
  if (func_is_right_ident_) {
    group->push_back(right_row);
    return Status::OK();
  }
  TMDB_ASSIGN_OR_RETURN(Value g, EvalJoinFunc(spec_, left_row, right_row, ctx));
  group->push_back(std::move(g));
  return Status::OK();
}

Status JoinKernel::EmitGroup(const Value& left_row, const Value& set,
                             std::vector<Value>* out) const {
  TMDB_ASSIGN_OR_RETURN(Value o,
                        ExtendTuple(left_row, spec_.label, set, &out_names_));
  out->push_back(std::move(o));
  return Status::OK();
}

}  // namespace tmdb
