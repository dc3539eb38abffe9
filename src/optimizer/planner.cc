#include "optimizer/planner.h"

#include <cstdio>
#include <optional>
#include <utility>

#include "base/string_util.h"
#include "exec/basic_ops.h"
#include "exec/columnar.h"
#include "exec/hash_join.h"
#include "exec/merge_join.h"
#include "exec/nest_op.h"
#include "exec/nested_loop_join.h"
#include "rewrite/expr_rewrite.h"

namespace tmdb {

std::string JoinImplName(JoinImpl impl) {
  switch (impl) {
    case JoinImpl::kAuto:
      return "auto";
    case JoinImpl::kNestedLoop:
      return "nested-loop";
    case JoinImpl::kHash:
      return "hash";
    case JoinImpl::kMerge:
      return "sort-merge";
  }
  return "?";
}

EquiKeySplit SplitEquiKeys(const Expr& pred, const std::string& left_var,
                           const std::string& right_var) {
  EquiKeySplit out;
  std::vector<Expr> residual;
  for (Expr& c : SplitConjuncts(pred)) {
    bool used = false;
    if (c.is_binary() && c.binary_op() == BinaryOp::kEq &&
        CollectSubplans(c).empty()) {
      auto vars_of = [](const Expr& e) { return e.FreeVars(); };
      const std::set<std::string> l = vars_of(c.lhs());
      const std::set<std::string> r = vars_of(c.rhs());
      auto only = [](const std::set<std::string>& s,
                     const std::string& v) {
        return s.size() <= 1 && (s.empty() || s.count(v) > 0);
      };
      // A key pair must bind both sides: x-side references left_var only,
      // y-side right_var only (at least one side non-empty each way to be
      // a useful key; constant = constant goes to residual).
      if (only(l, left_var) && only(r, right_var) &&
          (!l.empty() || !r.empty())) {
        out.left_keys.push_back(c.lhs());
        out.right_keys.push_back(c.rhs());
        used = true;
      } else if (only(l, right_var) && only(r, left_var) &&
                 (!l.empty() || !r.empty())) {
        out.left_keys.push_back(c.rhs());
        out.right_keys.push_back(c.lhs());
        used = true;
      }
    }
    if (!used) residual.push_back(std::move(c));
  }
  out.residual = Expr::AndAll(std::move(residual));
  return out;
}

double EstimateCardinality(const LogicalOp& op) {
  switch (op.op_kind()) {
    case OpKind::kScan:
      return static_cast<double>(op.table()->NumRows());
    case OpKind::kExprSource:
      return 10.0;  // unknowable without data; small constant
    case OpKind::kSelect:
      return 0.25 * EstimateCardinality(*op.input());
    case OpKind::kMap:
      return EstimateCardinality(*op.input());
    case OpKind::kJoin: {
      const double l = EstimateCardinality(*op.left());
      const double r = EstimateCardinality(*op.right());
      EquiKeySplit split =
          SplitEquiKeys(op.pred(), op.left_var(), op.right_var());
      if (!split.left_keys.empty()) return std::max(l, r);
      return 0.1 * l * r;
    }
    case OpKind::kSemiJoin:
    case OpKind::kAntiJoin:
      return 0.5 * EstimateCardinality(*op.left());
    case OpKind::kOuterJoin:
    case OpKind::kNestJoin:
      // One output tuple per left tuple (at least) for nest join; the
      // outerjoin is close enough for ranking purposes.
      return EstimateCardinality(*op.left());
    case OpKind::kNest:
      return 0.5 * EstimateCardinality(*op.input());
    case OpKind::kUnnest:
      return 4.0 * EstimateCardinality(*op.input());
    case OpKind::kUnion:
      return EstimateCardinality(*op.left()) +
             EstimateCardinality(*op.right());
    case OpKind::kDifference:
      return EstimateCardinality(*op.left());
  }
  return 1.0;
}

namespace {

JoinMode ToJoinMode(OpKind kind) {
  switch (kind) {
    case OpKind::kJoin:
      return JoinMode::kInner;
    case OpKind::kSemiJoin:
      return JoinMode::kSemi;
    case OpKind::kAntiJoin:
      return JoinMode::kAnti;
    case OpKind::kOuterJoin:
      return JoinMode::kLeftOuter;
    default:
      return JoinMode::kNestJoin;
  }
}

}  // namespace

Result<PhysicalOpPtr> Planner::Plan(const LogicalOpPtr& logical) const {
  switch (logical->op_kind()) {
    case OpKind::kScan:
      return PhysicalOpPtr(
          new TableScanOp(logical->table(), options_.enable_columnar));
    case OpKind::kExprSource:
      return PhysicalOpPtr(new ExprSourceOp(logical->func()));
    case OpKind::kSelect: {
      TMDB_ASSIGN_OR_RETURN(PhysicalOpPtr child, Plan(logical->input()));
      // Compile the predicate to column form when possible; FilterOp falls
      // back to row evaluation at Open unless the child is actually
      // columnar with a matching layout.
      std::optional<ColumnPredicate> cpred;
      if (options_.enable_columnar) {
        Type in = logical->input()->output_type();
        if (in.is_collection()) in = in.element();
        cpred = ColumnPredicate::Compile(logical->pred(), logical->var(), in);
      }
      return PhysicalOpPtr(new FilterOp(std::move(child), logical->var(),
                                        logical->pred(), std::move(cpred)));
    }
    case OpKind::kMap: {
      TMDB_ASSIGN_OR_RETURN(PhysicalOpPtr child, Plan(logical->input()));
      return PhysicalOpPtr(
          new MapOp(std::move(child), logical->var(), logical->func()));
    }
    case OpKind::kJoin:
    case OpKind::kSemiJoin:
    case OpKind::kAntiJoin:
    case OpKind::kOuterJoin:
    case OpKind::kNestJoin: {
      TMDB_ASSIGN_OR_RETURN(PhysicalOpPtr left, Plan(logical->left()));
      TMDB_ASSIGN_OR_RETURN(PhysicalOpPtr right, Plan(logical->right()));

      JoinSpec spec;
      spec.mode = ToJoinMode(logical->op_kind());
      spec.left_var = logical->left_var();
      spec.right_var = logical->right_var();
      spec.right_type = logical->right()->output_type();
      if (logical->op_kind() == OpKind::kNestJoin) {
        spec.func = logical->func();
        spec.label = logical->label();
      }

      EquiKeySplit split = SplitEquiKeys(logical->pred(), spec.left_var,
                                         spec.right_var);
      JoinImpl impl = options_.join_impl;
      if (split.left_keys.empty()) {
        impl = JoinImpl::kNestedLoop;  // only general implementation
      } else if (impl == JoinImpl::kAuto) {
        // Sort-merge would cost l·log2(l+2) + r·log2(r+2) ≥ l + r, never
        // below the hash join's, so auto weighs hash against nested loop;
        // kMerge is reached only when asked for.
        const double l = EstimateCardinality(*logical->left());
        const double r = EstimateCardinality(*logical->right());
        const double hash_cost =
            (l + r) / std::max(1, options_.num_threads);
        impl = hash_cost <= l * r ? JoinImpl::kHash : JoinImpl::kNestedLoop;
      }

      switch (impl) {
        case JoinImpl::kNestedLoop: {
          spec.pred = logical->pred();  // full predicate
          return PhysicalOpPtr(new NestedLoopJoinOp(
              std::move(left), std::move(right), std::move(spec)));
        }
        case JoinImpl::kHash: {
          spec.pred = split.residual;
          std::optional<FastKeySpec> fast;
          if (options_.enable_columnar) {
            fast = ResolveFastKeys(split.left_keys, split.right_keys,
                                   spec.left_var, spec.right_var);
          }
          return PhysicalOpPtr(new HashJoinOp(
              std::move(left), std::move(right), std::move(spec),
              std::move(split.left_keys), std::move(split.right_keys),
              std::move(fast)));
        }
        case JoinImpl::kMerge: {
          spec.pred = split.residual;
          return PhysicalOpPtr(new MergeJoinOp(
              std::move(left), std::move(right), std::move(spec),
              std::move(split.left_keys), std::move(split.right_keys)));
        }
        case JoinImpl::kAuto:
          break;
      }
      return Status::Internal("join implementation not resolved");
    }
    case OpKind::kNest: {
      TMDB_ASSIGN_OR_RETURN(PhysicalOpPtr child, Plan(logical->input()));
      return PhysicalOpPtr(new NestOp(
          std::move(child), logical->group_attrs(), logical->var(),
          logical->func(), logical->label(), logical->null_group_to_empty()));
    }
    case OpKind::kUnnest: {
      TMDB_ASSIGN_OR_RETURN(PhysicalOpPtr child, Plan(logical->input()));
      return PhysicalOpPtr(
          new UnnestOp(std::move(child), logical->unnest_attr()));
    }
    case OpKind::kUnion: {
      TMDB_ASSIGN_OR_RETURN(PhysicalOpPtr left, Plan(logical->left()));
      TMDB_ASSIGN_OR_RETURN(PhysicalOpPtr right, Plan(logical->right()));
      return PhysicalOpPtr(new UnionOp(std::move(left), std::move(right)));
    }
    case OpKind::kDifference: {
      TMDB_ASSIGN_OR_RETURN(PhysicalOpPtr left, Plan(logical->left()));
      TMDB_ASSIGN_OR_RETURN(PhysicalOpPtr right, Plan(logical->right()));
      return PhysicalOpPtr(new DifferenceOp(std::move(left), std::move(right)));
    }
  }
  return Status::Internal("unhandled logical operator in Planner");
}

namespace {

/// True when any operator in the plan (or a nested block reachable through
/// an uncorrelated subplan) embeds a kSubplan expression — i.e. the
/// unnesting rewrites are not a no-op for this query.
bool PlanHasSubplans(const LogicalOp& op) {
  std::vector<const Expr*> exprs;
  switch (op.op_kind()) {
    case OpKind::kSelect:
      exprs.push_back(&op.pred());
      break;
    case OpKind::kMap:
    case OpKind::kNest:
    case OpKind::kExprSource:
      exprs.push_back(&op.func());
      break;
    case OpKind::kJoin:
    case OpKind::kSemiJoin:
    case OpKind::kAntiJoin:
    case OpKind::kOuterJoin:
      exprs.push_back(&op.pred());
      break;
    case OpKind::kNestJoin:
      exprs.push_back(&op.pred());
      exprs.push_back(&op.func());
      break;
    default:
      break;
  }
  for (const Expr* expr : exprs) {
    if (!CollectSubplans(*expr).empty()) return true;
  }
  for (const LogicalOpPtr& child : op.inputs()) {
    if (PlanHasSubplans(*child)) return true;
  }
  return false;
}

std::string FmtEstimate(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

std::string FmtRatio(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string PadRight(std::string s, size_t width) {
  if (s.size() < width) s.append(width - s.size(), ' ');
  return s;
}

}  // namespace

std::string StrategyDecision::ToTable() const {
  if (!costed) {
    return StrCat("  (not costed: ", reason, ")\n");
  }
  std::string out;
  out += StrCat("  ", PadRight("candidate", 16), PadRight("est. cost", 14),
                "est. rows\n");
  for (const StrategyAlternative& alt : alternatives) {
    const char* marker = (alt.feasible && alt.strategy == chosen) ? "* " : "  ";
    out += StrCat(marker, PadRight(StrategyName(alt.strategy), 16));
    if (alt.feasible) {
      out += StrCat(PadRight(FmtEstimate(alt.est_cost), 14),
                    FmtEstimate(alt.est_rows), "\n");
    } else {
      out += StrCat("infeasible: ", alt.note, "\n");
    }
  }
  out += StrCat("  estimate: ~", est_distinct_corr,
                " distinct correlation value(s) over ", outer_rows,
                " outer row(s), est. hit ratio ", FmtRatio(est_hit_ratio),
                "\n");
  out += StrCat("  chosen: ", StrategyName(chosen), " -- ", reason, "\n");
  return out;
}

bool StrategyDecision::BestUnnested(Strategy* out) const {
  bool found = false;
  double best = 0;
  for (const StrategyAlternative& alt : alternatives) {
    if (!alt.feasible || alt.strategy == Strategy::kNaive) continue;
    if (!found || alt.est_cost < best) {
      found = true;
      best = alt.est_cost;
      *out = alt.strategy;
    }
  }
  return found;
}

Result<StrategyDecision> ChooseStrategy(const LogicalOpPtr& naive_plan,
                                        const CostModel& model) {
  StrategyDecision decision;
  if (!PlanHasSubplans(*naive_plan)) {
    decision.chosen = Strategy::kNestJoin;
    decision.costed = false;
    decision.reason = "no nested subqueries; the unnesting rewrite is a no-op";
    return decision;
  }
  decision.costed = true;
  TMDB_ASSIGN_OR_RETURN(std::optional<CorrelationEstimate> corr,
                        model.EstimateCorrelation(*naive_plan));
  if (corr.has_value()) {
    decision.outer_rows = corr->outer_rows;
    decision.est_distinct_corr = corr->distinct.estimate;
    decision.est_hit_ratio = corr->hit_ratio;
  }
  // Enumeration order is also the tie-break order: a strict `<` comparison
  // means equal-cost candidates resolve to the earliest, so ties prefer the
  // unnested strategies (the paper's default). Kim's algorithm is excluded
  // from the candidate set: it reproduces the COUNT bug by design.
  const Strategy candidates[] = {Strategy::kNestJoin, Strategy::kNestJoinOnly,
                                 Strategy::kOuterJoin, Strategy::kNaive};
  bool have_best = false;
  double best_cost = 0;
  for (Strategy s : candidates) {
    StrategyAlternative alt;
    alt.strategy = s;
    Result<LogicalOpPtr> rewritten = PlanForStrategy(naive_plan, s);
    if (!rewritten.ok()) {
      alt.feasible = false;
      alt.note = rewritten.status().message();
      decision.alternatives.push_back(std::move(alt));
      continue;
    }
    // A costing failure is a hard error, not infeasibility: sampling runs
    // guard checkpoints, so cancellation / deadlines / injected faults must
    // abort the choice (and the query) rather than silently skew it.
    TMDB_ASSIGN_OR_RETURN(PlanCost cost, model.CostPlan(**rewritten));
    alt.est_rows = cost.rows;
    alt.est_cost = cost.cost;
    if (!have_best || alt.est_cost < best_cost) {
      have_best = true;
      best_cost = alt.est_cost;
      decision.chosen = s;
    }
    decision.alternatives.push_back(std::move(alt));
  }
  if (!have_best) {
    return Status::Internal(
        "strategy enumeration found no feasible candidate (naive should "
        "always be feasible)");
  }
  if (decision.chosen == Strategy::kNaive) {
    decision.reason = StrCat(
        "memoized naive evaluation: ~", decision.est_distinct_corr,
        " distinct correlation value(s) across ", decision.outer_rows,
        " outer row(s) (est. hit ratio ", FmtRatio(decision.est_hit_ratio),
        ")");
  } else {
    double naive_cost = -1;
    for (const StrategyAlternative& alt : decision.alternatives) {
      if (alt.feasible && alt.strategy == Strategy::kNaive) {
        naive_cost = alt.est_cost;
      }
    }
    if (naive_cost > 0 && best_cost > 0) {
      decision.reason = StrCat(
          "unnesting is ~", FmtEstimate(naive_cost / best_cost),
          "x cheaper than memoized naive (est. hit ratio ",
          FmtRatio(decision.est_hit_ratio), ")");
    } else {
      decision.reason = "lowest estimated cost among feasible strategies";
    }
  }
  return decision;
}

}  // namespace tmdb
