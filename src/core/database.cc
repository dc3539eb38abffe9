#include "core/database.h"

#include <chrono>
#include <utility>

#include "base/string_util.h"
#include "exec/executor.h"
#include "optimizer/cost_model.h"
#include "parser/parser.h"
#include "parser/statement.h"
#include "sema/binder.h"
#include "sema/type_resolver.h"

namespace tmdb {
namespace {

// Applies the RunOptions governance knobs to a freshly built executor.
void ApplyGovernance(const RunOptions& options, Executor* executor) {
  GuardLimits limits;
  limits.timeout_ms = options.timeout_ms;
  limits.memory_budget_bytes = options.memory_budget_bytes;
  limits.max_rows = options.max_rows;
  executor->set_limits(limits);
  executor->set_fault_injector(options.fault_injector);
  executor->set_spill_options(options.enable_spill, options.spill_dir,
                              options.spill_block_bytes);
  executor->set_subplan_cache_bytes(options.subplan_cache_bytes);
}

Planner MakePlanner(const RunOptions& options) {
  PlannerOptions planner_options;
  planner_options.join_impl = options.join_impl;
  planner_options.num_threads = options.num_threads;
  planner_options.spill_available = options.enable_spill;
  planner_options.enable_columnar = options.enable_columnar;
  return Planner(planner_options);
}

CostModelOptions MakeCostModelOptions(const RunOptions& options,
                                      QueryGuard* guard) {
  CostModelOptions cm;
  cm.sample_rows = options.cost_sample_rows;
  cm.sample_seed = options.cost_sample_seed;
  cm.memo_enabled = options.subplan_cache_bytes > 0;
  cm.guard = guard;
  return cm;
}

}  // namespace

std::string QueryResult::ToString(size_t max_rows) const {
  std::string out = StrCat(rows.size(), " row(s), strategy = ",
                           StrategyName(strategy),
                           auto_strategy ? " (auto)" : "", "\n");
  size_t shown = 0;
  for (const Value& row : rows) {
    if (shown == max_rows) {
      out += StrCat("  ... (", rows.size() - shown, " more)\n");
      break;
    }
    out += "  " + row.ToString() + "\n";
    ++shown;
  }
  return out;
}

Result<std::shared_ptr<Table>> Database::CreateTable(const std::string& name,
                                                     Type schema) {
  return catalog_.CreateTable(name, std::move(schema));
}

Status Database::Insert(const std::string& table, Value row) {
  TMDB_ASSIGN_OR_RETURN(std::shared_ptr<Table> t, catalog_.GetTable(table));
  return t->Insert(std::move(row));
}

Result<LogicalOpPtr> Database::Plan(const std::string& query,
                                    Strategy strategy, UnnestReport* report) {
  TMDB_ASSIGN_OR_RETURN(AstPtr ast, ParseQuery(query));
  Binder binder(&catalog_);
  TMDB_ASSIGN_OR_RETURN(LogicalOpPtr naive, binder.BindQuery(*ast));
  if (strategy == Strategy::kAuto) {
    CostModel model;
    TMDB_ASSIGN_OR_RETURN(StrategyDecision decision,
                          ChooseStrategy(naive, model));
    return PlanForStrategy(naive, decision.chosen, report);
  }
  return PlanForStrategy(naive, strategy, report);
}

Result<QueryResult> Database::Run(const std::string& query,
                                  const RunOptions& options,
                                  Executor* executor) {
  TMDB_ASSIGN_OR_RETURN(AstPtr ast, ParseQuery(query));
  Executor local(options.num_threads);
  return RunQueryAst(*ast, options, executor != nullptr ? executor : &local);
}

Result<QueryResult> Database::RunQueryAst(const AstNode& ast,
                                          const RunOptions& options,
                                          Executor* executor) {
  Binder binder(&catalog_);
  TMDB_ASSIGN_OR_RETURN(LogicalOpPtr naive, binder.BindQuery(ast));
  executor->set_num_threads(options.num_threads);
  ApplyGovernance(options, executor);
  executor->mutable_stats()->Reset();
  if (options.strategy == Strategy::kAuto) {
    return RunAuto(naive, options, executor);
  }
  TMDB_ASSIGN_OR_RETURN(LogicalOpPtr plan,
                        PlanForStrategy(naive, options.strategy));
  TMDB_ASSIGN_OR_RETURN(PhysicalOpPtr physical, MakePlanner(options).Plan(plan));
  TMDB_ASSIGN_OR_RETURN(std::vector<Value> rows,
                        executor->RunPhysical(physical.get()));
  QueryResult result;
  result.rows = std::move(rows);
  result.stats = executor->stats();
  result.stats.strategy_chosen = StrategyStatCode(options.strategy);
  result.strategy = options.strategy;
  return result;
}

Result<QueryResult> Database::RunAuto(const LogicalOpPtr& naive,
                                      const RunOptions& options,
                                      Executor* executor) {
  // Sampling runs under the run's own guard window: the deadline starts
  // here, cancellation reaches the planning phase, and planning checkpoints
  // count toward guard_checkpoints — the cost model is part of the query.
  const auto start = std::chrono::steady_clock::now();
  executor->ArmPlanningGuard();
  CostModel model(MakeCostModelOptions(options, executor->guard()));
  Result<StrategyDecision> decision = ChooseStrategy(naive, model);
  if (!decision.ok()) {
    executor->AbortPlanning();
    return decision.status();
  }
  Strategy chosen = decision->chosen;
  Result<LogicalOpPtr> plan = PlanForStrategy(naive, chosen);
  if (!plan.ok()) {
    executor->AbortPlanning();
    return plan.status();
  }
  Result<PhysicalOpPtr> physical = MakePlanner(options).Plan(*plan);
  if (!physical.ok()) {
    executor->AbortPlanning();
    return physical.status();
  }
  // Arm the mid-query switch only when it has somewhere to go: the model
  // picked memoized naive on the promise of a high hit ratio, and at least
  // one unnested alternative was feasible.
  Strategy fallback = Strategy::kNestJoin;
  const bool can_switch = decision->costed && chosen == Strategy::kNaive &&
                          options.subplan_cache_bytes > 0 &&
                          decision->BestUnnested(&fallback);
  if (can_switch) {
    AdaptiveConfig config;
    config.predicted_hit_ratio = decision->est_hit_ratio;
    config.switch_threshold = options.adaptive_switch_threshold;
    config.probe_acquires = options.adaptive_probe_acquires;
    executor->ArmAdaptive(config);
  }
  uint64_t switches = 0;
  Result<std::vector<Value>> rows = executor->RunPhysical(physical->get());
  if (!rows.ok() && rows.status().code() == StatusCode::kStrategySwitch) {
    // The observed hit ratio contradicted the estimate: re-plan the query
    // with the best unnested alternative. Attempt 1's rows are discarded
    // (the fresh run recomputes everything, so results stay bit-identical
    // to a forced run of `fallback`), but its spent work counts: attempt 2
    // sees only the remaining timeout / max_rows budgets, and the stats
    // accumulate across both attempts.
    switches = 1;
    RunOptions remaining = options;
    if (options.timeout_ms > 0) {
      const int64_t elapsed_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      if (elapsed_ms >= options.timeout_ms) {
        return Status::DeadlineExceeded(StrCat(
            "query exceeded timeout of ", options.timeout_ms, " ms"));
      }
      remaining.timeout_ms = options.timeout_ms - elapsed_ms;
    }
    if (options.max_rows > 0) {
      const uint64_t consumed =
          executor->stats().rows_emitted + executor->stats().rows_built;
      if (consumed >= options.max_rows) {
        return Status::ResourceExhausted(
            StrCat("query processed ", consumed,
                   " rows, over the max_rows budget of ", options.max_rows));
      }
      remaining.max_rows = options.max_rows - consumed;
    }
    ApplyGovernance(remaining, executor);
    chosen = fallback;
    TMDB_ASSIGN_OR_RETURN(LogicalOpPtr replan, PlanForStrategy(naive, chosen));
    TMDB_ASSIGN_OR_RETURN(PhysicalOpPtr rephysical,
                          MakePlanner(options).Plan(replan));
    // No adaptive re-arm: at most one switch per query.
    rows = executor->RunPhysical(rephysical.get());
  }
  TMDB_RETURN_IF_ERROR(rows.status());
  QueryResult result;
  result.rows = std::move(*rows);
  result.stats = executor->stats();
  result.stats.strategy_chosen = StrategyStatCode(chosen);
  result.stats.strategy_switches = switches;
  result.stats.est_distinct_corr = decision->est_distinct_corr;
  result.strategy = chosen;
  result.auto_strategy = true;
  return result;
}

std::string StatementResult::ToString(size_t max_rows) const {
  if (is_query) return query.ToString(max_rows);
  return message + "\n";
}

Result<StatementResult> Database::Execute(const std::string& statement,
                                          const RunOptions& options,
                                          Executor* executor) {
  TMDB_ASSIGN_OR_RETURN(StatementPtr parsed, ParseStatement(statement));
  return ExecuteParsed(*parsed, options, executor);
}

Result<std::vector<StatementResult>> Database::ExecuteScript(
    const std::string& script, RunOptions options) {
  TMDB_ASSIGN_OR_RETURN(std::vector<StatementPtr> statements,
                        ParseScript(script));
  std::vector<StatementResult> results;
  results.reserve(statements.size());
  for (const StatementPtr& statement : statements) {
    TMDB_ASSIGN_OR_RETURN(StatementResult result,
                          ExecuteParsed(*statement, options));
    results.push_back(std::move(result));
  }
  return results;
}

Result<StatementResult> Database::ExecuteParsed(const Statement& statement,
                                                const RunOptions& options,
                                                Executor* executor) {
  StatementResult result;
  switch (statement.kind) {
    case Statement::Kind::kQuery: {
      Executor local(options.num_threads);
      if (executor == nullptr) executor = &local;
      TMDB_ASSIGN_OR_RETURN(result.query,
                            RunQueryAst(*statement.query, options, executor));
      result.is_query = true;
      return result;
    }
    case Statement::Kind::kCreateTable: {
      TMDB_ASSIGN_OR_RETURN(Type schema,
                            ResolveTypeAst(*statement.schema, catalog_));
      TMDB_RETURN_IF_ERROR(
          catalog_.CreateTable(statement.target, std::move(schema)).status());
      result.message = StrCat("created table ", statement.target);
      return result;
    }
    case Statement::Kind::kDefineSort: {
      TMDB_ASSIGN_OR_RETURN(Type sort,
                            ResolveTypeAst(*statement.schema, catalog_));
      TMDB_RETURN_IF_ERROR(catalog_.DefineSort(statement.target,
                                               std::move(sort)));
      result.message = StrCat("defined sort ", statement.target);
      return result;
    }
    case Statement::Kind::kInsert: {
      TMDB_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                            catalog_.GetTable(statement.target));
      Binder binder(&catalog_);
      Executor executor;
      Environment empty;
      size_t inserted = 0;
      for (const AstPtr& value_ast : statement.values) {
        TMDB_ASSIGN_OR_RETURN(Expr expr, binder.BindExpression(*value_ast));
        TMDB_ASSIGN_OR_RETURN(Value row, EvalExpr(expr, empty, &executor));
        TMDB_RETURN_IF_ERROR(table->Insert(std::move(row)));
        ++inserted;
      }
      result.message = StrCat("inserted ", inserted, " row(s) into ",
                              statement.target);
      return result;
    }
    case Statement::Kind::kExplain: {
      TMDB_ASSIGN_OR_RETURN(result.message,
                            ExplainAst(*statement.query, options));
      return result;
    }
  }
  return Status::Internal("unhandled statement kind");
}

Result<std::string> Database::Explain(const std::string& query,
                                      Strategy strategy) {
  TMDB_ASSIGN_OR_RETURN(AstPtr ast, ParseQuery(query));
  RunOptions options;
  options.strategy = strategy;
  return ExplainAst(*ast, options);
}

Result<std::string> Database::ExplainAst(const AstNode& ast,
                                         const RunOptions& options) {
  Binder binder(&catalog_);
  TMDB_ASSIGN_OR_RETURN(LogicalOpPtr naive, binder.BindQuery(ast));
  Strategy strategy = options.strategy;
  std::string costing;
  if (strategy == Strategy::kAuto) {
    // Same model, options and seed as RunAuto (minus the guard — EXPLAIN is
    // not governed), so the table shows exactly what a run would choose.
    CostModel model(MakeCostModelOptions(options, nullptr));
    TMDB_ASSIGN_OR_RETURN(StrategyDecision decision,
                          ChooseStrategy(naive, model));
    costing = decision.ToTable();
    strategy = decision.chosen;
  }
  UnnestReport report;
  TMDB_ASSIGN_OR_RETURN(LogicalOpPtr rewritten,
                        PlanForStrategy(naive, strategy, &report));
  Planner planner;
  TMDB_ASSIGN_OR_RETURN(PhysicalOpPtr physical, planner.Plan(rewritten));

  std::string out;
  out += "== query ==\n" + ast.ToString() + "\n";
  out += "\n== naive logical plan ==\n" + naive->ToString();
  if (options.strategy == Strategy::kAuto) {
    out += "\n== strategy costing (auto) ==\n" + costing;
    out += StrCat("\n== rewritten (auto -> ", StrategyName(strategy),
                  ") logical plan ==\n", rewritten->ToString());
  } else {
    out += StrCat("\n== rewritten (", StrategyName(strategy),
                  ") logical plan ==\n", rewritten->ToString());
  }
  if (!report.events.empty()) {
    out += "\n== unnesting decisions (Table 2) ==\n" + report.ToString();
  }
  out += "\n== physical plan ==\n" + physical->ToString();
  return out;
}

}  // namespace tmdb
