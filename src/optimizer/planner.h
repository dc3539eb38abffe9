#ifndef TMDB_OPTIMIZER_PLANNER_H_
#define TMDB_OPTIMIZER_PLANNER_H_

#include <string>
#include <vector>

#include "algebra/logical_op.h"
#include "base/result.h"
#include "exec/physical_op.h"
#include "optimizer/cost_model.h"
#include "translate/strategies.h"

namespace tmdb {

/// Which join implementation the planner may pick. This is the whole point
/// of unnesting (paper, Sections 1–2): a nested query *is* a nested-loop
/// join; once flattened, the optimizer can choose hash or sort-merge
/// implementations instead.
enum class JoinImpl {
  kAuto,        // cost-based choice
  kNestedLoop,  // force nested loops (what the nested form is stuck with)
  kHash,
  kMerge,
};

std::string JoinImplName(JoinImpl impl);

struct PlannerOptions {
  JoinImpl join_impl = JoinImpl::kAuto;
  /// Parallelism degree the executor will run with. The cost model divides
  /// the hash build/probe cost by it, since those phases parallelise; with
  /// the default of 1 the costs (and all plans) are exactly the serial ones.
  int num_threads = 1;
  /// Whether the executor will run with spill-to-disk available
  /// (RunOptions::enable_spill). Hash joins then degrade gracefully under a
  /// memory budget instead of failing, so under pressure a hash plan is
  /// strictly safer than the nested-loop fallback. The cost model is not
  /// adjusted — spilling changes failure behaviour, not the expected cost
  /// of the in-memory path — but the flag is threaded through so a future
  /// cost model can prefer spillable operators when budgets are tight.
  bool spill_available = false;
  /// Let scans expose columnar batches, selections compile column
  /// predicates, and hash joins resolve raw-key fast paths. Purely a
  /// physical-execution choice: results and stats are bit-identical either
  /// way, so this exists for A/B testing and diagnosis.
  bool enable_columnar = true;
};

/// Cardinality estimate for a logical operator (input sizes from table
/// row counts; crude textbook selectivities — enough to rank join
/// implementations, which is all the cost model is used for).
double EstimateCardinality(const LogicalOp& op);

/// Translates a logical plan into a physical one.
///
/// For join-family operators the planner extracts equi-key conjuncts
/// (f(x) = g(y) with each side referencing only one operand variable) and
/// picks an implementation:
///   - keys found + kAuto: hash join vs nested loop by a simple cost
///     formula (hash ≈ |L|+|R|, NL ≈ |L|·|R|); sort-merge costs at least
///     the hash join's |L|+|R|, so it is used only when forced;
///   - no keys: nested loop (the only general implementation);
///   - forced via options: that implementation (falls back to nested loop
///     when keys are required but absent).
///
/// The nest join honours the paper's build-side restriction: the right
/// operand is always the hash build side / the run-grouped side.
class Planner {
 public:
  explicit Planner(PlannerOptions options = PlannerOptions())
      : options_(options) {}

  Result<PhysicalOpPtr> Plan(const LogicalOpPtr& logical) const;

 private:
  PlannerOptions options_;
};

/// One costed candidate of the strategy enumeration.
struct StrategyAlternative {
  Strategy strategy = Strategy::kNaive;
  bool feasible = true;
  double est_rows = 0;
  double est_cost = 0;
  std::string note;  // infeasibility reason; empty otherwise
};

/// Outcome of the cost-based strategy choice (strategy = auto): the chosen
/// strategy, every costed alternative, the headline correlation estimate,
/// and a one-line reason. EXPLAIN prints ToTable(); the Database arms the
/// adaptive switch from est_hit_ratio.
struct StrategyDecision {
  Strategy chosen = Strategy::kNestJoin;
  std::vector<StrategyAlternative> alternatives;
  /// False when the query has no nested subquery — the rewrite is a no-op
  /// and enumeration (including sampling) is skipped entirely.
  bool costed = false;
  uint64_t outer_rows = 0;
  uint64_t est_distinct_corr = 0;
  double est_hit_ratio = 0.0;
  std::string reason;

  /// The costed-alternatives table EXPLAIN prints. Deterministic for fixed
  /// data + sample seed (golden-file tested).
  std::string ToTable() const;

  /// Cheapest feasible non-naive alternative — the adaptive switch target.
  /// Returns false when every non-naive candidate was infeasible.
  bool BestUnnested(Strategy* out) const;
};

/// Costs {memoized naive, nest join, semi/anti join, flatten} for
/// `naive_plan` via `model` and picks the cheapest (ties prefer the
/// unnested strategies, the paper's default). Kim's algorithm is excluded:
/// it reproduces the COUNT bug by design and is never a correct choice.
/// Queries without nested subqueries return chosen = kNestJoin uncosted.
Result<StrategyDecision> ChooseStrategy(const LogicalOpPtr& naive_plan,
                                        const CostModel& model);

/// Splits `pred` (over `left_var`/`right_var`) into equi-key pairs and a
/// residual predicate. Exposed for tests and benches.
struct EquiKeySplit {
  std::vector<Expr> left_keys;
  std::vector<Expr> right_keys;
  Expr residual;
};
EquiKeySplit SplitEquiKeys(const Expr& pred, const std::string& left_var,
                           const std::string& right_var);

}  // namespace tmdb

#endif  // TMDB_OPTIMIZER_PLANNER_H_
