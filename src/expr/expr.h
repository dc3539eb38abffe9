#ifndef TMDB_EXPR_EXPR_H_
#define TMDB_EXPR_EXPR_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "base/result.h"
#include "types/type.h"
#include "values/value.h"

namespace tmdb {

class Expr;

namespace internal_expr {
struct ExprNode;
}  // namespace internal_expr

/// Binary operators of the typed expression IR. The set mirrors what the
/// paper's predicates between query blocks need: arithmetic, (in)equality,
/// ordering, boolean connectives, and the set operators whose rewritability
/// Table 2 classifies.
enum class BinaryOp {
  // arithmetic (numeric × numeric)
  kAdd,
  kSub,
  kMul,
  kDiv,
  // equality (any × any, structural)
  kEq,
  kNe,
  // ordering (numeric or string)
  kLt,
  kLe,
  kGt,
  kGe,
  // boolean connectives
  kAnd,
  kOr,
  // membership (elem × set/list)
  kIn,
  kNotIn,
  // set algebra (set × set)
  kUnion,
  kIntersect,
  kDifference,
  // set comparisons (set × set)
  kSubsetEq,    // a ⊆ b
  kSubset,      // a ⊂ b
  kSupersetEq,  // a ⊇ b
  kSuperset,    // a ⊃ b
};

enum class UnaryOp {
  kNot,     // boolean negation
  kNeg,     // numeric negation
  kIsNull,  // true iff the operand is NULL (outerjoin baseline only)
  kUnnest,  // UNNEST(S) = ∪{s | s ∈ S} — collapses a set of sets (Section 5)
};

/// Aggregate functions that may occur between query blocks.
enum class AggFunc { kCount, kSum, kAvg, kMin, kMax };

/// Quantifier kinds. FORALL x ∈ S (p) and EXISTS x ∈ S (p); the rewriter
/// normalises FORALL into ¬EXISTS¬ per Theorem 1.
enum class QuantKind { kExists, kForAll };

enum class ExprKind {
  kLiteral,
  kVarRef,
  kFieldAccess,
  kBinary,
  kUnary,
  kQuantifier,
  kAggregate,
  kTupleCtor,
  kSetCtor,
  kSubplan,
};

/// Interface behind which a correlated subquery plan hides inside an
/// expression. Defined here (not in algebra/) to keep the dependency
/// one-way: algebra implements this with a LogicalOp inside, and the
/// executor downcasts. A subplan expression is exactly the paper's "nested
/// SFW in the predicate" before unnesting: evaluating it runs the inner
/// block once per binding of its free variables — nested-loop semantics.
class SubplanBase {
 public:
  virtual ~SubplanBase() = default;
  /// Single-line rendering for plan/expression printers.
  virtual std::string ToString() const = 0;
  /// The free (correlation) variables of the inner block, e.g. {"x"} for
  /// `SELECT y.a FROM Y y WHERE x.b = y.b`.
  virtual const std::set<std::string>& free_vars() const = 0;
};

/// An immutable, typed expression. Cheap to copy (shared nodes); rewrites
/// build new trees that share unchanged subtrees. Every node knows its
/// result Type, computed bottom-up by the checked factories, which return a
/// TypeError Status on ill-typed construction.
///
/// Variables are referenced by name; scoping is positional (quantifiers and
/// query blocks bind names). Substitute() is capture-avoiding with respect
/// to quantifier-bound names.
class Expr {
 public:
  /// Constructs the literal `true`; prefer the factories.
  Expr();

  // -- Checked factories ----------------------------------------------------

  static Expr Literal(Value v);
  /// Variable reference with its declared type (sema supplies it).
  static Expr Var(std::string name, Type type);
  /// base.field — base must be a tuple type with that field.
  static Result<Expr> Field(Expr base, std::string field);
  static Result<Expr> Binary(BinaryOp op, Expr lhs, Expr rhs);
  static Result<Expr> Unary(UnaryOp op, Expr operand);
  /// QUANTIFIER var ∈ collection (pred). `pred` may reference `var`.
  static Result<Expr> Quantifier(QuantKind kind, std::string var,
                                 Expr collection, Expr pred);
  static Result<Expr> Aggregate(AggFunc func, Expr collection);
  static Result<Expr> MakeTuple(std::vector<std::string> names,
                                std::vector<Expr> elements);
  /// Set constructor {e1, ..., en}; n may be 0 (empty set, element type ANY
  /// unless `element_type` is supplied).
  static Result<Expr> MakeSet(std::vector<Expr> elements,
                              Type element_type = Type::Any());
  /// Wraps a correlated subquery plan. `type` is the subquery result type
  /// (always a set type for SFW).
  static Expr Subplan(std::shared_ptr<const SubplanBase> plan, Type type);

  // -- Convenience builders for known-well-typed trees ----------------------

  /// Unwraps a Result<Expr>, aborting on error. For engine-internal
  /// construction where a type error is a bug, and for tests.
  static Expr Must(Result<Expr> r);

  static Expr True() { return Literal(Value::Bool(true)); }
  static Expr False() { return Literal(Value::Bool(false)); }
  /// ¬e (checked precondition: e is boolean).
  static Expr Not(Expr e) { return Must(Unary(UnaryOp::kNot, std::move(e))); }
  /// a ∧ b, with the simplifications true∧b = b etc. applied.
  static Expr And(Expr a, Expr b);
  /// Conjunction of a list; True() for the empty list.
  static Expr AndAll(std::vector<Expr> conjuncts);

  // -- Accessors -------------------------------------------------------------

  ExprKind expr_kind() const;
  const Type& type() const;

  bool is_literal() const { return expr_kind() == ExprKind::kLiteral; }
  bool is_var() const { return expr_kind() == ExprKind::kVarRef; }
  bool is_field_access() const {
    return expr_kind() == ExprKind::kFieldAccess;
  }
  bool is_binary() const { return expr_kind() == ExprKind::kBinary; }
  bool is_unary() const { return expr_kind() == ExprKind::kUnary; }
  bool is_quantifier() const { return expr_kind() == ExprKind::kQuantifier; }
  bool is_aggregate() const { return expr_kind() == ExprKind::kAggregate; }
  bool is_tuple_ctor() const { return expr_kind() == ExprKind::kTupleCtor; }
  bool is_set_ctor() const { return expr_kind() == ExprKind::kSetCtor; }
  bool is_subplan() const { return expr_kind() == ExprKind::kSubplan; }

  /// kLiteral payload.
  const Value& literal_value() const;
  /// kVarRef payload.
  const std::string& var_name() const;
  /// kFieldAccess payload.
  const Expr& field_base() const;
  const std::string& field_name() const;
  /// kBinary payload.
  BinaryOp binary_op() const;
  const Expr& lhs() const;
  const Expr& rhs() const;
  /// kUnary payload.
  UnaryOp unary_op() const;
  const Expr& operand() const;
  /// kQuantifier payload.
  QuantKind quant_kind() const;
  const std::string& quant_var() const;
  const Expr& quant_collection() const;
  const Expr& quant_pred() const;
  /// kAggregate payload.
  AggFunc agg_func() const;
  const Expr& agg_arg() const;
  /// kTupleCtor payload.
  const std::vector<std::string>& ctor_names() const;
  /// The same names as one shared list, for building the tuples.
  const TupleNames& ctor_tuple_names() const;
  /// kTupleCtor / kSetCtor payload.
  const std::vector<Expr>& ctor_elements() const;
  /// kSubplan payload.
  const SubplanBase& subplan() const;
  std::shared_ptr<const SubplanBase> subplan_ptr() const;

  // -- Analysis & rewriting ---------------------------------------------------

  /// Structural equality (types included).
  bool Equals(const Expr& other) const;

  /// Names of free variables (unbound by any enclosing quantifier in this
  /// tree). Subplan nodes report the free variables recorded at creation.
  std::set<std::string> FreeVars() const;

  /// True if `name` occurs free in this expression.
  bool References(const std::string& name) const;

  /// Replaces free occurrences of variable `name` with `replacement`
  /// (capture-avoiding: occurrences bound by an inner quantifier with the
  /// same name are untouched). Substitution does not descend into subplans;
  /// expressions containing subplans that reference `name` return an error.
  Result<Expr> Substitute(const std::string& name,
                          const Expr& replacement) const;

  /// Infix rendering, e.g. `(x.a ⊆ z) ∧ EXISTS v ∈ z (v = x.b)`.
  std::string ToString() const;

 private:
  using Node = internal_expr::ExprNode;
  explicit Expr(std::shared_ptr<const Node> node) : node_(std::move(node)) {}

  std::shared_ptr<const Node> node_;
};

/// Human-readable operator symbol, e.g. "⊆" for kSubsetEq.
std::string BinaryOpSymbol(BinaryOp op);
std::string AggFuncName(AggFunc func);

}  // namespace tmdb

#endif  // TMDB_EXPR_EXPR_H_
