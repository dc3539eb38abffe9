#ifndef TMDB_EXPR_EVAL_H_
#define TMDB_EXPR_EVAL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/result.h"
#include "expr/expr.h"
#include "values/value.h"

namespace tmdb {

/// A chain of variable bindings. Each query block / quantifier pushes a new
/// frame; lookup walks outward, so inner bindings shadow outer ones — the
/// scoping rule of the SFW language.
class Environment {
 public:
  Environment() : parent_(nullptr) {}
  explicit Environment(const Environment* parent) : parent_(parent) {}

  // Environments reference their parent by pointer; copying would be
  // error-prone, moving is fine.
  Environment(const Environment&) = delete;
  Environment& operator=(const Environment&) = delete;
  Environment(Environment&&) = default;
  Environment& operator=(Environment&&) = default;

  /// Binds (or rebinds, within this frame) `name`.
  void Bind(const std::string& name, Value value);

  /// Innermost binding of `name`, or nullptr.
  const Value* Lookup(const std::string& name) const;

 private:
  using Binding = std::pair<std::string, Value>;
  static constexpr size_t kInlineBindings = 2;

  const Environment* parent_;
  // Frames are tiny (a join binds its two row variables, a quantifier one),
  // so the first bindings live in the object and a frame allocates nothing
  // for them; any further ones go to `more_`. Names are distinct within a
  // frame, and a linear scan beats a map.
  Binding inline_[kInlineBindings];
  size_t num_inline_ = 0;
  std::vector<Binding> more_;
};

struct ExecStats;

/// Callback used to evaluate kSubplan expressions — the naive nested-loop
/// path. Implemented by the executor; pure-expression users pass nullptr
/// and get an Unsupported error if a subplan is reached.
class SubplanEvaluator {
 public:
  virtual ~SubplanEvaluator() = default;
  virtual Result<Value> EvaluateSubplan(const SubplanBase& subplan,
                                        const Environment& env) = 0;

  /// Creates an evaluator another thread may use concurrently with this
  /// one, writing its work counters to `stats` (owned by the caller, summed
  /// back deterministically). Returns nullptr when the implementation
  /// cannot fork — callers then share `this`, which is only safe when it is
  /// thread-safe or the execution is serial.
  virtual std::unique_ptr<SubplanEvaluator> Fork(ExecStats* stats) {
    (void)stats;
    return nullptr;
  }
};

/// Evaluates a typed expression under `env`. AND/OR short-circuit;
/// quantifiers iterate the collection with the bound variable pushed in a
/// child frame. Returns TypeError/InvalidArgument for data-dependent
/// failures (e.g. division by zero).
Result<Value> EvalExpr(const Expr& expr, const Environment& env,
                       SubplanEvaluator* subplans = nullptr);

/// Evaluates a boolean expression, requiring a kBool result.
Result<bool> EvalPredicate(const Expr& expr, const Environment& env,
                           SubplanEvaluator* subplans = nullptr);

}  // namespace tmdb

#endif  // TMDB_EXPR_EVAL_H_
