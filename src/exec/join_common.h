#ifndef TMDB_EXEC_JOIN_COMMON_H_
#define TMDB_EXEC_JOIN_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "base/result.h"
#include "exec/exec_context.h"
#include "exec/physical_op.h"
#include "exec/query_guard.h"
#include "expr/expr.h"
#include "types/type.h"
#include "values/value.h"
#include "values/value_ops.h"

namespace tmdb {

/// The join flavours every join implementation supports. kNestJoin is the
/// paper's operator: one output tuple per left row, extended with the set of
/// G-images of its matches (dangling rows get ∅).
enum class JoinMode {
  kInner,
  kSemi,
  kAnti,
  kLeftOuter,
  kNestJoin,
};

std::string JoinModeName(JoinMode mode);

/// Parameters shared by all join implementations.
struct JoinSpec {
  JoinMode mode = JoinMode::kInner;
  std::string left_var;
  std::string right_var;
  /// Full predicate for nested-loop joins; *residual* predicate (after key
  /// extraction) for hash and merge joins. Expr::True() if none.
  Expr pred;
  /// NestJoin G function (over left_var, right_var). Unused otherwise.
  Expr func;
  /// NestJoin grouped-attribute label. Unused otherwise.
  std::string label;
  /// Row type of the right input; needed by kLeftOuter to pad dangling
  /// tuples even when the right input is empty.
  Type right_type;
};

/// One equi-key pair: left expression over left_var, right expression over
/// right_var, such that the conjunct `left = right` held in the original
/// predicate. Hash and merge joins match on the vector of all keys.
struct EquiKey {
  Expr left;
  Expr right;
};

/// Evaluates the composite key [k1, ..., kn] of `row` bound to `var`.
/// Returned as a list value so it hashes/compares as one unit.
Result<Value> EvalCompositeKey(const std::vector<Expr>& keys,
                               const std::string& var, const Value& row,
                               ExecContext* ctx);

/// Evaluates `spec.pred` with both variables bound.
Result<bool> EvalJoinPred(const JoinSpec& spec, const Value& left_row,
                          const Value& right_row, ExecContext* ctx);

/// Evaluates `spec.func` (the nest join G) with both variables bound.
Result<Value> EvalJoinFunc(const JoinSpec& spec, const Value& left_row,
                           const Value& right_row, ExecContext* ctx);

/// The per-left-row join of the hash and merge joins, in every mode: one
/// left row against the candidate right rows its key found (a JoinTable
/// slot's chain, or a merge run). The nested-loop join keeps a switch of its
/// own, so the tests can check this one against it.
///
/// Each pair costs one predicate_eval, also when the residual is literal
/// true and nothing is evaluated, and an identity G (= right_var) hands back
/// the right row: both exactly what the evaluator would produce. The walk
/// checkpoints every kExecBatchSize pairs of a count the caller keeps, not
/// of predicate_evals, which carries over from one run of an executor to
/// the next: a run's checkpoints must not depend on the runs before it.
class JoinKernel {
 public:
  explicit JoinKernel(const JoinSpec& spec)
      : spec_(spec),
        pred_is_true_(spec.pred.Equals(Expr::True())),
        func_is_right_ident_(spec.func.is_var() &&
                             spec.func.var_name() == spec.right_var) {}

  /// Appends the output of `left_row` against the rows `next_row()` yields
  /// (nullptr at the end) to `out`, counting each pair in `*pairs`. A
  /// template over the walk, so the probe makes no indirect call per pair.
  template <typename NextRow>
  Status Join(const Value& left_row, NextRow next_row, ExecContext* ctx,
              uint64_t* pairs, std::vector<Value>* out) const;

  /// Appends G's image of one matching pair to `group`.
  Status Image(const Value& left_row, const Value& right_row,
               ExecContext* ctx, std::vector<Value>* group) const;
  /// Appends the nest join's output tuple: `left_row` extended with `set`.
  Status EmitGroup(const Value& left_row, const Value& set,
                   std::vector<Value>* out) const;

  bool pred_is_true() const { return pred_is_true_; }
  /// Drops the memoised output names lists; call at Open and Close.
  void ClearNames() { out_names_.Clear(); }

 private:
  const JoinSpec& spec_;
  const bool pred_is_true_;
  const bool func_is_right_ident_;
  // Names lists of the output tuples, one per input shape.
  mutable TupleNamesMemo out_names_;
};

template <typename NextRow>
Status JoinKernel::Join(const Value& left_row, NextRow next_row,
                        ExecContext* ctx,
                        uint64_t* pairs, std::vector<Value>* out) const {
  auto match = [&](const Value& right_row) -> Result<bool> {
    if ((++*pairs & (kExecBatchSize - 1)) == 0) {
      TMDB_RETURN_IF_ERROR(CheckGuard(ctx));
    }
    if (pred_is_true_) {
      ctx->stats->predicate_evals++;
      return true;
    }
    return EvalJoinPred(spec_, left_row, right_row, ctx);
  };
  switch (spec_.mode) {
    case JoinMode::kInner:
    case JoinMode::kLeftOuter: {
      bool matched = false;
      while (const Value* right_row = next_row()) {
        TMDB_ASSIGN_OR_RETURN(bool match_here, match(*right_row));
        if (!match_here) continue;
        matched = true;
        TMDB_ASSIGN_OR_RETURN(Value o,
                              ConcatTuples(left_row, *right_row, &out_names_));
        out->push_back(std::move(o));
      }
      if (spec_.mode == JoinMode::kLeftOuter && !matched) {
        TMDB_ASSIGN_OR_RETURN(
            Value o, ConcatTuples(left_row, NullTupleOfType(spec_.right_type),
                                  &out_names_));
        out->push_back(std::move(o));
      }
      return Status::OK();
    }
    case JoinMode::kSemi:
    case JoinMode::kAnti: {
      bool matched = false;
      while (const Value* right_row = next_row()) {
        TMDB_ASSIGN_OR_RETURN(matched, match(*right_row));
        if (matched) break;  // the first match decides
      }
      if (matched == (spec_.mode == JoinMode::kSemi)) out->push_back(left_row);
      return Status::OK();
    }
    case JoinMode::kNestJoin: {
      std::vector<Value> group;
      while (const Value* right_row = next_row()) {
        TMDB_ASSIGN_OR_RETURN(bool match_here, match(*right_row));
        if (match_here) {
          TMDB_RETURN_IF_ERROR(Image(left_row, *right_row, ctx, &group));
        }
      }
      return EmitGroup(left_row, Value::Set(std::move(group)), out);
    }
  }
  return Status::Internal("unhandled join mode");
}

/// A join's output rows waiting for its consumer, served by NextBatch.
class JoinOutput {
 public:
  std::vector<Value>* rows() { return &rows_; }
  /// Drops every row and frees the buffer.
  void Clear() {
    rows_.clear();
    rows_.shrink_to_fit();
    pos_ = 0;
  }

  /// Moves up to `max` rows to `out`, counting them in rows_emitted. Each
  /// time the buffer runs dry, `refill()` appends to rows(), or returns
  /// false at the end of the stream.
  template <typename Refill>
  Result<size_t> Serve(std::vector<Value>* out, size_t max, ExecStats* stats,
                       Refill&& refill) {
    size_t produced = 0;
    while (produced < max) {
      if (pos_ == rows_.size()) {
        rows_.clear();
        pos_ = 0;
        TMDB_ASSIGN_OR_RETURN(bool more, refill());
        if (!more) break;
        continue;
      }
      const size_t take = std::min(max - produced, rows_.size() - pos_);
      const auto from = rows_.begin() + static_cast<ptrdiff_t>(pos_);
      out->insert(out->end(), std::make_move_iterator(from),
                  std::make_move_iterator(from + static_cast<ptrdiff_t>(take)));
      pos_ += take;
      produced += take;
    }
    stats->rows_emitted += produced;
    return produced;
  }

 private:
  std::vector<Value> rows_;
  size_t pos_ = 0;
};

}  // namespace tmdb

#endif  // TMDB_EXEC_JOIN_COMMON_H_
