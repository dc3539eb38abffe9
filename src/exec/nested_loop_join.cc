#include "exec/nested_loop_join.h"

#include <utility>

#include "base/string_util.h"
#include "values/value_ops.h"

namespace tmdb {

namespace {

// The inner scans are the quadratic hot path a guard must bound without
// slowing: checkpoint once per kExecBatchSize predicate evaluations.
inline Status InnerLoopGuardCheck(ExecContext* ctx) {
  if ((ctx->stats->predicate_evals & (kExecBatchSize - 1)) == 0) {
    return CheckGuard(ctx);
  }
  return Status::OK();
}

}  // namespace

Status NestedLoopJoinOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  out_names_.Clear();
  right_rows_.clear();
  current_left_.reset();
  right_pos_ = 0;
  left_matched_ = false;
  build_res_.Reset(ctx->guard);

  TMDB_RETURN_IF_ERROR(right_->Open(ctx));
  while (true) {
    TMDB_ASSIGN_OR_RETURN(size_t got,
                          right_->NextBatch(&right_rows_, kExecBatchSize));
    if (got == 0) break;
    TMDB_RETURN_IF_ERROR(build_res_.Add(got * sizeof(Value)));
    ctx_->stats->rows_built += got;
  }
  right_->Close();
  return left_->Open(ctx);
}

Result<bool> NestedLoopJoinOp::AdvanceLeft() {
  TMDB_RETURN_IF_ERROR(CheckGuard(ctx_));
  TMDB_ASSIGN_OR_RETURN(std::optional<Value> row, left_->Next());
  if (!row.has_value()) {
    current_left_.reset();
    return false;
  }
  current_left_ = std::move(*row);
  right_pos_ = 0;
  left_matched_ = false;
  return true;
}

Result<std::optional<Value>> NestedLoopJoinOp::Next() {
  switch (spec_.mode) {
    case JoinMode::kInner:
    case JoinMode::kLeftOuter: {
      while (true) {
        if (!current_left_.has_value()) {
          TMDB_ASSIGN_OR_RETURN(bool more, AdvanceLeft());
          if (!more) return std::optional<Value>();
        }
        while (right_pos_ < right_rows_.size()) {
          TMDB_RETURN_IF_ERROR(InnerLoopGuardCheck(ctx_));
          const Value& right_row = right_rows_[right_pos_++];
          TMDB_ASSIGN_OR_RETURN(
              bool match, EvalJoinPred(spec_, *current_left_, right_row, ctx_));
          if (match) {
            left_matched_ = true;
            TMDB_ASSIGN_OR_RETURN(
                Value out,
                ConcatTuples(*current_left_, right_row, &out_names_));
            ctx_->stats->rows_emitted++;
            return std::optional<Value>(std::move(out));
          }
        }
        // Inner cursor exhausted for this left row.
        if (spec_.mode == JoinMode::kLeftOuter && !left_matched_) {
          // Pad with NULLs in the right attribute positions — the
          // relational fix that avoids losing dangling tuples.
          Value padded = NullTupleOfType(spec_.right_type);
          TMDB_ASSIGN_OR_RETURN(
              Value out, ConcatTuples(*current_left_, padded, &out_names_));
          current_left_.reset();
          ctx_->stats->rows_emitted++;
          return std::optional<Value>(std::move(out));
        }
        current_left_.reset();
      }
    }

    case JoinMode::kSemi:
    case JoinMode::kAnti: {
      const bool want_match = spec_.mode == JoinMode::kSemi;
      while (true) {
        TMDB_ASSIGN_OR_RETURN(bool more, AdvanceLeft());
        if (!more) return std::optional<Value>();
        bool matched = false;
        for (const Value& right_row : right_rows_) {
          TMDB_RETURN_IF_ERROR(InnerLoopGuardCheck(ctx_));
          TMDB_ASSIGN_OR_RETURN(
              bool match, EvalJoinPred(spec_, *current_left_, right_row, ctx_));
          if (match) {
            matched = true;
            break;
          }
        }
        if (matched == want_match) {
          ctx_->stats->rows_emitted++;
          Value out = std::move(*current_left_);
          current_left_.reset();
          return std::optional<Value>(std::move(out));
        }
      }
    }

    case JoinMode::kNestJoin: {
      TMDB_ASSIGN_OR_RETURN(bool more, AdvanceLeft());
      if (!more) return std::optional<Value>();
      // Collect G(x, y) over all matches — an output tuple can be produced
      // only once the entire match set is known (paper, Section 6).
      std::vector<Value> group;
      for (const Value& right_row : right_rows_) {
        TMDB_RETURN_IF_ERROR(InnerLoopGuardCheck(ctx_));
        TMDB_ASSIGN_OR_RETURN(
            bool match, EvalJoinPred(spec_, *current_left_, right_row, ctx_));
        if (match) {
          TMDB_ASSIGN_OR_RETURN(
              Value g, EvalJoinFunc(spec_, *current_left_, right_row, ctx_));
          group.push_back(std::move(g));
        }
      }
      TMDB_ASSIGN_OR_RETURN(
          Value out,
          ExtendTuple(*current_left_, spec_.label,
                      Value::Set(std::move(group)), &out_names_));
      current_left_.reset();
      ctx_->stats->rows_emitted++;
      return std::optional<Value>(std::move(out));
    }
  }
  return Status::Internal("unhandled join mode");
}

void NestedLoopJoinOp::Close() {
  out_names_.Clear();
  right_rows_.clear();
  current_left_.reset();
  build_res_.Release();
  left_->Close();
  // Usually closed at the end of Open's drain; matters on mid-drain unwind.
  right_->Close();
}

std::string NestedLoopJoinOp::Describe() const {
  std::string out = StrCat("NestedLoopJoin<", JoinModeName(spec_.mode), ">[",
                           spec_.left_var, ",", spec_.right_var, " : ",
                           spec_.pred.ToString());
  if (spec_.mode == JoinMode::kNestJoin) {
    out += StrCat(", G = ", spec_.func.ToString(), "; ", spec_.label);
  }
  out += "]";
  return out;
}

}  // namespace tmdb
