#include "exec/nested_loop_join.h"

#include <utility>

#include "base/string_util.h"
#include "values/value_ops.h"

namespace tmdb {

Status NestedLoopJoinOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  out_names_.Clear();
  right_rows_.clear();
  left_batch_.clear();
  left_pos_ = 0;
  pairs_ = 0;
  serve_.Clear();
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

Result<bool> NestedLoopJoinOp::Refill() {
  while (true) {
    if (left_pos_ == left_batch_.size()) {
      TMDB_RETURN_IF_ERROR(CheckGuard(ctx_));
      left_batch_.clear();
      left_pos_ = 0;
      TMDB_ASSIGN_OR_RETURN(size_t got,
                            left_->NextBatch(&left_batch_, kExecBatchSize));
      if (got == 0) return false;
    }
    const Value left_row = std::move(left_batch_[left_pos_++]);
    TMDB_RETURN_IF_ERROR(JoinLeftRow(left_row, serve_.rows()));
    if (!serve_.rows()->empty()) return true;
  }
}

Status NestedLoopJoinOp::JoinLeftRow(const Value& left_row,
                                     std::vector<Value>* out) {
  switch (spec_.mode) {
    case JoinMode::kInner:
    case JoinMode::kLeftOuter: {
      bool matched = false;
      for (const Value& right_row : right_rows_) {
        TMDB_RETURN_IF_ERROR(CountPair());
        TMDB_ASSIGN_OR_RETURN(bool match,
                              EvalJoinPred(spec_, left_row, right_row, ctx_));
        if (match) {
          matched = true;
          TMDB_ASSIGN_OR_RETURN(
              Value o, ConcatTuples(left_row, right_row, &out_names_));
          out->push_back(std::move(o));
        }
      }
      if (spec_.mode == JoinMode::kLeftOuter && !matched) {
        // Pad with NULLs in the right attribute positions — the
        // relational fix that avoids losing dangling tuples.
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
      for (const Value& right_row : right_rows_) {
        TMDB_RETURN_IF_ERROR(CountPair());
        TMDB_ASSIGN_OR_RETURN(matched,
                              EvalJoinPred(spec_, left_row, right_row, ctx_));
        if (matched) break;
      }
      if (matched == (spec_.mode == JoinMode::kSemi)) out->push_back(left_row);
      return Status::OK();
    }

    case JoinMode::kNestJoin: {
      // Collect G(x, y) over all matches — an output tuple can be produced
      // only once the entire match set is known (paper, Section 6).
      std::vector<Value> group;
      for (const Value& right_row : right_rows_) {
        TMDB_RETURN_IF_ERROR(CountPair());
        TMDB_ASSIGN_OR_RETURN(bool match,
                              EvalJoinPred(spec_, left_row, right_row, ctx_));
        if (match) {
          TMDB_ASSIGN_OR_RETURN(Value g,
                                EvalJoinFunc(spec_, left_row, right_row, ctx_));
          group.push_back(std::move(g));
        }
      }
      TMDB_ASSIGN_OR_RETURN(
          Value o, ExtendTuple(left_row, spec_.label,
                               Value::Set(std::move(group)), &out_names_));
      out->push_back(std::move(o));
      return Status::OK();
    }
  }
  return Status::Internal("unhandled join mode");
}

Status NestedLoopJoinOp::CountPair() {
  return (++pairs_ & (kExecBatchSize - 1)) == 0 ? CheckGuard(ctx_)
                                                : Status::OK();
}

Result<size_t> NestedLoopJoinOp::NextBatch(std::vector<Value>* out,
                                           size_t max) {
  return serve_.Serve(out, max, ctx_->stats, [this] { return Refill(); });
}

void NestedLoopJoinOp::Close() {
  out_names_.Clear();
  right_rows_.clear();
  left_batch_.clear();
  left_pos_ = 0;
  serve_.Clear();
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
