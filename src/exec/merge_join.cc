#include "exec/merge_join.h"

#include <utility>

#include "base/string_util.h"
#include "exec/spill_util.h"
#include "values/value_ops.h"

namespace tmdb {

size_t MergeJoinOp::SortedSide::resident() const {
  if (reader != nullptr) return reader->resident();
  return sorter != nullptr ? sorter->resident() : 0;
}

void MergeJoinOp::SortedSide::Reset(QueryGuard* guard) {
  reader.reset();  // removes any remaining run files
  sorter.reset();
  res.Reset(guard);
}

Result<bool> MergeJoinOp::SpillResident() {
  SortedSide* side = left_side_.resident() >= right_side_.resident()
                         ? &left_side_
                         : &right_side_;
  const size_t before = side->resident();
  if (before == 0) return false;
  {
    // The trip stands until the records are shed; only cancellation,
    // deadline, max_rows and injected faults fire during the write-out.
    MemoryCheckSuspension suspend(ctx_->guard);
    TMDB_RETURN_IF_ERROR(side->reader != nullptr ? side->reader->SpillRest()
                                                 : side->sorter->SpillRun());
  }
  side->res.Shrink((before - side->resident()) * sizeof(SortRecord));
  return true;
}

template <typename Retry>
Status MergeJoinOp::SpillOnTrip(Status st, Retry retry) {
  while (SpillEligibleTrip(ctx_, st)) {
    TMDB_ASSIGN_OR_RETURN(bool moved, SpillResident());
    if (!moved) break;
    st = retry();
  }
  return st;
}

Status MergeJoinOp::SortSide(PhysicalOp* source, const std::vector<Expr>& keys,
                             const std::string& var, SortedSide* side,
                             const char* label) {
  side->sorter = std::make_unique<ExternalSorter>(
      ctx_->spill, label, [this] { return CheckGuard(ctx_); },
      SortStatsSink{&ctx_->stats->spill_sort_runs,
                    &ctx_->stats->spill_bytes_written,
                    &ctx_->stats->spill_bytes_read});
  TMDB_RETURN_IF_ERROR(source->Open(ctx_));
  std::vector<Value> batch;
  std::vector<Value> batch_keys;
  while (true) {
    batch.clear();
    TMDB_ASSIGN_OR_RETURN(size_t got,
                          source->NextBatch(&batch, kExecBatchSize));
    if (got == 0) break;
    ctx_->stats->rows_built += got;
    batch_keys.resize(got);
    for (size_t i = 0; i < got; ++i) {
      const auto eval = [&]() -> Status {
        TMDB_ASSIGN_OR_RETURN(batch_keys[i],
                              EvalCompositeKey(keys, var, batch[i], ctx_));
        return Status::OK();
      };
      TMDB_RETURN_IF_ERROR(SpillOnTrip(eval(), eval));
    }
    for (size_t i = 0; i < got; ++i) {
      side->sorter->Add(std::move(batch_keys[i]), std::move(batch[i]));
    }
    // The batch's checkpoint, charged once its records are in the sorter,
    // so a trip here can move them to disk with the rest of the chunk.
    TMDB_RETURN_IF_ERROR(
        SpillOnTrip(side->res.Add(got * sizeof(SortRecord)),
                    [this] { return CheckGuard(ctx_); }));
  }
  source->Close();
  // Merge passes move records between files without growing memory; the
  // block buffers they hold are transient and bounded.
  MemoryCheckSuspension suspend(ctx_->guard);
  TMDB_ASSIGN_OR_RETURN(side->reader, side->sorter->Finish());
  side->sorter.reset();
  return Status::OK();
}

Status MergeJoinOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  kernel_.ClearNames();
  serve_.Clear();
  left_side_.Reset(ctx->guard);
  right_side_.Reset(ctx->guard);
  left_row_ = SortRecord();
  left_valid_ = false;
  right_pending_ = SortRecord();
  right_pending_valid_ = false;
  right_run_.clear();
  right_run_key_ = Value();
  right_run_valid_ = false;
  right_run_done_ = false;
  steps_ = 0;
  run_res_.Reset(ctx->guard);
  TMDB_RETURN_IF_ERROR(SortSide(left_.get(), left_keys_, spec_.left_var,
                                &left_side_, "mj-left"));
  return SortSide(right_.get(), right_keys_, spec_.right_var, &right_side_,
                  "mj-right");
}

Status MergeJoinOp::LoadRightRun(const Value& key) {
  if (!right_run_valid_ || right_run_key_.Compare(key) != 0) {
    run_res_.Shrink(right_run_.size() * sizeof(Value));
    right_run_.clear();
    right_run_key_ = key;
    right_run_valid_ = true;
    right_run_done_ = false;
  }
  // Skip right rows below the key and buffer the equal-key run. The run is
  // resident state during the merge, so its slots are charged with the
  // memory check live.
  while (!right_run_done_) {
    if (!right_pending_valid_) {
      TMDB_ASSIGN_OR_RETURN(right_pending_valid_,
                            right_side_.reader->Next(&right_pending_));
      if (!right_pending_valid_) {
        right_run_done_ = true;
        break;
      }
    }
    const int c = right_pending_.key.Compare(key);
    if (c > 0) {
      right_run_done_ = true;  // the next run's first row stays pending
      break;
    }
    right_pending_valid_ = false;
    if (c == 0) {
      right_run_.push_back(std::move(right_pending_.row));
      Status slot = run_res_.Add(sizeof(Value));
      if (slot.code() == StatusCode::kResourceExhausted &&
          ctx_->guard != nullptr && ctx_->guard->last_trip_was_memory()) {
        return slot.WithContext(
            "merge join: one equal-key run alone exceeds the memory budget");
      }
      TMDB_RETURN_IF_ERROR(slot);
    }
    TMDB_RETURN_IF_ERROR(CountStep());
  }
  return Status::OK();
}

Status MergeJoinOp::CountStep() {
  return (++steps_ & (kExecBatchSize - 1)) == 0 ? CheckGuard(ctx_)
                                                   : Status::OK();
}

Result<bool> MergeJoinOp::Refill() {
  // One left row at a time, straight from its sorted side: a spilled side
  // then holds one decoded left row, not a batch of them. A trip anywhere
  // in a row's step may move resident records to disk and retry the step;
  // each part resumes where it stopped, and the retry drops the row's
  // partial output first.
  bool have = true;
  const auto step = [&]() -> Status {
    serve_.rows()->clear();
    if (!left_valid_) {
      TMDB_RETURN_IF_ERROR(CountStep());
      TMDB_ASSIGN_OR_RETURN(have, left_side_.reader->Next(&left_row_));
      if (!have) return Status::OK();
      left_valid_ = true;
    }
    TMDB_RETURN_IF_ERROR(LoadRightRun(left_row_.key));
    const Value* it = right_run_.data();
    const Value* const end = it + right_run_.size();
    return kernel_.Join(
        left_row_.row, [&] { return it == end ? nullptr : it++; }, ctx_, &steps_,
        serve_.rows());
  };
  while (true) {
    TMDB_RETURN_IF_ERROR(SpillOnTrip(step(), step));
    if (!have) return false;
    left_valid_ = false;
    if (!serve_.rows()->empty()) return true;
  }
}

Result<size_t> MergeJoinOp::NextBatch(std::vector<Value>* out, size_t max) {
  return serve_.Serve(out, max, ctx_->stats, [this] { return Refill(); });
}

void MergeJoinOp::Close() {
  kernel_.ClearNames();
  serve_.Clear();
  left_side_.Reset(nullptr);
  right_side_.Reset(nullptr);
  left_row_ = SortRecord();
  left_valid_ = false;
  right_pending_ = SortRecord();
  right_pending_valid_ = false;
  right_run_.clear();
  right_run_key_ = Value();
  right_run_valid_ = false;
  run_res_.Release();
  // Usually closed inside SortSide; matters on mid-drain unwind.
  left_->Close();
  right_->Close();
}

std::string MergeJoinOp::Describe() const {
  std::vector<std::string> keys;
  keys.reserve(left_keys_.size());
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    keys.push_back(left_keys_[i].ToString() + " = " +
                   right_keys_[i].ToString());
  }
  return StrCat("MergeJoin<", JoinModeName(spec_.mode), ">[", spec_.left_var,
                ",", spec_.right_var, " : keys(", Join(keys, ", "), ")]");
}

}  // namespace tmdb
