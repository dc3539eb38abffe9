#include "exec/merge_join.h"

#include <algorithm>
#include <utility>

#include "base/string_util.h"
#include "exec/spill_util.h"
#include "spill/value_codec.h"
#include "values/value_ops.h"

namespace tmdb {

namespace {

/// Floor on external-sort run size. When residency elsewhere in the plan
/// keeps the live memory check tripping, chunks still grow to this many
/// bytes (charged with the memory comparison suspended) before flushing, so
/// a sort can never degenerate into a run per record.
constexpr size_t kMinSortRunBytes = 64u << 10;

}  // namespace

void MergeJoinOp::SortedSide::Reset(QueryGuard* guard) {
  raw.clear();
  raw.shrink_to_fit();
  rows.clear();
  rows.shrink_to_fit();
  pos = 0;
  external = false;
  drained = false;
  salvageable = false;
  if (merger != nullptr) {
    merger->Close();  // removes any remaining run files
    merger.reset();
  }
  if (sorter != nullptr) {
    sorter->AbandonRuns();
    sorter.reset();
  }
  res.Reset(guard);
}

Status MergeJoinOp::MaterialiseSorted(PhysicalOp* source,
                                      const std::vector<Expr>& keys,
                                      const std::string& var,
                                      SortedSide* side) {
  TMDB_RETURN_IF_ERROR(source->Open(ctx_));
  // From here on a memory trip leaves `raw` intact and the source usable,
  // so the spill path can take over. Failures *from the source itself*
  // clear the flag below: they are the child's problem, and our spilling
  // would not relieve it.
  side->salvageable = true;

  std::vector<Value> batch;
  size_t charged_slots = 0;
  while (true) {
    // Charge the next batch's slots *before* fetching it, so a blown budget
    // trips with every drained row still in `raw` (salvageable).
    if (side->raw.size() + kExecBatchSize > charged_slots) {
      TMDB_RETURN_IF_ERROR(side->res.Add(kExecBatchSize * sizeof(Value)));
      charged_slots += kExecBatchSize;
    }
    TMDB_RETURN_IF_ERROR(CheckGuard(ctx_));
    batch.clear();
    Result<size_t> got = source->NextBatch(&batch, kExecBatchSize);
    if (!got.ok()) {
      side->salvageable = false;
      return got.status();
    }
    if (*got == 0) break;
    ctx_->stats->rows_built += *got;
    for (Value& row : batch) side->raw.push_back(std::move(row));
  }
  side->res.Shrink((charged_slots - side->raw.size()) * sizeof(Value));
  side->drained = true;
  source->Close();

  // Key pass: rows in `raw` are copied, never disturbed, so a trip while a
  // key subplan runs still salvages every row (the spill path recomputes
  // keys; subplan re-evaluations hit the cache).
  side->rows.reserve(side->raw.size());
  for (size_t i = 0; i < side->raw.size(); ++i) {
    if ((i & (kExecBatchSize - 1)) == 0) {
      TMDB_RETURN_IF_ERROR(CheckGuard(ctx_));
      TMDB_RETURN_IF_ERROR(side->res.Add(kExecBatchSize * sizeof(Keyed)));
    }
    TMDB_ASSIGN_OR_RETURN(Value key,
                          EvalCompositeKey(keys, var, side->raw[i], ctx_));
    side->rows.emplace_back(std::move(key), side->raw[i]);
  }
  std::stable_sort(side->rows.begin(), side->rows.end(),
                   [](const Keyed& a, const Keyed& b) {
                     return a.first.Compare(b.first) < 0;
                   });
  side->res.Shrink(side->raw.size() * sizeof(Value));
  side->raw.clear();
  side->raw.shrink_to_fit();
  return Status::OK();
}

Status MergeJoinOp::ExternalSortSide(PhysicalOp* source,
                                     const std::vector<Expr>& keys,
                                     const std::string& var, SortedSide* side,
                                     const char* label) {
  side->external = true;

  // Free the in-memory attempt wholesale: rows live on in `salvaged`
  // (re-charged below as they are encoded), partial key pairs are dropped.
  std::vector<Value> salvaged = std::move(side->raw);
  side->raw.clear();
  side->rows.clear();
  side->rows.shrink_to_fit();
  side->res.Release();

  side->sorter = std::make_unique<ExternalSorter>(
      ctx_->spill, label, [this] { return CheckGuard(ctx_); },
      SortStatsSink{&ctx_->stats->spill_sort_runs,
                    &ctx_->stats->spill_bytes_written,
                    &ctx_->stats->spill_bytes_read});

  // The whole write-out (and the merge passes after it) runs with the
  // memory comparison suspended: the trip that engaged this path stands
  // until the salvaged rows are shed, and any live checkpoint — ours or
  // the source's own — would re-trip instantly. Cancel, deadline,
  // max_rows, and injected faults stay armed throughout.
  MemoryCheckSuspension suspend(ctx_->guard);

  std::vector<SortRecord> chunk;
  size_t chunk_bytes = 0;
  auto flush = [&]() -> Status {
    TMDB_RETURN_IF_ERROR(side->sorter->SpillRun(&chunk));
    side->res.Shrink(chunk_bytes);
    chunk_bytes = 0;
    return Status::OK();
  };
  auto add_row = [&](Value row) -> Status {
    TMDB_ASSIGN_OR_RETURN(Value key, EvalCompositeKey(keys, var, row, ctx_));
    SortRecord rec;
    rec.key = std::move(key);
    EncodeValue(row, &rec.payload);
    row = Value();  // free the decoded copy; the encoding carries it now
    const size_t bytes = rec.payload.size() + sizeof(SortRecord);
    TMDB_RETURN_IF_ERROR(side->res.Add(bytes));
    chunk_bytes += bytes;
    chunk.push_back(std::move(rec));
    // Chunks are sized by the *live* budget reading, not the suspended
    // check: once the floor is reached, flush whenever memory is over
    // budget. The floor stops residency held elsewhere in the plan from
    // degenerating the sort into a run per record; the flush stops chunks
    // from growing without bound while the comparison is suspended.
    if (chunk_bytes >= kMinSortRunBytes &&
        (ctx_->guard == nullptr || ctx_->guard->memory_over_budget())) {
      return flush();
    }
    return Status::OK();
  };

  for (size_t i = 0; i < salvaged.size(); ++i) {
    TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx_, i));
    Value row = std::move(salvaged[i]);
    salvaged[i] = Value();  // free the rep promptly; memory falls as we go
    TMDB_RETURN_IF_ERROR(add_row(std::move(row)));
  }
  salvaged.clear();
  salvaged.shrink_to_fit();

  if (!side->drained) {
    std::vector<Value> batch;
    while (true) {
      TMDB_RETURN_IF_ERROR(CheckGuard(ctx_));
      batch.clear();
      TMDB_ASSIGN_OR_RETURN(size_t got,
                            source->NextBatch(&batch, kExecBatchSize));
      if (got == 0) break;
      ctx_->stats->rows_built += got;
      for (Value& row : batch) {
        TMDB_RETURN_IF_ERROR(add_row(std::move(row)));
      }
    }
    side->drained = true;
  }
  source->Close();
  TMDB_RETURN_IF_ERROR(flush());

  // Merge passes move records between files without growing memory; the
  // block buffers they hold are transient and bounded.
  TMDB_ASSIGN_OR_RETURN(side->merger, side->sorter->Merge());
  return Status::OK();
}

Status MergeJoinOp::OpenSide(PhysicalOp* source, const std::vector<Expr>& keys,
                             const std::string& var, SortedSide* side,
                             const char* label) {
  Status st = MaterialiseSorted(source, keys, var, side);
  if (st.ok()) return st;
  if (!side->salvageable || !SpillEligibleTrip(ctx_, st)) return st;
  return ExternalSortSide(source, keys, var, side, label);
}

Status MergeJoinOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  kernel_.ClearNames();
  serve_.Clear();
  left_side_.Reset(ctx->guard);
  right_side_.Reset(ctx->guard);
  right_pending_ = Keyed();
  right_pending_valid_ = false;
  right_eof_ = false;
  right_run_.clear();
  right_run_key_ = Value();
  right_run_valid_ = false;
  steps_ = 0;
  run_res_.Reset(ctx->guard);
  TMDB_RETURN_IF_ERROR(OpenSide(left_.get(), left_keys_, spec_.left_var,
                                &left_side_, "mj-left"));
  return OpenSide(right_.get(), right_keys_, spec_.right_var, &right_side_,
                  "mj-right");
}

Result<bool> MergeJoinOp::NextFromSide(SortedSide* side, Keyed* out) {
  if (!side->external) {
    if (side->pos >= side->rows.size()) return false;
    *out = std::move(side->rows[side->pos]);
    side->rows[side->pos] = Keyed();  // single pass; free the slot
    ++side->pos;
    return true;
  }
  Value key;
  std::string_view payload;
  bool eof = false;
  TMDB_RETURN_IF_ERROR(side->merger->Next(&key, &payload, &eof));
  if (eof) return false;
  size_t pos = 0;
  Value row;
  TMDB_RETURN_IF_ERROR(DecodeValue(payload, &pos, &row));
  out->first = std::move(key);
  out->second = std::move(row);
  return true;
}

Status MergeJoinOp::LoadRightRun(const Value& key) {
  // Equal consecutive left keys reuse the buffered run.
  if (right_run_valid_ && right_run_key_.Compare(key) == 0) {
    return Status::OK();
  }
  run_res_.Shrink(right_run_.size() * sizeof(Value));
  right_run_.clear();
  right_run_key_ = key;
  right_run_valid_ = true;

  // Skip right rows below the new left key; keys ascend on both sides, so
  // the cursor only moves forward.
  while (!right_eof_) {
    if (!right_pending_valid_) {
      TMDB_ASSIGN_OR_RETURN(bool have,
                            NextFromSide(&right_side_, &right_pending_));
      if (!have) {
        right_eof_ = true;
        break;
      }
      right_pending_valid_ = true;
    }
    if (right_pending_.first.Compare(key) < 0) {
      right_pending_ = Keyed();
      right_pending_valid_ = false;
      TMDB_RETURN_IF_ERROR(CountStep());
      continue;
    }
    break;
  }

  // Buffer the equal-key run. The run is resident state during the merge,
  // so its slots are charged with the memory check live: a single run that
  // alone exceeds the budget is this operator's bottom-out.
  while (!right_eof_) {
    if (!right_pending_valid_) {
      TMDB_ASSIGN_OR_RETURN(bool have,
                            NextFromSide(&right_side_, &right_pending_));
      if (!have) {
        right_eof_ = true;
        break;
      }
      right_pending_valid_ = true;
    }
    if (right_pending_.first.Compare(key) != 0) break;  // > key; stays pending
    Status slot = run_res_.Add(sizeof(Value));
    if (!slot.ok()) {
      if (slot.code() == StatusCode::kResourceExhausted &&
          ctx_->guard != nullptr && ctx_->guard->last_trip_was_memory()) {
        return slot.WithContext(
            "merge join: one equal-key run alone exceeds the memory budget");
      }
      return slot;
    }
    right_run_.push_back(std::move(right_pending_.second));
    right_pending_ = Keyed();
    right_pending_valid_ = false;
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
  // then holds one decoded left row, not a batch of them.
  Keyed left;
  while (true) {
    TMDB_RETURN_IF_ERROR(CountStep());
    TMDB_ASSIGN_OR_RETURN(bool have, NextFromSide(&left_side_, &left));
    if (!have) return false;
    TMDB_RETURN_IF_ERROR(LoadRightRun(left.first));
    const Value* it = right_run_.data();
    const Value* const end = it + right_run_.size();
    TMDB_RETURN_IF_ERROR(kernel_.Join(
        left.second, [&] { return it == end ? nullptr : it++; }, ctx_,
        &steps_, serve_.rows()));
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
  right_pending_ = Keyed();
  right_pending_valid_ = false;
  right_run_.clear();
  right_run_key_ = Value();
  right_run_valid_ = false;
  run_res_.Release();
  // Usually closed inside the materialise phase; matters on mid-drain unwind.
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
