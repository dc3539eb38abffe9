#include "exec/basic_ops.h"

#include <algorithm>
#include <utility>

#include "base/string_util.h"
#include "values/value_ops.h"

namespace tmdb {

namespace {

/// Evaluates `expr` with `var` bound to `row`, on top of any correlation
/// environment carried by the context.
Result<Value> EvalWithRow(const Expr& expr, const std::string& var,
                          const Value& row, ExecContext* ctx) {
  Environment env(ctx->outer_env);
  env.Bind(var, row);
  return EvalExpr(expr, env, ctx->subplans);
}

static_assert((kExecBatchSize & (kExecBatchSize - 1)) == 0,
              "periodic guard checks mask against kExecBatchSize");

// Checkpoint for row-at-a-time loops: one guard check per kExecBatchSize
// rows examined, upholding the one-batch observation bound at negligible
// per-row cost.
inline Status PeriodicGuardCheck(ExecContext* ctx, uint64_t* work) {
  if ((++*work & (kExecBatchSize - 1)) == 0) return CheckGuard(ctx);
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------- TableScan

Status TableScanOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  pos_ = 0;
  store_ = try_columnar_ ? table_->columnar_store() : nullptr;
  return Status::OK();
}

Result<std::optional<Value>> TableScanOp::Next() {
  if (pos_ >= table_->NumRows()) return std::optional<Value>();
  ctx_->stats->rows_emitted++;
  return std::optional<Value>(table_->rows()[pos_++]);
}

Result<size_t> TableScanOp::NextBatch(std::vector<Value>* out, size_t max) {
  TMDB_RETURN_IF_ERROR(CheckGuard(ctx_));
  const std::vector<Value>& rows = table_->rows();
  const size_t take = std::min(max, rows.size() - pos_);
  out->insert(out->end(), rows.begin() + static_cast<ptrdiff_t>(pos_),
              rows.begin() + static_cast<ptrdiff_t>(pos_ + take));
  pos_ += take;
  ctx_->stats->rows_emitted += take;
  return take;
}

Result<ColumnBatch> TableScanOp::NextColumnBatch() {
  if (store_ == nullptr) return PhysicalOp::NextColumnBatch();
  TMDB_RETURN_IF_ERROR(CheckGuard(ctx_));
  const size_t take = std::min(kExecBatchSize, store_->num_rows() - pos_);
  ColumnBatch batch;
  batch.store = store_.get();
  batch.first = static_cast<uint32_t>(pos_);
  batch.len = static_cast<uint32_t>(take);
  pos_ += take;
  ctx_->stats->rows_emitted += take;
  return batch;
}

void TableScanOp::Close() { store_.reset(); }

std::string TableScanOp::Describe() const {
  return StrCat("TableScan(", table_->name(), ")");
}

// ---------------------------------------------------------------- ExprSource

Status ExprSourceOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  pos_ = 0;
  elements_.clear();
  Environment env(ctx->outer_env);
  TMDB_ASSIGN_OR_RETURN(Value coll, EvalExpr(expr_, env, ctx->subplans));
  if (!coll.is_collection()) {
    return Status::TypeError(
        StrCat("FROM operand is not a collection: ", coll.ToString()));
  }
  elements_ = coll.Elements();
  return Status::OK();
}

Result<std::optional<Value>> ExprSourceOp::Next() {
  if (pos_ >= elements_.size()) return std::optional<Value>();
  ctx_->stats->rows_emitted++;
  return std::optional<Value>(elements_[pos_++]);
}

Result<size_t> ExprSourceOp::NextBatch(std::vector<Value>* out, size_t max) {
  TMDB_RETURN_IF_ERROR(CheckGuard(ctx_));
  const size_t take = std::min(max, elements_.size() - pos_);
  out->insert(out->end(), elements_.begin() + static_cast<ptrdiff_t>(pos_),
              elements_.begin() + static_cast<ptrdiff_t>(pos_ + take));
  pos_ += take;
  ctx_->stats->rows_emitted += take;
  return take;
}

void ExprSourceOp::Close() { elements_.clear(); }

std::string ExprSourceOp::Describe() const {
  return StrCat("ExprSource(", expr_.ToString(), ")");
}

// -------------------------------------------------------------------- Filter

Status FilterOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  work_ = 0;
  columnar_active_ = false;
  pending_ = ColumnBatch{};
  pending_pos_ = 0;
  arena_.Reset();
  TMDB_RETURN_IF_ERROR(child_->Open(ctx));
  if (cpred_.has_value() && child_->columnar_ready()) {
    const ColumnStore* store = child_->columnar_source();
    if (store != nullptr && cpred_->Matches(*store)) {
      Status scratch = AllocColumnarScratch(ctx);
      if (scratch.ok()) {
        columnar_active_ = true;
      } else {
        // The arena is charged exactly what the batch scratch needs. If
        // even that trips the memory budget, refund it and run the row
        // path, which holds no scratch — a budgeted query must not fail
        // here when the row path would not.
        const bool memory_trip = arena_.IsMemoryTrip(scratch);
        arena_.Reset();
        if (!memory_trip) return scratch;
      }
    }
  }
  return Status::OK();
}

Status FilterOp::AllocColumnarScratch(ExecContext* ctx) {
  arena_.Bind(ctx->guard);
  TMDB_ASSIGN_OR_RETURN(sel_, arena_.AllocateArray<uint32_t>(kExecBatchSize));
  TMDB_ASSIGN_OR_RETURN(keep_, arena_.AllocateArray<uint8_t>(kExecBatchSize));
  return cpred_->AllocScratch(&arena_, static_cast<uint32_t>(kExecBatchSize),
                              &scratch_);
}

Result<ColumnBatch> FilterOp::NextColumnBatch() {
  if (!columnar_active_) return PhysicalOp::NextColumnBatch();
  while (true) {
    TMDB_RETURN_IF_ERROR(CheckGuard(ctx_));
    TMDB_ASSIGN_OR_RETURN(ColumnBatch in, child_->NextColumnBatch());
    if (in.len == 0) return in;  // end of stream
    ctx_->stats->predicate_evals += in.len;
    TMDB_RETURN_IF_ERROR(cpred_->Eval(in, &scratch_, keep_));
    uint32_t m = 0;
    for (uint32_t i = 0; i < in.len; ++i) {
      sel_[m] = in.RowId(i);
      m += keep_[i];
    }
    if (m > 0) {
      ctx_->stats->rows_emitted += m;
      ColumnBatch out;
      out.store = in.store;
      out.ids = sel_;
      out.len = m;
      return out;
    }
  }
}

Result<std::optional<Value>> FilterOp::Next() {
  if (columnar_active_) {
    while (pending_pos_ >= pending_.len) {
      TMDB_ASSIGN_OR_RETURN(ColumnBatch batch, NextColumnBatch());
      pending_ = batch;
      pending_pos_ = 0;
      if (pending_.len == 0) return std::optional<Value>();
    }
    return std::optional<Value>(
        pending_.store->RowValue(pending_.RowId(pending_pos_++)));
  }
  while (true) {
    TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx_, &work_));
    TMDB_ASSIGN_OR_RETURN(std::optional<Value> row, child_->Next());
    if (!row.has_value()) return std::optional<Value>();
    ctx_->stats->predicate_evals++;
    TMDB_ASSIGN_OR_RETURN(Value keep, EvalWithRow(pred_, var_, *row, ctx_));
    if (!keep.is_bool()) {
      return Status::TypeError(
          StrCat("filter predicate produced non-boolean ", keep.ToString()));
    }
    if (keep.AsBool()) {
      ctx_->stats->rows_emitted++;
      return row;
    }
  }
}

Result<size_t> FilterOp::NextBatch(std::vector<Value>* out, size_t max) {
  if (columnar_active_) {
    while (pending_pos_ >= pending_.len) {
      TMDB_ASSIGN_OR_RETURN(ColumnBatch batch, NextColumnBatch());
      pending_ = batch;
      pending_pos_ = 0;
      if (pending_.len == 0) return 0;
    }
    const size_t take =
        std::min(max, static_cast<size_t>(pending_.len - pending_pos_));
    for (size_t i = 0; i < take; ++i) {
      out->push_back(pending_.store->RowValue(pending_.RowId(pending_pos_++)));
    }
    return take;
  }
  // Pull whole input batches until at least one row survives the predicate
  // (returning 0 would falsely signal end of stream).
  while (true) {
    TMDB_RETURN_IF_ERROR(CheckGuard(ctx_));
    batch_.clear();
    TMDB_ASSIGN_OR_RETURN(size_t got, child_->NextBatch(&batch_, max));
    if (got == 0) return 0;
    size_t appended = 0;
    for (Value& row : batch_) {
      ctx_->stats->predicate_evals++;
      TMDB_ASSIGN_OR_RETURN(Value keep, EvalWithRow(pred_, var_, row, ctx_));
      if (!keep.is_bool()) {
        return Status::TypeError(
            StrCat("filter predicate produced non-boolean ", keep.ToString()));
      }
      if (keep.AsBool()) {
        ctx_->stats->rows_emitted++;
        out->push_back(std::move(row));
        ++appended;
      }
    }
    // The rejected rows die here, not at the next call.
    batch_.clear();
    if (appended > 0) return appended;
  }
}

void FilterOp::Close() {
  batch_.clear();
  columnar_active_ = false;
  pending_ = ColumnBatch{};
  pending_pos_ = 0;
  sel_ = nullptr;
  keep_ = nullptr;
  scratch_ = ColumnPredicate::Scratch{};
  arena_.Reset();
  child_->Close();
}

std::string FilterOp::Describe() const {
  return StrCat("Filter[", var_, " : ", pred_.ToString(), "]");
}

// ----------------------------------------------------------------------- Map

Status MapOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  seen_.clear();
  work_ = 0;
  return child_->Open(ctx);
}

Result<std::optional<Value>> MapOp::Next() {
  while (true) {
    TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx_, &work_));
    TMDB_ASSIGN_OR_RETURN(std::optional<Value> row, child_->Next());
    if (!row.has_value()) return std::optional<Value>();
    TMDB_ASSIGN_OR_RETURN(Value out, EvalWithRow(expr_, var_, *row, ctx_));
    if (seen_.insert(out).second) {
      ctx_->stats->rows_emitted++;
      return std::optional<Value>(std::move(out));
    }
  }
}

Result<size_t> MapOp::NextBatch(std::vector<Value>* out, size_t max) {
  while (true) {
    TMDB_RETURN_IF_ERROR(CheckGuard(ctx_));
    batch_.clear();
    TMDB_ASSIGN_OR_RETURN(size_t got, child_->NextBatch(&batch_, max));
    if (got == 0) return 0;
    size_t appended = 0;
    for (const Value& row : batch_) {
      TMDB_ASSIGN_OR_RETURN(Value mapped, EvalWithRow(expr_, var_, row, ctx_));
      if (seen_.insert(mapped).second) {
        ctx_->stats->rows_emitted++;
        out->push_back(std::move(mapped));
        ++appended;
      }
    }
    // The input rows die here, not at the next call: above a join they are
    // its output tuples, which the budget should stop counting once mapped.
    batch_.clear();
    if (appended > 0) return appended;
  }
}

void MapOp::Close() {
  seen_.clear();
  batch_.clear();
  child_->Close();
}

std::string MapOp::Describe() const {
  return StrCat("Map[", var_, " : ", expr_.ToString(), "]");
}

// -------------------------------------------------------------------- Unnest

Status UnnestOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  rest_names_.Clear();
  out_names_.Clear();
  current_rest_.reset();
  current_elems_.clear();
  elem_pos_ = 0;
  work_ = 0;
  return child_->Open(ctx);
}

Result<std::optional<Value>> UnnestOp::Next() {
  while (true) {
    TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx_, &work_));
    if (current_rest_.has_value() && elem_pos_ < current_elems_.size()) {
      const Value& elem = current_elems_[elem_pos_++];
      TMDB_ASSIGN_OR_RETURN(Value out,
                            ConcatTuples(*current_rest_, elem, &out_names_));
      ctx_->stats->rows_emitted++;
      return std::optional<Value>(std::move(out));
    }
    TMDB_ASSIGN_OR_RETURN(std::optional<Value> row, child_->Next());
    if (!row.has_value()) return std::optional<Value>();
    TMDB_ASSIGN_OR_RETURN(Value set, row->Field(attr_));
    if (!set.is_collection()) {
      return Status::TypeError(StrCat("Unnest attribute '", attr_,
                                      "' is not a collection: ",
                                      set.ToString()));
    }
    // Row minus the unnested attribute.
    TMDB_ASSIGN_OR_RETURN(
        TupleNames rest_names,
        rest_names_.Get(row->FieldNames(), [&]() -> Result<TupleNames> {
          std::vector<std::string> names;
          for (const std::string& name : row->FieldNames().names()) {
            if (name != attr_) names.push_back(name);
          }
          return TupleNames(std::move(names));
        }));
    std::vector<Value> values;
    values.reserve(rest_names.size());
    for (size_t i = 0; i < row->TupleSize(); ++i) {
      if (row->FieldName(i) != attr_) values.push_back(row->FieldValue(i));
    }
    current_rest_ =
        Value::SharedTuple(std::move(rest_names), std::move(values));
    current_elems_ = set.Elements();
    elem_pos_ = 0;
    // Rows with an empty set vanish (μ is not information-preserving).
  }
}

void UnnestOp::Close() {
  rest_names_.Clear();
  out_names_.Clear();
  current_rest_.reset();
  current_elems_.clear();
  child_->Close();
}

std::string UnnestOp::Describe() const {
  return StrCat("Unnest[", attr_, "]");
}

// --------------------------------------------------------------------- Union

Status UnionOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  on_right_ = false;
  seen_.clear();
  work_ = 0;
  TMDB_RETURN_IF_ERROR(left_->Open(ctx));
  return right_->Open(ctx);
}

Result<std::optional<Value>> UnionOp::Next() {
  while (true) {
    TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx_, &work_));
    PhysicalOp* source = on_right_ ? right_.get() : left_.get();
    TMDB_ASSIGN_OR_RETURN(std::optional<Value> row, source->Next());
    if (!row.has_value()) {
      if (on_right_) return std::optional<Value>();
      on_right_ = true;
      continue;
    }
    if (seen_.insert(*row).second) {
      ctx_->stats->rows_emitted++;
      return row;
    }
  }
}

void UnionOp::Close() {
  seen_.clear();
  left_->Close();
  right_->Close();
}

// ---------------------------------------------------------------- Difference

Status DifferenceOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  right_rows_.clear();
  build_res_.Reset(ctx->guard);
  work_ = 0;
  TMDB_RETURN_IF_ERROR(right_->Open(ctx));
  while (true) {
    TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx_, &work_));
    TMDB_ASSIGN_OR_RETURN(std::optional<Value> row, right_->Next());
    if (!row.has_value()) break;
    if (right_rows_.insert(std::move(*row)).second) {
      // Approximate hash-set slot cost per distinct row. Charge() accounts
      // immediately but defers the guard *check* to its granularity; the
      // periodic check above bounds trip latency to one batch regardless.
      TMDB_RETURN_IF_ERROR(
          build_res_.Charge(sizeof(Value) + 2 * sizeof(void*)));
    }
    ctx_->stats->rows_built++;
  }
  right_->Close();
  return left_->Open(ctx);
}

Result<std::optional<Value>> DifferenceOp::Next() {
  while (true) {
    TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx_, &work_));
    TMDB_ASSIGN_OR_RETURN(std::optional<Value> row, left_->Next());
    if (!row.has_value()) return std::optional<Value>();
    if (right_rows_.count(*row) == 0) {
      ctx_->stats->rows_emitted++;
      return row;
    }
  }
}

void DifferenceOp::Close() {
  right_rows_.clear();
  build_res_.Release();
  left_->Close();
}

}  // namespace tmdb
