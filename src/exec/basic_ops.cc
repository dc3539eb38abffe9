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

/// Pulls batches of up to `max` rows from `child` into `batch`, calling
/// `each(row)` on every row to append what it yields to `out`, until a
/// batch yields something (returning 0 before the input ends would falsely
/// signal end of stream). Returns the count, counted in rows_emitted. The
/// input rows die here, not at the next call: above a join they are its
/// output tuples, which the budget should stop counting once consumed.
template <typename Each>
Result<size_t> PullUntilOutput(PhysicalOp* child, ExecContext* ctx,
                               std::vector<Value>* batch, size_t max,
                               std::vector<Value>* out, Each each) {
  const size_t start = out->size();
  while (out->size() == start) {
    TMDB_RETURN_IF_ERROR(CheckGuard(ctx));
    batch->clear();
    TMDB_ASSIGN_OR_RETURN(size_t got, child->NextBatch(batch, max));
    if (got == 0) return 0;
    for (Value& row : *batch) TMDB_RETURN_IF_ERROR(each(row));
    batch->clear();
  }
  ctx->stats->rows_emitted += out->size() - start;
  return out->size() - start;
}

}  // namespace

// ---------------------------------------------------------------- TableScan

Status TableScanOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  pos_ = 0;
  store_ = try_columnar_ ? table_->columnar_store() : nullptr;
  return Status::OK();
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
  return PullUntilOutput(
      child_.get(), ctx_, &batch_, max, out, [&](Value& row) -> Status {
        ctx_->stats->predicate_evals++;
        TMDB_ASSIGN_OR_RETURN(Value keep, EvalWithRow(pred_, var_, row, ctx_));
        if (!keep.is_bool()) {
          return Status::TypeError(StrCat(
              "filter predicate produced non-boolean ", keep.ToString()));
        }
        if (keep.AsBool()) out->push_back(std::move(row));
        return Status::OK();
      });
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
  return child_->Open(ctx);
}

Result<size_t> MapOp::NextBatch(std::vector<Value>* out, size_t max) {
  return PullUntilOutput(
      child_.get(), ctx_, &batch_, max, out, [&](const Value& row) -> Status {
        TMDB_ASSIGN_OR_RETURN(Value mapped,
                              EvalWithRow(expr_, var_, row, ctx_));
        if (seen_.insert(mapped).second) out->push_back(std::move(mapped));
        return Status::OK();
      });
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
  batch_.clear();
  batch_pos_ = 0;
  current_rest_ = Value();
  current_elems_.clear();
  elem_pos_ = 0;
  return child_->Open(ctx);
}

Status UnnestOp::StartRow(const Value& row) {
  TMDB_ASSIGN_OR_RETURN(Value set, row.Field(attr_));
  if (!set.is_collection()) {
    return Status::TypeError(StrCat("Unnest attribute '", attr_,
                                    "' is not a collection: ",
                                    set.ToString()));
  }
  // Row minus the unnested attribute.
  TMDB_ASSIGN_OR_RETURN(
      TupleNames rest_names,
      rest_names_.Get(row.FieldNames(), [&]() -> Result<TupleNames> {
        std::vector<std::string> names;
        for (const std::string& name : row.FieldNames().names()) {
          if (name != attr_) names.push_back(name);
        }
        return TupleNames(std::move(names));
      }));
  std::vector<Value> values;
  values.reserve(rest_names.size());
  for (size_t i = 0; i < row.TupleSize(); ++i) {
    if (row.FieldName(i) != attr_) values.push_back(row.FieldValue(i));
  }
  current_rest_ = Value::SharedTuple(std::move(rest_names), std::move(values));
  current_elems_ = set.Elements();
  elem_pos_ = 0;
  return Status::OK();
}

Result<size_t> UnnestOp::NextBatch(std::vector<Value>* out, size_t max) {
  size_t produced = 0;
  while (produced < max) {
    if (elem_pos_ < current_elems_.size()) {
      TMDB_ASSIGN_OR_RETURN(
          Value row, ConcatTuples(current_rest_, current_elems_[elem_pos_++],
                                  &out_names_));
      out->push_back(std::move(row));
      ++produced;
      continue;
    }
    if (batch_pos_ == batch_.size()) {
      TMDB_RETURN_IF_ERROR(CheckGuard(ctx_));
      batch_.clear();
      batch_pos_ = 0;
      TMDB_ASSIGN_OR_RETURN(size_t got, child_->NextBatch(&batch_, max));
      if (got == 0) break;
    }
    // Rows with an empty set vanish (μ is not information-preserving).
    const Value row = std::move(batch_[batch_pos_++]);
    TMDB_RETURN_IF_ERROR(StartRow(row));
  }
  ctx_->stats->rows_emitted += produced;
  return produced;
}

void UnnestOp::Close() {
  rest_names_.Clear();
  out_names_.Clear();
  batch_.clear();
  current_rest_ = Value();
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
  TMDB_RETURN_IF_ERROR(left_->Open(ctx));
  return right_->Open(ctx);
}

Result<size_t> UnionOp::NextBatch(std::vector<Value>* out, size_t max) {
  while (true) {
    PhysicalOp* source = on_right_ ? right_.get() : left_.get();
    TMDB_ASSIGN_OR_RETURN(
        size_t got,
        PullUntilOutput(source, ctx_, &batch_, max, out, [&](Value& row) {
          if (seen_.insert(row).second) out->push_back(std::move(row));
          return Status::OK();
        }));
    if (got > 0 || on_right_) return got;
    on_right_ = true;
  }
}

void UnionOp::Close() {
  seen_.clear();
  batch_.clear();
  left_->Close();
  right_->Close();
}

// ---------------------------------------------------------------- Difference

Status DifferenceOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  right_rows_.clear();
  build_res_.Reset(ctx->guard);
  TMDB_RETURN_IF_ERROR(right_->Open(ctx));
  while (true) {
    TMDB_RETURN_IF_ERROR(CheckGuard(ctx_));
    batch_.clear();
    TMDB_ASSIGN_OR_RETURN(size_t got,
                          right_->NextBatch(&batch_, kExecBatchSize));
    if (got == 0) break;
    for (Value& row : batch_) {
      if (right_rows_.insert(std::move(row)).second) {
        // Approximate hash-set slot cost per distinct row. Charge() accounts
        // immediately but defers the guard *check* to its granularity; the
        // per-batch check above bounds trip latency to one batch regardless.
        TMDB_RETURN_IF_ERROR(
            build_res_.Charge(sizeof(Value) + 2 * sizeof(void*)));
      }
    }
    ctx_->stats->rows_built += got;
  }
  batch_.clear();
  right_->Close();
  return left_->Open(ctx);
}

Result<size_t> DifferenceOp::NextBatch(std::vector<Value>* out, size_t max) {
  return PullUntilOutput(left_.get(), ctx_, &batch_, max, out,
                         [&](Value& row) {
                           if (right_rows_.count(row) == 0) {
                             out->push_back(std::move(row));
                           }
                           return Status::OK();
                         });
}

void DifferenceOp::Close() {
  right_rows_.clear();
  build_res_.Release();
  batch_.clear();
  left_->Close();
}

}  // namespace tmdb
