#include "exec/nest_op.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "base/string_util.h"
#include "exec/parallel_util.h"
#include "exec/spill_util.h"
#include "expr/eval.h"
#include "values/value_ops.h"

namespace tmdb {

bool NestOp::IsNullPadding(const Value& v) {
  if (v.is_null()) return true;
  if (!v.is_tuple()) return false;
  if (v.TupleSize() == 0) return false;
  for (size_t i = 0; i < v.TupleSize(); ++i) {
    if (!v.FieldValue(i).is_null()) return false;
  }
  return true;
}

Status NestOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  out_names_.Clear();
  output_.clear();
  pos_ = 0;
  build_res_.Reset(ctx->guard);

  std::vector<Value> rows;
  TMDB_RETURN_IF_ERROR(child_->Open(ctx));
  // A memory trip below leaves every drained row in `rows` (NextBatch
  // appends before the charge, and Group reads rows without disturbing
  // them), so the spill path can take over. Failures from the
  // child itself are its own problem and are never diverted.
  bool salvageable = true;
  bool drained = false;
  Status st = [&]() -> Status {
    while (true) {
      Result<size_t> got = child_->NextBatch(&rows, kExecBatchSize);
      if (!got.ok()) {
        salvageable = false;
        return got.status();
      }
      if (*got == 0) break;
      ctx->stats->rows_built += *got;
      TMDB_RETURN_IF_ERROR(build_res_.Add(*got * sizeof(Value)));
    }
    drained = true;
    child_->Close();
    return Group(rows);
  }();
  if (st.ok()) return st;
  if (!salvageable || !SpillEligibleTrip(ctx, st)) return st;
  return SpillGroup(std::move(rows), drained);
}

Result<Value> NestOp::KeyOf(const Value& row) const {
  std::vector<Value> key_values;
  key_values.reserve(group_names_.size());
  for (const std::string& attr : group_names_.names()) {
    TMDB_ASSIGN_OR_RETURN(Value v, row.Field(attr));
    key_values.push_back(std::move(v));
  }
  return Value::SharedTuple(group_names_, std::move(key_values));
}

Result<Value> NestOp::GroupTuple(const JoinTable& table, uint32_t slot) const {
  TMDB_ASSIGN_OR_RETURN(
      Value set,
      table.SlotSet(slot, [this](const Value& elem, std::vector<Value>* out) {
        if (!(null_group_to_empty_ && IsNullPadding(elem))) {
          out->push_back(elem);
        }
        return Status::OK();
      }));
  return ExtendTuple(table.key(slot), label_, std::move(set), &out_names_);
}

Status NestOp::Group(const std::vector<Value>& rows) {
  const size_t n = rows.size();
  const bool parallel = ctx_->parallel_enabled();
  QuerySched* sched = parallel ? ctx_->sched : nullptr;
  // Serially one morsel, so the first error stops the loop.
  auto split = [&](size_t count) {
    return parallel ? SplitMorsels(count, ctx_->num_threads)
                    : std::vector<MorselRange>{{0, count}};
  };

  // Each row's group key and element image, in input order within each
  // morsel. Per-morsel forked subplan evaluators (sharing the run's memo
  // cache) and stats blocks let parallel ν evaluate subplan-bearing element
  // functions; the counters sum back in morsel order.
  std::vector<Value> keys(n);
  std::vector<Value> elems(n);
  const uint64_t scratch_bytes = 2 * n * sizeof(Value);
  TMDB_RETURN_IF_ERROR(build_res_.Add(scratch_bytes));
  std::vector<MorselRange> morsels = split(n);
  std::vector<ExecStats> local_stats(morsels.size());
  std::vector<std::unique_ptr<SubplanEvaluator>> elem_evals;
  if (parallel) {
    elem_evals = ForkSubplanEvaluators(ctx_->subplans, &local_stats);
  }
  TMDB_RETURN_IF_ERROR(ParallelForMorsels(
      sched, ctx_->guard, morsels,
      [&](size_t m, MorselRange range) -> Status {
        SubplanEvaluator* subplans = m < elem_evals.size() && elem_evals[m]
                                         ? elem_evals[m].get()
                                         : ctx_->subplans;
        for (size_t i = range.begin; i < range.end; ++i) {
          TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx_, i - range.begin));
          TMDB_ASSIGN_OR_RETURN(keys[i], KeyOf(rows[i]));
          Environment env(ctx_->outer_env);
          env.Bind(var_, rows[i]);
          TMDB_ASSIGN_OR_RETURN(elems[i], EvalExpr(elem_, env, subplans));
        }
        return Status::OK();
      }));
  AccumulateStats(local_stats, ctx_->stats);

  // One slot per group key, its elements chained in input order.
  JoinTable table;
  table.Reset(ctx_->guard);
  Status grouped = [&]() -> Status {
    TMDB_RETURN_IF_ERROR(table.Build(ctx_, &elems, std::move(keys)));
    output_.resize(table.num_slots());
    return ParallelForMorsels(
        sched, ctx_->guard, split(output_.size()),
        [&](size_t, MorselRange range) -> Status {
          for (size_t s = range.begin; s < range.end; ++s) {
            TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx_, s - range.begin));
            TMDB_ASSIGN_OR_RETURN(
                output_[s], GroupTuple(table, static_cast<uint32_t>(s)));
          }
          return Status::OK();
        });
  }();
  table.Reset(nullptr);
  if (!grouped.ok()) {
    output_.clear();
    return grouped;
  }
  // The input and the scratch are dead (their images live on in output_);
  // refund their charge rather than carrying it until Close as phantom
  // pressure.
  build_res_.Shrink(scratch_bytes + n * sizeof(Value));
  return Status::OK();
}

Result<size_t> NestOp::NextBatch(std::vector<Value>* out, size_t max) {
  TMDB_RETURN_IF_ERROR(CheckGuard(ctx_));
  const size_t take = std::min(max, output_.size() - pos_);
  out->insert(out->end(), output_.begin() + static_cast<ptrdiff_t>(pos_),
              output_.begin() + static_cast<ptrdiff_t>(pos_ + take));
  pos_ += take;
  ctx_->stats->rows_emitted += take;
  return take;
}

void NestOp::Close() {
  out_names_.Clear();
  output_.clear();
  build_res_.Release();
  // Usually closed at the end of Open's drain; matters on mid-drain unwind.
  child_->Close();
}

std::string NestOp::Describe() const {
  return StrCat(null_group_to_empty_ ? "Nest*" : "Nest", "[by (",
                Join(group_names_.names(), ", "), "), ", var_, " : ",
                elem_.ToString(), "; ", label_, "]");
}

}  // namespace tmdb
