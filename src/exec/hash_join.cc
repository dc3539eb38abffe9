#include "exec/hash_join.h"

#include <algorithm>
#include <utility>

#include "base/string_util.h"
#include "exec/parallel_util.h"
#include "exec/spill_util.h"
#include "values/value_ops.h"

namespace tmdb {

namespace {

bool HasSubplan(const Expr& e) {
  switch (e.expr_kind()) {
    case ExprKind::kLiteral:
    case ExprKind::kVarRef:
      return false;
    case ExprKind::kFieldAccess:
      return HasSubplan(e.field_base());
    case ExprKind::kBinary:
      return HasSubplan(e.lhs()) || HasSubplan(e.rhs());
    case ExprKind::kUnary:
      return HasSubplan(e.operand());
    case ExprKind::kQuantifier:
      return HasSubplan(e.quant_collection()) || HasSubplan(e.quant_pred());
    case ExprKind::kAggregate:
      return HasSubplan(e.agg_arg());
    case ExprKind::kTupleCtor:
    case ExprKind::kSetCtor:
      return std::any_of(e.ctor_elements().begin(), e.ctor_elements().end(),
                         HasSubplan);
    case ExprKind::kSubplan:
      return true;
  }
  return true;
}

}  // namespace

bool HashJoinOp::GroupsPerKey(const JoinSpec& spec) {
  // A subplan's evaluations are counted in ExecStats, so G must run once
  // per pair for the stats to stay what they are.
  return !spec.func.References(spec.left_var) && !HasSubplan(spec.func);
}

Status HashJoinOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  kernel_.ClearNames();
  probe_batch_.clear();
  probe_pairs_ = 0;
  serve_.Clear();
  materialized_ = false;
  spilled_ = false;
  build_res_.Reset(ctx->guard);
  table_.Reset(ctx->guard);

  TMDB_RETURN_IF_ERROR(BuildTable(ctx));
  if (spilled_) {
    // The spill path consumed both inputs and filled serve_ already.
    return Status::OK();
  }
  TMDB_RETURN_IF_ERROR(left_->Open(ctx));

  // Morsel-parallel probe: subplan-bearing probe expressions are handled
  // too — each worker gets its own forked subplan evaluator, all sharing
  // the run's memo cache.
  if (ctx->parallel_enabled()) {
    const uint64_t held_before = build_res_.held();
    Status probed = ParallelProbe();
    if (probed.ok()) {
      materialized_ = true;
      DropTable();
    } else if (SpillEligibleTrip(ctx, probed)) {
      // The build table fits but materialising the probe side blew the
      // budget. Fall back to the serial probe, which holds one left batch
      // at a time: refund the probe scratch (its values freed on unwind)
      // and restart the left input.
      build_res_.Shrink(build_res_.held() - held_before);
      serve_.Clear();
      left_->Close();
      TMDB_RETURN_IF_ERROR(left_->Open(ctx));
    } else {
      return probed;
    }
  }
  return Status::OK();
}

Status HashJoinOp::BuildTable(ExecContext* ctx) {
  // Build phase: materialise the right input, then index it by key.
  TMDB_RETURN_IF_ERROR(right_->Open(ctx));
  std::vector<Value> rows;
  Status drained = Status::OK();
  while (true) {
    Result<size_t> got = right_->NextBatch(&rows, kExecBatchSize);
    if (!got.ok()) {
      drained = got.status();
      break;
    }
    if (*got == 0) break;
    ctx->stats->rows_built += *got;
    // Charge the build-side row slots (and checkpoint) per batch, so a
    // memory budget trips during materialisation, not after.
    if (Status s = build_res_.Add(*got * sizeof(Value)); !s.ok()) {
      drained = s;
      break;
    }
  }
  if (!drained.ok()) {
    if (!SpillEligibleTrip(ctx, drained)) {
      right_->Close();
      return drained;
    }
    // The rows drained so far are intact; divert to disk and keep draining.
    return SpillBuildAndProbe(ctx, std::move(rows), /*right_open=*/true);
  }
  right_->Close();

  Status built = table_.Build(ctx, &rows);
  if (built.ok()) {
    if (slot_sets_) built = table_.ReserveSets();
    // Charges defer their checkpoints to whole granules, so the finished
    // table may stand over the budget unchecked. Check while a trip can
    // still divert the build to disk; past here it lands above the join.
    if (built.ok()) built = CheckGuard(ctx);
    if (!built.ok()) rows = table_.TakeRows();
  }
  if (built.ok() || !SpillEligibleTrip(ctx, built)) return built;
  // A failed build hands the rows back untouched, so they are salvageable
  // here even though indexing tripped mid-way.
  return SpillBuildAndProbe(ctx, std::move(rows), /*right_open=*/false);
}

Status HashJoinOp::ProcessMatch(const JoinTable& table, const Value& left_row,
                                uint32_t slot, ExecContext* ctx,
                                uint64_t* pairs,
                                std::vector<Value>* out) const {
  if (slot_sets_ && slot != JoinTable::kNone) {
    // Every pair still counts one predicate_eval, as the kernel's walk
    // would.
    uint32_t slot_rows = 0;
    TMDB_ASSIGN_OR_RETURN(
        Value set,
        table.SharedSlotSet(
            slot,
            [&](const Value& right_row, std::vector<Value>* group) {
              return kernel_.Image(left_row, right_row, ctx, group);
            },
            &slot_rows));
    ctx->stats->predicate_evals += slot_rows;
    return kernel_.EmitGroup(left_row, set, out);
  }
  uint32_t j = table.first(slot);
  auto next_row = [&]() -> const Value* {
    if (j == JoinTable::kNone) return nullptr;
    const Value* row = &table.row(j);
    j = table.next(j);
    return row;
  };
  return kernel_.Join(left_row, next_row, ctx, pairs, out);
}

Result<uint32_t> HashJoinOp::ProbeSlot(const JoinTable& table,
                                       const Value& left_row, const Value* key,
                                       ExecContext* ctx) const {
  uint32_t slot = JoinTable::kNone;
  if (table.raw()) {
    const Value* v = left_row.FindField(fast_spec_->left_field);
    if (v == nullptr) {
      // A malformed probe row: evaluating the key expression raises the
      // error the Value encoding would raise. (If it somehow succeeds, no
      // kind-exact build key can match; fall through to a miss.)
      TMDB_RETURN_IF_ERROR(
          EvalCompositeKey(left_keys_, spec_.left_var, left_row, ctx)
              .status());
    } else {
      slot = table.FindRaw(*v);
    }
  } else if (key != nullptr) {
    slot = table.Find(*key);
  } else {
    TMDB_ASSIGN_OR_RETURN(
        Value k, EvalCompositeKey(left_keys_, spec_.left_var, left_row, ctx));
    slot = table.Find(k);
  }
  ctx->stats->hash_probes++;
  return slot;
}

Status HashJoinOp::ProcessLeftRow(const Value& left_row, ExecContext* ctx,
                                  uint64_t* pairs,
                                  std::vector<Value>* out) const {
  TMDB_ASSIGN_OR_RETURN(uint32_t slot,
                        ProbeSlot(table_, left_row, nullptr, ctx));
  return ProcessMatch(table_, left_row, slot, ctx, pairs, out);
}

Status HashJoinOp::ParallelProbe() {
  std::vector<Value> rows;
  while (true) {
    TMDB_ASSIGN_OR_RETURN(size_t got, left_->NextBatch(&rows, kExecBatchSize));
    if (got == 0) break;
    TMDB_RETURN_IF_ERROR(build_res_.Add(got * sizeof(Value)));
  }
  std::vector<MorselRange> morsels = SplitMorsels(rows.size(),
                                                  ctx_->num_threads);
  std::vector<std::vector<Value>> outputs(morsels.size());
  std::vector<ExecStats> local_stats(morsels.size());
  std::vector<std::unique_ptr<SubplanEvaluator>> probe_evals =
      ForkSubplanEvaluators(ctx_->subplans, &local_stats);
  TMDB_RETURN_IF_ERROR(ParallelForMorsels(
      ctx_->sched, ctx_->guard, morsels,
      [&](size_t m, MorselRange range) -> Status {
        ExecContext wctx;
        wctx.outer_env = ctx_->outer_env;
        wctx.subplans =
            probe_evals[m] != nullptr ? probe_evals[m].get() : ctx_->subplans;
        wctx.stats = &local_stats[m];
        wctx.guard = ctx_->guard;
        uint64_t pairs = 0;
        for (size_t i = range.begin; i < range.end; ++i) {
          TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(&wctx, i - range.begin));
          TMDB_RETURN_IF_ERROR(
              ProcessLeftRow(rows[i], &wctx, &pairs, &outputs[m]));
        }
        return Status::OK();
      }));
  // Concatenating in morsel order reproduces the serial emission order;
  // rows_emitted is counted at serve time, like the serial probe.
  AccumulateStats(local_stats, ctx_->stats);
  size_t total = 0;
  for (const std::vector<Value>& part : outputs) total += part.size();
  TMDB_RETURN_IF_ERROR(build_res_.Add(total * sizeof(Value)));
  std::vector<Value>* serve = serve_.rows();
  serve->reserve(total);
  for (std::vector<Value>& part : outputs) {
    for (Value& row : part) serve->push_back(std::move(row));
  }
  return Status::OK();
}

Result<bool> HashJoinOp::Refill() {
  if (materialized_) return false;
  std::vector<Value>* out = serve_.rows();
  while (true) {
    if (Status s = CheckGuard(ctx_); !s.ok()) {
      TMDB_RETURN_IF_ERROR(DivertProbe(s));
      return !out->empty();
    }
    probe_batch_.clear();
    TMDB_ASSIGN_OR_RETURN(size_t got,
                          left_->NextBatch(&probe_batch_, kExecBatchSize));
    if (got == 0) {
      DropTable();
      return false;
    }
    for (size_t i = 0; i < probe_batch_.size(); ++i) {
      const size_t emitted = out->size();
      if (Status s = ProcessLeftRow(probe_batch_[i], ctx_, &probe_pairs_, out);
          !s.ok()) {
        // The trip cut one left row's pairs short: its partial output goes,
        // and the row is joined again with the ones after it.
        out->erase(out->begin() + static_cast<ptrdiff_t>(emitted), out->end());
        probe_batch_.erase(probe_batch_.begin(),
                           probe_batch_.begin() + static_cast<ptrdiff_t>(i));
        TMDB_RETURN_IF_ERROR(DivertProbe(s));
        return !out->empty();
      }
    }
    probe_batch_.clear();
    if (!out->empty()) return true;
  }
}

Status HashJoinOp::DivertProbe(const Status& trip) {
  if (!SpillEligibleTrip(ctx_, trip)) return trip;
  // The table fit, but what the plan has built since no longer does.
  // Nothing else is in flight, so the Grace path can take over the left
  // rows not yet joined: the build rows go to disk and the output of those
  // rows is appended to serve_.
  return SpillBuildAndProbe(ctx_, table_.TakeRows(), /*right_open=*/false,
                            /*left_open=*/true, std::move(probe_batch_));
}

void HashJoinOp::DropTable() {
  build_res_.Shrink(table_.TakeRows().size() * sizeof(Value));
}

Result<size_t> HashJoinOp::NextBatch(std::vector<Value>* out, size_t max) {
  return serve_.Serve(out, max, ctx_->stats, [this] { return Refill(); });
}

void HashJoinOp::Close() {
  kernel_.ClearNames();
  probe_batch_.clear();
  probe_pairs_ = 0;
  serve_.Clear();
  materialized_ = false;
  spilled_ = false;
  table_.Reset(nullptr);
  build_res_.Release();
  left_->Close();
  // Usually already closed at the end of BuildTable; closing again is a
  // no-op, but matters when the build unwound mid-drain (guard trip).
  right_->Close();
}

std::string HashJoinOp::Describe() const {
  std::vector<std::string> keys;
  keys.reserve(left_keys_.size());
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    keys.push_back(left_keys_[i].ToString() + " = " +
                   right_keys_[i].ToString());
  }
  std::string out =
      StrCat("HashJoin<", JoinModeName(spec_.mode), ">[", spec_.left_var, ",",
             spec_.right_var, " : keys(", Join(keys, ", "), ")");
  if (!kernel_.pred_is_true()) {
    out += StrCat(", residual ", spec_.pred.ToString());
  }
  if (spec_.mode == JoinMode::kNestJoin) {
    out += StrCat(", G = ", spec_.func.ToString(), "; ", spec_.label);
  }
  out += "]";
  return out;
}

}  // namespace tmdb
