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
  out_names_.Clear();
  probe_batch_.clear();
  serve_.clear();
  serve_pos_ = 0;
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
      serve_.clear();
      serve_.shrink_to_fit();
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
                                std::vector<Value>* out) const {
  // A literal-true residual still costs one predicate_eval per pair — the
  // counter says how many pairs were considered, not how much work the
  // evaluator did.
  auto eval_pred = [&](const Value& right_row) -> Result<bool> {
    if (pred_is_true_) {
      ctx->stats->predicate_evals++;
      return true;
    }
    return EvalJoinPred(spec_, left_row, right_row, ctx);
  };
  const uint32_t first = table.first(slot);
  switch (spec_.mode) {
    case JoinMode::kInner:
    case JoinMode::kLeftOuter: {
      bool matched = false;
      for (uint32_t j = first; j != JoinTable::kNone; j = table.next(j)) {
        const Value& right_row = table.row(j);
        TMDB_ASSIGN_OR_RETURN(bool match, eval_pred(right_row));
        if (match) {
          matched = true;
          TMDB_ASSIGN_OR_RETURN(
              Value o, ConcatTuples(left_row, right_row, &out_names_));
          out->push_back(std::move(o));
        }
      }
      if (spec_.mode == JoinMode::kLeftOuter && !matched) {
        TMDB_ASSIGN_OR_RETURN(
            Value o,
            ConcatTuples(left_row, NullTupleOfType(spec_.right_type),
                         &out_names_));
        out->push_back(std::move(o));
      }
      return Status::OK();
    }
    case JoinMode::kSemi:
    case JoinMode::kAnti: {
      const bool want_match = spec_.mode == JoinMode::kSemi;
      bool matched = false;
      for (uint32_t j = first; j != JoinTable::kNone; j = table.next(j)) {
        TMDB_ASSIGN_OR_RETURN(bool match, eval_pred(table.row(j)));
        if (match) {
          matched = true;
          break;  // the first match decides
        }
      }
      if (matched == want_match) out->push_back(left_row);
      return Status::OK();
    }
    case JoinMode::kNestJoin: {
      // G's image of one matching right row.
      auto image = [&](const Value& right_row,
                       std::vector<Value>* group) -> Status {
        if (func_is_right_ident_) {
          group->push_back(right_row);
          return Status::OK();
        }
        TMDB_ASSIGN_OR_RETURN(Value g,
                              EvalJoinFunc(spec_, left_row, right_row, ctx));
        group->push_back(std::move(g));
        return Status::OK();
      };
      Value set;
      if (slot_sets_ && slot != JoinTable::kNone) {
        uint32_t pairs = 0;
        TMDB_ASSIGN_OR_RETURN(set, table.SharedSlotSet(slot, image, &pairs));
        ctx->stats->predicate_evals += pairs;
      } else {
        TMDB_ASSIGN_OR_RETURN(
            set, table.SlotSet(slot, [&](const Value& right_row,
                                         std::vector<Value>* group) -> Status {
              TMDB_ASSIGN_OR_RETURN(bool match, eval_pred(right_row));
              return match ? image(right_row, group) : Status::OK();
            }));
      }
      TMDB_ASSIGN_OR_RETURN(
          Value o,
          ExtendTuple(left_row, spec_.label, std::move(set), &out_names_));
      out->push_back(std::move(o));
      return Status::OK();
    }
  }
  return Status::Internal("unhandled join mode");
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
                                  std::vector<Value>* out) const {
  TMDB_ASSIGN_OR_RETURN(uint32_t slot,
                        ProbeSlot(table_, left_row, nullptr, ctx));
  return ProcessMatch(table_, left_row, slot, ctx, out);
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
        for (size_t i = range.begin; i < range.end; ++i) {
          TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(&wctx, i - range.begin));
          TMDB_RETURN_IF_ERROR(ProcessLeftRow(rows[i], &wctx, &outputs[m]));
        }
        return Status::OK();
      }));
  // Concatenating in morsel order reproduces the serial emission order;
  // rows_emitted is counted at serve time, like the serial probe.
  AccumulateStats(local_stats, ctx_->stats);
  size_t total = 0;
  for (const std::vector<Value>& part : outputs) total += part.size();
  TMDB_RETURN_IF_ERROR(build_res_.Add(total * sizeof(Value)));
  serve_.reserve(total);
  for (std::vector<Value>& part : outputs) {
    for (Value& row : part) serve_.push_back(std::move(row));
  }
  return Status::OK();
}

Result<bool> HashJoinOp::Refill() {
  serve_.clear();
  serve_pos_ = 0;
  if (materialized_) return false;
  while (true) {
    if (Status s = CheckGuard(ctx_); !s.ok()) {
      if (!SpillEligibleTrip(ctx_, s)) return s;
      // The table fit, but what the plan has built since no longer does.
      // Nothing is in flight at a batch boundary, so the Grace path can
      // take over the rest of the left input: the build rows go to disk
      // and the output of the unread left rows fills serve_.
      TMDB_RETURN_IF_ERROR(SpillBuildAndProbe(ctx_, table_.TakeRows(),
                                              /*right_open=*/false,
                                              /*left_open=*/true));
      return !serve_.empty();
    }
    probe_batch_.clear();
    TMDB_ASSIGN_OR_RETURN(size_t got,
                          left_->NextBatch(&probe_batch_, kExecBatchSize));
    if (got == 0) {
      DropTable();
      return false;
    }
    for (const Value& left_row : probe_batch_) {
      TMDB_RETURN_IF_ERROR(ProcessLeftRow(left_row, ctx_, &serve_));
    }
    if (!serve_.empty()) return true;
  }
}

void HashJoinOp::DropTable() {
  build_res_.Shrink(table_.TakeRows().size() * sizeof(Value));
}

Result<std::optional<Value>> HashJoinOp::Next() {
  if (serve_pos_ >= serve_.size()) {
    TMDB_ASSIGN_OR_RETURN(bool more, Refill());
    if (!more) return std::optional<Value>();
  }
  ctx_->stats->rows_emitted++;
  return std::optional<Value>(std::move(serve_[serve_pos_++]));
}

Result<size_t> HashJoinOp::NextBatch(std::vector<Value>* out, size_t max) {
  size_t produced = 0;
  while (produced < max) {
    if (serve_pos_ >= serve_.size()) {
      TMDB_ASSIGN_OR_RETURN(bool more, Refill());
      if (!more) break;
    }
    const size_t take = std::min(max - produced, serve_.size() - serve_pos_);
    const auto from = serve_.begin() + static_cast<ptrdiff_t>(serve_pos_);
    out->insert(out->end(), std::make_move_iterator(from),
                std::make_move_iterator(from + static_cast<ptrdiff_t>(take)));
    serve_pos_ += take;
    produced += take;
    ctx_->stats->rows_emitted += take;
  }
  return produced;
}

void HashJoinOp::Close() {
  out_names_.Clear();
  probe_batch_.clear();
  serve_.clear();
  serve_.shrink_to_fit();
  serve_pos_ = 0;
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
  if (!pred_is_true_) {
    out += StrCat(", residual ", spec_.pred.ToString());
  }
  if (spec_.mode == JoinMode::kNestJoin) {
    out += StrCat(", G = ", spec_.func.ToString(), "; ", spec_.label);
  }
  out += "]";
  return out;
}

}  // namespace tmdb
