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
  Reset(ctx->guard);
  TMDB_RETURN_IF_ERROR(BuildTable(ctx));
  // The spill path consumed both inputs and filled serve_ already.
  return materialized_ ? Status::OK() : left_->Open(ctx);
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

Result<bool> HashJoinOp::Refill() {
  while (serve_.rows()->empty() && !materialized_ && !probe_.ended) {
    // serve_ ran dry, so the last round's output is served: its charges go.
    round_res_.Release();
    if (Status s = CheckGuard(ctx_); !s.ok()) {
      TMDB_RETURN_IF_ERROR(DivertProbe(s));
      break;
    }
    TMDB_RETURN_IF_ERROR(ProbeRound());
    if (probe_.ended) {
      // Free the table and refund its build rows now, not at Close: what the
      // plan builds above the join gets the budget the join no longer needs.
      build_res_.Shrink(table_.TakeRows().size() * sizeof(Value));
      probe_.rows = std::vector<Value>();
    }
  }
  return !serve_.rows()->empty();
}

Status HashJoinOp::ProbeRound() {
  const bool parallel = ctx_->parallel_enabled() && !probe_.degraded;
  // A parallel round is one dispatch, of morsels of at most
  // kMorselTargetRows rows, each checkpointed as its task starts.
  const size_t round =
      parallel ? kMaxMorselsPerDispatch * kMorselTargetRows : kExecBatchSize;
  Status charged = Status::OK();
  if (probe_.rows.empty()) {
    while (!probe_.left_done && charged.ok() && probe_.rows.size() < round) {
      // Never past the round, so a round joins every row it pulled. A short
      // pull is topped up, so the round that reaches the left input's end
      // knows it and ends the probe.
      const size_t max = std::min(kExecBatchSize, round - probe_.rows.size());
      TMDB_ASSIGN_OR_RETURN(size_t got, left_->NextBatch(&probe_.rows, max));
      probe_.left_done = got == 0;
      if (parallel && got > 0) charged = round_res_.Add(got * sizeof(Value));
    }
  }
  const size_t n = std::min(round, probe_.rows.size() - probe_.pos);
  probe_.ended = n == 0;
  if (probe_.ended) return Status::OK();
  if (!charged.ok()) return Degrade(charged);

  std::vector<MorselRange> morsels =
      parallel ? SplitMorsels(n, ctx_->num_threads)
               : std::vector<MorselRange>{{probe_.pos, probe_.pos + n}};
  std::vector<ExecStats> local_stats(parallel ? morsels.size() : 0);
  std::vector<std::unique_ptr<SubplanEvaluator>> evals =
      ForkSubplanEvaluators(ctx_->subplans, &local_stats);
  // Morsel 0 writes straight into serve_, which is empty at a refill; the
  // others follow it in morsel order, which is the serial emission order.
  std::vector<std::vector<Value>> outputs(morsels.size() - 1);
  // A one-batch round runs inline, checkpointed by its refill.
  Status probed = ParallelForMorsels(
      parallel ? ctx_->sched : nullptr, parallel ? ctx_->guard : nullptr,
      morsels, [&](size_t m, MorselRange range) -> Status {
        ExecContext wctx = *ctx_;
        uint64_t morsel_pairs = 0;
        uint64_t* pairs = parallel ? &morsel_pairs : &probe_.pairs;
        if (parallel) {
          wctx.subplans = evals[m] != nullptr ? evals[m].get() : ctx_->subplans;
          wctx.stats = &local_stats[m];
        }
        std::vector<Value>* out = m == 0 ? serve_.rows() : &outputs[m - 1];
        for (size_t i = range.begin; i < range.end; ++i) {
          const Value& row = probe_.rows[i];
          const size_t emitted = out->size();
          Result<uint32_t> slot = ProbeSlot(table_, row, nullptr, &wctx);
          Status s = slot.ok() ? ProcessMatch(table_, row, *slot, &wctx,
                                              pairs, out)
                               : slot.status();
          if (!s.ok()) {
            // A trip cut the row's pairs short: its partial output goes.
            out->erase(out->begin() + static_cast<ptrdiff_t>(emitted),
                       out->end());
            if (!parallel) probe_.pos = i;  // the first row not joined
            return s;
          }
        }
        return Status::OK();
      });
  // A one-batch round that tripped keeps the output of the rows before the
  // tripped one, and diverts that row and the rest.
  if (!probed.ok()) return parallel ? Degrade(probed) : DivertProbe(probed);
  std::vector<Value>* serve = serve_.rows();
  size_t total = serve->size();
  for (const std::vector<Value>& part : outputs) total += part.size();
  if (parallel) {
    if (Status s = round_res_.Add(total * sizeof(Value)); !s.ok()) {
      return Degrade(s);
    }
    AccumulateStats(local_stats, ctx_->stats);  // rows_emitted: at serve
    serve->reserve(total);
  }
  for (std::vector<Value>& part : outputs) {
    serve->insert(serve->end(), std::make_move_iterator(part.begin()),
                  std::make_move_iterator(part.end()));
  }
  probe_.pos += n;
  if (probe_.pos < probe_.rows.size()) return Status::OK();
  // Every pulled row is joined: they go now, not at the next round. A round
  // that joined the whole left input ends the probe.
  probe_.rows.clear();
  probe_.pos = 0;
  probe_.ended = probe_.left_done;
  return Status::OK();
}

Status HashJoinOp::Degrade(const Status& trip) {
  if (!SpillEligibleTrip(ctx_, trip)) return trip;
  // What the round built goes with its output (shared sets, output names,
  // which racing morsels may memoise twice): one-batch rounds start afresh.
  probe_.degraded = true;
  serve_.rows()->clear();
  round_res_.Release();
  kernel_.ClearNames();
  return slot_sets_ ? table_.ReserveSets() : Status::OK();
}

Status HashJoinOp::DivertProbe(const Status& trip) {
  if (!SpillEligibleTrip(ctx_, trip)) return trip;
  // The table fit, but what the plan has built since no longer does: the
  // Grace path takes over the left rows not yet joined, appending to serve_.
  probe_.rows.erase(probe_.rows.begin(),
                    probe_.rows.begin() + static_cast<ptrdiff_t>(probe_.pos));
  return SpillBuildAndProbe(ctx_, table_.TakeRows(), /*right_open=*/false,
                            /*left_open=*/true, std::move(probe_.rows));
}

Result<size_t> HashJoinOp::NextBatch(std::vector<Value>* out, size_t max) {
  return serve_.Serve(out, max, ctx_->stats, [this] { return Refill(); });
}

void HashJoinOp::Close() {
  Reset(nullptr);
  left_->Close();
  // Usually already closed at the end of BuildTable; closing again is a
  // no-op, but matters when the build unwound mid-drain (guard trip).
  right_->Close();
}

void HashJoinOp::Reset(QueryGuard* guard) {
  kernel_.ClearNames();
  probe_ = Probe();
  round_res_.Reset(guard);
  serve_.Clear();
  materialized_ = false;
  build_res_.Reset(guard);
  table_.Reset(guard);
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
