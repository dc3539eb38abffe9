#include "exec/hash_join.h"

#include <algorithm>
#include <utility>

#include "base/string_util.h"
#include "exec/parallel_util.h"
#include "values/value_ops.h"

namespace tmdb {

namespace {

/// Guard check once per kExecBatchSize loop iterations (`i` counts up).
inline Status PeriodicGuardCheck(const ExecContext* ctx, size_t i) {
  if ((i & (kExecBatchSize - 1)) == 0) return CheckGuard(ctx);
  return Status::OK();
}

}  // namespace

Status HashJoinOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  partitions_.clear();
  probe_rows_ = 0;
  current_left_.reset();
  current_bucket_ = nullptr;
  bucket_pos_ = 0;
  left_matched_ = false;
  materialized_ = false;
  output_.clear();
  output_pos_ = 0;
  spilled_ = false;
  build_res_.Reset(ctx->guard);

  ReleaseFastTable();
  build_rows_.clear();
  probe_batch_.clear();
  serve_.clear();
  serve_pos_ = 0;
  memo_.clear();
  memo_enabled_ = false;
  pred_is_true_ = spec_.pred.is_literal() &&
                  spec_.pred.literal_value().is_bool() &&
                  spec_.pred.literal_value().AsBool();
  func_is_right_ident_ =
      spec_.func.is_var() && spec_.func.var_name() == spec_.right_var;

  TMDB_RETURN_IF_ERROR(BuildTables(ctx));
  // Nest-join group memo: re-probing an already-grouped key hands back the
  // same set value. Serial only (no shared mutation under morsels) and only
  // without a memory budget — memoised groups are memory the row path does
  // not hold, and must not shift when a budget trips.
  memo_enabled_ = fast_active_ && spec_.mode == JoinMode::kNestJoin &&
                  pred_is_true_ && func_is_right_ident_ &&
                  !ctx->parallel_enabled() &&
                  (ctx->guard == nullptr ||
                   ctx->guard->limits().memory_budget_bytes == 0);
  if (spilled_) {
    // The spill path consumed both inputs and filled output_ already.
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
    } else if (SpillEligible(ctx, probed) ||
               (fast_active_ && arena_.IsMemoryTrip(probed))) {
      // The build table fits but materialising the probe side blew the
      // budget. Fall back to the streaming probe, which holds one left row
      // at a time — on the fast table it also degrades to the row table if
      // the budget is still blown at its first batch boundary: refund the
      // probe scratch (its values freed on unwind) and restart the left
      // input.
      build_res_.Shrink(build_res_.held() - held_before);
      output_.clear();
      output_.shrink_to_fit();
      output_pos_ = 0;
      left_->Close();
      TMDB_RETURN_IF_ERROR(left_->Open(ctx));
    } else {
      return probed;
    }
  }
  return Status::OK();
}

void HashJoinOp::ReleaseFastTable() {
  fast_active_ = false;
  arena_.Reset();
  fk_i64_ = nullptr;
  fk_f64_ = nullptr;
  fk_codes_ = nullptr;
  heads_ = nullptr;
  next_ = nullptr;
  bucket_mask_ = 0;
  fast_dict_ = StringDict();
}

Status HashJoinOp::BuildTables(ExecContext* ctx) {
  // Build phase: materialise the right input, hash it on its composite key.
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
    if (!SpillEligible(ctx, drained)) {
      right_->Close();
      return drained;
    }
    // The rows drained so far are intact; divert to disk and keep draining.
    return SpillBuildAndProbe(ctx, std::move(rows), /*right_open=*/true);
  }
  right_->Close();

  if (fast_spec_.has_value()) {
    Result<bool> fast = BuildFast(ctx, &rows);
    if (!fast.ok()) {
      ReleaseFastTable();
      // The row build's peak (a composite key Value per build row) exceeds
      // the fast build's, so a memory trip here is one the row build would
      // hit too: spill or fail exactly as it would. BuildFast never
      // disturbs `rows`.
      if (!SpillEligible(ctx, fast.status())) return fast.status();
      return SpillBuildAndProbe(ctx, std::move(rows), /*right_open=*/false);
    }
    if (*fast) {
      fast_active_ = true;
      return Status::OK();
    }
    // A build key deviated from the static kind contract (NULL, coerced
    // Int in a Real field, NaN): release the arena and fall back to the
    // row build, which handles every kind combination.
    ReleaseFastTable();
  }

  Status built = BuildInMemory(ctx, &rows);
  if (!built.ok()) {
    partitions_.clear();
    if (!SpillEligible(ctx, built)) return built;
    // Key evaluation never disturbs `rows` (see BuildInMemory), so they are
    // salvageable here even though the build tripped mid-way.
    return SpillBuildAndProbe(ctx, std::move(rows), /*right_open=*/false);
  }
  return Status::OK();
}

Status HashJoinOp::BuildInMemory(ExecContext* ctx, std::vector<Value>* rows_in) {
  std::vector<Value>& rows = *rows_in;
  const size_t n = rows.size();
  const bool parallel = ctx->parallel_enabled();
  const size_t num_partitions =
      parallel ? static_cast<size_t>(ctx->num_threads) : 1;
  partitions_.assign(num_partitions, BuildMap());

  // Pass A: evaluate every composite key up front, leaving `rows` untouched
  // — a memory trip in this pass is salvageable by the spill path. The
  // scratch slots are charged now and refunded when the scratch dies below.
  const uint64_t scratch_bytes =
      n * sizeof(Value) + (parallel ? n * sizeof(uint64_t) : 0);
  TMDB_RETURN_IF_ERROR(build_res_.Add(scratch_bytes));
  std::vector<Value> keys(n);
  std::vector<uint64_t> hashes(parallel ? n : 0);
  if (!parallel) {
    for (size_t i = 0; i < n; ++i) {
      TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx, i));
      TMDB_ASSIGN_OR_RETURN(keys[i], EvalCompositeKey(right_keys_,
                                                      spec_.right_var,
                                                      rows[i], ctx));
    }
  } else {
    // Parallel stage 1 (morsels): evaluate the key expressions once per
    // build row and pre-compute the key hashes (cached inside the Value
    // rep, so partitioning and map insertion below re-use them).
    std::vector<MorselRange> morsels = SplitMorsels(n, ctx->num_threads);
    std::vector<ExecStats> key_stats(morsels.size());
    std::vector<std::unique_ptr<SubplanEvaluator>> key_evals =
        ForkSubplanEvaluators(ctx->subplans, &key_stats);
    TMDB_RETURN_IF_ERROR(ParallelForMorsels(
        ctx->sched, ctx->guard, morsels,
        [&](size_t m, MorselRange range) -> Status {
          ExecContext wctx;
          wctx.outer_env = ctx->outer_env;
          wctx.subplans =
              key_evals[m] != nullptr ? key_evals[m].get() : ctx->subplans;
          wctx.stats = &key_stats[m];
          wctx.guard = ctx->guard;
          for (size_t i = range.begin; i < range.end; ++i) {
            TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(&wctx, i - range.begin));
            TMDB_ASSIGN_OR_RETURN(keys[i],
                                  EvalCompositeKey(right_keys_, spec_.right_var,
                                                   rows[i], &wctx));
            hashes[i] = keys[i].Hash();
          }
          return Status::OK();
        }));
    AccumulateStats(key_stats, ctx->stats);
  }

  // Pass B: move keys and rows into the hash maps. No fresh tracked values
  // are created here, so this pass cannot trip the memory budget and strand
  // half-moved rows.
  if (!parallel) {
    BuildMap& table = partitions_[0];
    table.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx, i));
      table[std::move(keys[i])].push_back(std::move(rows[i]));
    }
  } else {
    // Parallel stage 2 (one task per partition): each worker owns one
    // disjoint partition and scans the row sequence in order, so every
    // bucket receives its rows in build-input order — exactly the serial
    // insertion order.
    std::vector<MorselRange> one_per_partition;
    one_per_partition.reserve(num_partitions);
    for (size_t p = 0; p < num_partitions; ++p) {
      one_per_partition.push_back({p, p + 1});
    }
    TMDB_RETURN_IF_ERROR(ParallelForMorsels(
        ctx->sched, ctx->guard, one_per_partition,
        [&](size_t, MorselRange range) -> Status {
          const size_t p = range.begin;
          BuildMap& table = partitions_[p];
          table.reserve(n / num_partitions + 1);
          for (size_t i = 0; i < n; ++i) {
            TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx, i));
            if (hashes[i] % num_partitions != p) continue;
            // Disjoint: row i is moved by exactly one partition task.
            table[std::move(keys[i])].push_back(std::move(rows[i]));
          }
          return Status::OK();
        }));
  }

  // The scratch vectors die now; refund their slots so the charge does not
  // linger as phantom memory for the rest of the query.
  keys.clear();
  keys.shrink_to_fit();
  hashes.clear();
  hashes.shrink_to_fit();
  build_res_.Shrink(scratch_bytes);
  rows.clear();
  rows.shrink_to_fit();
  return Status::OK();
}

const std::vector<Value>* HashJoinOp::FindBucket(const Value& key) const {
  const BuildMap& table =
      partitions_.size() == 1
          ? partitions_[0]
          : partitions_[key.Hash() % partitions_.size()];
  auto it = table.find(key);
  return it == table.end() ? nullptr : &it->second;
}

namespace {

/// Match iterator over a row-path map bucket (all rows share the probe key).
struct VecIter {
  const std::vector<Value>* bucket;  // may be nullptr (no such key)
  size_t i = 0;

  bool done() const { return bucket == nullptr || i >= bucket->size(); }
  const Value& row() const { return (*bucket)[i]; }
  void advance() { ++i; }
};

}  // namespace

/// Match iterator over a fast-table hash chain: walks `next` links from a
/// bucket head, skipping entries whose raw key differs from the probe key
/// (chains mix keys that share a bucket; map buckets do not).
struct HashJoinOp::FastIter {
  FastKeySpec::Kind kind = FastKeySpec::Kind::kI64;
  const std::vector<Value>* rows = nullptr;
  const uint32_t* next = nullptr;
  const int64_t* ki = nullptr;
  const double* kf = nullptr;
  const uint32_t* kc = nullptr;
  int64_t pi = 0;  // probe key (kind-specific)
  double pf = 0;
  uint32_t pc = 0;
  uint32_t j = kNil;

  bool KeyEq(uint32_t x) const {
    switch (kind) {
      case FastKeySpec::Kind::kI64:
        return ki[x] == pi;
      case FastKeySpec::Kind::kF64:
        return F64KeyEq(kf[x], pf);
      case FastKeySpec::Kind::kStr:
        return kc[x] == pc;
    }
    return false;
  }
  void Skip() {
    while (j != kNil && !KeyEq(j)) j = next[j];
  }
  bool done() const { return j == kNil; }
  const Value& row() const { return (*rows)[j]; }
  void advance() {
    j = next[j];
    Skip();
  }
};

template <typename Iter>
Status HashJoinOp::ProcessMatchIt(const Value& left_row, Iter it,
                                  ExecContext* ctx,
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
  switch (spec_.mode) {
    case JoinMode::kInner:
    case JoinMode::kLeftOuter: {
      bool matched = false;
      for (; !it.done(); it.advance()) {
        const Value& right_row = it.row();
        TMDB_ASSIGN_OR_RETURN(bool match, eval_pred(right_row));
        if (match) {
          matched = true;
          TMDB_ASSIGN_OR_RETURN(Value o, ConcatTuples(left_row, right_row));
          out->push_back(std::move(o));
        }
      }
      if (spec_.mode == JoinMode::kLeftOuter && !matched) {
        TMDB_ASSIGN_OR_RETURN(
            Value o,
            ConcatTuples(left_row, NullTupleOfType(spec_.right_type)));
        out->push_back(std::move(o));
      }
      return Status::OK();
    }
    case JoinMode::kSemi:
    case JoinMode::kAnti: {
      const bool want_match = spec_.mode == JoinMode::kSemi;
      bool matched = false;
      for (; !it.done(); it.advance()) {
        TMDB_ASSIGN_OR_RETURN(bool match, eval_pred(it.row()));
        if (match) {
          matched = true;
          break;  // same early exit as the streaming path
        }
      }
      if (matched == want_match) out->push_back(left_row);
      return Status::OK();
    }
    case JoinMode::kNestJoin: {
      std::vector<Value> group;
      for (; !it.done(); it.advance()) {
        const Value& right_row = it.row();
        TMDB_ASSIGN_OR_RETURN(bool match, eval_pred(right_row));
        if (match) {
          if (func_is_right_ident_) {
            group.push_back(right_row);
          } else {
            TMDB_ASSIGN_OR_RETURN(
                Value g, EvalJoinFunc(spec_, left_row, right_row, ctx));
            group.push_back(std::move(g));
          }
        }
      }
      TMDB_ASSIGN_OR_RETURN(Value o, ExtendTuple(left_row, spec_.label,
                                                 Value::Set(std::move(group))));
      out->push_back(std::move(o));
      return Status::OK();
    }
  }
  return Status::Internal("unhandled join mode");
}

Status HashJoinOp::ProcessMatch(const Value& left_row,
                                const std::vector<Value>* bucket,
                                ExecContext* ctx,
                                std::vector<Value>* out) const {
  return ProcessMatchIt(left_row, VecIter{bucket}, ctx, out);
}

Status HashJoinOp::ProcessLeftRow(const Value& left_row, ExecContext* ctx,
                                  std::vector<Value>* out) const {
  if (fast_active_) return ProcessLeftRowFast(left_row, ctx, out);
  TMDB_ASSIGN_OR_RETURN(
      Value key, EvalCompositeKey(left_keys_, spec_.left_var, left_row, ctx));
  ctx->stats->hash_probes++;
  return ProcessMatchIt(left_row, VecIter{FindBucket(key)}, ctx, out);
}

Result<bool> HashJoinOp::BuildFast(ExecContext* ctx,
                                   std::vector<Value>* rows) {
  const FastKeySpec& spec = *fast_spec_;
  const size_t n = rows->size();
  if (n >= static_cast<size_t>(kNil)) return false;
  arena_.Bind(ctx->guard);
  fast_dict_ = StringDict();

  int64_t* ki = nullptr;
  double* kf = nullptr;
  uint32_t* kc = nullptr;
  switch (spec.kind) {
    case FastKeySpec::Kind::kI64: {
      TMDB_ASSIGN_OR_RETURN(ki, arena_.AllocateArray<int64_t>(n));
      break;
    }
    case FastKeySpec::Kind::kF64: {
      TMDB_ASSIGN_OR_RETURN(kf, arena_.AllocateArray<double>(n));
      break;
    }
    case FastKeySpec::Kind::kStr: {
      TMDB_ASSIGN_OR_RETURN(kc, arena_.AllocateArray<uint32_t>(n));
      break;
    }
  }

  for (size_t i = 0; i < n; ++i) {
    TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx, i));
    const Value* v = (*rows)[i].FindField(spec.right_field);
    if (v == nullptr) return false;
    switch (spec.kind) {
      case FastKeySpec::Kind::kI64:
        if (!v->is_int()) return false;
        ki[i] = v->AsInt();
        break;
      case FastKeySpec::Kind::kF64: {
        // Strictly Real and NaN-free: ResolveFastKeys's soundness argument
        // needs runtime-Real build keys, and NaN's tri-state "equal to
        // everything" cannot live in a hash table.
        if (!v->is_real()) return false;
        const double d = v->AsNumeric();
        if (d != d) return false;
        kf[i] = d;
        break;
      }
      case FastKeySpec::Kind::kStr:
        if (!v->is_string()) return false;
        kc[i] = fast_dict_.Intern(*v);
        break;
    }
  }

  size_t nb = 8;
  while (nb < 2 * n) nb <<= 1;
  uint32_t* heads = nullptr;
  uint32_t* next = nullptr;
  uint32_t* tails = nullptr;
  TMDB_ASSIGN_OR_RETURN(heads, arena_.AllocateArray<uint32_t>(nb));
  TMDB_ASSIGN_OR_RETURN(tails, arena_.AllocateArray<uint32_t>(nb));
  TMDB_ASSIGN_OR_RETURN(next, arena_.AllocateArray<uint32_t>(n));
  for (size_t b = 0; b < nb; ++b) heads[b] = kNil;
  bucket_mask_ = nb - 1;
  // Ascending-index tail appends keep each chain in build-input order —
  // the same per-key order the row path's bucket vectors preserve.
  for (size_t i = 0; i < n; ++i) {
    uint64_t h = 0;
    switch (spec.kind) {
      case FastKeySpec::Kind::kI64:
        h = HashI64Key(ki[i]);
        break;
      case FastKeySpec::Kind::kF64:
        h = HashF64Key(kf[i]);
        break;
      case FastKeySpec::Kind::kStr:
        h = Mix64(kc[i]);
        break;
    }
    const uint64_t b = h & bucket_mask_;
    const uint32_t id = static_cast<uint32_t>(i);
    if (heads[b] == kNil) {
      heads[b] = id;
    } else {
      next[tails[b]] = id;
    }
    tails[b] = id;
    next[id] = kNil;
  }

  fk_i64_ = ki;
  fk_f64_ = kf;
  fk_codes_ = kc;
  heads_ = heads;
  next_ = next;
  build_rows_ = std::move(*rows);
  return true;
}

Status HashJoinOp::ProcessLeftRowFast(const Value& left_row, ExecContext* ctx,
                                      std::vector<Value>* out) const {
  const FastKeySpec& spec = *fast_spec_;
  const Value* v = left_row.FindField(spec.left_field);
  if (v == nullptr) {
    // A malformed probe row: reproduce the row path exactly — evaluating
    // the key expression raises the error the row path would raise. (If it
    // somehow succeeds, no kind-exact build key can match; fall through to
    // a miss.)
    TMDB_RETURN_IF_ERROR(
        EvalCompositeKey(left_keys_, spec_.left_var, left_row, ctx).status());
  }
  ctx->stats->hash_probes++;

  FastIter it;
  it.kind = spec.kind;
  it.rows = &build_rows_;
  it.next = next_;
  it.ki = fk_i64_;
  it.kf = fk_f64_;
  it.kc = fk_codes_;
  it.j = kNil;
  if (v != nullptr && !build_rows_.empty()) {
    switch (spec.kind) {
      case FastKeySpec::Kind::kI64:
        if (v->is_int()) {
          it.pi = v->AsInt();
          it.j = heads_[HashI64Key(it.pi) & bucket_mask_];
        }
        break;
      case FastKeySpec::Kind::kF64:
        // Non-numeric (or NaN) probe keys miss: the build side is strictly
        // Real and NaN-free, so the row path's bucket lookup misses too.
        if (v->is_numeric()) {
          const double d = v->AsNumeric();
          if (!(d != d)) {
            it.pf = d;
            it.j = heads_[HashF64Key(d) & bucket_mask_];
          }
        }
        break;
      case FastKeySpec::Kind::kStr:
        if (v->is_string()) {
          const uint32_t code = fast_dict_.Lookup(*v);
          if (code != StringDict::kNoCode) {
            it.pc = code;
            it.j = heads_[Mix64(code) & bucket_mask_];
          }
        }
        break;
    }
    it.Skip();
  }

  if (memo_enabled_ && !it.done()) {
    // `it.j` is the first build row with this exact key — a stable identity
    // for the whole group.
    const uint32_t group_id = it.j;
    auto hit = memo_.find(group_id);
    if (hit != memo_.end()) {
      ctx->stats->predicate_evals += hit->second.second;
      TMDB_ASSIGN_OR_RETURN(
          Value o, ExtendTuple(left_row, spec_.label, hit->second.first));
      out->push_back(std::move(o));
      return Status::OK();
    }
    std::vector<Value> group;
    uint64_t matches = 0;
    for (FastIter g = it; !g.done(); g.advance()) {
      ctx->stats->predicate_evals++;
      ++matches;
      group.push_back(g.row());
    }
    Value set = Value::Set(std::move(group));
    memo_.emplace(group_id, std::make_pair(set, matches));
    TMDB_ASSIGN_OR_RETURN(Value o,
                          ExtendTuple(left_row, spec_.label, std::move(set)));
    out->push_back(std::move(o));
    return Status::OK();
  }

  return ProcessMatchIt(left_row, it, ctx, out);
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
  // rows_emitted is counted at serve time, like the streaming path.
  AccumulateStats(local_stats, ctx_->stats);
  size_t total = 0;
  for (const std::vector<Value>& part : outputs) total += part.size();
  TMDB_RETURN_IF_ERROR(build_res_.Add(total * sizeof(Value)));
  output_.reserve(total);
  for (std::vector<Value>& part : outputs) {
    for (Value& row : part) output_.push_back(std::move(row));
  }
  return Status::OK();
}

Result<bool> HashJoinOp::AdvanceLeft() {
  TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx_, probe_rows_++));
  TMDB_ASSIGN_OR_RETURN(std::optional<Value> row, left_->Next());
  if (!row.has_value()) {
    current_left_.reset();
    return false;
  }
  current_left_ = std::move(*row);
  TMDB_ASSIGN_OR_RETURN(
      Value key,
      EvalCompositeKey(left_keys_, spec_.left_var, *current_left_, ctx_));
  ctx_->stats->hash_probes++;
  current_bucket_ = FindBucket(key);
  bucket_pos_ = 0;
  left_matched_ = false;
  return true;
}

Result<std::optional<Value>> HashJoinOp::Next() {
  if (materialized_) {
    if (output_pos_ >= output_.size()) return std::optional<Value>();
    ctx_->stats->rows_emitted++;
    return std::optional<Value>(output_[output_pos_++]);
  }
  if (fast_active_) return NextFastStreaming();
  return NextStreaming();
}

Status HashJoinOp::FastProbeCheckpoint() {
  Status s = CheckGuard(ctx_);
  if (s.ok() || !arena_.IsMemoryTrip(s)) return s;
  // Degrade: no batch is in flight here — serve_ is drained and the next
  // left row not yet read — so the row probe can take over with nothing to
  // undo. Refund the arena and build the row table in one pass straight
  // into a single partition (FindBucket serves any partition count): a
  // duplicate key's Value dies as soon as its row is inserted, so memory
  // never rises above the row table the row path holds at this point.
  ReleaseFastTable();
  partitions_.assign(1, BuildMap());
  BuildMap& table = partitions_[0];
  table.reserve(build_rows_.size());
  for (size_t i = 0; i < build_rows_.size(); ++i) {
    TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx_, i));
    TMDB_ASSIGN_OR_RETURN(Value key, EvalCompositeKey(right_keys_,
                                                      spec_.right_var,
                                                      build_rows_[i], ctx_));
    table[std::move(key)].push_back(std::move(build_rows_[i]));
  }
  build_rows_.clear();
  build_rows_.shrink_to_fit();
  return CheckGuard(ctx_);
}

Result<std::optional<Value>> HashJoinOp::NextFastStreaming() {
  while (serve_pos_ >= serve_.size()) {
    serve_.clear();
    serve_pos_ = 0;
    TMDB_RETURN_IF_ERROR(FastProbeCheckpoint());
    if (!fast_active_) return NextStreaming();
    probe_batch_.clear();
    TMDB_ASSIGN_OR_RETURN(size_t got,
                          left_->NextBatch(&probe_batch_, kExecBatchSize));
    if (got == 0) return std::optional<Value>();
    probe_rows_ += got;
    for (const Value& left_row : probe_batch_) {
      TMDB_RETURN_IF_ERROR(ProcessLeftRowFast(left_row, ctx_, &serve_));
    }
  }
  ctx_->stats->rows_emitted++;
  return std::optional<Value>(std::move(serve_[serve_pos_++]));
}

Result<size_t> HashJoinOp::NextBatch(std::vector<Value>* out, size_t max) {
  if (fast_active_ && !materialized_) {
    size_t produced = 0;
    while (produced < max) {
      if (serve_pos_ < serve_.size()) {
        const size_t take = std::min(max - produced, serve_.size() - serve_pos_);
        out->insert(
            out->end(),
            std::make_move_iterator(serve_.begin() +
                                    static_cast<ptrdiff_t>(serve_pos_)),
            std::make_move_iterator(serve_.begin() +
                                    static_cast<ptrdiff_t>(serve_pos_ + take)));
        serve_pos_ += take;
        produced += take;
        ctx_->stats->rows_emitted += take;
        continue;
      }
      serve_.clear();
      serve_pos_ = 0;
      TMDB_RETURN_IF_ERROR(FastProbeCheckpoint());
      if (!fast_active_) {
        // Degraded mid-call: the row probe fills the rest of this batch.
        TMDB_ASSIGN_OR_RETURN(size_t rest,
                              PhysicalOp::NextBatch(out, max - produced));
        return produced + rest;
      }
      probe_batch_.clear();
      TMDB_ASSIGN_OR_RETURN(size_t got,
                            left_->NextBatch(&probe_batch_, kExecBatchSize));
      if (got == 0) break;
      probe_rows_ += got;
      for (const Value& left_row : probe_batch_) {
        TMDB_RETURN_IF_ERROR(ProcessLeftRowFast(left_row, ctx_, &serve_));
      }
    }
    return produced;
  }
  if (!materialized_) return PhysicalOp::NextBatch(out, max);
  TMDB_RETURN_IF_ERROR(CheckGuard(ctx_));
  const size_t take = std::min(max, output_.size() - output_pos_);
  out->insert(out->end(),
              output_.begin() + static_cast<ptrdiff_t>(output_pos_),
              output_.begin() + static_cast<ptrdiff_t>(output_pos_ + take));
  output_pos_ += take;
  ctx_->stats->rows_emitted += take;
  return take;
}

Result<std::optional<Value>> HashJoinOp::NextStreaming() {
  switch (spec_.mode) {
    case JoinMode::kInner:
    case JoinMode::kLeftOuter: {
      while (true) {
        if (!current_left_.has_value()) {
          TMDB_ASSIGN_OR_RETURN(bool more, AdvanceLeft());
          if (!more) return std::optional<Value>();
        }
        if (current_bucket_ != nullptr) {
          while (bucket_pos_ < current_bucket_->size()) {
            const Value& right_row = (*current_bucket_)[bucket_pos_++];
            TMDB_ASSIGN_OR_RETURN(
                bool match,
                EvalJoinPred(spec_, *current_left_, right_row, ctx_));
            if (match) {
              left_matched_ = true;
              TMDB_ASSIGN_OR_RETURN(Value out,
                                    ConcatTuples(*current_left_, right_row));
              ctx_->stats->rows_emitted++;
              return std::optional<Value>(std::move(out));
            }
          }
        }
        if (spec_.mode == JoinMode::kLeftOuter && !left_matched_) {
          TMDB_ASSIGN_OR_RETURN(
              Value out, ConcatTuples(*current_left_,
                                      NullTupleOfType(spec_.right_type)));
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
        if (current_bucket_ != nullptr) {
          for (const Value& right_row : *current_bucket_) {
            TMDB_ASSIGN_OR_RETURN(
                bool match,
                EvalJoinPred(spec_, *current_left_, right_row, ctx_));
            if (match) {
              matched = true;
              break;
            }
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
      std::vector<Value> group;
      if (current_bucket_ != nullptr) {
        for (const Value& right_row : *current_bucket_) {
          TMDB_ASSIGN_OR_RETURN(
              bool match, EvalJoinPred(spec_, *current_left_, right_row, ctx_));
          if (match) {
            TMDB_ASSIGN_OR_RETURN(
                Value g, EvalJoinFunc(spec_, *current_left_, right_row, ctx_));
            group.push_back(std::move(g));
          }
        }
      }
      TMDB_ASSIGN_OR_RETURN(
          Value out, ExtendTuple(*current_left_, spec_.label,
                                 Value::Set(std::move(group))));
      current_left_.reset();
      ctx_->stats->rows_emitted++;
      return std::optional<Value>(std::move(out));
    }
  }
  return Status::Internal("unhandled join mode");
}

void HashJoinOp::Close() {
  partitions_.clear();
  current_left_.reset();
  current_bucket_ = nullptr;
  output_.clear();
  output_pos_ = 0;
  materialized_ = false;
  spilled_ = false;
  ReleaseFastTable();
  build_rows_.clear();
  build_rows_.shrink_to_fit();
  probe_batch_.clear();
  serve_.clear();
  serve_pos_ = 0;
  memo_.clear();
  memo_enabled_ = false;
  build_res_.Release();
  left_->Close();
  // Usually already closed at the end of BuildTables; closing again is a
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
  if (!(spec_.pred.is_literal() && spec_.pred.literal_value().is_bool() &&
        spec_.pred.literal_value().AsBool())) {
    out += StrCat(", residual ", spec_.pred.ToString());
  }
  if (spec_.mode == JoinMode::kNestJoin) {
    out += StrCat(", G = ", spec_.func.ToString(), "; ", spec_.label);
  }
  out += "]";
  return out;
}

}  // namespace tmdb
