#include "exec/join_table.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "exec/join_common.h"
#include "exec/parallel_util.h"
#include "exec/physical_op.h"

namespace tmdb {

namespace {

template <typename T>
uint64_t CapacityBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

void JoinTable::Reset(QueryGuard* guard) {
  rows_ = std::vector<Value>();
  next_ = std::vector<uint32_t>();
  hash_ = std::vector<uint64_t>();
  words_ = std::vector<uint64_t>();
  head_ = std::vector<uint32_t>();
  tail_ = std::vector<uint32_t>();
  chain_ = std::vector<uint32_t>();
  values_ = std::vector<Value>();
  buckets_ = std::vector<uint32_t>();
  dict_ = StringDict();
  sets_ = std::vector<SharedSet>();
  res_.Reset(guard);
}

JoinTable::KeyFn JoinTable::EvalKey() const {
  return [this](size_t i, ExecContext* ctx) {
    return EvalCompositeKey(*keys_, *var_, rows_[i], ctx);
  };
}

Status JoinTable::Build(ExecContext* ctx, std::vector<Value>* rows) {
  return BuildRows(ctx, rows, EvalKey());
}

Status JoinTable::Build(ExecContext* ctx, std::vector<Value>* rows,
                        std::vector<Value> keys) {
  return BuildRows(ctx, rows, [&keys](size_t i, ExecContext*) {
    return Result<Value>(std::move(keys[i]));
  });
}

Status JoinTable::BuildRows(ExecContext* ctx, std::vector<Value>* rows,
                            const KeyFn& key) {
  Reset(res_.guard());
  rows_ = std::move(*rows);
  rows->clear();
  Status built = [&]() -> Status {
    const size_t n = rows_.size();
    if (n >= kNone) {
      return Status::Unsupported("hash join build side exceeds 2^32 rows");
    }
    next_.assign(n, kNone);
    TMDB_RETURN_IF_ERROR(Recharge());
    raw_ = raw_spec_ != nullptr;
    if (raw_) {
      for (size_t i = 0; i < n; ++i) {
        TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx, i));
        uint64_t word = 0;
        if (!BuildWord(rows_[i], &word)) {
          raw_ = false;
          break;
        }
        TMDB_ASSIGN_OR_RETURN(uint32_t slot, InternWord(word));
        Link(static_cast<uint32_t>(i), slot);
      }
      if (raw_) return Status::OK();
      ClearSlots();
    }
    return ctx->parallel_enabled() ? IndexValuesParallel(ctx, key)
                                   : IndexValues(ctx, n, key);
  }();
  if (!built.ok()) {
    // Indexing never moves or mutates a row, so they go back as they came.
    *rows = TakeRows();
    raw_ = false;
  }
  return built;
}

std::vector<Value> JoinTable::TakeRows() {
  std::vector<Value> rows = std::move(rows_);
  Reset(res_.guard());
  return rows;
}

Status JoinTable::Add(ExecContext* ctx, Value row, Value key) {
  const size_t i = rows_.size();
  if (i >= kNone) {
    return Status::Unsupported("hash join build side exceeds 2^32 rows");
  }
  if (i == 0) raw_ = raw_spec_ != nullptr;
  rows_.push_back(std::move(row));
  next_.push_back(kNone);
  TMDB_RETURN_IF_ERROR(Recharge());
  const uint32_t id = static_cast<uint32_t>(i);
  if (raw_) {
    uint64_t word = 0;
    if (BuildWord(rows_[i], &word)) {
      TMDB_ASSIGN_OR_RETURN(uint32_t slot, InternWord(word));
      Link(id, slot);
      return Status::OK();
    }
    // The raw kind check failed: re-key the rows seen so far.
    raw_ = false;
    ClearSlots();
    TMDB_RETURN_IF_ERROR(IndexValues(ctx, i, EvalKey()));
  }
  const uint64_t hash = Mix64(key.Hash());
  TMDB_ASSIGN_OR_RETURN(uint32_t slot, InternKey(std::move(key), hash));
  Link(id, slot);
  return Status::OK();
}

bool JoinTable::BuildWord(const Value& row, uint64_t* word) {
  const Value* v = row.FindField(raw_spec_->right_field);
  if (v == nullptr) return false;
  switch (raw_spec_->kind) {
    case FastKeySpec::Kind::kI64:
      if (!v->is_int()) return false;
      *word = static_cast<uint64_t>(v->AsInt());
      return true;
    case FastKeySpec::Kind::kF64: {
      // Strictly Real and NaN-free: ResolveFastKeys's soundness argument
      // needs runtime-Real build keys, and NaN's tri-state "equal to
      // everything" cannot live in a hash table.
      if (!v->is_real()) return false;
      const double d = v->AsNumeric();
      if (d != d) return false;
      *word = F64Word(d);
      return true;
    }
    case FastKeySpec::Kind::kStr:
      if (!v->is_string()) return false;
      *word = dict_.Intern(*v);
      return true;
  }
  return false;
}

uint32_t JoinTable::Find(const Value& key) const {
  const uint64_t hash = Mix64(key.Hash());
  return Probe(hash, [&](uint32_t s) { return ValueEq(s, hash, key); });
}

bool JoinTable::ValueEq(uint32_t s, uint64_t hash, const Value& key) const {
  // Hashes first, like the node-cached hash of an unordered_map: a key
  // only ever equals one that hashed the same.
  return hash_[s] == hash && values_[s].Equals(key);
}

Result<uint32_t> JoinTable::InternWord(uint64_t word) {
  const uint64_t hash = Mix64(word);
  const uint32_t found =
      Probe(hash, [&](uint32_t s) { return words_[s] == word; });
  if (found != kNone) return found;
  const uint32_t slot = static_cast<uint32_t>(hash_.size());
  NewSlot(hash);
  words_.push_back(word);
  TMDB_RETURN_IF_ERROR(Recharge());
  return slot;
}

Result<uint32_t> JoinTable::InternKey(Value key, uint64_t hash) {
  const uint32_t found =
      Probe(hash, [&](uint32_t s) { return ValueEq(s, hash, key); });
  if (found != kNone) return found;
  const uint32_t slot = static_cast<uint32_t>(hash_.size());
  NewSlot(hash);
  values_.push_back(std::move(key));
  TMDB_RETURN_IF_ERROR(Recharge());
  return slot;
}

void JoinTable::NewSlot(uint64_t hash) {
  const uint32_t slot = static_cast<uint32_t>(hash_.size());
  hash_.push_back(hash);
  head_.push_back(kNone);
  tail_.push_back(kNone);
  chain_.push_back(kNone);
  // At most one slot per two buckets, so most probes that miss read only
  // an empty bucket head.
  if (hash_.size() * 2 > buckets_.size()) {
    buckets_.assign(std::max<size_t>(16, buckets_.size() * 2), kNone);
    for (uint32_t s = 0; s < slot; ++s) Chain(s);
  }
  Chain(slot);
}

void JoinTable::Chain(uint32_t slot) {
  uint32_t& first = buckets_[hash_[slot] & (buckets_.size() - 1)];
  chain_[slot] = first;
  first = slot;
}

void JoinTable::Link(uint32_t i, uint32_t slot) {
  next_[i] = kNone;
  if (head_[slot] == kNone) {
    head_[slot] = i;
  } else {
    next_[tail_[slot]] = i;
  }
  tail_[slot] = i;
}

void JoinTable::ClearSlots() {
  hash_.clear();
  words_.clear();
  head_.clear();
  tail_.clear();
  chain_.clear();
  values_.clear();
  buckets_.clear();
  dict_ = StringDict();
}

Status JoinTable::IndexValues(ExecContext* ctx, size_t n, const KeyFn& key) {
  for (size_t i = 0; i < n; ++i) {
    TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx, i));
    TMDB_ASSIGN_OR_RETURN(Value k, key(i, ctx));
    const uint64_t hash = Mix64(k.Hash());
    TMDB_ASSIGN_OR_RETURN(uint32_t slot, InternKey(std::move(k), hash));
    Link(static_cast<uint32_t>(i), slot);
  }
  return Status::OK();
}

Status JoinTable::IndexValuesParallel(ExecContext* ctx, const KeyFn& key) {
  // Stage 1 (morsels): each morsel interns its rows' keys into a table of
  // its own, which keeps one Value per distinct key, and parks each row's
  // morsel-local slot in next_.
  const size_t n = rows_.size();
  std::vector<MorselRange> morsels = SplitMorsels(n, ctx->num_threads);
  std::vector<ExecStats> key_stats(morsels.size());
  std::vector<std::unique_ptr<SubplanEvaluator>> key_evals =
      ForkSubplanEvaluators(ctx->subplans, &key_stats);
  struct Locals {
    Locals() = default;
    Locals(const Locals&) = delete;
    Locals& operator=(const Locals&) = delete;
    ~Locals() {
      for (auto& t : tables) t->Reset(nullptr);  // refund every charge
    }
    std::vector<std::unique_ptr<JoinTable>> tables;
  } locals;
  for (size_t m = 0; m < morsels.size(); ++m) {
    locals.tables.push_back(std::make_unique<JoinTable>());
    locals.tables.back()->Reset(res_.guard());
  }
  TMDB_RETURN_IF_ERROR(ParallelForMorsels(
      ctx->sched, ctx->guard, morsels,
      [&](size_t m, MorselRange range) -> Status {
        ExecContext wctx;
        wctx.outer_env = ctx->outer_env;
        wctx.subplans =
            key_evals[m] != nullptr ? key_evals[m].get() : ctx->subplans;
        wctx.stats = &key_stats[m];
        wctx.guard = ctx->guard;
        JoinTable& local = *locals.tables[m];
        for (size_t i = range.begin; i < range.end; ++i) {
          TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(&wctx, i - range.begin));
          TMDB_ASSIGN_OR_RETURN(Value k, key(i, &wctx));
          const uint64_t hash = Mix64(k.Hash());
          // Disjoint: row i's link is written by exactly one morsel.
          TMDB_ASSIGN_OR_RETURN(next_[i], local.InternKey(std::move(k), hash));
        }
        return Status::OK();
      }));
  AccumulateStats(key_stats, ctx->stats);

  // Stage 2 (serial, morsel order): map each morsel's keys onto the shared
  // slots and chain its rows. Rows are linked in ascending order, so every
  // slot lists its rows in build-input order and slots are numbered by
  // first occurrence — exactly the serial build.
  std::vector<uint32_t> to_shared;
  for (size_t m = 0; m < morsels.size(); ++m) {
    JoinTable& local = *locals.tables[m];
    to_shared.resize(local.num_slots());
    for (size_t s = 0; s < local.num_slots(); ++s) {
      TMDB_ASSIGN_OR_RETURN(
          to_shared[s],
          InternKey(std::move(local.values_[s]), local.hash_[s]));
    }
    local.Reset(nullptr);
    for (size_t i = morsels[m].begin; i < morsels[m].end; ++i) {
      TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx, i));
      Link(static_cast<uint32_t>(i), to_shared[next_[i]]);
    }
  }
  return Status::OK();
}

Status JoinTable::ReserveSets() {
  sets_ = std::vector<SharedSet>(num_slots());
  return Recharge();
}

Status JoinTable::Recharge() {
  const uint64_t bytes =
      CapacityBytes(next_) + CapacityBytes(hash_) + CapacityBytes(words_) +
      CapacityBytes(values_) + CapacityBytes(head_) + CapacityBytes(tail_) +
      CapacityBytes(chain_) + CapacityBytes(buckets_) + CapacityBytes(sets_);
  if (bytes <= res_.held()) return Status::OK();
  return res_.Add(bytes - res_.held());
}

}  // namespace tmdb
