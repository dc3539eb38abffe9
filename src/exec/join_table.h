#ifndef TMDB_EXEC_JOIN_TABLE_H_
#define TMDB_EXEC_JOIN_TABLE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "base/result.h"
#include "exec/columnar.h"
#include "exec/exec_context.h"
#include "exec/query_guard.h"
#include "expr/expr.h"
#include "values/column_store.h"
#include "values/value.h"

namespace tmdb {

/// The one hash table of the hash join, ν and ν*: the hash join's serial
/// and parallel builds and every Grace partition, and the grouping of ν and
/// ν* in memory and in each spill partition.
///
/// It holds one slot per distinct key. A slot's rows are chained in
/// input order and slots are numbered by first occurrence, so a probe sees
/// its matches, and ν its groups and their elements, in the order the row
/// path has always produced them. The key encoding is chosen from the data
/// while the table is built — no option selects it:
///   - raw: one 64-bit word per slot (the i64, the canonical f64 bits with
///     -0.0 folded into 0.0, or a build-side dictionary code), when a
///     FastKeySpec resolved and every build key passes its kind check
///     (strict Int / strict non-NaN Real / strict String);
///   - Value: the composite key Value, compared with Value::Hash and
///     Value::Equals, so Int(1) and Real(1.0) share a slot.
/// A build key that fails the raw kind check switches the table to the
/// Value encoding mid-build; the rows seen so far are re-keyed. A table
/// made with the default constructor is keyed by the caller (ν passes its
/// group key tuples) and always uses the Value encoding.
///
/// SlotSet is the one grouping step: the set of a slot's row images. The
/// nest join shares one set per slot between all its probes through
/// SharedSlotSet (Section 6: X ▵ Y = ν*(X ⟖ Y), so when the group depends
/// only on the key it is built once per key).
///
/// The table charges its own arrays (per-row chain links; per-slot keys,
/// hashes, heads, tails, bucket links and shared sets; the bucket heads)
/// to the guard as they grow. It holds no per-row key. The rows themselves
/// are the caller's to charge, as are the key Values' reps, which the
/// guard's Value tracker already sees.
///
/// Not thread-safe to build; reading a built table, SharedSlotSet
/// included, is.
class JoinTable {
 public:
  /// Sentinel for "no slot" and "end of chain".
  static constexpr uint32_t kNone = 0xffffffffu;

  /// `keys` over `var` give a build row's composite key; `raw` (may be
  /// null) offers the one-word encoding. All three must outlive the table.
  JoinTable(const std::vector<Expr>& keys, const std::string& var,
            const FastKeySpec* raw)
      : keys_(&keys), var_(&var), raw_spec_(raw) {}
  /// A table whose keys the caller passes in (Build with keys, Add).
  JoinTable() = default;

  JoinTable(const JoinTable&) = delete;
  JoinTable& operator=(const JoinTable&) = delete;

  /// Empties the table, refunds its charge, and charges later builds to
  /// `guard` (null: uncharged). raw() keeps reporting the last build.
  void Reset(QueryGuard* guard);

  /// Builds from every row of `*rows`, replacing whatever the table held
  /// and taking the rows over on success. On failure the table is emptied
  /// and `*rows` handed back untouched, so a memory trip can divert them to
  /// the spill path. Value keys are evaluated in morsels when `ctx` is
  /// parallel.
  Status Build(ExecContext* ctx, std::vector<Value>* rows);
  /// As Build, with row i keyed by keys[i] (Value encoding). The keys are
  /// interned in morsels when `ctx` is parallel.
  Status Build(ExecContext* ctx, std::vector<Value>* rows,
               std::vector<Value> keys);

  /// Appends one row whose composite key the caller already holds (a spill
  /// partition decodes it with the row). The raw encoding reads the key
  /// from the row itself and ignores `key`.
  Status Add(ExecContext* ctx, Value row, Value key);

  /// Empties the table (refunding its charge) and hands back its rows in
  /// build-input order.
  std::vector<Value> TakeRows();

  /// True when the last build kept the one-word encoding (false after a
  /// failed Build).
  bool raw() const { return raw_; }

  /// Slot of the composite key `key` (Value encoding), or kNone.
  uint32_t Find(const Value& key) const;
  /// Slot of the probe key field `v` (raw encoding), or kNone. A probe of
  /// another kind, or a NaN, matches no build key.
  uint32_t FindRaw(const Value& v) const;

  /// First row of `slot` (kNone for kNone), then next(row) until kNone.
  uint32_t first(uint32_t slot) const {
    return slot == kNone ? kNone : head_[slot];
  }
  uint32_t next(uint32_t row) const { return next_[row]; }
  const Value& row(uint32_t row) const { return rows_[row]; }
  /// The key of `slot` (Value encoding).
  const Value& key(uint32_t slot) const { return values_[slot]; }

  /// The set of the images of `slot`'s rows: image(row, &elems) appends
  /// zero or more elements per row, in chain order. kNone gives ∅.
  template <typename Image>
  Result<Value> SlotSet(uint32_t slot, Image image) const;

  /// Makes room for one shared set per slot; call once the table is built.
  Status ReserveSets();
  /// SlotSet of `slot` (not kNone), built by its first caller and handed to
  /// every later and concurrent one, with the slot's row count in `*rows`.
  /// A concurrent caller waits for the set. A failed build stores nothing:
  /// the next caller builds again and meets the same error, so an error in
  /// `image` reaches every caller of that slot.
  template <typename Image>
  Result<Value> SharedSlotSet(uint32_t slot, Image image,
                              uint32_t* rows) const;

  size_t num_rows() const { return rows_.size(); }
  size_t num_slots() const { return hash_.size(); }
  /// Bytes this table has charged to the guard for its own arrays.
  uint64_t bytes_charged() const { return res_.held(); }

 private:
  /// Raw word of a build key, or false when the row fails the kind check.
  bool BuildWord(const Value& row, uint64_t* word);
  /// Slot of `word` / `key`, created when new.
  Result<uint32_t> InternWord(uint64_t word);
  Result<uint32_t> InternKey(Value key, uint64_t hash);
  /// Appends a slot for a new key with `hash` and indexes it; the caller
  /// stores the key and recharges.
  void NewSlot(uint64_t hash);
  /// Pushes `slot` onto its bucket's chain.
  void Chain(uint32_t slot);
  /// Finds the slot in `hash`'s bucket for which `eq(slot)`.
  template <typename Eq>
  uint32_t Probe(uint64_t hash, Eq eq) const;
  /// Value-encoding slot equality.
  bool ValueEq(uint32_t slot, uint64_t hash, const Value& key) const;
  /// Appends row `i` to the tail of `slot`'s chain.
  void Link(uint32_t i, uint32_t slot);
  /// Drops every slot (and the dictionary), keeping the rows.
  void ClearSlots();
  /// The composite key of row i, evaluated under the given context.
  using KeyFn = std::function<Result<Value>(size_t, ExecContext*)>;
  /// Builds from `*rows` keyed by `key` (see Build).
  Status BuildRows(ExecContext* ctx, std::vector<Value>* rows,
                   const KeyFn& key);
  /// EvalCompositeKey of row i.
  KeyFn EvalKey() const;
  /// Keys rows [0, n) by their composite key Values, serially or (every
  /// row) in morsels, into a table with no slots.
  Status IndexValues(ExecContext* ctx, size_t n, const KeyFn& key);
  Status IndexValuesParallel(ExecContext* ctx, const KeyFn& key);
  /// Charges any growth of the table's arrays since the last charge.
  Status Recharge();

  const std::vector<Expr>* keys_ = nullptr;
  const std::string* var_ = nullptr;
  const FastKeySpec* raw_spec_ = nullptr;

  /// One slot's shared set; `state` moves kSetEmpty -> kSetBuilding ->
  /// kSetReady, or back to kSetEmpty when the build fails.
  enum : uint32_t { kSetEmpty, kSetBuilding, kSetReady };
  struct SharedSet {
    std::atomic<uint32_t> state{kSetEmpty};
    uint32_t rows = 0;
    Value set;
  };

  // Slots are parallel arrays: a raw probe that misses reads a bucket head
  // and at most a few words and chain links, never the rows.
  bool raw_ = false;
  std::vector<Value> rows_;        // build rows, input order
  std::vector<uint32_t> next_;     // per row: next row of its slot
  std::vector<uint64_t> hash_;     // per slot: key hash
  std::vector<uint64_t> words_;    // per slot, raw encoding
  std::vector<Value> values_;      // per slot, Value encoding
  std::vector<uint32_t> head_;     // per slot: first row
  std::vector<uint32_t> tail_;     // per slot: last row
  std::vector<uint32_t> chain_;    // per slot: next slot in its bucket
  std::vector<uint32_t> buckets_;  // hash -> first slot of its chain
  StringDict dict_;                // raw string keys -> codes
  mutable std::vector<SharedSet> sets_;  // per slot, after ReserveSets
  GuardReservation res_;
};

// The probe side's per-row lookups, inline so the join's probe loop pays
// no call per left row.

/// The raw word of a non-NaN double: its bits, with -0.0 folded into 0.0
/// so the two keys CompareDoubles calls equal share a word.
inline uint64_t F64Word(double d) {
  if (d == 0.0) d = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

template <typename Image>
Result<Value> JoinTable::SlotSet(uint32_t slot, Image image) const {
  std::vector<Value> elems;
  for (uint32_t j = first(slot); j != kNone; j = next(j)) {
    TMDB_RETURN_IF_ERROR(image(rows_[j], &elems));
  }
  return Value::Set(std::move(elems));
}

template <typename Image>
Result<Value> JoinTable::SharedSlotSet(uint32_t slot, Image image,
                                       uint32_t* rows) const {
  SharedSet& shared = sets_[slot];
  uint32_t state = shared.state.load(std::memory_order_acquire);
  while (state != kSetReady) {
    if (state == kSetBuilding) {
      shared.state.wait(kSetBuilding, std::memory_order_acquire);
    } else if (shared.state.compare_exchange_weak(
                   state, kSetBuilding, std::memory_order_acquire)) {
      Result<Value> set = SlotSet(slot, image);
      if (set.ok()) {
        shared.set = *set;
        shared.rows = 0;
        for (uint32_t j = first(slot); j != kNone; j = next(j)) ++shared.rows;
      }
      shared.state.store(set.ok() ? kSetReady : kSetEmpty,
                         std::memory_order_release);
      shared.state.notify_all();
      if (!set.ok()) return set.status();
    }
    state = shared.state.load(std::memory_order_acquire);
  }
  *rows = shared.rows;
  return shared.set;
}

template <typename Eq>
inline uint32_t JoinTable::Probe(uint64_t hash, Eq eq) const {
  if (buckets_.empty()) return kNone;
  for (uint32_t s = buckets_[hash & (buckets_.size() - 1)]; s != kNone;
       s = chain_[s]) {
    if (eq(s)) return s;
  }
  return kNone;
}

inline uint32_t JoinTable::FindRaw(const Value& v) const {
  uint64_t word = 0;
  switch (raw_spec_->kind) {
    case FastKeySpec::Kind::kI64:
      if (!v.is_int()) return kNone;
      word = static_cast<uint64_t>(v.AsInt());
      break;
    case FastKeySpec::Kind::kF64: {
      // Non-numeric (or NaN) probe keys miss: the build side is strictly
      // Real and NaN-free, so the Value encoding would miss too.
      if (!v.is_numeric()) return kNone;
      const double d = v.AsNumeric();
      if (d != d) return kNone;
      word = F64Word(d);
      break;
    }
    case FastKeySpec::Kind::kStr: {
      if (!v.is_string()) return kNone;
      const uint32_t code = dict_.Lookup(v);
      if (code == StringDict::kNoCode) return kNone;
      word = code;
      break;
    }
  }
  return Probe(Mix64(word), [&](uint32_t s) { return words_[s] == word; });
}

}  // namespace tmdb

#endif  // TMDB_EXEC_JOIN_TABLE_H_
