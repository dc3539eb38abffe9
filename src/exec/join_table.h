#ifndef TMDB_EXEC_JOIN_TABLE_H_
#define TMDB_EXEC_JOIN_TABLE_H_

#include <cstdint>
#include <cstring>
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

/// The hash join's build table, shared by the serial build, the parallel
/// build and every Grace partition.
///
/// It holds one slot per distinct build key. A slot's rows are chained in
/// build-input order, so every probe sees its matches in the order the row
/// path has always produced them. The key encoding is chosen from the data
/// while the table is built — no option selects it:
///   - raw: one 64-bit word per slot (the i64, the canonical f64 bits with
///     -0.0 folded into 0.0, or a build-side dictionary code), when a
///     FastKeySpec resolved and every build key passes its kind check
///     (strict Int / strict non-NaN Real / strict String);
///   - Value: the composite key Value, compared with Value::Hash and
///     Value::Equals, so Int(1) and Real(1.0) share a slot.
/// A build key that fails the raw kind check switches the table to the
/// Value encoding mid-build; the rows seen so far are re-keyed.
///
/// The table charges its own arrays (per-row chain links; per-slot keys,
/// hashes, heads, tails and bucket links; the bucket heads) to the guard
/// as they grow. It holds no per-row key. The build rows themselves are the
/// caller's to charge, as are the key Values' reps, which the guard's Value
/// tracker already sees.
///
/// Not thread-safe to build; probing a built table is read-only.
class JoinTable {
 public:
  /// Sentinel for "no slot" and "end of chain".
  static constexpr uint32_t kNone = 0xffffffffu;

  /// `keys` over `var` give a build row's composite key; `raw` (may be
  /// null) offers the one-word encoding. All three must outlive the table.
  JoinTable(const std::vector<Expr>& keys, const std::string& var,
            const FastKeySpec* raw)
      : keys_(keys), var_(var), raw_spec_(raw) {}

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

  /// Appends one build row whose composite key the caller already holds
  /// (a spill partition decodes it with the row). The raw encoding reads
  /// the key from the row itself and ignores `key`.
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
  /// Keys rows [0, n) by their composite key Values, serially or (every
  /// row) in morsels, into a table with no slots.
  Status IndexValues(ExecContext* ctx, size_t n);
  Status IndexValuesParallel(ExecContext* ctx);
  /// Charges any growth of the table's arrays since the last charge.
  Status Recharge();

  const std::vector<Expr>& keys_;
  const std::string& var_;
  const FastKeySpec* raw_spec_;

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
