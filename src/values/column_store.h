#ifndef TMDB_VALUES_COLUMN_STORE_H_
#define TMDB_VALUES_COLUMN_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "types/type.h"
#include "values/value.h"

namespace tmdb {

/// Physical kinds a column can have. Columns are strictly kind-exact: a
/// REAL column holds only Real values (ConformsTo would admit Ints into a
/// Real attribute, but the row path compares Int/Int exactly while the
/// double image does not — Build refuses rather than risk divergence).
enum class ColumnKind { kInt64, kFloat64, kBool, kString };

/// Dictionary for one string column. Codes are assigned in first-occurrence
/// order; the dictionary keeps the first-seen Value *handle* per distinct
/// string, so decoding a code hands back the original shared string rep —
/// no re-allocation on the column → row round trip. Interning itself is keyed
/// by Value (ValueHash/ValueEq), which routes every lookup through the
/// rep's memoised structural hash.
class StringDict {
 public:
  static constexpr uint32_t kNoCode = 0xffffffffu;

  /// Interns a string value, returning its (possibly fresh) code.
  uint32_t Intern(const Value& v) {
    auto [it, inserted] =
        codes_.emplace(v, static_cast<uint32_t>(values_.size()));
    if (inserted) values_.push_back(v);
    return it->second;
  }

  /// Code for `v`, or kNoCode when it was never interned. `v` must be a
  /// string value.
  uint32_t Lookup(const Value& v) const {
    auto it = codes_.find(v);
    return it == codes_.end() ? kNoCode : it->second;
  }

  const Value& value(uint32_t code) const { return values_[code]; }
  const std::string& str(uint32_t code) const {
    return values_[code].AsString();
  }
  size_t size() const { return values_.size(); }

 private:
  std::vector<Value> values_;
  std::unordered_map<Value, uint32_t, ValueHash, ValueEq> codes_;
};

/// One decomposed column.
struct Column {
  ColumnKind kind = ColumnKind::kInt64;
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<uint8_t> b8;      // bools as 0/1
  std::vector<uint32_t> codes;  // string dictionary codes
  std::unique_ptr<StringDict> dict;
};

/// Columnar decomposition of a flat table: one array per basic-typed
/// attribute, plus a snapshot of the original row handles so converting a
/// row id back to a Value is a shared-rep copy (bit-identical to the row
/// path, zero allocation). Immutable once built; safe to share across
/// queries and threads.
class ColumnStore {
 public:
  /// Builds a store for rows of tuple type `schema`, or nullptr when the
  /// layout is not columnar: a non-tuple schema, a non-basic attribute
  /// type, or any value whose kind deviates from its column (NULLs
  /// included — a fixed-width column cannot represent them, and the row
  /// path's NULL semantics must win).
  static std::shared_ptr<const ColumnStore> Build(
      const Type& schema, const std::vector<Value>& rows);

  size_t num_rows() const { return rows_.size(); }
  size_t num_columns() const { return cols_.size(); }
  /// Index of the column named `name`, or -1.
  int ColumnIndex(const std::string& name) const;
  const std::string& column_name(size_t i) const { return names_[i]; }
  const Column& column(size_t i) const { return cols_[i]; }
  /// The original row handle for `id` — shares the table row's tuple rep.
  const Value& RowValue(uint32_t id) const { return rows_[id]; }

 private:
  ColumnStore() = default;

  std::vector<std::string> names_;
  std::vector<Column> cols_;
  std::vector<Value> rows_;
};

/// A batch of rows in columnar form: a view over one ColumnStore, either a
/// dense range [first, first+len) or an id vector (a selection). The view
/// borrows `store` and `ids` from its producer; it is valid until the next
/// Next*/Open/Close call on that producer.
struct ColumnBatch {
  const ColumnStore* store = nullptr;
  const uint32_t* ids = nullptr;  // nullptr → dense [first, first + len)
  uint32_t first = 0;
  uint32_t len = 0;

  bool dense() const { return ids == nullptr; }
  uint32_t RowId(uint32_t i) const { return ids != nullptr ? ids[i] : first + i; }
};

}  // namespace tmdb

#endif  // TMDB_VALUES_COLUMN_STORE_H_
