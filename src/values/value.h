#ifndef TMDB_VALUES_VALUE_H_
#define TMDB_VALUES_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/result.h"
#include "types/type.h"

namespace tmdb {

namespace internal_values {
struct ValueRep;
struct NamesRep;
}  // namespace internal_values

/// Kinds of runtime values. kNull exists only to represent the padding the
/// *outerjoin baseline* (Ganski–Wong) introduces for dangling tuples; the
/// nest-join path of the engine never produces it — as the paper argues, in
/// a complex object model the empty set is part of the model, so no NULL is
/// needed.
enum class ValueKind {
  kNull,
  kBool,
  kInt,
  kReal,
  kString,
  kTuple,
  kSet,   // canonical: sorted by Value::Compare, duplicate-free
  kList,
};

/// The attribute names of a tuple, in order: an immutable list that every
/// tuple built from the same handle shares. Sites that build many tuples of
/// one shape (a tuple constructor, a join's output, a decoded row stream)
/// build the handle once and pass it to Value::SharedTuple per row, so each
/// tuple holds one pointer instead of its own copy of the names. Copying a
/// handle is a reference-count increment.
class TupleNames {
 public:
  /// The empty list.
  TupleNames();
  /// Names must be distinct; checked in debug via TMDB_CHECK.
  explicit TupleNames(std::vector<std::string> names);

  size_t size() const;
  const std::string& operator[](size_t i) const;
  const std::vector<std::string>& names() const;

  /// True when both handles hold the very same list (not merely equal
  /// names); tuples built from one handle answer true pairwise.
  bool SameList(const TupleNames& other) const { return rep_ == other.rep_; }
  /// Same names in the same order.
  bool operator==(const TupleNames& other) const;

 private:
  friend class Value;
  std::shared_ptr<const internal_values::NamesRep> rep_;
};

/// An immutable complex-object value: atoms, tuples with named attributes,
/// duplicate-free sets, and lists, arbitrarily nested. Values are cheap to
/// copy (shared immutable representation) and have structural equality, a
/// total order (used to canonicalise sets), and a hash consistent with
/// equality.
///
/// Int and Real values that denote the same number compare equal; mixed
/// numeric sets therefore behave like sets of reals, matching how the type
/// checker coerces INT to REAL.
class Value {
 public:
  /// Constructs NULL; prefer the named factories.
  Value();

  static Value Null();
  static Value Bool(bool v);
  static Value Int(int64_t v);
  static Value Real(double v);
  static Value String(std::string v);
  /// Tuple with attributes `names[i] = values[i]`. Names must be distinct;
  /// checked in debug via TMDB_CHECK.
  static Value Tuple(std::vector<std::string> names, std::vector<Value> values);
  /// Tuple over a shared names list: the cheap form for many rows of one
  /// shape.
  static Value SharedTuple(TupleNames names, std::vector<Value> values);
  /// Set: `elements` are sorted and deduplicated (TM sets are duplicate-free).
  static Value Set(std::vector<Value> elements);
  static Value EmptySet();
  static Value List(std::vector<Value> elements);

  Value(const Value&) = default;
  Value& operator=(const Value&) = default;
  Value(Value&&) = default;
  Value& operator=(Value&&) = default;

  ValueKind kind() const;
  bool is_null() const { return kind() == ValueKind::kNull; }
  bool is_bool() const { return kind() == ValueKind::kBool; }
  bool is_int() const { return kind() == ValueKind::kInt; }
  bool is_real() const { return kind() == ValueKind::kReal; }
  bool is_numeric() const { return is_int() || is_real(); }
  bool is_string() const { return kind() == ValueKind::kString; }
  bool is_tuple() const { return kind() == ValueKind::kTuple; }
  bool is_set() const { return kind() == ValueKind::kSet; }
  bool is_list() const { return kind() == ValueKind::kList; }
  bool is_collection() const { return is_set() || is_list(); }

  /// Atom accessors; each requires the matching kind.
  bool AsBool() const;
  int64_t AsInt() const;
  double AsReal() const;
  /// Numeric value as double, accepting kInt or kReal.
  double AsNumeric() const;
  const std::string& AsString() const;

  /// Tuple accessors; require is_tuple().
  size_t TupleSize() const;
  const std::string& FieldName(size_t i) const;
  /// The tuple's shared names list.
  const TupleNames& FieldNames() const;
  const Value& FieldValue(size_t i) const;
  /// Pointer to the attribute value, or nullptr if the name is absent.
  const Value* FindField(const std::string& name) const;
  /// Attribute value by name; NotFound if absent.
  Result<Value> Field(const std::string& name) const;

  /// Collection accessors; require is_collection().
  size_t NumElements() const;
  const Value& Element(size_t i) const;
  const std::vector<Value>& Elements() const;
  /// Membership test; O(log n) on sets, O(n) on lists.
  bool Contains(const Value& v) const;

  /// Total order over all values: kinds are ranked (null < bool < numeric <
  /// string < tuple < set < list) except that kInt and kReal compare
  /// numerically with each other. Within a kind the order is the natural /
  /// lexicographic one.
  int Compare(const Value& other) const;
  bool Equals(const Value& other) const { return Compare(other) == 0; }

  /// Hash consistent with Equals (in particular Int(1) and Real(1.0) hash
  /// identically).
  uint64_t Hash() const;

  /// TM-style rendering: ⟨a = 1, b = {2, 3}⟩ printed as <a = 1, b = {2, 3}>.
  std::string ToString() const;

 private:
  using Rep = internal_values::ValueRep;
  explicit Value(std::shared_ptr<const Rep> rep) : rep_(std::move(rep)) {}

  /// The tuple's children (attribute values) or a collection's elements.
  const std::vector<Value>& children() const;

  /// Uncached structural hash; Hash() memoises it in the shared rep.
  uint64_t ComputeHash() const;

  /// Points at a rep sized to its kind (value.cc): a common header plus
  /// one scalar, one string, the children, or the children and a names
  /// list.
  std::shared_ptr<const Rep> rep_;
};

inline bool operator==(const Value& a, const Value& b) { return a.Equals(b); }
inline bool operator!=(const Value& a, const Value& b) { return !a.Equals(b); }
inline bool operator<(const Value& a, const Value& b) {
  return a.Compare(b) < 0;
}

/// Functors for unordered containers keyed by Value.
struct ValueHash {
  size_t operator()(const Value& v) const {
    return static_cast<size_t>(v.Hash());
  }
};
struct ValueEq {
  bool operator()(const Value& a, const Value& b) const { return a.Equals(b); }
};

/// Derives the most specific Type describing `v`. Empty sets/lists get
/// element type ANY; NULL gets type ANY.
Type TypeOf(const Value& v);

/// True if `v` is a valid instance of `type` (with INT⇒REAL and ANY
/// coercions allowed).
bool ConformsTo(const Value& v, const Type& type);

}  // namespace tmdb

#endif  // TMDB_VALUES_VALUE_H_
