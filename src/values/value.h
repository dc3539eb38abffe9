#ifndef TMDB_VALUES_VALUE_H_
#define TMDB_VALUES_VALUE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/result.h"
#include "types/type.h"

namespace tmdb {

/// Kinds of runtime values. kNull exists only to represent the padding the
/// *outerjoin baseline* (Ganski–Wong) introduces for dangling tuples; the
/// nest-join path of the engine never produces it — as the paper argues, in
/// a complex object model the empty set is part of the model, so no NULL is
/// needed.
enum class ValueKind : uint8_t {
  kNull,
  kBool,
  kInt,
  kReal,
  kString,
  kTuple,
  kSet,   // canonical: sorted by Value::Compare, duplicate-free
  kList,
};

namespace internal_values {

/// What every heap-held rep starts with: an intrusive reference count (the
/// handle that builds a rep holds its first reference) and the bytes the
/// rep charged to ValueMemory, refunded when the last reference goes.
struct Counted {
  mutable std::atomic<uint32_t> refs{1};
  uint32_t tracked_bytes = 0;
};

/// The header of a String, Tuple, Set or List rep; value.cc adds the
/// kind's payload. The structural hash is memoised on first use (join and
/// nest keys are re-hashed once per probe otherwise); 0 marks "not yet
/// computed", and the value is deterministic, so racing relaxed stores are
/// benign.
struct ValueRep : Counted {
  mutable std::atomic<uint64_t> cached_hash{0};
};

struct NamesRep;

/// Drops one reference to `rep`; true when it was the last. A sole owner
/// skips the atomic decrement: no other handle exists that could copy the
/// rep meanwhile, and the acquire load orders every earlier owner's
/// release before the rep is freed.
inline bool DropRef(const Counted& rep) {
  return rep.refs.load(std::memory_order_acquire) == 1 ||
         rep.refs.fetch_sub(1, std::memory_order_acq_rel) == 1;
}

/// Frees `rep`, whose last reference just went; `kind` says which rep it is.
void DestroyRep(ValueKind kind, const ValueRep* rep);

}  // namespace internal_values

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

  TupleNames(const TupleNames& other);
  TupleNames(TupleNames&& other) noexcept : rep_(other.rep_) {
    other.rep_ = nullptr;
  }
  TupleNames& operator=(TupleNames other) noexcept {
    std::swap(rep_, other.rep_);
    return *this;
  }
  ~TupleNames();

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
  // The empty list is a shared singleton; only a moved-from handle, which
  // may be assigned or destroyed and nothing else, holds null.
  const internal_values::NamesRep* rep_;
};

/// An immutable complex-object value: atoms, tuples with named attributes,
/// duplicate-free sets, and lists, arbitrarily nested. Values are cheap to
/// copy and have structural equality, a total order (used to canonicalise
/// sets), and a hash consistent with equality.
///
/// A Value is a 16-byte handle: its kind and an 8-byte payload. NULL, Bool,
/// Int and Real live in the payload, so building, copying and dropping one
/// allocates nothing and touches no shared memory. A String, Tuple, Set or
/// List points at an immutable rep sized to its kind, shared by every copy
/// through the rep's own reference count. A moved-from Value is NULL.
///
/// Int and Real values that denote the same number compare equal; mixed
/// numeric sets therefore behave like sets of reals, matching how the type
/// checker coerces INT to REAL.
class Value {
 public:
  /// Constructs NULL; prefer the named factories.
  Value() noexcept { payload_.bits = 0; }

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

  Value(const Value& other) noexcept
      : kind_(other.kind_), payload_(other.payload_) {
    Retain();
  }
  Value(Value&& other) noexcept
      : kind_(other.kind_), payload_(other.payload_) {
    other.kind_ = ValueKind::kNull;
  }
  /// Copy and move assignment in one: `other` takes the old value away and
  /// drops it, which also makes self-assignment safe.
  Value& operator=(Value other) noexcept {
    std::swap(kind_, other.kind_);
    std::swap(payload_, other.payload_);
    return *this;
  }
  ~Value() { Release(); }

  ValueKind kind() const { return kind_; }
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
  /// Adopts `rep`'s first reference.
  Value(ValueKind kind, const Rep* rep) : kind_(kind) { payload_.rep = rep; }

  /// String, Tuple, Set and List hold a rep; the other kinds hold none.
  bool has_rep() const { return kind_ >= ValueKind::kString; }
  void Retain() const {
    if (has_rep()) payload_.rep->refs.fetch_add(1, std::memory_order_relaxed);
  }
  void Release() {
    if (has_rep() && internal_values::DropRef(*payload_.rep)) {
      internal_values::DestroyRep(kind_, payload_.rep);
    }
  }

  /// The tuple's children (attribute values) or a collection's elements.
  const std::vector<Value>& children() const;

  /// Uncached structural hash; Hash() memoises it in a shared rep.
  uint64_t ComputeHash() const;

  ValueKind kind_ = ValueKind::kNull;
  /// Which member is live follows from kind_. A NULL's payload is never
  /// read; a default-built one is zeroed so that copies of it copy no
  /// indeterminate bytes.
  union Payload {
    bool bool_value;
    int64_t int_value;
    double real_value;
    const Rep* rep;  // sized to its kind (value.cc)
    uint64_t bits;
  } payload_;
};

static_assert(sizeof(Value) == 16, "a Value is a kind and an 8-byte payload");

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
