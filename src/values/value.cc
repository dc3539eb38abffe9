#include "values/value.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "base/hash.h"
#include "base/logging.h"
#include "base/string_util.h"
#include "values/value_mem.h"

namespace tmdb {

namespace internal_values {

// The header every rep starts with. Each kind's rep adds only its own
// payload, so an Int costs a 24-byte rep rather than room for every kind.
struct ValueRep {
  explicit ValueRep(ValueKind k) : kind(k) {}
  ~ValueRep() {
    if (tracked_bytes != 0) {
      ValueMemory::Add(-static_cast<int64_t>(tracked_bytes));
    }
  }

  ValueKind kind;

  // Bytes registered with ValueMemory at construction time. Zero for reps
  // built while tracking was off (and for the singletons), so the
  // destructor always subtracts exactly what was added.
  uint32_t tracked_bytes = 0;

  // Structural hash, computed on first use (join/nest keys are re-hashed
  // once per probe otherwise). kHashUnset marks "not yet computed"; the
  // value is deterministic, so racing relaxed stores are benign.
  static constexpr uint64_t kHashUnset = 0;
  mutable std::atomic<uint64_t> cached_hash{kHashUnset};
};

// Bool, Int, Real: one 8-byte payload; `kind` says which member is live.
struct ScalarRep : ValueRep {
  explicit ScalarRep(ValueKind k) : ValueRep(k) {}
  union {
    bool bool_value;
    int64_t int_value = 0;
    double real_value;
  };
};

struct StringRep : ValueRep {
  explicit StringRep(std::string v)
      : ValueRep(ValueKind::kString), value(std::move(v)) {}
  std::string value;
};

// Set and list elements; a tuple's attribute values.
struct ChildrenRep : ValueRep {
  ChildrenRep(ValueKind k, std::vector<Value> c)
      : ValueRep(k), children(std::move(c)) {}
  std::vector<Value> children;
};

// names[i] labels children[i].
struct TupleRep : ChildrenRep {
  TupleRep(TupleNames n, std::vector<Value> values)
      : ChildrenRep(ValueKind::kTuple, std::move(values)),
        names(std::move(n)) {}
  TupleNames names;
};

// A shared attribute-name list. It charges its bytes once, when built, and
// refunds them when the last handle (tuple or TupleNames) lets go.
struct NamesRep {
  explicit NamesRep(std::vector<std::string> n) : names(std::move(n)) {
    hashes.reserve(names.size());
    for (const std::string& name : names) hashes.push_back(HashString(name));
  }
  ~NamesRep() {
    if (tracked_bytes != 0) {
      ValueMemory::Add(-static_cast<int64_t>(tracked_bytes));
    }
  }

  std::vector<std::string> names;
  std::vector<uint64_t> hashes;  // HashString(names[i]), for Value::Hash
  uint32_t tracked_bytes = 0;
};

}  // namespace internal_values

namespace {

using internal_values::ChildrenRep;
using internal_values::NamesRep;
using internal_values::ScalarRep;
using internal_values::StringRep;
using internal_values::TupleRep;
using internal_values::ValueRep;

// std::make_shared puts each rep in one allocation behind its control block:
// a vtable pointer and the two 32-bit reference counts.
constexpr size_t kSharedBlockBytes = sizeof(void*) + 2 * sizeof(int32_t);

// Heap bytes behind a string; zero when it lives in the small-string buffer
// inside the object.
size_t HeapBytes(const std::string& s) {
  const char* data = s.data();
  const char* self = reinterpret_cast<const char*>(&s);
  if (data >= self && data < self + sizeof(s)) return 0;
  return s.capacity() + 1;
}

// Registers a freshly built rep with ValueMemory (a no-op unless a memory
// budget enabled tracking): what its allocation really holds — the rep
// sized to its kind, the control block, and `payload` heap bytes. Child
// values are counted by their own reps and a tuple's names by its names
// list, so shared structure is never double-counted.
template <typename R>
void Charge(R* rep, size_t payload) {
  size_t bytes = sizeof(R) + kSharedBlockBytes + payload;
  if (bytes > UINT32_MAX) bytes = UINT32_MAX;
  rep->tracked_bytes = static_cast<uint32_t>(bytes);
  ValueMemory::Add(static_cast<int64_t>(rep->tracked_bytes));
}

size_t SlotBytes(const std::vector<Value>& children) {
  return children.capacity() * sizeof(Value);
}

// Shared singletons for the values that appear everywhere; they allocate
// nothing per use, so they charge nothing.
const std::shared_ptr<const ValueRep>& NullRep() {
  static const auto& rep = *new std::shared_ptr<const ValueRep>(
      new ValueRep(ValueKind::kNull));
  return rep;
}

const std::shared_ptr<const ValueRep>& EmptySetRep() {
  static const auto& rep = *new std::shared_ptr<const ValueRep>(
      new ChildrenRep(ValueKind::kSet, {}));
  return rep;
}

const std::shared_ptr<const NamesRep>& EmptyNamesRep() {
  static const auto& rep = *new std::shared_ptr<const NamesRep>(
      std::make_shared<NamesRep>(std::vector<std::string>{}));
  return rep;
}

const ScalarRep& AsScalar(const ValueRep& rep) {
  return static_cast<const ScalarRep&>(rep);
}
const StringRep& AsStringRep(const ValueRep& rep) {
  return static_cast<const StringRep&>(rep);
}
const ChildrenRep& AsChildren(const ValueRep& rep) {
  return static_cast<const ChildrenRep&>(rep);
}
const TupleRep& AsTupleRep(const ValueRep& rep) {
  return static_cast<const TupleRep&>(rep);
}

// Rank used by Compare for values of different kinds. Int and Real share a
// rank so they compare numerically.
int KindRank(ValueKind k) {
  switch (k) {
    case ValueKind::kNull:
      return 0;
    case ValueKind::kBool:
      return 1;
    case ValueKind::kInt:
    case ValueKind::kReal:
      return 2;
    case ValueKind::kString:
      return 3;
    case ValueKind::kTuple:
      return 4;
    case ValueKind::kSet:
      return 5;
    case ValueKind::kList:
      return 6;
  }
  return 7;
}

int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

}  // namespace

TupleNames::TupleNames() : rep_(EmptyNamesRep()) {}

TupleNames::TupleNames(std::vector<std::string> names) {
#ifndef NDEBUG
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = i + 1; j < names.size(); ++j) {
      TMDB_CHECK_MSG(names[i] != names[j],
                     "duplicate tuple attribute '" << names[i] << "'");
    }
  }
#endif
  auto rep = std::make_shared<NamesRep>(std::move(names));
  if (ValueMemory::tracking_enabled()) {
    size_t payload = rep->names.capacity() * sizeof(std::string) +
                     rep->hashes.capacity() * sizeof(uint64_t);
    for (const std::string& name : rep->names) payload += HeapBytes(name);
    Charge(rep.get(), payload);
  }
  rep_ = std::move(rep);
}

size_t TupleNames::size() const { return rep_->names.size(); }

const std::string& TupleNames::operator[](size_t i) const {
  TMDB_CHECK(i < rep_->names.size());
  return rep_->names[i];
}

const std::vector<std::string>& TupleNames::names() const {
  return rep_->names;
}

bool TupleNames::operator==(const TupleNames& other) const {
  return rep_ == other.rep_ || rep_->names == other.rep_->names;
}

Value::Value() : rep_(NullRep()) {}

Value Value::Null() { return Value(NullRep()); }

Value Value::Bool(bool v) {
  auto rep = std::make_shared<ScalarRep>(ValueKind::kBool);
  rep->bool_value = v;
  if (ValueMemory::tracking_enabled()) Charge(rep.get(), 0);
  return Value(std::move(rep));
}

Value Value::Int(int64_t v) {
  auto rep = std::make_shared<ScalarRep>(ValueKind::kInt);
  rep->int_value = v;
  if (ValueMemory::tracking_enabled()) Charge(rep.get(), 0);
  return Value(std::move(rep));
}

Value Value::Real(double v) {
  auto rep = std::make_shared<ScalarRep>(ValueKind::kReal);
  rep->real_value = v;
  if (ValueMemory::tracking_enabled()) Charge(rep.get(), 0);
  return Value(std::move(rep));
}

Value Value::String(std::string v) {
  auto rep = std::make_shared<StringRep>(std::move(v));
  if (ValueMemory::tracking_enabled()) {
    Charge(rep.get(), HeapBytes(rep->value));
  }
  return Value(std::move(rep));
}

Value Value::Tuple(std::vector<std::string> names, std::vector<Value> values) {
  return SharedTuple(TupleNames(std::move(names)), std::move(values));
}

Value Value::SharedTuple(TupleNames names, std::vector<Value> values) {
  TMDB_CHECK(names.size() == values.size());
  auto rep = std::make_shared<TupleRep>(std::move(names), std::move(values));
  if (ValueMemory::tracking_enabled()) {
    Charge(rep.get(), SlotBytes(rep->children));
  }
  return Value(std::move(rep));
}

Value Value::Set(std::vector<Value> elements) {
  if (elements.empty()) return EmptySet();
  // Input that is already strictly increasing is canonical as it stands:
  // the wire and spill decoders and the set merges always hand over such
  // input, and one O(n) pass spares them the sort and the dedup.
  const auto less = [](const Value& a, const Value& b) {
    return a.Compare(b) < 0;
  };
  if (std::adjacent_find(elements.begin(), elements.end(),
                         [&](const Value& a, const Value& b) {
                           return !less(a, b);
                         }) != elements.end()) {
    std::sort(elements.begin(), elements.end(), less);
    elements.erase(std::unique(elements.begin(), elements.end(),
                               [](const Value& a, const Value& b) {
                                 return a.Equals(b);
                               }),
                   elements.end());
  }
  // Dedup can strand most of the build vector's capacity, and the rep's
  // tracked footprint counts capacity — a grouped set built from many
  // duplicates would otherwise pin its pre-dedup size for its lifetime.
  elements.shrink_to_fit();
  auto rep =
      std::make_shared<ChildrenRep>(ValueKind::kSet, std::move(elements));
  if (ValueMemory::tracking_enabled()) {
    Charge(rep.get(), SlotBytes(rep->children));
  }
  return Value(std::move(rep));
}

Value Value::EmptySet() { return Value(EmptySetRep()); }

Value Value::List(std::vector<Value> elements) {
  auto rep =
      std::make_shared<ChildrenRep>(ValueKind::kList, std::move(elements));
  if (ValueMemory::tracking_enabled()) {
    Charge(rep.get(), SlotBytes(rep->children));
  }
  return Value(std::move(rep));
}

ValueKind Value::kind() const { return rep_->kind; }

const std::vector<Value>& Value::children() const {
  return AsChildren(*rep_).children;
}

bool Value::AsBool() const {
  TMDB_CHECK(is_bool());
  return AsScalar(*rep_).bool_value;
}

int64_t Value::AsInt() const {
  TMDB_CHECK(is_int());
  return AsScalar(*rep_).int_value;
}

double Value::AsReal() const {
  TMDB_CHECK(is_real());
  return AsScalar(*rep_).real_value;
}

double Value::AsNumeric() const {
  if (is_int()) return static_cast<double>(AsScalar(*rep_).int_value);
  TMDB_CHECK(is_real());
  return AsScalar(*rep_).real_value;
}

const std::string& Value::AsString() const {
  TMDB_CHECK(is_string());
  return AsStringRep(*rep_).value;
}

size_t Value::TupleSize() const {
  TMDB_CHECK(is_tuple());
  return children().size();
}

const std::string& Value::FieldName(size_t i) const {
  TMDB_CHECK(is_tuple());
  return AsTupleRep(*rep_).names[i];
}

const TupleNames& Value::FieldNames() const {
  TMDB_CHECK(is_tuple());
  return AsTupleRep(*rep_).names;
}

const Value& Value::FieldValue(size_t i) const {
  TMDB_CHECK(is_tuple());
  TMDB_CHECK(i < children().size());
  return children()[i];
}

const Value* Value::FindField(const std::string& name) const {
  if (!is_tuple()) return nullptr;
  const TupleRep& rep = AsTupleRep(*rep_);
  const std::vector<std::string>& names = rep.names.names();
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return &rep.children[i];
  }
  return nullptr;
}

Result<Value> Value::Field(const std::string& name) const {
  if (!is_tuple()) {
    return Status::TypeError(
        StrCat("attribute access '.", name, "' on non-tuple value ",
               ToString()));
  }
  const Value* v = FindField(name);
  if (v == nullptr) {
    return Status::NotFound(
        StrCat("no attribute '", name, "' in ", ToString()));
  }
  return *v;
}

size_t Value::NumElements() const {
  TMDB_CHECK(is_collection());
  return children().size();
}

const Value& Value::Element(size_t i) const {
  TMDB_CHECK(is_collection());
  TMDB_CHECK(i < children().size());
  return children()[i];
}

const std::vector<Value>& Value::Elements() const {
  TMDB_CHECK(is_collection());
  return children();
}

bool Value::Contains(const Value& v) const {
  TMDB_CHECK(is_collection());
  const auto& elems = children();
  if (is_set()) {
    // Sets are canonicalised (sorted), so membership is a binary search.
    auto it = std::lower_bound(
        elems.begin(), elems.end(), v,
        [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
    return it != elems.end() && it->Equals(v);
  }
  for (const Value& e : elems) {
    if (e.Equals(v)) return true;
  }
  return false;
}

int Value::Compare(const Value& other) const {
  if (rep_ == other.rep_) return 0;
  const int ra = KindRank(kind());
  const int rb = KindRank(other.kind());
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (kind()) {
    case ValueKind::kNull:
      return 0;
    case ValueKind::kBool: {
      const int a = AsScalar(*rep_).bool_value ? 1 : 0;
      const int b = AsScalar(*other.rep_).bool_value ? 1 : 0;
      return a - b;
    }
    case ValueKind::kInt:
    case ValueKind::kReal: {
      if (is_int() && other.is_int()) {
        const int64_t a = AsScalar(*rep_).int_value;
        const int64_t b = AsScalar(*other.rep_).int_value;
        if (a < b) return -1;
        if (a > b) return 1;
        return 0;
      }
      return CompareDoubles(AsNumeric(), other.AsNumeric());
    }
    case ValueKind::kString:
      return AsStringRep(*rep_).value.compare(AsStringRep(*other.rep_).value);
    case ValueKind::kTuple: {
      // Tuples order by (name, value) pairs left to right; differently
      // shaped tuples order by their attribute lists. Tuples sharing one
      // names list differ only in their values.
      const TupleRep& a = AsTupleRep(*rep_);
      const TupleRep& b = AsTupleRep(*other.rep_);
      const bool same_names = a.names.SameList(b.names);
      const size_t n = std::min(a.names.size(), b.names.size());
      for (size_t i = 0; i < n; ++i) {
        if (!same_names) {
          const int c = a.names[i].compare(b.names[i]);
          if (c != 0) return c < 0 ? -1 : 1;
        }
        const int c = a.children[i].Compare(b.children[i]);
        if (c != 0) return c;
      }
      if (a.names.size() != b.names.size()) {
        return a.names.size() < b.names.size() ? -1 : 1;
      }
      return 0;
    }
    case ValueKind::kSet:
    case ValueKind::kList: {
      // Lexicographic over elements (sets are canonical, so this is a
      // well-defined set order).
      const auto& a = children();
      const auto& b = other.children();
      const size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        const int c = a[i].Compare(b[i]);
        if (c != 0) return c;
      }
      if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
      return 0;
    }
  }
  return 0;
}

uint64_t Value::Hash() const {
  uint64_t h = rep_->cached_hash.load(std::memory_order_relaxed);
  if (h != Rep::kHashUnset) return h;
  h = ComputeHash();
  // The sentinel is a legal hash image; remap it so the cache stays sound
  // (equal values still agree: they compute the same image).
  if (h == Rep::kHashUnset) h = 0x9e3779b97f4a7c15ULL;
  rep_->cached_hash.store(h, std::memory_order_relaxed);
  return h;
}

uint64_t Value::ComputeHash() const {
  switch (kind()) {
    case ValueKind::kNull:
      return 0x6e756c6cULL;
    case ValueKind::kBool:
      return AsScalar(*rep_).bool_value ? 0x74727565ULL : 0x66616c73ULL;
    case ValueKind::kInt:
    case ValueKind::kReal: {
      // Numerically equal Int and Real must hash identically: hash the
      // double image when the integer is exactly representable, the raw
      // int64 bits otherwise (a double can never equal such an int64
      // exactly anyway... it can collide in value but Compare uses the
      // same double image, so equality and hash stay consistent).
      double d = AsNumeric();
      if (d == 0.0) d = 0.0;  // normalise -0.0 to +0.0
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return HashBytes(&bits, sizeof(bits), 0x6e756d62ULL);
    }
    case ValueKind::kString:
      return HashString(AsStringRep(*rep_).value, 0x73747231ULL);
    case ValueKind::kTuple: {
      const TupleRep& rep = AsTupleRep(*rep_);
      const std::vector<uint64_t>& name_hashes = rep.names.rep_->hashes;
      uint64_t h = 0x7475706cULL;
      for (size_t i = 0; i < rep.children.size(); ++i) {
        h = HashCombine(h, name_hashes[i]);
        h = HashCombine(h, rep.children[i].Hash());
      }
      return h;
    }
    case ValueKind::kSet: {
      uint64_t h = 0x73657421ULL;
      for (const Value& e : children()) {
        h = HashCombineUnordered(h, e.Hash());
      }
      return HashCombine(h, children().size());
    }
    case ValueKind::kList: {
      uint64_t h = 0x6c697374ULL;
      for (const Value& e : children()) {
        h = HashCombine(h, e.Hash());
      }
      return h;
    }
  }
  return 0;
}

std::string Value::ToString() const {
  switch (kind()) {
    case ValueKind::kNull:
      return "NULL";
    case ValueKind::kBool:
      return AsBool() ? "true" : "false";
    case ValueKind::kInt:
      return std::to_string(AsInt());
    case ValueKind::kReal: {
      std::string s = StrCat(AsReal());
      // Make reals visually distinct from ints.
      if (s.find('.') == std::string::npos &&
          s.find('e') == std::string::npos &&
          s.find("inf") == std::string::npos &&
          s.find("nan") == std::string::npos) {
        s += ".0";
      }
      return s;
    }
    case ValueKind::kString:
      return "\"" + EscapeString(AsString()) + "\"";
    case ValueKind::kTuple: {
      const TupleRep& rep = AsTupleRep(*rep_);
      std::vector<std::string> parts;
      parts.reserve(rep.children.size());
      for (size_t i = 0; i < rep.children.size(); ++i) {
        parts.push_back(rep.names[i] + " = " + rep.children[i].ToString());
      }
      return "<" + Join(parts, ", ") + ">";
    }
    case ValueKind::kSet:
    case ValueKind::kList: {
      std::vector<std::string> parts;
      parts.reserve(children().size());
      for (const Value& e : children()) {
        parts.push_back(e.ToString());
      }
      const char* open = is_set() ? "{" : "[";
      const char* close = is_set() ? "}" : "]";
      return open + Join(parts, ", ") + close;
    }
  }
  return "?";
}

Type TypeOf(const Value& v) {
  switch (v.kind()) {
    case ValueKind::kNull:
      return Type::Any();
    case ValueKind::kBool:
      return Type::Bool();
    case ValueKind::kInt:
      return Type::Int();
    case ValueKind::kReal:
      return Type::Real();
    case ValueKind::kString:
      return Type::String();
    case ValueKind::kTuple: {
      std::vector<Field> fields;
      fields.reserve(v.TupleSize());
      for (size_t i = 0; i < v.TupleSize(); ++i) {
        fields.push_back({v.FieldName(i), TypeOf(v.FieldValue(i))});
      }
      return Type::Tuple(std::move(fields));
    }
    case ValueKind::kSet:
    case ValueKind::kList: {
      Type elem = Type::Any();
      for (const Value& e : v.Elements()) {
        auto unified = UnifyTypes(elem, TypeOf(e));
        if (!unified.ok()) {
          // Heterogeneous collection (cannot arise from the typed engine,
          // but TypeOf is total): fall back to ANY.
          elem = Type::Any();
          break;
        }
        elem = *unified;
      }
      return v.is_set() ? Type::Set(elem) : Type::List(elem);
    }
  }
  return Type::Any();
}

bool ConformsTo(const Value& v, const Type& type) {
  if (type.is_any() || v.is_null()) return true;
  switch (type.kind()) {
    case TypeKind::kBool:
      return v.is_bool();
    case TypeKind::kInt:
      return v.is_int();
    case TypeKind::kReal:
      return v.is_numeric();
    case TypeKind::kString:
      return v.is_string();
    case TypeKind::kTuple: {
      if (!v.is_tuple()) return false;
      const auto& fields = type.fields();
      if (v.TupleSize() != fields.size()) return false;
      for (size_t i = 0; i < fields.size(); ++i) {
        if (v.FieldName(i) != fields[i].name) return false;
        if (!ConformsTo(v.FieldValue(i), fields[i].type)) return false;
      }
      return true;
    }
    case TypeKind::kSet: {
      if (!v.is_set()) return false;
      for (const Value& e : v.Elements()) {
        if (!ConformsTo(e, type.element())) return false;
      }
      return true;
    }
    case TypeKind::kList: {
      if (!v.is_list()) return false;
      for (const Value& e : v.Elements()) {
        if (!ConformsTo(e, type.element())) return false;
      }
      return true;
    }
    case TypeKind::kAny:
      return true;
  }
  return false;
}

}  // namespace tmdb
