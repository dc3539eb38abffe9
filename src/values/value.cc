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

// Each kind's rep adds only its own payload to the 16-byte header.
struct StringRep : ValueRep {
  explicit StringRep(std::string v) : value(std::move(v)) {}
  std::string value;
};

// Set and list elements; a tuple's attribute values.
struct ChildrenRep : ValueRep {
  explicit ChildrenRep(std::vector<Value> c) : children(std::move(c)) {}
  std::vector<Value> children;
};

// names[i] labels children[i].
struct TupleRep : ChildrenRep {
  TupleRep(TupleNames n, std::vector<Value> values)
      : ChildrenRep(std::move(values)), names(std::move(n)) {}
  TupleNames names;
};

// A shared attribute-name list. It charges its bytes once, when built, and
// refunds them when the last handle (tuple or TupleNames) lets go.
struct NamesRep : Counted {
  explicit NamesRep(std::vector<std::string> n) : names(std::move(n)) {
    hashes.reserve(names.size());
    for (const std::string& name : names) hashes.push_back(HashString(name));
  }

  std::vector<std::string> names;
  std::vector<uint64_t> hashes;  // HashString(names[i]), for Value::Hash
};

// Refunds what `rep` charged (zero for reps built while tracking was off),
// then frees it.
template <typename R>
void Free(const R* rep) {
  if (rep->tracked_bytes != 0) {
    ValueMemory::Add(-static_cast<int64_t>(rep->tracked_bytes));
  }
  delete rep;
}

void DestroyRep(ValueKind kind, const ValueRep* rep) {
  switch (kind) {
    case ValueKind::kString:
      Free(static_cast<const StringRep*>(rep));
      return;
    case ValueKind::kTuple:
      Free(static_cast<const TupleRep*>(rep));
      return;
    case ValueKind::kSet:
    case ValueKind::kList:
      Free(static_cast<const ChildrenRep*>(rep));
      return;
    default:
      TMDB_CHECK_MSG(false, "a scalar value has no rep");
  }
}

}  // namespace internal_values

namespace {

using internal_values::ChildrenRep;
using internal_values::NamesRep;
using internal_values::StringRep;
using internal_values::TupleRep;
using internal_values::ValueRep;

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
// sized to its kind and `payload` heap bytes. Child values are counted by
// their own reps (scalars by nothing: they live in their slots) and a
// tuple's names by its names list, so shared structure is never
// double-counted.
template <typename R>
void Charge(R* rep, size_t payload) {
  size_t bytes = sizeof(R) + payload;
  if (bytes > UINT32_MAX) bytes = UINT32_MAX;
  rep->tracked_bytes = static_cast<uint32_t>(bytes);
  ValueMemory::Add(static_cast<int64_t>(rep->tracked_bytes));
}

size_t SlotBytes(const std::vector<Value>& children) {
  return children.capacity() * sizeof(Value);
}

// Shared singletons for the reps that appear everywhere. They hold one
// reference that is never dropped, so they allocate nothing per use and
// charge nothing.
const ChildrenRep* EmptySetRep() {
  static const ChildrenRep* rep = new ChildrenRep({});
  return rep;
}

const NamesRep* EmptyNamesRep() {
  static const NamesRep* rep = new NamesRep({});
  return rep;
}

// A moved-from TupleNames holds no list.
void RetainNames(const NamesRep* rep) {
  if (rep != nullptr) rep->refs.fetch_add(1, std::memory_order_relaxed);
}

void ReleaseNames(const NamesRep* rep) {
  if (rep != nullptr && internal_values::DropRef(*rep)) {
    internal_values::Free(rep);
  }
}

const StringRep& AsStringRep(const ValueRep* rep) {
  return *static_cast<const StringRep*>(rep);
}
const ChildrenRep& AsChildren(const ValueRep* rep) {
  return *static_cast<const ChildrenRep*>(rep);
}
const TupleRep& AsTupleRep(const ValueRep* rep) {
  return *static_cast<const TupleRep*>(rep);
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

TupleNames::TupleNames() : rep_(EmptyNamesRep()) { RetainNames(rep_); }

TupleNames::TupleNames(std::vector<std::string> names) {
#ifndef NDEBUG
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = i + 1; j < names.size(); ++j) {
      TMDB_CHECK_MSG(names[i] != names[j],
                     "duplicate tuple attribute '" << names[i] << "'");
    }
  }
#endif
  auto* rep = new NamesRep(std::move(names));
  if (ValueMemory::tracking_enabled()) {
    size_t payload = rep->names.capacity() * sizeof(std::string) +
                     rep->hashes.capacity() * sizeof(uint64_t);
    for (const std::string& name : rep->names) payload += HeapBytes(name);
    Charge(rep, payload);
  }
  rep_ = rep;
}

TupleNames::TupleNames(const TupleNames& other) : rep_(other.rep_) {
  RetainNames(rep_);
}

TupleNames::~TupleNames() { ReleaseNames(rep_); }

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

Value Value::Null() { return Value(); }

Value Value::Bool(bool v) {
  Value out;
  out.kind_ = ValueKind::kBool;
  out.payload_.bool_value = v;
  return out;
}

Value Value::Int(int64_t v) {
  Value out;
  out.kind_ = ValueKind::kInt;
  out.payload_.int_value = v;
  return out;
}

Value Value::Real(double v) {
  Value out;
  out.kind_ = ValueKind::kReal;
  out.payload_.real_value = v;
  return out;
}

Value Value::String(std::string v) {
  auto* rep = new StringRep(std::move(v));
  if (ValueMemory::tracking_enabled()) Charge(rep, HeapBytes(rep->value));
  return Value(ValueKind::kString, rep);
}

Value Value::Tuple(std::vector<std::string> names, std::vector<Value> values) {
  return SharedTuple(TupleNames(std::move(names)), std::move(values));
}

Value Value::SharedTuple(TupleNames names, std::vector<Value> values) {
  TMDB_CHECK(names.size() == values.size());
  auto* rep = new TupleRep(std::move(names), std::move(values));
  if (ValueMemory::tracking_enabled()) Charge(rep, SlotBytes(rep->children));
  return Value(ValueKind::kTuple, rep);
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
  auto* rep = new ChildrenRep(std::move(elements));
  if (ValueMemory::tracking_enabled()) Charge(rep, SlotBytes(rep->children));
  return Value(ValueKind::kSet, rep);
}

Value Value::EmptySet() {
  const ChildrenRep* rep = EmptySetRep();
  rep->refs.fetch_add(1, std::memory_order_relaxed);
  return Value(ValueKind::kSet, rep);
}

Value Value::List(std::vector<Value> elements) {
  auto* rep = new ChildrenRep(std::move(elements));
  if (ValueMemory::tracking_enabled()) Charge(rep, SlotBytes(rep->children));
  return Value(ValueKind::kList, rep);
}

const std::vector<Value>& Value::children() const {
  return AsChildren(payload_.rep).children;
}

bool Value::AsBool() const {
  TMDB_CHECK(is_bool());
  return payload_.bool_value;
}

int64_t Value::AsInt() const {
  TMDB_CHECK(is_int());
  return payload_.int_value;
}

double Value::AsReal() const {
  TMDB_CHECK(is_real());
  return payload_.real_value;
}

double Value::AsNumeric() const {
  if (is_int()) return static_cast<double>(payload_.int_value);
  TMDB_CHECK(is_real());
  return payload_.real_value;
}

const std::string& Value::AsString() const {
  TMDB_CHECK(is_string());
  return AsStringRep(payload_.rep).value;
}

size_t Value::TupleSize() const {
  TMDB_CHECK(is_tuple());
  return children().size();
}

const std::string& Value::FieldName(size_t i) const {
  TMDB_CHECK(is_tuple());
  return AsTupleRep(payload_.rep).names[i];
}

const TupleNames& Value::FieldNames() const {
  TMDB_CHECK(is_tuple());
  return AsTupleRep(payload_.rep).names;
}

const Value& Value::FieldValue(size_t i) const {
  TMDB_CHECK(is_tuple());
  TMDB_CHECK(i < children().size());
  return children()[i];
}

const Value* Value::FindField(const std::string& name) const {
  if (!is_tuple()) return nullptr;
  const TupleRep& rep = AsTupleRep(payload_.rep);
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
  if (has_rep() && payload_.rep == other.payload_.rep) return 0;
  const int ra = KindRank(kind());
  const int rb = KindRank(other.kind());
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (kind()) {
    case ValueKind::kNull:
      return 0;
    case ValueKind::kBool: {
      const int a = payload_.bool_value ? 1 : 0;
      const int b = other.payload_.bool_value ? 1 : 0;
      return a - b;
    }
    case ValueKind::kInt:
    case ValueKind::kReal: {
      if (is_int() && other.is_int()) {
        const int64_t a = payload_.int_value;
        const int64_t b = other.payload_.int_value;
        if (a < b) return -1;
        if (a > b) return 1;
        return 0;
      }
      return CompareDoubles(AsNumeric(), other.AsNumeric());
    }
    case ValueKind::kString:
      return AsStringRep(payload_.rep).value.compare(AsStringRep(other.payload_.rep).value);
    case ValueKind::kTuple: {
      // Tuples order by (name, value) pairs left to right; differently
      // shaped tuples order by their attribute lists. Tuples sharing one
      // names list differ only in their values.
      const TupleRep& a = AsTupleRep(payload_.rep);
      const TupleRep& b = AsTupleRep(other.payload_.rep);
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
  if (has_rep()) {
    const uint64_t h = payload_.rep->cached_hash.load(std::memory_order_relaxed);
    if (h != 0) return h;
  }
  uint64_t h = ComputeHash();
  // 0 marks an unset memo but is a legal hash image; remap it so the memo
  // stays sound (equal values still agree: they compute the same image).
  if (h == 0) h = 0x9e3779b97f4a7c15ULL;
  if (has_rep()) payload_.rep->cached_hash.store(h, std::memory_order_relaxed);
  return h;
}

uint64_t Value::ComputeHash() const {
  switch (kind()) {
    case ValueKind::kNull:
      return 0x6e756c6cULL;
    case ValueKind::kBool:
      return payload_.bool_value ? 0x74727565ULL : 0x66616c73ULL;
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
      return HashString(AsStringRep(payload_.rep).value, 0x73747231ULL);
    case ValueKind::kTuple: {
      const TupleRep& rep = AsTupleRep(payload_.rep);
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
      const TupleRep& rep = AsTupleRep(payload_.rep);
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
