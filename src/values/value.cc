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
struct ValueRep {
  ValueKind kind;

  // Atom payloads (only the one matching `kind` is meaningful).
  bool bool_value = false;
  int64_t int_value = 0;
  double real_value = 0.0;
  std::string string_value;

  // Tuple payload: parallel arrays, names[i] labels values[i].
  std::vector<std::string> names;
  // Tuple attribute values, or set/list elements.
  std::vector<Value> children;

  // Structural hash, computed on first use (join/nest keys are re-hashed
  // once per probe otherwise). kHashUnset marks "not yet computed"; the
  // value is deterministic, so racing relaxed stores are benign.
  static constexpr uint64_t kHashUnset = 0;
  mutable std::atomic<uint64_t> cached_hash{kHashUnset};

  // Shallow bytes registered with ValueMemory at construction time. Zero
  // for reps built while tracking was off (and for the singletons), so the
  // destructor always subtracts exactly what was added.
  uint32_t tracked_bytes = 0;

  explicit ValueRep(ValueKind k) : kind(k) {}
  ~ValueRep() {
    if (tracked_bytes != 0) {
      ValueMemory::Add(-static_cast<int64_t>(tracked_bytes));
    }
  }
};
}  // namespace internal_values

namespace {

using internal_values::ValueRep;

// Shared singletons for the values that appear everywhere.
const std::shared_ptr<const ValueRep>& NullRep() {
  static const auto& rep =
      *new std::shared_ptr<const ValueRep>(new ValueRep(ValueKind::kNull));
  return rep;
}

const std::shared_ptr<const ValueRep>& EmptySetRep() {
  static const auto& rep =
      *new std::shared_ptr<const ValueRep>(new ValueRep(ValueKind::kSet));
  return rep;
}

// Registers a freshly built rep's shallow footprint with ValueMemory (a
// no-op unless a memory budget enabled tracking). Child values are counted
// by their own reps; only the handle slots count here, so shared structure
// is never double-counted.
std::shared_ptr<ValueRep> Track(std::shared_ptr<ValueRep> rep) {
  if (ValueMemory::tracking_enabled()) {
    size_t bytes = sizeof(ValueRep) + rep->string_value.capacity() +
                   rep->names.capacity() * sizeof(std::string) +
                   rep->children.capacity() * sizeof(Value);
    for (const std::string& name : rep->names) bytes += name.capacity();
    if (bytes > UINT32_MAX) bytes = UINT32_MAX;
    rep->tracked_bytes = static_cast<uint32_t>(bytes);
    ValueMemory::Add(static_cast<int64_t>(rep->tracked_bytes));
  }
  return rep;
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

Value::Value() : rep_(NullRep()) {}

Value Value::Null() { return Value(NullRep()); }

Value Value::Bool(bool v) {
  auto rep = std::make_shared<ValueRep>(ValueKind::kBool);
  rep->bool_value = v;
  return Value(Track(std::move(rep)));
}

Value Value::Int(int64_t v) {
  auto rep = std::make_shared<ValueRep>(ValueKind::kInt);
  rep->int_value = v;
  return Value(Track(std::move(rep)));
}

Value Value::Real(double v) {
  auto rep = std::make_shared<ValueRep>(ValueKind::kReal);
  rep->real_value = v;
  return Value(Track(std::move(rep)));
}

Value Value::String(std::string v) {
  auto rep = std::make_shared<ValueRep>(ValueKind::kString);
  rep->string_value = std::move(v);
  return Value(Track(std::move(rep)));
}

Value Value::Tuple(std::vector<std::string> names, std::vector<Value> values) {
  TMDB_CHECK(names.size() == values.size());
#ifndef NDEBUG
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = i + 1; j < names.size(); ++j) {
      TMDB_CHECK_MSG(names[i] != names[j],
                     "duplicate tuple attribute '" << names[i] << "'");
    }
  }
#endif
  auto rep = std::make_shared<ValueRep>(ValueKind::kTuple);
  rep->names = std::move(names);
  rep->children = std::move(values);
  return Value(Track(std::move(rep)));
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
  auto rep = std::make_shared<ValueRep>(ValueKind::kSet);
  rep->children = std::move(elements);
  return Value(Track(std::move(rep)));
}

Value Value::EmptySet() { return Value(EmptySetRep()); }

Value Value::List(std::vector<Value> elements) {
  auto rep = std::make_shared<ValueRep>(ValueKind::kList);
  rep->children = std::move(elements);
  return Value(Track(std::move(rep)));
}

ValueKind Value::kind() const { return rep_->kind; }

bool Value::AsBool() const {
  TMDB_CHECK(is_bool());
  return rep_->bool_value;
}

int64_t Value::AsInt() const {
  TMDB_CHECK(is_int());
  return rep_->int_value;
}

double Value::AsReal() const {
  TMDB_CHECK(is_real());
  return rep_->real_value;
}

double Value::AsNumeric() const {
  if (is_int()) return static_cast<double>(rep_->int_value);
  TMDB_CHECK(is_real());
  return rep_->real_value;
}

const std::string& Value::AsString() const {
  TMDB_CHECK(is_string());
  return rep_->string_value;
}

size_t Value::TupleSize() const {
  TMDB_CHECK(is_tuple());
  return rep_->children.size();
}

const std::string& Value::FieldName(size_t i) const {
  TMDB_CHECK(is_tuple());
  TMDB_CHECK(i < rep_->names.size());
  return rep_->names[i];
}

const Value& Value::FieldValue(size_t i) const {
  TMDB_CHECK(is_tuple());
  TMDB_CHECK(i < rep_->children.size());
  return rep_->children[i];
}

const Value* Value::FindField(const std::string& name) const {
  if (!is_tuple()) return nullptr;
  for (size_t i = 0; i < rep_->names.size(); ++i) {
    if (rep_->names[i] == name) return &rep_->children[i];
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
  return rep_->children.size();
}

const Value& Value::Element(size_t i) const {
  TMDB_CHECK(is_collection());
  TMDB_CHECK(i < rep_->children.size());
  return rep_->children[i];
}

const std::vector<Value>& Value::Elements() const {
  TMDB_CHECK(is_collection());
  return rep_->children;
}

bool Value::Contains(const Value& v) const {
  TMDB_CHECK(is_collection());
  const auto& elems = rep_->children;
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
      const int a = rep_->bool_value ? 1 : 0;
      const int b = other.rep_->bool_value ? 1 : 0;
      return a - b;
    }
    case ValueKind::kInt:
    case ValueKind::kReal: {
      if (is_int() && other.is_int()) {
        if (rep_->int_value < other.rep_->int_value) return -1;
        if (rep_->int_value > other.rep_->int_value) return 1;
        return 0;
      }
      return CompareDoubles(AsNumeric(), other.AsNumeric());
    }
    case ValueKind::kString:
      return rep_->string_value.compare(other.rep_->string_value);
    case ValueKind::kTuple: {
      // Tuples order by (name, value) pairs left to right; differently
      // shaped tuples order by their attribute lists.
      const size_t n = std::min(rep_->names.size(), other.rep_->names.size());
      for (size_t i = 0; i < n; ++i) {
        int c = rep_->names[i].compare(other.rep_->names[i]);
        if (c != 0) return c < 0 ? -1 : 1;
        c = rep_->children[i].Compare(other.rep_->children[i]);
        if (c != 0) return c;
      }
      if (rep_->names.size() != other.rep_->names.size()) {
        return rep_->names.size() < other.rep_->names.size() ? -1 : 1;
      }
      return 0;
    }
    case ValueKind::kSet:
    case ValueKind::kList: {
      // Lexicographic over elements (sets are canonical, so this is a
      // well-defined set order).
      const auto& a = rep_->children;
      const auto& b = other.rep_->children;
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
      return rep_->bool_value ? 0x74727565ULL : 0x66616c73ULL;
    case ValueKind::kInt:
    case ValueKind::kReal: {
      // Numerically equal Int and Real must hash identically: hash the
      // double image when the integer is exactly representable, the raw
      // int64 bits otherwise (a double can never equal such an int64
      // exactly anyway... it can collide in value but Compare uses the
      // same double image, so equality and hash stay consistent).
      double d;
      if (is_int()) {
        d = static_cast<double>(rep_->int_value);
      } else {
        d = rep_->real_value;
      }
      if (d == 0.0) d = 0.0;  // normalise -0.0 to +0.0
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return HashBytes(&bits, sizeof(bits), 0x6e756d62ULL);
    }
    case ValueKind::kString:
      return HashString(rep_->string_value, 0x73747231ULL);
    case ValueKind::kTuple: {
      uint64_t h = 0x7475706cULL;
      for (size_t i = 0; i < rep_->names.size(); ++i) {
        h = HashCombine(h, HashString(rep_->names[i]));
        h = HashCombine(h, rep_->children[i].Hash());
      }
      return h;
    }
    case ValueKind::kSet: {
      uint64_t h = 0x73657421ULL;
      for (const Value& e : rep_->children) {
        h = HashCombineUnordered(h, e.Hash());
      }
      return HashCombine(h, rep_->children.size());
    }
    case ValueKind::kList: {
      uint64_t h = 0x6c697374ULL;
      for (const Value& e : rep_->children) {
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
      return rep_->bool_value ? "true" : "false";
    case ValueKind::kInt:
      return std::to_string(rep_->int_value);
    case ValueKind::kReal: {
      std::string s = StrCat(rep_->real_value);
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
      return "\"" + EscapeString(rep_->string_value) + "\"";
    case ValueKind::kTuple: {
      std::vector<std::string> parts;
      parts.reserve(rep_->names.size());
      for (size_t i = 0; i < rep_->names.size(); ++i) {
        parts.push_back(rep_->names[i] + " = " + rep_->children[i].ToString());
      }
      return "<" + Join(parts, ", ") + ">";
    }
    case ValueKind::kSet:
    case ValueKind::kList: {
      std::vector<std::string> parts;
      parts.reserve(rep_->children.size());
      for (const Value& e : rep_->children) {
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
