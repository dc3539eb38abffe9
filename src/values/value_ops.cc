#include "values/value_ops.h"

#include <algorithm>
#include <utility>

#include "base/string_util.h"

namespace tmdb {

namespace {

Status NotASet(const char* op, const Value& v) {
  return Status::TypeError(
      StrCat(op, " requires set operands, got ", v.ToString()));
}

Status NotNumeric(const char* op, const Value& v) {
  return Status::TypeError(
      StrCat(op, " requires numeric operands, got ", v.ToString()));
}

// Walks two canonical (sorted, deduplicated) element vectors in lockstep.
// Emit flags select which categories of elements are kept:
//   only_a  — elements present in a but not b
//   both    — elements present in both
//   only_b  — elements present in b but not a
std::vector<Value> MergeSets(const std::vector<Value>& a,
                             const std::vector<Value>& b, bool only_a,
                             bool both, bool only_b) {
  std::vector<Value> out;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const int c = a[i].Compare(b[j]);
    if (c < 0) {
      if (only_a) out.push_back(a[i]);
      ++i;
    } else if (c > 0) {
      if (only_b) out.push_back(b[j]);
      ++j;
    } else {
      if (both) out.push_back(a[i]);
      ++i;
      ++j;
    }
  }
  if (only_a) {
    for (; i < a.size(); ++i) out.push_back(a[i]);
  }
  if (only_b) {
    for (; j < b.size(); ++j) out.push_back(b[j]);
  }
  return out;
}

// True iff every element of a occurs in b (merge over canonical vectors).
bool SubsetOf(const std::vector<Value>& a, const std::vector<Value>& b) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size()) {
    if (j >= b.size()) return false;
    const int c = a[i].Compare(b[j]);
    if (c < 0) return false;  // a[i] missing from b
    if (c > 0) {
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  return true;
}

}  // namespace

Result<Value> SetUnion(const Value& a, const Value& b) {
  if (!a.is_set()) return NotASet("union", a);
  if (!b.is_set()) return NotASet("union", b);
  // Elements are already canonical on both sides; the merge preserves order
  // and uniqueness, so Value::Set takes the result after one O(n) check.
  return Value::Set(MergeSets(a.Elements(), b.Elements(), true, true, true));
}

Result<Value> SetIntersect(const Value& a, const Value& b) {
  if (!a.is_set()) return NotASet("intersect", a);
  if (!b.is_set()) return NotASet("intersect", b);
  return Value::Set(MergeSets(a.Elements(), b.Elements(), false, true, false));
}

Result<Value> SetDifference(const Value& a, const Value& b) {
  if (!a.is_set()) return NotASet("difference", a);
  if (!b.is_set()) return NotASet("difference", b);
  return Value::Set(MergeSets(a.Elements(), b.Elements(), true, false, false));
}

Result<Value> SetSubsetEq(const Value& a, const Value& b) {
  if (!a.is_set()) return NotASet("subseteq", a);
  if (!b.is_set()) return NotASet("subseteq", b);
  return Value::Bool(SubsetOf(a.Elements(), b.Elements()));
}

Result<Value> SetSubset(const Value& a, const Value& b) {
  if (!a.is_set()) return NotASet("subset", a);
  if (!b.is_set()) return NotASet("subset", b);
  return Value::Bool(a.NumElements() < b.NumElements() &&
                     SubsetOf(a.Elements(), b.Elements()));
}

Result<Value> SetDisjoint(const Value& a, const Value& b) {
  if (!a.is_set()) return NotASet("disjoint", a);
  if (!b.is_set()) return NotASet("disjoint", b);
  const auto& xs = a.Elements();
  const auto& ys = b.Elements();
  size_t i = 0;
  size_t j = 0;
  while (i < xs.size() && j < ys.size()) {
    const int c = xs[i].Compare(ys[j]);
    if (c == 0) return Value::Bool(false);
    if (c < 0) {
      ++i;
    } else {
      ++j;
    }
  }
  return Value::Bool(true);
}

Result<Value> UnnestSetOfSets(const Value& s) {
  if (!s.is_set()) return NotASet("UNNEST", s);
  std::vector<Value> out;
  for (const Value& inner : s.Elements()) {
    if (!inner.is_set()) {
      return Status::TypeError(
          StrCat("UNNEST requires a set of sets, found element ",
                 inner.ToString()));
    }
    out.insert(out.end(), inner.Elements().begin(), inner.Elements().end());
  }
  return Value::Set(std::move(out));
}

const TupleNames& TupleNamesMemo::NoNames() {
  static const auto& none = *new TupleNames();
  return none;
}

const TupleNames* TupleNamesMemo::Find(const TupleNames& left,
                                       const TupleNames& right) const {
  // The same lists first (a pointer compare per slot), then equal names.
  for (const std::atomic<Entry*>& slot : slots_) {
    const Entry* e = slot.load(std::memory_order_acquire);
    if (e == nullptr) break;
    if (e->left.SameList(left) && e->right.SameList(right)) return &e->out;
  }
  for (const std::atomic<Entry*>& slot : slots_) {
    const Entry* e = slot.load(std::memory_order_acquire);
    if (e == nullptr) break;
    if (e->left == left && e->right == right) return &e->out;
  }
  return nullptr;
}

TupleNames TupleNamesMemo::Insert(const TupleNames& left,
                                  const TupleNames& right, TupleNames out) {
  Entry* entry = nullptr;
  for (std::atomic<Entry*>& slot : slots_) {
    Entry* held = slot.load(std::memory_order_acquire);
    if (held == nullptr) {
      if (entry == nullptr) entry = new Entry{left, right, out};
      if (slot.compare_exchange_strong(held, entry,
                                       std::memory_order_acq_rel)) {
        return out;
      }
    }
    // Slots fill in order, so a caller that raced this one to the same
    // shape holds a slot at or before the first one free.
    if (held->left == left && held->right == right) {
      delete entry;
      return held->out;
    }
  }
  delete entry;  // every slot holds another shape: this one goes unmemoised
  return out;
}

void TupleNamesMemo::Clear() {
  for (std::atomic<Entry*>& slot : slots_) {
    delete slot.exchange(nullptr, std::memory_order_relaxed);
  }
}

Result<Value> ConcatTuples(const Value& x, const Value& y,
                           TupleNamesMemo* memo) {
  if (!x.is_tuple() || !y.is_tuple()) {
    return Status::TypeError(StrCat("tuple concatenation requires tuples, got ",
                                    x.ToString(), " and ", y.ToString()));
  }
  auto derive = [&]() -> Result<TupleNames> {
    std::vector<std::string> names;
    names.reserve(x.TupleSize() + y.TupleSize());
    names.insert(names.end(), x.FieldNames().names().begin(),
                 x.FieldNames().names().end());
    for (const std::string& name : y.FieldNames().names()) {
      if (x.FindField(name) != nullptr) {
        return Status::TypeError(
            StrCat("duplicate attribute '", name, "' in tuple concatenation"));
      }
      names.push_back(name);
    }
    return TupleNames(std::move(names));
  };
  TMDB_ASSIGN_OR_RETURN(
      TupleNames names,
      memo == nullptr ? derive()
                      : memo->Get(x.FieldNames(), y.FieldNames(), derive));
  std::vector<Value> values;
  values.reserve(x.TupleSize() + y.TupleSize());
  for (size_t i = 0; i < x.TupleSize(); ++i) values.push_back(x.FieldValue(i));
  for (size_t i = 0; i < y.TupleSize(); ++i) values.push_back(y.FieldValue(i));
  return Value::SharedTuple(std::move(names), std::move(values));
}

Result<Value> ExtendTuple(const Value& x, const std::string& label,
                          const Value& v, TupleNamesMemo* memo) {
  if (!x.is_tuple()) {
    return Status::TypeError(
        StrCat("tuple extension requires a tuple, got ", x.ToString()));
  }
  auto derive = [&]() -> Result<TupleNames> {
    if (x.FindField(label) != nullptr) {
      return Status::TypeError(StrCat("nest join label '", label,
                                      "' already occurs on the top level of ",
                                      x.ToString()));
    }
    std::vector<std::string> names;
    names.reserve(x.TupleSize() + 1);
    names.insert(names.end(), x.FieldNames().names().begin(),
                 x.FieldNames().names().end());
    names.push_back(label);
    return TupleNames(std::move(names));
  };
  TMDB_ASSIGN_OR_RETURN(
      TupleNames names,
      memo == nullptr ? derive()
                      : memo->Get(x.FieldNames(), derive));
  std::vector<Value> values;
  values.reserve(x.TupleSize() + 1);
  for (size_t i = 0; i < x.TupleSize(); ++i) values.push_back(x.FieldValue(i));
  values.push_back(v);
  return Value::SharedTuple(std::move(names), std::move(values));
}

Value NullTupleLike(const Value& proto) {
  return Value::SharedTuple(proto.FieldNames(),
                            std::vector<Value>(proto.TupleSize()));
}

Value NullTupleOfType(const Type& tuple_type) {
  std::vector<std::string> names;
  std::vector<Value> values;
  if (tuple_type.is_tuple()) {
    names.reserve(tuple_type.fields().size());
    values.reserve(tuple_type.fields().size());
    for (const Field& f : tuple_type.fields()) {
      names.push_back(f.name);
      values.push_back(Value::Null());
    }
  }
  return Value::Tuple(std::move(names), std::move(values));
}

namespace {

enum class ArithKind { kAdd, kSub, kMul, kDiv };

Result<Value> Arith(ArithKind op, const Value& a, const Value& b) {
  if (!a.is_numeric()) return NotNumeric("arithmetic", a);
  if (!b.is_numeric()) return NotNumeric("arithmetic", b);
  if (a.is_int() && b.is_int()) {
    const int64_t x = a.AsInt();
    const int64_t y = b.AsInt();
    switch (op) {
      case ArithKind::kAdd:
        return Value::Int(x + y);
      case ArithKind::kSub:
        return Value::Int(x - y);
      case ArithKind::kMul:
        return Value::Int(x * y);
      case ArithKind::kDiv:
        if (y == 0) return Status::InvalidArgument("integer division by zero");
        return Value::Int(x / y);
    }
  }
  const double x = a.AsNumeric();
  const double y = b.AsNumeric();
  switch (op) {
    case ArithKind::kAdd:
      return Value::Real(x + y);
    case ArithKind::kSub:
      return Value::Real(x - y);
    case ArithKind::kMul:
      return Value::Real(x * y);
    case ArithKind::kDiv:
      if (y == 0.0) return Status::InvalidArgument("division by zero");
      return Value::Real(x / y);
  }
  return Status::Internal("unhandled arithmetic op");
}

}  // namespace

Result<Value> NumericAdd(const Value& a, const Value& b) {
  return Arith(ArithKind::kAdd, a, b);
}
Result<Value> NumericSub(const Value& a, const Value& b) {
  return Arith(ArithKind::kSub, a, b);
}
Result<Value> NumericMul(const Value& a, const Value& b) {
  return Arith(ArithKind::kMul, a, b);
}
Result<Value> NumericDiv(const Value& a, const Value& b) {
  return Arith(ArithKind::kDiv, a, b);
}

Result<Value> NumericNeg(const Value& a) {
  if (a.is_int()) return Value::Int(-a.AsInt());
  if (a.is_real()) return Value::Real(-a.AsReal());
  return NotNumeric("negation", a);
}

Result<Value> OrderedCompare(CompareOpKind op, const Value& a,
                             const Value& b) {
  int c;
  if (a.is_numeric() && b.is_numeric()) {
    const double x = a.AsNumeric();
    const double y = b.AsNumeric();
    c = x < y ? -1 : (x > y ? 1 : 0);
  } else if (a.is_string() && b.is_string()) {
    c = a.AsString().compare(b.AsString());
  } else {
    return Status::TypeError(
        StrCat("ordered comparison requires two numerics or two strings, got ",
               a.ToString(), " and ", b.ToString()));
  }
  switch (op) {
    case CompareOpKind::kLt:
      return Value::Bool(c < 0);
    case CompareOpKind::kLe:
      return Value::Bool(c <= 0);
    case CompareOpKind::kGt:
      return Value::Bool(c > 0);
    case CompareOpKind::kGe:
      return Value::Bool(c >= 0);
  }
  return Status::Internal("unhandled comparison op");
}

namespace {

Status NotACollection(const char* agg, const Value& v) {
  return Status::TypeError(
      StrCat(agg, " requires a set or list argument, got ", v.ToString()));
}

}  // namespace

Result<Value> AggCount(const Value& collection) {
  if (!collection.is_collection()) return NotACollection("count", collection);
  return Value::Int(static_cast<int64_t>(collection.NumElements()));
}

Result<Value> AggSum(const Value& collection) {
  if (!collection.is_collection()) return NotACollection("sum", collection);
  bool any_real = false;
  int64_t int_sum = 0;
  double real_sum = 0.0;
  for (const Value& e : collection.Elements()) {
    if (!e.is_numeric()) return NotNumeric("sum", e);
    if (e.is_real()) any_real = true;
    real_sum += e.AsNumeric();
    if (e.is_int()) int_sum += e.AsInt();
  }
  if (any_real) return Value::Real(real_sum);
  return Value::Int(int_sum);
}

Result<Value> AggAvg(const Value& collection) {
  if (!collection.is_collection()) return NotACollection("avg", collection);
  if (collection.NumElements() == 0) {
    return Status::InvalidArgument("avg of an empty collection");
  }
  double sum = 0.0;
  for (const Value& e : collection.Elements()) {
    if (!e.is_numeric()) return NotNumeric("avg", e);
    sum += e.AsNumeric();
  }
  return Value::Real(sum / static_cast<double>(collection.NumElements()));
}

namespace {

Result<Value> MinMax(const Value& collection, bool want_min) {
  const char* name = want_min ? "min" : "max";
  if (!collection.is_collection()) return NotACollection(name, collection);
  if (collection.NumElements() == 0) {
    return Status::InvalidArgument(
        StrCat(name, " of an empty collection"));
  }
  const Value* best = nullptr;
  for (const Value& e : collection.Elements()) {
    if (!e.is_numeric() && !e.is_string()) {
      return Status::TypeError(
          StrCat(name, " requires numeric or string elements, got ",
                 e.ToString()));
    }
    if (best == nullptr) {
      best = &e;
      continue;
    }
    const int c = e.Compare(*best);
    if ((want_min && c < 0) || (!want_min && c > 0)) best = &e;
  }
  return *best;
}

}  // namespace

Result<Value> AggMin(const Value& collection) {
  return MinMax(collection, /*want_min=*/true);
}

Result<Value> AggMax(const Value& collection) {
  return MinMax(collection, /*want_min=*/false);
}

}  // namespace tmdb
