#ifndef TMDB_VALUES_VALUE_OPS_H_
#define TMDB_VALUES_VALUE_OPS_H_

#include <array>
#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "base/result.h"
#include "values/value.h"

namespace tmdb {

/// Operations on complex-object values. All set operations exploit the
/// canonical (sorted, duplicate-free) representation, so union/intersect/
/// difference/subset are linear merges rather than quadratic scans.

/// a ∪ b. Both operands must be sets.
Result<Value> SetUnion(const Value& a, const Value& b);
/// a ∩ b.
Result<Value> SetIntersect(const Value& a, const Value& b);
/// a − b.
Result<Value> SetDifference(const Value& a, const Value& b);
/// a ⊆ b.
Result<Value> SetSubsetEq(const Value& a, const Value& b);
/// a ⊂ b (proper subset).
Result<Value> SetSubset(const Value& a, const Value& b);
/// True iff a ∩ b = ∅ (without materialising the intersection).
Result<Value> SetDisjoint(const Value& a, const Value& b);

/// UNNEST(S) = ∪{ s | s ∈ S }: collapses a set of sets (Section 5 of the
/// paper — the one SELECT-nesting that avoids grouping).
Result<Value> UnnestSetOfSets(const Value& s);

/// The attribute lists one operator derives for its output tuples — x ++ y,
/// x ++ (label = v), x less an attribute — built once per input shape and
/// shared by every output tuple of that shape, so a join emitting n rows
/// builds one names list, not n. Keyed by the input lists (the same list,
/// or failing that equal names); the derivation itself is the caller's, so
/// one memo serves one derivation (one label, one dropped attribute).
///
/// Lookups are lock-free and safe from an operator's parallel workers;
/// Clear() is not, so call it between runs (Open/Close). It holds a few
/// input shapes; a tuple of a further shape gets a list of its own, as
/// without the memo.
class TupleNamesMemo {
 public:
  TupleNamesMemo() = default;
  ~TupleNamesMemo() { Clear(); }
  TupleNamesMemo(const TupleNamesMemo&) = delete;
  TupleNamesMemo& operator=(const TupleNamesMemo&) = delete;

  /// The list derived from (left, right): the memoised one, or `derive()`'s,
  /// which is memoised while a slot is free. Callers that miss at once all
  /// get the one list that was memoised first.
  template <typename Derive>
  Result<TupleNames> Get(const TupleNames& left, const TupleNames& right,
                         Derive&& derive) {
    if (const TupleNames* hit = Find(left, right)) return *hit;
    TMDB_ASSIGN_OR_RETURN(TupleNames out, derive());
    return Insert(left, right, std::move(out));
  }
  /// The one-input form: the list derived from `in` alone.
  template <typename Derive>
  Result<TupleNames> Get(const TupleNames& in, Derive&& derive) {
    return Get(in, NoNames(), derive);
  }

  /// Drops every memoised list.
  void Clear();

 private:
  struct Entry {
    TupleNames left;
    TupleNames right;
    TupleNames out;
  };
  static constexpr size_t kSlots = 4;

  /// The absent right-hand list of a one-input derivation: one shared
  /// handle, so a lookup copies no reference count.
  static const TupleNames& NoNames();
  const TupleNames* Find(const TupleNames& left,
                         const TupleNames& right) const;
  /// Memoises `out` in the first free slot and returns it, or returns the
  /// list another caller memoised for (left, right) meanwhile.
  TupleNames Insert(const TupleNames& left, const TupleNames& right,
                    TupleNames out);

  std::array<std::atomic<Entry*>, kSlots> slots_{};
};

/// Concatenation x ++ y of two tuples (the regular join's output tuple).
/// Attribute names must be disjoint. With a memo, tuples of one pair of
/// shapes share one output names list.
Result<Value> ConcatTuples(const Value& x, const Value& y,
                           TupleNamesMemo* memo = nullptr);

/// x ++ (label = v): the nest join's output tuple (paper Section 6). A memo
/// must only ever see one label.
Result<Value> ExtendTuple(const Value& x, const std::string& label,
                          const Value& v, TupleNamesMemo* memo = nullptr);

/// A tuple with the same attributes as `proto` but every attribute NULL.
/// Used by the outerjoin to pad dangling tuples (Ganski–Wong baseline).
Value NullTupleLike(const Value& proto);
Value NullTupleOfType(const Type& tuple_type);

/// Arithmetic. Int op Int stays Int (Div by zero is an error); any Real
/// operand promotes to Real.
Result<Value> NumericAdd(const Value& a, const Value& b);
Result<Value> NumericSub(const Value& a, const Value& b);
Result<Value> NumericMul(const Value& a, const Value& b);
Result<Value> NumericDiv(const Value& a, const Value& b);
Result<Value> NumericNeg(const Value& a);

/// Ordered comparison (<, <=, >, >=) over numerics and strings.
enum class CompareOpKind { kLt, kLe, kGt, kGe };
Result<Value> OrderedCompare(CompareOpKind op, const Value& a, const Value& b);

/// Aggregate functions over a collection value. count works on any
/// collection; sum/avg require numeric elements; min/max require numeric or
/// string elements. For empty input: count = 0, sum = 0, min/max/avg are an
/// InvalidArgument error (the paper's queries only apply them via nest join
/// groups where the caller decides; count-on-empty = 0 is exactly the COUNT
/// bug's crux and is well-defined).
Result<Value> AggCount(const Value& collection);
Result<Value> AggSum(const Value& collection);
Result<Value> AggAvg(const Value& collection);
Result<Value> AggMin(const Value& collection);
Result<Value> AggMax(const Value& collection);

}  // namespace tmdb

#endif  // TMDB_VALUES_VALUE_OPS_H_
