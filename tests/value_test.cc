#include "values/value.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "spill/value_codec.h"
#include "tests/test_util.h"
#include "values/value_mem.h"
#include "values/value_ops.h"
#include "workload/generators.h"

// Counts this thread's heap allocations while a test asks it to, so the
// rep tests can pin what each kind of value really allocates.
namespace {
thread_local bool g_counting = false;
thread_local size_t g_allocations = 0;
thread_local size_t g_allocated_bytes = 0;
}  // namespace

// The replacements hand out malloc'd memory and free it the same way.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(size_t n) {
  if (g_counting) {
    ++g_allocations;
    g_allocated_bytes += n;
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }

namespace tmdb {
namespace {

using testutil::IntSet;

TEST(ValueTest, AtomAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).AsBool(), true);
  EXPECT_EQ(Value::Int(-7).AsInt(), -7);
  EXPECT_DOUBLE_EQ(Value::Real(2.5).AsReal(), 2.5);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
  EXPECT_DOUBLE_EQ(Value::Int(3).AsNumeric(), 3.0);
}

TEST(ValueTest, SetsAreCanonicalised) {
  Value s = Value::Set({Value::Int(3), Value::Int(1), Value::Int(3),
                        Value::Int(2)});
  ASSERT_EQ(s.NumElements(), 3u);
  EXPECT_EQ(s.Element(0).AsInt(), 1);
  EXPECT_EQ(s.Element(1).AsInt(), 2);
  EXPECT_EQ(s.Element(2).AsInt(), 3);
}

TEST(ValueTest, CanonicalInputKeepsItsOrderAndSize) {
  // Strictly increasing across kinds: Set takes it as it stands.
  const std::vector<Value> input = {
      Value::Null(),       Value::Bool(false),  Value::Int(-3),
      Value::Real(0.5),    Value::Int(2),       Value::String("a"),
      Value::String("b"),  Value::Tuple({"a"}, {Value::Int(1)}),
      IntSet({1, 2}),      IntSet({3})};
  Value s = Value::Set(input);
  ASSERT_EQ(s.NumElements(), input.size());
  for (size_t i = 0; i < input.size(); ++i) {
    EXPECT_TRUE(s.Element(i).Equals(input[i])) << i;
    EXPECT_EQ(s.Element(i).kind(), input[i].kind()) << i;
  }
}

TEST(ValueTest, NonCanonicalInputStillSortsAndDedups) {
  Value reversed = Value::Set({Value::Int(5), Value::Int(4), Value::Int(3),
                               Value::Int(2), Value::Int(1)});
  ASSERT_EQ(reversed.NumElements(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(reversed.Element(i).AsInt(), static_cast<int64_t>(i) + 1);
  }
  // Sorted but with duplicates: not strictly increasing, so it dedups.
  Value dups = Value::Set({Value::Int(1), Value::Int(1), Value::Int(2),
                           Value::Int(3), Value::Int(3)});
  EXPECT_TRUE(dups.Equals(IntSet({1, 2, 3})));
  EXPECT_EQ(dups.NumElements(), 3u);
  // Int(1) and Real(1.0) compare equal, so either order is one element.
  Value mixed = Value::Set({Value::Int(1), Value::Real(1.0)});
  EXPECT_EQ(mixed.NumElements(), 1u);
  Value mixed_reversed =
      Value::Set({Value::Real(2.0), Value::Real(1.0), Value::Int(1)});
  ASSERT_EQ(mixed_reversed.NumElements(), 2u);
  EXPECT_DOUBLE_EQ(mixed_reversed.Element(0).AsNumeric(), 1.0);
  EXPECT_DOUBLE_EQ(mixed_reversed.Element(1).AsNumeric(), 2.0);
  EXPECT_TRUE(mixed_reversed.Equals(
      Value::Set({Value::Int(1), Value::Int(2)})));
  EXPECT_EQ(mixed_reversed.Hash(),
            Value::Set({Value::Int(1), Value::Int(2)}).Hash());
}

TEST(ValueTest, SetEqualityIsOrderInsensitive) {
  Value a = Value::Set({Value::Int(1), Value::Int(2)});
  Value b = Value::Set({Value::Int(2), Value::Int(1)});
  EXPECT_TRUE(a.Equals(b));
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(ValueTest, ListsPreserveOrderAndDuplicates) {
  Value l = Value::List({Value::Int(2), Value::Int(1), Value::Int(2)});
  ASSERT_EQ(l.NumElements(), 3u);
  EXPECT_EQ(l.Element(0).AsInt(), 2);
  EXPECT_FALSE(l.Equals(Value::List({Value::Int(1), Value::Int(2),
                                     Value::Int(2)})));
}

TEST(ValueTest, IntRealNumericEquality) {
  EXPECT_TRUE(Value::Int(1).Equals(Value::Real(1.0)));
  EXPECT_EQ(Value::Int(1).Hash(), Value::Real(1.0).Hash());
  EXPECT_FALSE(Value::Int(1).Equals(Value::Real(1.5)));
  // Mixed set deduplicates across kinds.
  Value s = Value::Set({Value::Int(1), Value::Real(1.0), Value::Real(2.0)});
  EXPECT_EQ(s.NumElements(), 2u);
}

TEST(ValueTest, TupleFieldAccess) {
  Value t = Value::Tuple({"a", "b"}, {Value::Int(1), Value::String("x")});
  EXPECT_EQ(t.TupleSize(), 2u);
  EXPECT_EQ(t.FieldName(0), "a");
  ASSERT_NE(t.FindField("b"), nullptr);
  EXPECT_EQ(t.FindField("b")->AsString(), "x");
  EXPECT_EQ(t.FindField("nope"), nullptr);
  TMDB_ASSERT_OK_AND_ASSIGN(Value a, t.Field("a"));
  EXPECT_EQ(a.AsInt(), 1);
  EXPECT_FALSE(t.Field("nope").ok());
}

TEST(ValueTest, TotalOrderAcrossKinds) {
  // null < bool < numeric < string < tuple < set < list.
  std::vector<Value> ordered = {
      Value::Null(),
      Value::Bool(false),
      Value::Int(5),
      Value::String("a"),
      Value::Tuple({"a"}, {Value::Int(1)}),
      Value::Set({Value::Int(1)}),
      Value::List({Value::Int(1)}),
  };
  for (size_t i = 0; i < ordered.size(); ++i) {
    for (size_t j = 0; j < ordered.size(); ++j) {
      const int c = ordered[i].Compare(ordered[j]);
      if (i < j) {
        EXPECT_LT(c, 0) << i << " vs " << j;
      } else if (i == j) {
        EXPECT_EQ(c, 0);
      } else {
        EXPECT_GT(c, 0);
      }
    }
  }
}

TEST(ValueTest, NestedStructuralEquality) {
  auto make = [] {
    return Value::Tuple(
        {"name", "kids"},
        {Value::String("e"),
         Value::Set({Value::Tuple({"age"}, {Value::Int(4)}),
                     Value::Tuple({"age"}, {Value::Int(2)})})});
  };
  EXPECT_TRUE(make().Equals(make()));
  EXPECT_EQ(make().Hash(), make().Hash());
}

TEST(ValueTest, SetContainsUsesBinarySearch) {
  std::vector<Value> elems;
  for (int i = 0; i < 100; i += 2) elems.push_back(Value::Int(i));
  Value s = Value::Set(std::move(elems));
  EXPECT_TRUE(s.Contains(Value::Int(42)));
  EXPECT_FALSE(s.Contains(Value::Int(43)));
  EXPECT_TRUE(s.Contains(Value::Real(42.0)));  // numeric equality
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Int(3).ToString(), "3");
  EXPECT_EQ(Value::Real(3.0).ToString(), "3.0");
  EXPECT_EQ(Value::String("a\"b").ToString(), "\"a\\\"b\"");
  EXPECT_EQ(Value::EmptySet().ToString(), "{}");
  EXPECT_EQ(
      Value::Tuple({"a"}, {IntSet({2, 1})}).ToString(),
      "<a = {1, 2}>");
}

TEST(TypeOfTest, DerivesNestedTypes) {
  Value v = Value::Tuple({"a", "s"},
                         {Value::Int(1), IntSet({1, 2})});
  Type t = TypeOf(v);
  ASSERT_TRUE(t.is_tuple());
  TMDB_ASSERT_OK_AND_ASSIGN(Type a, t.FieldType("a"));
  EXPECT_TRUE(a.is_int());
  TMDB_ASSERT_OK_AND_ASSIGN(Type s, t.FieldType("s"));
  ASSERT_TRUE(s.is_set());
  EXPECT_TRUE(s.element().is_int());
}

TEST(TypeOfTest, EmptySetIsSetOfAny) {
  Type t = TypeOf(Value::EmptySet());
  ASSERT_TRUE(t.is_set());
  EXPECT_TRUE(t.element().is_any());
}

TEST(ConformsToTest, Coercions) {
  EXPECT_TRUE(ConformsTo(Value::Int(1), Type::Real()));  // INT ⇒ REAL
  EXPECT_FALSE(ConformsTo(Value::Real(1.0), Type::Int()));
  EXPECT_TRUE(ConformsTo(Value::EmptySet(), Type::Set(Type::Int())));
  EXPECT_TRUE(ConformsTo(Value::Null(), Type::Int()));  // NULL conforms
  EXPECT_FALSE(ConformsTo(
      Value::Tuple({"a"}, {Value::Int(1)}),
      Type::Tuple({{"b", Type::Int()}})));
}

// ---------------------------------------------------------------- value_ops

TEST(SetOpsTest, UnionIntersectDifference) {
  Value a = IntSet({1, 2, 3});
  Value b = IntSet({2, 3, 4});
  TMDB_ASSERT_OK_AND_ASSIGN(Value u, SetUnion(a, b));
  EXPECT_TRUE(u.Equals(IntSet({1, 2, 3, 4})));
  TMDB_ASSERT_OK_AND_ASSIGN(Value i, SetIntersect(a, b));
  EXPECT_TRUE(i.Equals(IntSet({2, 3})));
  TMDB_ASSERT_OK_AND_ASSIGN(Value d, SetDifference(a, b));
  EXPECT_TRUE(d.Equals(IntSet({1})));
}

TEST(SetOpsTest, SubsetFamily) {
  Value a = IntSet({1, 2});
  Value b = IntSet({1, 2, 3});
  TMDB_ASSERT_OK_AND_ASSIGN(Value r1, SetSubsetEq(a, b));
  EXPECT_TRUE(r1.AsBool());
  TMDB_ASSERT_OK_AND_ASSIGN(Value r2, SetSubsetEq(b, a));
  EXPECT_FALSE(r2.AsBool());
  TMDB_ASSERT_OK_AND_ASSIGN(Value r3, SetSubset(a, a));
  EXPECT_FALSE(r3.AsBool());  // proper subset is irreflexive
  TMDB_ASSERT_OK_AND_ASSIGN(Value r4, SetSubsetEq(a, a));
  EXPECT_TRUE(r4.AsBool());
  // ∅ is a subset of everything — the crux of the SUBSETEQ bug.
  TMDB_ASSERT_OK_AND_ASSIGN(Value r5, SetSubsetEq(Value::EmptySet(), a));
  EXPECT_TRUE(r5.AsBool());
  TMDB_ASSERT_OK_AND_ASSIGN(Value r6,
                            SetSubsetEq(Value::EmptySet(), Value::EmptySet()));
  EXPECT_TRUE(r6.AsBool());
}

TEST(SetOpsTest, Disjoint) {
  TMDB_ASSERT_OK_AND_ASSIGN(Value r1, SetDisjoint(IntSet({1, 2}), IntSet({3})));
  EXPECT_TRUE(r1.AsBool());
  TMDB_ASSERT_OK_AND_ASSIGN(Value r2,
                            SetDisjoint(IntSet({1, 2}), IntSet({2, 3})));
  EXPECT_FALSE(r2.AsBool());
}

TEST(SetOpsTest, UnnestSetOfSets) {
  Value s = Value::Set({IntSet({1, 2}), IntSet({2, 3}), Value::EmptySet()});
  TMDB_ASSERT_OK_AND_ASSIGN(Value flat, UnnestSetOfSets(s));
  EXPECT_TRUE(flat.Equals(IntSet({1, 2, 3})));
  EXPECT_FALSE(UnnestSetOfSets(IntSet({1})).ok());
}

TEST(TupleOpsTest, ConcatAndExtend) {
  Value x = Value::Tuple({"a"}, {Value::Int(1)});
  Value y = Value::Tuple({"b"}, {Value::Int(2)});
  TMDB_ASSERT_OK_AND_ASSIGN(Value xy, ConcatTuples(x, y));
  EXPECT_EQ(xy.TupleSize(), 2u);
  EXPECT_FALSE(ConcatTuples(x, x).ok());  // duplicate attribute

  TMDB_ASSERT_OK_AND_ASSIGN(Value ext, ExtendTuple(x, "grp", IntSet({5})));
  TMDB_ASSERT_OK_AND_ASSIGN(Value grp, ext.Field("grp"));
  EXPECT_TRUE(grp.Equals(IntSet({5})));
  // Label already on the top level → error (paper's side condition).
  EXPECT_FALSE(ExtendTuple(x, "a", IntSet({5})).ok());
}

TEST(ArithmeticTest, IntAndRealPromotion) {
  TMDB_ASSERT_OK_AND_ASSIGN(Value i, NumericAdd(Value::Int(2), Value::Int(3)));
  EXPECT_TRUE(i.is_int());
  EXPECT_EQ(i.AsInt(), 5);
  TMDB_ASSERT_OK_AND_ASSIGN(Value r,
                            NumericMul(Value::Int(2), Value::Real(1.5)));
  EXPECT_TRUE(r.is_real());
  EXPECT_DOUBLE_EQ(r.AsReal(), 3.0);
  EXPECT_FALSE(NumericDiv(Value::Int(1), Value::Int(0)).ok());
  EXPECT_FALSE(NumericAdd(Value::Int(1), Value::String("x")).ok());
}

TEST(AggregateTest, CountSumAvgMinMax) {
  Value s = IntSet({4, 1, 3});
  TMDB_ASSERT_OK_AND_ASSIGN(Value c, AggCount(s));
  EXPECT_EQ(c.AsInt(), 3);
  TMDB_ASSERT_OK_AND_ASSIGN(Value sum, AggSum(s));
  EXPECT_EQ(sum.AsInt(), 8);
  TMDB_ASSERT_OK_AND_ASSIGN(Value avg, AggAvg(s));
  EXPECT_DOUBLE_EQ(avg.AsReal(), 8.0 / 3.0);
  TMDB_ASSERT_OK_AND_ASSIGN(Value mn, AggMin(s));
  EXPECT_EQ(mn.AsInt(), 1);
  TMDB_ASSERT_OK_AND_ASSIGN(Value mx, AggMax(s));
  EXPECT_EQ(mx.AsInt(), 4);
}

TEST(AggregateTest, EmptyCollectionBehaviour) {
  // count(∅) = 0 is exactly what makes the COUNT bug observable.
  TMDB_ASSERT_OK_AND_ASSIGN(Value c, AggCount(Value::EmptySet()));
  EXPECT_EQ(c.AsInt(), 0);
  TMDB_ASSERT_OK_AND_ASSIGN(Value s, AggSum(Value::EmptySet()));
  EXPECT_EQ(s.AsInt(), 0);
  EXPECT_FALSE(AggAvg(Value::EmptySet()).ok());
  EXPECT_FALSE(AggMin(Value::EmptySet()).ok());
  EXPECT_FALSE(AggMax(Value::EmptySet()).ok());
}

TEST(AggregateTest, MinMaxOnStrings) {
  Value s = Value::Set({Value::String("b"), Value::String("a")});
  TMDB_ASSERT_OK_AND_ASSIGN(Value mn, AggMin(s));
  EXPECT_EQ(mn.AsString(), "a");
}

TEST(NullPaddingTest, NullTupleOfType) {
  Type t = Type::Tuple({{"a", Type::Int()}, {"b", Type::String()}});
  Value padded = NullTupleOfType(t);
  EXPECT_EQ(padded.TupleSize(), 2u);
  EXPECT_TRUE(padded.FieldValue(0).is_null());
  EXPECT_TRUE(padded.FieldValue(1).is_null());
}

// ------------------------------------------------------ per-kind reps

struct Allocations {
  size_t count = 0;
  size_t bytes = 0;
  int64_t charged = 0;  // ValueMemory bytes the allocations were charged
};

/// What `build()` allocates and charges. The values it builds stay alive
/// in `keep` (reserved up front), so no allocation is elided or freed
/// before it is counted.
template <typename Build>
Allocations Measure(std::vector<Value>* keep, Build build) {
  keep->reserve(keep->size() + 4);
  ValueMemory::EnableTracking();
  const int64_t before = ValueMemory::LiveBytes();
  g_allocations = 0;
  g_allocated_bytes = 0;
  g_counting = true;
  build(keep);
  g_counting = false;
  Allocations a{g_allocations, g_allocated_bytes,
                ValueMemory::LiveBytes() - before};
  ValueMemory::DisableTracking();
  return a;
}

TEST(ValueRepTest, EachKindAllocatesOnlyItsOwnPayload) {
  std::vector<Value> keep;
  // NULL, a Bool, an Int or a Real lives in the handle: building, copying
  // and dropping one allocates and charges nothing.
  const Allocations scalars = Measure(&keep, [](std::vector<Value>* k) {
    k->push_back(Value::Null());
    k->push_back(Value::Bool(true));
    k->push_back(Value::Int(7));
    k->push_back(Value::Real(2.5));
  });
  EXPECT_EQ(scalars.count, 0u);
  EXPECT_EQ(scalars.charged, 0);
  const Allocations copies = Measure(&keep, [](std::vector<Value>* k) {
    std::vector<Value> slots(4);
    for (size_t n = 0; n < 4; ++n) {
      Value copy = (*k)[n];
      slots[n] = copy;
      slots[n] = std::move(copy);
    }
  });
  EXPECT_EQ(copies.count, 1u);  // the vector's slots and nothing else
  EXPECT_EQ(copies.bytes, 4 * sizeof(Value));
  EXPECT_EQ(copies.charged, 0);
  // The empty set is a shared singleton.
  const Allocations singleton = Measure(&keep, [](std::vector<Value>* k) {
    k->push_back(Value::EmptySet());
  });
  EXPECT_EQ(singleton.count, 0u);
  EXPECT_EQ(singleton.charged, 0);
  // A short string lives in its rep; a long one adds its buffer.
  const Allocations short_string = Measure(
      &keep, [](std::vector<Value>* k) { k->push_back(Value::String("hi")); });
  EXPECT_EQ(short_string.count, 1u);
  EXPECT_LE(short_string.bytes, 64u);
  // A tuple over a shared names list is its rep plus its value slots; the
  // list itself is not copied.
  const TupleNames names({"a", "b"});
  std::vector<Value> fields = {Value::Int(1), Value::Int(2)};
  const Allocations tuple = Measure(&keep, [&](std::vector<Value>* k) {
    k->push_back(Value::SharedTuple(names, fields));
  });
  EXPECT_EQ(tuple.count, 2u);
  EXPECT_LE(tuple.bytes, 72u + 2 * sizeof(Value));
}

TEST(ValueRepTest, TrackingChargesWhatIsReallyAllocated) {
  std::vector<Value> keep;
  const TupleNames names({"a", "b"});
  std::vector<Value> fields = {Value::Int(1), Value::Int(2)};
  std::vector<Value> elements = {Value::Int(1), Value::Int(2), Value::Int(3)};
  const std::vector<std::function<void(std::vector<Value>*)>> builds = {
      [](std::vector<Value>* k) { k->push_back(Value::Null()); },
      [](std::vector<Value>* k) { k->push_back(Value::Bool(false)); },
      [](std::vector<Value>* k) { k->push_back(Value::Int(7)); },
      [](std::vector<Value>* k) { k->push_back(Value::Real(-0.0)); },
      [](std::vector<Value>* k) { k->push_back(Value::EmptySet()); },
      [](std::vector<Value>* k) { k->push_back(Value::String("hi")); },
      [](std::vector<Value>* k) {
        k->push_back(Value::String(std::string(100, 'x')));
      },
      [&](std::vector<Value>* k) {
        k->push_back(Value::SharedTuple(names, fields));
      },
      [&](std::vector<Value>* k) { k->push_back(Value::Set(elements)); },
      [&](std::vector<Value>* k) { k->push_back(Value::List(elements)); },
  };
  for (size_t b = 0; b < builds.size(); ++b) {
    const Allocations a = Measure(&keep, builds[b]);
    EXPECT_EQ(a.charged, static_cast<int64_t>(a.bytes)) << "build " << b;
  }
  // A names list charges its own allocations once, when built: its rep,
  // the names' slots and heap buffers, and their hashes.
  TupleNames built;
  const Allocations list = Measure(&keep, [&](std::vector<Value>*) {
    std::vector<std::string> names;
    names.reserve(2);
    names.emplace_back("first");
    names.emplace_back("a_name_longer_than_the_small_string_buffer");
    built = TupleNames(std::move(names));
  });
  EXPECT_EQ(list.charged, static_cast<int64_t>(list.bytes));
}

TEST(ValueRepTest, CopyMoveAndSelfAssignmentKeepEveryKindIntact) {
  const std::vector<Value> samples = {
      Value::Null(),
      Value::Bool(true),
      Value::Int(-42),
      Value::Real(2.5),
      Value::String(std::string(40, 's')),
      Value::Tuple({"a", "b"}, {Value::Int(1), Value::String("x")}),
      Value::Set({Value::Int(3), Value::Int(1)}),
      Value::EmptySet(),
      Value::List({Value::Real(1.5), Value::Null()}),
  };
  ValueMemory::EnableTracking();
  const int64_t baseline = ValueMemory::LiveBytes();
  for (const Value& sample : samples) {
    SCOPED_TRACE(sample.ToString());
    const std::string text = sample.ToString();
    const uint64_t hash = sample.Hash();
    Value copy = sample;
    EXPECT_EQ(copy.kind(), sample.kind());
    EXPECT_TRUE(copy.Equals(sample));
    // Self-assignment, by copy and by move, leaves the value as it was.
    Value& alias = copy;
    copy = alias;
    EXPECT_EQ(copy.ToString(), text);
    copy = std::move(alias);
    EXPECT_EQ(copy.ToString(), text);
    EXPECT_EQ(copy.Hash(), hash);
    // Moving leaves NULL behind, which can be assigned again.
    Value moved = std::move(copy);
    EXPECT_EQ(moved.ToString(), text);
    EXPECT_TRUE(copy.is_null());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(copy.ToString(), "NULL");
    copy = moved;
    EXPECT_TRUE(copy.Equals(sample));
    Value assigned = Value::String("replaced");
    assigned = std::move(moved);
    EXPECT_TRUE(moved.is_null());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(assigned.ToString(), text);
    assigned = Value::Int(1);
    EXPECT_EQ(assigned.AsInt(), 1);
  }
  // Nothing built above outlives its handles.
  EXPECT_EQ(ValueMemory::LiveBytes(), baseline);

  // A names list follows the same rules.
  {
    TupleNames names({"a", "b"});
    TupleNames copy = names;
    EXPECT_TRUE(copy.SameList(names));
    TupleNames& alias = copy;
    copy = alias;
    copy = std::move(alias);
    EXPECT_TRUE(copy.SameList(names));
    TupleNames moved = std::move(copy);
    EXPECT_TRUE(moved.SameList(names));
    copy = moved;  // a moved-from handle can be assigned again
    EXPECT_TRUE(copy.SameList(names));
    EXPECT_EQ(copy[1], "b");
    EXPECT_GT(ValueMemory::LiveBytes(), baseline);
  }
  EXPECT_EQ(ValueMemory::LiveBytes(), baseline);
  ValueMemory::DisableTracking();
}

TEST(ValueRepTest, ThreadsCopyAndDropSharedRepsSafely) {
  // Four threads copy and drop handles to one string, tuple and set, whose
  // reference counts they share; the reps must outlive every copy and go
  // exactly once, when the last handle does.
  ValueMemory::EnableTracking();
  const int64_t baseline = ValueMemory::LiveBytes();
  {
    std::vector<Value> shared = {
        Value::String(std::string(64, 'q')),
        Value::Tuple({"k", "v"}, {Value::Int(7), Value::String("seven")}),
        Value::Set({Value::String("a"), Value::String("b"), Value::Int(1)}),
    };
    std::vector<uint64_t> hashes;
    for (const Value& v : shared) hashes.push_back(v.Hash());
    std::vector<std::thread> threads;
    std::vector<int> wrong(4, 0);
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        std::vector<Value> held;
        for (int i = 0; i < 20000; ++i) {
          const size_t which = static_cast<size_t>(i + t) % shared.size();
          held.push_back(shared[which]);
          Value moved = std::move(held.back());
          held.back() = moved;
          if (moved.Hash() != hashes[which]) ++wrong[t];
          if (held.size() == 16) held.clear();
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < 4; ++t) EXPECT_EQ(wrong[t], 0) << "thread " << t;
    EXPECT_EQ(shared[0].AsString(), std::string(64, 'q'));
    EXPECT_EQ(shared[1].ToString(), "<k = 7, v = \"seven\">");
    EXPECT_EQ(shared[2].NumElements(), 3u);
    EXPECT_GT(ValueMemory::LiveBytes(), baseline);
  }
  EXPECT_EQ(ValueMemory::LiveBytes(), baseline);
  ValueMemory::DisableTracking();
}

TEST(ValueRepTest, TuplesOfOneShapeShareOneNamesList) {
  // Rows of one generated table share its list.
  Database db;
  CountBugConfig config;
  config.num_r = 20;
  config.num_s = 40;
  TMDB_ASSERT_OK(LoadCountBugTables(&db, config));
  // One tuple constructor: every row it builds holds the same list.
  TMDB_ASSERT_OK_AND_ASSIGN(
      QueryResult built, db.Run("SELECT (a = x.a, c = x.c) FROM R x"));
  ASSERT_GE(built.rows.size(), 2u);
  for (const Value& row : built.rows) {
    EXPECT_TRUE(row.FieldNames().SameList(built.rows[0].FieldNames()));
  }
  // The nest join's output: x ++ (label = set), one list per left shape.
  TMDB_ASSERT_OK_AND_ASSIGN(
      QueryResult nested,
      db.Run("SELECT (a = x.a, zs = SELECT y.d FROM S y WHERE x.c = y.c) "
             "FROM R x"));
  ASSERT_GE(nested.rows.size(), 2u);
  for (const Value& row : nested.rows) {
    EXPECT_TRUE(row.FieldNames().SameList(nested.rows[0].FieldNames()));
  }
  // ExtendTuple and ConcatTuples with a memo: one output list per input
  // shape, equal lists included.
  TupleNamesMemo memo;
  const Value x1 = testutil::IntRow({"a"}, {1});
  const Value x2 = testutil::IntRow({"a"}, {2});  // its own, equal list
  TMDB_ASSERT_OK_AND_ASSIGN(Value e1, ExtendTuple(x1, "g", IntSet({1}), &memo));
  TMDB_ASSERT_OK_AND_ASSIGN(Value e2, ExtendTuple(x2, "g", IntSet({2}), &memo));
  EXPECT_TRUE(e1.FieldNames().SameList(e2.FieldNames()));
  EXPECT_EQ(e1.ToString(), "<a = 1, g = {1}>");
  TupleNamesMemo concat_memo;
  const Value y = testutil::IntRow({"b"}, {3});
  TMDB_ASSERT_OK_AND_ASSIGN(Value c1, ConcatTuples(x1, y, &concat_memo));
  TMDB_ASSERT_OK_AND_ASSIGN(Value c2, ConcatTuples(x2, y, &concat_memo));
  EXPECT_TRUE(c1.FieldNames().SameList(c2.FieldNames()));
  EXPECT_FALSE(ConcatTuples(x1, x2, &concat_memo).ok());  // duplicate 'a'
  // A decoded stream: equal names at one depth share the previous list.
  std::string bytes;
  EncodeValue(built.rows[0], &bytes);
  EncodeValue(built.rows[1], &bytes);
  ValueDecoder decoder;
  size_t pos = 0;
  Value d1;
  Value d2;
  TMDB_ASSERT_OK(decoder.Decode(bytes, &pos, &d1));
  TMDB_ASSERT_OK(decoder.Decode(bytes, &pos, &d2));
  EXPECT_TRUE(d1.FieldNames().SameList(d2.FieldNames()));
  EXPECT_TRUE(d1.Equals(built.rows[0]));
  EXPECT_TRUE(d2.Equals(built.rows[1]));
}

TEST(ValueRepTest, NamesMemoServesConcurrentLookups) {
  // Parallel probes share one operator's memo. More input shapes than it
  // has slots, each as several equal lists, from four threads at once:
  // every output must carry its own input's names plus the label.
  std::vector<Value> inputs;
  for (int shape = 0; shape < 6; ++shape) {
    for (int copy = 0; copy < 3; ++copy) {
      inputs.push_back(testutil::IntRow(
          {"a" + std::to_string(shape), "b"}, {shape, copy}));
    }
  }
  TupleNamesMemo memo;
  std::vector<std::thread> threads;
  std::vector<int> wrong(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        const Value& x = inputs[(i * 7 + t) % inputs.size()];
        Result<Value> out = ExtendTuple(x, "g", Value::EmptySet(), &memo);
        if (!out.ok() || out->TupleSize() != 3 ||
            out->FieldName(0) != x.FieldName(0) || out->FieldName(2) != "g") {
          ++wrong[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(wrong[t], 0) << "thread " << t;
}

/// One corpus value with what it must render, encode and hash to: the
/// figures the single-rep layout produced, pinned so the per-kind reps and
/// shared names lists change none of them.
struct Expected {
  const char* text;
  const char* encoding;  // EncodeValue bytes, hex
  uint64_t hash;
};

std::vector<Value> Corpus() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return {
      Value::Null(),
      Value::Bool(false),
      Value::Bool(true),
      Value::Int(0),
      Value::Int(-7),
      Value::Int(1),
      Value::Real(1.0),
      Value::Real(-0.0),
      Value::Real(0.0),
      Value::Real(nan),
      Value::Real(2.5),
      Value::Int(9007199254740993),
      Value::String(""),
      Value::String("a\"b"),
      Value::EmptySet(),
      Value::Set({Value::Int(3), Value::Real(2.5), Value::Int(1)}),
      Value::Set({Value::Int(1), Value::Real(1.0)}),
      Value::List({Value::Int(1), Value::Int(1)}),
      Value::List({}),
      Value::Tuple({"a", "b"}, {Value::Int(1), Value::String("x")}),
      Value::Tuple({"b"}, {Value::Int(1)}),
      Value::Set(
          {Value::Tuple({"a", "b"}, {Value::Int(2), Value::String("y")}),
           Value::Tuple({"a", "b"}, {Value::Int(1), Value::String("x")})}),
      Value::Tuple(
          {"dept", "emps", "none"},
          {Value::String("toys"),
           Value::Set({Value::Tuple({"name"}, {Value::String("bob")}),
                       Value::Tuple({"name"}, {Value::String("ann")})}),
           Value::EmptySet()}),
  };
}

std::string Hex(const std::string& bytes) {
  std::string out;
  char buf[4];
  for (unsigned char c : bytes) {
    std::snprintf(buf, sizeof buf, "%02x", c);
    out += buf;
  }
  return out;
}

TEST(ValueRepTest, CorpusRendersEncodesHashesAndOrdersAsPinned) {
  const Expected expected[] = {
      {"NULL", "00", 0x000000006e756c6cULL},
      {"false", "01", 0x0000000066616c73ULL},
      {"true", "02", 0x0000000074727565ULL},
      {"0", "0300", 0x7c93dc55213f6da2ULL},
      {"-7", "030d", 0x7c8704552135273eULL},
      {"1", "0302", 0x7a3def551f43981bULL},
      {"1.0", "04000000000000f03f", 0x7a3def551f43981bULL},
      {"-0.0", "040000000000000080", 0x7c93dc55213f6da2ULL},
      {"0.0", "040000000000000000", 0x7c93dc55213f6da2ULL},
      {"nan", "04000000000000f87f", 0x7a58af551f59f313ULL},
      {"2.5", "040000000000000440", 0x7ca1b455214b6706ULL},
      {"9007199254740993", "038280808080808020", 0x7bba9b5520870e6fULL},
      {"\"\"", "0500", 0xcbf29ce4f7565114ULL},
      {"\"a\\\"b\"", "0503612262", 0x00f8cb82306450efULL},
      {"{}", "0700", 0x9e3780efaea79776ULL},
      {"{1, 2.5, 3}", "070303020400000000000004400306",
       0x810e8306249e3284ULL},
      {"{1}", "07010302", 0x179650d96f3abe63ULL},
      {"[1, 1]", "080203020302", 0x688f7acf4dfff5a2ULL},
      {"[]", "0800", 0x000000006c697374ULL},
      {"<a = 1, b = \"x\">", "0602016103020162050178",
       0xdc1f6e715697365eULL},
      {"<b = 1>", "060101620302", 0x9ec890df78b827d6ULL},
      {"{<a = 1, b = \"x\">, <a = 2, b = \"y\">}",
       "070206020161030201620501780602016103040162050179",
       0xe8a0317915c725e1ULL},
      {"<dept = \"toys\", emps = {<name = \"ann\">, <name = \"bob\">}, "
       "none = {}>",
       "060304646570740504746f797304656d707307020601046e616d650503616e6e06"
       "01046e616d650503626f62046e6f6e650700",
       0x70bbfde8635fa253ULL},
  };
  // Compare(corpus[i], corpus[j]) as '-', '0' or '+'. NaN compares equal
  // to every number: CompareDoubles finds it neither less nor greater.
  const char* order[] = {
      "0----------------------", "+0---------------------",
      "++0--------------------", "+++0+--000-------------",
      "+++-0----0-------------", "+++++00++0-------------",
      "+++++00++0-------------", "+++0+--000-------------",
      "+++0+--000-------------", "+++000000000-----------",
      "+++++++++00------------", "+++++++++0+0-----------",
      "++++++++++++0----------", "+++++++++++++0---------",
      "++++++++++++++0----++-+", "+++++++++++++++0+--++-+",
      "+++++++++++++++-0--++-+", "+++++++++++++++++0+++++",
      "+++++++++++++++++-0++++", "++++++++++++++-----0---",
      "++++++++++++++-----+0--", "+++++++++++++++++--++0+",
      "++++++++++++++-----++-0",
  };
  const std::vector<Value> corpus = Corpus();
  ASSERT_EQ(corpus.size(), std::size(expected));
  ASSERT_EQ(corpus.size(), std::size(order));
  for (size_t i = 0; i < corpus.size(); ++i) {
    SCOPED_TRACE(expected[i].text);
    EXPECT_EQ(corpus[i].ToString(), expected[i].text);
    std::string bytes;
    EncodeValue(corpus[i], &bytes);
    EXPECT_EQ(Hex(bytes), expected[i].encoding);
    EXPECT_EQ(corpus[i].Hash(), expected[i].hash);
    // Decoding gives back an equal value that encodes to the same bytes.
    size_t pos = 0;
    Value decoded;
    TMDB_ASSERT_OK(DecodeValue(bytes, &pos, &decoded));
    std::string again;
    EncodeValue(decoded, &again);
    EXPECT_EQ(again, bytes);
    EXPECT_EQ(decoded.Hash(), expected[i].hash);
    std::string row;
    for (size_t j = 0; j < corpus.size(); ++j) {
      const int c = corpus[i].Compare(corpus[j]);
      row += c < 0 ? '-' : (c > 0 ? '+' : '0');
    }
    EXPECT_EQ(row, order[i]);
  }
}

TEST(ValueRepTest, LiveBytesReturnToBaselineOncePinnedListsGo) {
  ValueMemory::EnableTracking();
  const int64_t baseline = ValueMemory::LiveBytes();
  {
    // The list outlives its first tuple: the second keeps it charged.
    Value first;
    Value second;
    {
      const TupleNames names({"a", "b"});
      first = Value::SharedTuple(names, {Value::Int(1), Value::Int(2)});
      second = Value::SharedTuple(names, {Value::Int(3), Value::Int(4)});
    }
    const int64_t both = ValueMemory::LiveBytes();
    first = Value();
    const int64_t one = ValueMemory::LiveBytes();
    EXPECT_LT(one, both);
    // What is left is the second tuple, its values and the list.
    std::vector<Value> keep;
    const Allocations alone = Measure(&keep, [](std::vector<Value>* k) {
      k->push_back(Value::SharedTuple(TupleNames({"a", "b"}),
                                      {Value::Int(3), Value::Int(4)}));
    });
    EXPECT_EQ(one - baseline, alone.charged);
  }
  EXPECT_EQ(ValueMemory::LiveBytes(), baseline);
  ValueMemory::DisableTracking();

  // A budgeted, spilling query: once its rows go, every byte it charged is
  // refunded — the join's and the decoder's shared lists included.
  Database db;
  CountBugConfig config;
  config.num_r = 120;
  config.num_s = 240;
  TMDB_ASSERT_OK(LoadCountBugTables(&db, config));
  const int64_t before = ValueMemory::LiveBytes();
  {
    RunOptions options;
    options.memory_budget_bytes = 48 << 10;
    options.enable_spill = true;
    TMDB_ASSERT_OK_AND_ASSIGN(
        QueryResult result,
        db.Run("UNNEST(SELECT (SELECT (a = x.a, d = y.d) FROM S y "
               "WHERE x.c = y.c) FROM R x)",
               options));
    EXPECT_GT(result.stats.spill_partitions, 0u);
    EXPECT_GT(ValueMemory::LiveBytes(), before);
  }
  EXPECT_EQ(ValueMemory::LiveBytes(), before);
}

}  // namespace
}  // namespace tmdb
