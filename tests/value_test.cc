#include "values/value.h"

#include <gtest/gtest.h>

#include <vector>

#include "tests/test_util.h"
#include "values/value_ops.h"

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

}  // namespace
}  // namespace tmdb
