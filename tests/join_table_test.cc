// JoinTable, the one hash table of the hash join and of ν/ν*: one slot per
// distinct key, each slot's rows in input order, keyed by one raw word when
// the data allows and by the composite key Value otherwise. Covers slot
// order under serial and morsel-parallel builds, the Value encoding's
// Int/Real equality, the raw f64 word's -0.0/NaN rules, the mid-build
// switch from raw to Value keys, the guard charge (no per-row key), a
// failed build handing its rows back untouched, the shared per-slot sets,
// and ν's key semantics run through NestOp: Int(1) and Real(1.0) form one
// group, NULL keys form one group, ν* turns an all-padding group into ∅,
// and groups come out in first-occurrence order at every thread count.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/basic_ops.h"
#include "exec/columnar.h"
#include "exec/exec_context.h"
#include "exec/executor.h"
#include "exec/join_table.h"
#include "exec/nest_op.h"
#include "exec/parallel_util.h"
#include "exec/query_guard.h"
#include "sched/scheduler.h"
#include "tests/test_util.h"

namespace tmdb {
namespace {

/// One build row (j = key, w = position) and the key expression y.j.
class JoinTableTest : public ::testing::Test {
 protected:
  static Value Row(Value key, int64_t w) {
    return Value::Tuple({"j", "w"}, {std::move(key), Value::Int(w)});
  }

  /// The composite key the Value encoding stores for key `v`.
  static Value Key(Value v) { return Value::List({std::move(v)}); }

  static FastKeySpec Spec(FastKeySpec::Kind kind) {
    FastKeySpec spec;
    spec.kind = kind;
    spec.left_field = "k";
    spec.right_field = "j";
    return spec;
  }

  /// A context charging `guard_` under `budget` (0 = unlimited), parallel
  /// when `threads` > 1.
  ExecContext Context(int threads, uint64_t budget = 0) {
    GuardLimits limits;
    limits.memory_budget_bytes = budget;
    guard_.Reset(limits, &stats_, nullptr);
    sched_ = threads > 1 ? std::make_unique<QuerySched>(threads) : nullptr;
    ExecContext ctx;
    ctx.stats = &stats_;
    ctx.guard = &guard_;
    ctx.sched = sched_.get();
    ctx.num_threads = threads;
    return ctx;
  }

  /// The `w` column of `slot`'s rows, in chain order.
  static std::vector<int64_t> SlotRows(const JoinTable& table,
                                       uint32_t slot) {
    std::vector<int64_t> out;
    for (uint32_t j = table.first(slot); j != JoinTable::kNone;
         j = table.next(j)) {
      out.push_back(table.row(j).FindField("w")->AsInt());
    }
    return out;
  }

  Expr var_ = Expr::Var("y", Type::Tuple({{"j", Type::Real()},
                                          {"w", Type::Int()}}));
  std::vector<Expr> keys_ = {Expr::Must(Expr::Field(var_, "j"))};
  std::string name_ = "y";
  ExecStats stats_;
  QueryGuard guard_;
  std::unique_ptr<QuerySched> sched_;
};

TEST_F(JoinTableTest, SlotsKeepBuildOrderSerialAndParallel) {
  // 3000 rows over 7 keys: three morsels in a parallel build, each seeing
  // every key, so the shared slots are stitched from several morsels.
  const FastKeySpec spec = Spec(FastKeySpec::Kind::kI64);
  const FastKeySpec* const encodings[] = {&spec, nullptr};
  for (const FastKeySpec* raw : encodings) {
    for (int threads : {1, 2, 4}) {
      SCOPED_TRACE(std::string(raw != nullptr ? "raw" : "value") +
                   " threads=" + std::to_string(threads));
      std::vector<Value> rows;
      for (int64_t i = 0; i < 3000; ++i) {
        rows.push_back(Row(Value::Int(i % 7), i));
      }
      ExecContext ctx = Context(threads);
      JoinTable table(keys_, name_, raw);
      table.Reset(&guard_);
      TMDB_ASSERT_OK(table.Build(&ctx, &rows));
      EXPECT_EQ(table.raw(), raw != nullptr);
      EXPECT_EQ(table.num_rows(), 3000u);
      ASSERT_EQ(table.num_slots(), 7u);
      for (int64_t k = 0; k < 7; ++k) {
        const uint32_t slot = raw != nullptr
                                  ? table.FindRaw(Value::Int(k))
                                  : table.Find(Key(Value::Int(k)));
        // Slots are numbered by first occurrence, like a serial build.
        EXPECT_EQ(slot, static_cast<uint32_t>(k));
        std::vector<int64_t> expected;
        for (int64_t i = k; i < 3000; i += 7) expected.push_back(i);
        EXPECT_EQ(SlotRows(table, slot), expected);
      }
      EXPECT_EQ(raw != nullptr ? table.FindRaw(Value::Int(7))
                               : table.Find(Key(Value::Int(7))),
                JoinTable::kNone);
      table.Reset(nullptr);
      EXPECT_EQ(guard_.materialized_bytes(), 0);
    }
  }
}

TEST_F(JoinTableTest, ValueKeysMatchIntAgainstReal) {
  std::vector<Value> rows = {Row(Value::Int(1), 0), Row(Value::Real(2.0), 1),
                             Row(Value::Real(1.0), 2), Row(Value::Int(2), 3)};
  ExecContext ctx = Context(1);
  JoinTable table(keys_, name_, nullptr);
  table.Reset(&guard_);
  TMDB_ASSERT_OK(table.Build(&ctx, &rows));
  EXPECT_FALSE(table.raw());
  ASSERT_EQ(table.num_slots(), 2u);
  EXPECT_EQ(table.Find(Key(Value::Real(1.0))), 0u);
  EXPECT_EQ(table.Find(Key(Value::Int(1))), 0u);
  EXPECT_EQ(table.Find(Key(Value::Int(2))), 1u);
  EXPECT_EQ(SlotRows(table, 0), (std::vector<int64_t>{0, 2}));
  EXPECT_EQ(SlotRows(table, 1), (std::vector<int64_t>{1, 3}));
  EXPECT_EQ(table.Find(Key(Value::Real(1.5))), JoinTable::kNone);
  table.Reset(nullptr);
}

TEST_F(JoinTableTest, RawF64FoldsNegativeZeroAndMissesNaN) {
  const FastKeySpec spec = Spec(FastKeySpec::Kind::kF64);
  std::vector<Value> rows = {Row(Value::Real(-0.0), 0),
                             Row(Value::Real(1.5), 1),
                             Row(Value::Real(0.0), 2)};
  ExecContext ctx = Context(1);
  JoinTable table(keys_, name_, &spec);
  table.Reset(&guard_);
  TMDB_ASSERT_OK(table.Build(&ctx, &rows));
  ASSERT_TRUE(table.raw());
  ASSERT_EQ(table.num_slots(), 2u);
  EXPECT_EQ(table.FindRaw(Value::Real(0.0)), 0u);
  EXPECT_EQ(table.FindRaw(Value::Real(-0.0)), 0u);
  EXPECT_EQ(table.FindRaw(Value::Int(0)), 0u);  // numeric probe: double image
  EXPECT_EQ(SlotRows(table, 0), (std::vector<int64_t>{0, 2}));
  EXPECT_EQ(table.FindRaw(Value::Real(1.5)), 1u);
  EXPECT_EQ(table.FindRaw(Value::Real(std::nan(""))), JoinTable::kNone);
  EXPECT_EQ(table.FindRaw(Value::String("0")), JoinTable::kNone);

  // A NaN build key fails the raw kind check: Value keys take over.
  std::vector<Value> nan_rows = {Row(Value::Real(1.0), 0),
                                 Row(Value::Real(std::nan("")), 1)};
  TMDB_ASSERT_OK(table.Build(&ctx, &nan_rows));
  EXPECT_FALSE(table.raw());
  table.Reset(nullptr);
}

TEST_F(JoinTableTest, AddSwitchesToValueKeysMidBuild) {
  // A spill partition adds rows one at a time; an Int in a REAL key field
  // re-keys the rows seen so far, and Int(1) then shares Real(1.0)'s slot.
  const FastKeySpec spec = Spec(FastKeySpec::Kind::kF64);
  ExecContext ctx = Context(1);
  JoinTable table(keys_, name_, &spec);
  table.Reset(&guard_);
  TMDB_ASSERT_OK(
      table.Add(&ctx, Row(Value::Real(1.0), 0), Key(Value::Real(1.0))));
  TMDB_ASSERT_OK(
      table.Add(&ctx, Row(Value::Real(2.0), 1), Key(Value::Real(2.0))));
  EXPECT_TRUE(table.raw());
  TMDB_ASSERT_OK(table.Add(&ctx, Row(Value::Int(1), 2), Key(Value::Int(1))));
  EXPECT_FALSE(table.raw());
  ASSERT_EQ(table.num_slots(), 2u);
  EXPECT_EQ(SlotRows(table, table.Find(Key(Value::Int(1)))),
            (std::vector<int64_t>{0, 2}));
  EXPECT_EQ(SlotRows(table, table.Find(Key(Value::Real(2.0)))),
            (std::vector<int64_t>{1}));
  table.Reset(nullptr);
  EXPECT_EQ(guard_.materialized_bytes(), 0);
}

TEST_F(JoinTableTest, ChargeHoldsNoPerRowKey) {
  // 4000 build rows on 16 keys: the table's own charge is its chain links
  // plus 16 slots — less than one Value per row would cost.
  const FastKeySpec spec = Spec(FastKeySpec::Kind::kI64);
  const size_t n = 4000;
  const FastKeySpec* const encodings[] = {&spec, nullptr};
  for (const FastKeySpec* raw : encodings) {
    for (int threads : {1, 2}) {
      SCOPED_TRACE(std::string(raw != nullptr ? "raw" : "value") +
                   " threads=" + std::to_string(threads));
      std::vector<Value> rows;
      for (size_t i = 0; i < n; ++i) {
        rows.push_back(Row(Value::Int(static_cast<int64_t>(i % 16)),
                           static_cast<int64_t>(i)));
      }
      ExecContext ctx = Context(threads, 64ull << 20);
      JoinTable table(keys_, name_, raw);
      table.Reset(&guard_);
      TMDB_ASSERT_OK(table.Build(&ctx, &rows));
      EXPECT_EQ(table.num_slots(), 16u);
      EXPECT_GT(table.bytes_charged(), 0u);
      EXPECT_LT(table.bytes_charged(), n * sizeof(Value));
      EXPECT_EQ(guard_.materialized_bytes(),
                static_cast<int64_t>(table.bytes_charged()));
      table.Reset(nullptr);
      EXPECT_EQ(guard_.materialized_bytes(), 0);
    }
  }
}

TEST_F(JoinTableTest, FailedBuildHandsRowsBackUntouched) {
  const FastKeySpec spec = Spec(FastKeySpec::Kind::kI64);
  const FastKeySpec* const encodings[] = {&spec, nullptr};
  for (const FastKeySpec* raw : encodings) {
    for (int threads : {1, 2}) {
      SCOPED_TRACE(std::string(raw != nullptr ? "raw" : "value") +
                   " threads=" + std::to_string(threads));
      std::vector<Value> rows;
      for (int64_t i = 0; i < 5000; ++i) {
        rows.push_back(Row(Value::Int(i), i));
      }
      const std::vector<Value> original = rows;
      ExecContext ctx = Context(threads, 1 << 10);
      JoinTable table(keys_, name_, raw);
      table.Reset(&guard_);
      Status built = table.Build(&ctx, &rows);
      ASSERT_FALSE(built.ok());
      EXPECT_EQ(built.code(), StatusCode::kResourceExhausted);
      EXPECT_TRUE(guard_.last_trip_was_memory());
      EXPECT_FALSE(table.raw());
      EXPECT_EQ(table.num_rows(), 0u);
      EXPECT_EQ(guard_.materialized_bytes(), 0);
      ASSERT_EQ(rows.size(), original.size());
      for (size_t i = 0; i < rows.size(); ++i) {
        ASSERT_TRUE(rows[i].Equals(original[i])) << "row " << i;
      }
      table.Reset(nullptr);
    }
  }
}

TEST_F(JoinTableTest, TakeRowsReturnsBuildOrderAndRefunds) {
  std::vector<Value> rows;
  for (int64_t i = 0; i < 100; ++i) {
    rows.push_back(Row(Value::Int(i % 3), i));
  }
  ExecContext ctx = Context(1, 64ull << 20);
  JoinTable table(keys_, name_, nullptr);
  table.Reset(&guard_);
  TMDB_ASSERT_OK(table.Build(&ctx, &rows));
  EXPECT_GT(guard_.materialized_bytes(), 0);
  std::vector<Value> back = table.TakeRows();
  ASSERT_EQ(back.size(), 100u);
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(back[static_cast<size_t>(i)].FindField("w")->AsInt(), i);
  }
  EXPECT_EQ(table.num_slots(), 0u);
  EXPECT_EQ(guard_.materialized_bytes(), 0);
  table.Reset(nullptr);
}

TEST_F(JoinTableTest, CallerKeysGroupIntWithRealAndNullWithNull) {
  // ν keys its table with group key tuples: Int(1) and Real(1.0) share a
  // slot, as do two NULL keys, and slots follow first occurrence.
  auto key = [](Value v) { return Value::Tuple({"k"}, {std::move(v)}); };
  const std::vector<Value> keys = {key(Value::Int(1)), key(Value::Null()),
                                   key(Value::Real(1.0)), key(Value::Int(2)),
                                   key(Value::Null())};
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<Value> rows;
    for (int64_t i = 0; i < 5; ++i) rows.push_back(Row(Value::Int(i), i));
    ExecContext ctx = Context(threads);
    JoinTable table;
    table.Reset(&guard_);
    TMDB_ASSERT_OK(table.Build(&ctx, &rows, keys));
    ASSERT_EQ(table.num_slots(), 3u);
    EXPECT_TRUE(table.key(0).Equals(key(Value::Int(1))));
    EXPECT_TRUE(table.key(1).Equals(key(Value::Null())));
    EXPECT_TRUE(table.key(2).Equals(key(Value::Int(2))));
    EXPECT_EQ(SlotRows(table, 0), (std::vector<int64_t>{0, 2}));
    EXPECT_EQ(SlotRows(table, 1), (std::vector<int64_t>{1, 4}));
    EXPECT_EQ(SlotRows(table, 2), (std::vector<int64_t>{3}));
    table.Reset(nullptr);
    EXPECT_EQ(guard_.materialized_bytes(), 0);
  }
}

TEST_F(JoinTableTest, SharedSlotSetIsBuiltOncePerSlot) {
  // 64 morsels on 4 threads all ask for every slot's set: each slot's rows
  // are imaged exactly once, and every caller gets the same Value.
  std::vector<Value> rows;
  for (int64_t i = 0; i < 600; ++i) rows.push_back(Row(Value::Int(i % 6), i));
  ExecContext ctx = Context(4);
  JoinTable table(keys_, name_, nullptr);
  table.Reset(&guard_);
  TMDB_ASSERT_OK(table.Build(&ctx, &rows));
  TMDB_ASSERT_OK(table.ReserveSets());
  std::atomic<int> images{0};
  auto image = [&](const Value& row, std::vector<Value>* out) {
    images.fetch_add(1);
    out->push_back(*row.FindField("w"));
    return Status::OK();
  };
  std::vector<std::vector<const void*>> seen(64);
  std::vector<MorselRange> morsels;
  for (size_t m = 0; m < 64; ++m) morsels.push_back({m, m + 1});
  TMDB_ASSERT_OK(ParallelForMorsels(
      ctx.sched, &guard_, morsels, [&](size_t m, MorselRange) -> Status {
        for (uint32_t s = 0; s < 6; ++s) {
          uint32_t size = 0;
          TMDB_ASSIGN_OR_RETURN(Value set,
                                table.SharedSlotSet(s, image, &size));
          if (size != 100 || set.NumElements() != 100) {
            return Status::Internal("wrong slot set");
          }
          seen[m].push_back(&set.Elements());
        }
        return Status::OK();
      }));
  EXPECT_EQ(images.load(), 600);
  for (size_t m = 1; m < 64; ++m) EXPECT_EQ(seen[m], seen[0]);
  table.Reset(nullptr);
  EXPECT_EQ(guard_.materialized_bytes(), 0);
}

TEST_F(JoinTableTest, SharedSlotSetErrorReachesEveryCaller) {
  std::vector<Value> rows = {Row(Value::Int(0), 0), Row(Value::Int(0), 1),
                             Row(Value::Int(1), 2)};
  ExecContext ctx = Context(1);
  JoinTable table(keys_, name_, nullptr);
  table.Reset(&guard_);
  TMDB_ASSERT_OK(table.Build(&ctx, &rows));
  TMDB_ASSERT_OK(table.ReserveSets());
  auto image = [](const Value& row, std::vector<Value>* out) -> Status {
    if (row.FindField("w")->AsInt() == 1) {
      return Status::InvalidArgument("bad row");
    }
    out->push_back(row);
    return Status::OK();
  };
  uint32_t size = 0;
  for (int call = 0; call < 3; ++call) {
    Result<Value> set = table.SharedSlotSet(0, image, &size);
    ASSERT_FALSE(set.ok());
    EXPECT_EQ(set.status().code(), StatusCode::kInvalidArgument);
  }
  TMDB_ASSERT_OK_AND_ASSIGN(Value ok, table.SharedSlotSet(1, image, &size));
  EXPECT_EQ(size, 1u);
  EXPECT_EQ(ok.NumElements(), 1u);
  table.Reset(nullptr);
}

/// ν over literal (k, w) rows, collecting `w`-tuples as (w = j.w).
class NestKeyTest : public ::testing::Test {
 protected:
  static Value KW(Value k, Value w) {
    return Value::Tuple({"k", "w"}, {std::move(k), std::move(w)});
  }

  /// Runs ν (ν* when `star`) over `rows` at `threads`.
  static std::vector<Value> Nest(const std::vector<Value>& rows, bool star,
                                 int threads) {
    Expr j = Expr::Var("j", Type::Tuple({{"k", Type::Any()},
                                         {"w", Type::Any()}}));
    Expr elem = Expr::Must(
        Expr::MakeTuple({"w"}, {Expr::Must(Expr::Field(j, "w"))}));
    NestOp nest(PhysicalOpPtr(new ExprSourceOp(
                    Expr::Literal(Value::List(rows)))),
                {"k"}, "j", elem, "s", star);
    Executor executor(threads);
    Result<std::vector<Value>> out = executor.RunPhysical(&nest);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? *out : std::vector<Value>();
  }

  static Value Group(Value k, std::vector<int64_t> ws) {
    std::vector<Value> elems;
    for (int64_t w : ws) {
      elems.push_back(Value::Tuple({"w"}, {Value::Int(w)}));
    }
    return Value::Tuple({"k", "s"}, {std::move(k), Value::Set(elems)});
  }
};

TEST_F(NestKeyTest, IntAndRealFormOneGroupAndNullsFormOne) {
  const std::vector<Value> rows = {
      KW(Value::Int(1), Value::Int(0)), KW(Value::Null(), Value::Int(1)),
      KW(Value::Real(1.0), Value::Int(2)), KW(Value::Int(2), Value::Int(3)),
      KW(Value::Null(), Value::Int(4))};
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<Value> out = Nest(rows, /*star=*/false, threads);
    ASSERT_EQ(out.size(), 3u);
    // The group keeps the key of its first row.
    EXPECT_TRUE(out[0].Equals(Group(Value::Int(1), {0, 2})));
    EXPECT_TRUE(out[0].FindField("k")->is_int());
    EXPECT_TRUE(out[1].Equals(Group(Value::Null(), {1, 4})));
    EXPECT_TRUE(out[2].Equals(Group(Value::Int(2), {3})));
  }
}

TEST_F(NestKeyTest, NestStarTurnsAnAllPaddingGroupIntoEmpty) {
  // Key 7 sees only padding (w = NULL, so the image (w = NULL) is all
  // NULL); key 8 mixes padding with a real element.
  const std::vector<Value> rows = {
      KW(Value::Int(7), Value::Null()), KW(Value::Int(8), Value::Int(1)),
      KW(Value::Int(7), Value::Null()), KW(Value::Int(8), Value::Null())};
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<Value> star = Nest(rows, /*star=*/true, threads);
    ASSERT_EQ(star.size(), 2u);
    EXPECT_TRUE(star[0].Equals(Group(Value::Int(7), {})));
    EXPECT_TRUE(star[1].Equals(Group(Value::Int(8), {1})));
    // Plain ν keeps the padding images.
    std::vector<Value> plain = Nest(rows, /*star=*/false, threads);
    ASSERT_EQ(plain.size(), 2u);
    EXPECT_EQ(plain[0].FindField("s")->NumElements(), 1u);
    EXPECT_EQ(plain[1].FindField("s")->NumElements(), 2u);
  }
}

TEST_F(NestKeyTest, GroupsComeOutInFirstOccurrenceOrder) {
  // 5000 rows over 997 keys in scrambled order: several morsels per thread
  // count, every key seen by more than one morsel.
  std::vector<Value> rows;
  std::vector<int64_t> first_seen;
  std::vector<std::vector<int64_t>> members(997);
  for (int64_t i = 0; i < 5000; ++i) {
    const int64_t k = (i * 7919) % 997;
    if (members[static_cast<size_t>(k)].empty()) first_seen.push_back(k);
    members[static_cast<size_t>(k)].push_back(i);
    rows.push_back(KW(Value::Int(k), Value::Int(i)));
  }
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<Value> out = Nest(rows, /*star=*/false, threads);
    ASSERT_EQ(out.size(), first_seen.size());
    for (size_t g = 0; g < out.size(); ++g) {
      const int64_t k = first_seen[g];
      ASSERT_TRUE(out[g].Equals(
          Group(Value::Int(k), members[static_cast<size_t>(k)])))
          << "group " << g;
    }
  }
}

}  // namespace
}  // namespace tmdb
