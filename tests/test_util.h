#ifndef TMDB_TESTS_TEST_UTIL_H_
#define TMDB_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/result.h"
#include "base/status.h"
#include "catalog/catalog.h"
#include "exec/physical_op.h"
#include "values/value.h"

namespace tmdb {

/// gtest helpers for Status/Result.
#define TMDB_ASSERT_OK(expr)                                 \
  do {                                                       \
    const ::tmdb::Status _s = (expr);                        \
    ASSERT_TRUE(_s.ok()) << _s.ToString();                   \
  } while (false)

#define TMDB_EXPECT_OK(expr)                                 \
  do {                                                       \
    const ::tmdb::Status _s = (expr);                        \
    EXPECT_TRUE(_s.ok()) << _s.ToString();                   \
  } while (false)

/// Unwraps a Result<T> in a test, failing loudly on error.
#define TMDB_ASSERT_OK_AND_ASSIGN(lhs, rexpr)                \
  TMDB_ASSERT_OK_AND_ASSIGN_IMPL_(                           \
      TMDB_TEST_CONCAT_(_tmdb_test_result_, __LINE__), lhs, rexpr)

#define TMDB_ASSERT_OK_AND_ASSIGN_IMPL_(tmp, lhs, rexpr)     \
  auto tmp = (rexpr);                                        \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();          \
  lhs = std::move(tmp).value()

#define TMDB_TEST_CONCAT_(a, b) TMDB_TEST_CONCAT_2_(a, b)
#define TMDB_TEST_CONCAT_2_(a, b) a##b

namespace testutil {

/// Builds a flat tuple value ⟨names[i] = ints[i]⟩ of INT attributes.
inline Value IntRow(const std::vector<std::string>& names,
                    const std::vector<int64_t>& ints) {
  std::vector<Value> values;
  values.reserve(ints.size());
  for (int64_t v : ints) values.push_back(Value::Int(v));
  return Value::Tuple(names, std::move(values));
}

/// Builds a set of INT atoms.
inline Value IntSet(const std::vector<int64_t>& ints) {
  std::vector<Value> values;
  values.reserve(ints.size());
  for (int64_t v : ints) values.push_back(Value::Int(v));
  return Value::Set(std::move(values));
}

/// Sorts a row vector into canonical order for order-insensitive equality.
inline std::vector<Value> Canonical(std::vector<Value> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
  return rows;
}

/// Order-insensitive row-set equality with a readable failure message.
inline ::testing::AssertionResult RowsEqual(std::vector<Value> actual,
                                            std::vector<Value> expected) {
  actual = Canonical(std::move(actual));
  expected = Canonical(std::move(expected));
  if (actual.size() == expected.size()) {
    bool all = true;
    for (size_t i = 0; i < actual.size(); ++i) {
      if (!actual[i].Equals(expected[i])) {
        all = false;
        break;
      }
    }
    if (all) return ::testing::AssertionSuccess();
  }
  auto render = [](const std::vector<Value>& rows) {
    std::string out = "{\n";
    for (const Value& r : rows) out += "  " + r.ToString() + "\n";
    return out + "}";
  };
  return ::testing::AssertionFailure()
         << "row sets differ.\nactual = " << render(actual)
         << "\nexpected = " << render(expected);
}

/// Full ExecStats equality except guard_checkpoints (schedule-dependent:
/// the columnar path checkpoints per batch, the row path per row group)
/// and the strategy and scheduler telemetry.
inline ::testing::AssertionResult StatsMatch(const ExecStats& a,
                                             const ExecStats& b) {
#define TMDB_STAT_EQ(field)                                          \
  if (a.field != b.field) {                                          \
    return ::testing::AssertionFailure()                             \
           << #field " differs: " << a.field << " vs " << b.field;   \
  }
  TMDB_STAT_EQ(rows_emitted);
  TMDB_STAT_EQ(predicate_evals);
  TMDB_STAT_EQ(subplan_evals);
  TMDB_STAT_EQ(hash_probes);
  TMDB_STAT_EQ(rows_built);
  TMDB_STAT_EQ(spill_partitions);
  TMDB_STAT_EQ(spill_bytes_written);
  TMDB_STAT_EQ(spill_bytes_read);
  TMDB_STAT_EQ(spill_max_depth);
  TMDB_STAT_EQ(spill_sort_runs);
  TMDB_STAT_EQ(subplan_cache_hits);
  TMDB_STAT_EQ(subplan_cache_misses);
  TMDB_STAT_EQ(subplan_cache_evictions);
  TMDB_STAT_EQ(subplan_cache_disk_evictions);
  TMDB_STAT_EQ(subplan_cache_disk_faults);
#undef TMDB_STAT_EQ
  return ::testing::AssertionSuccess();
}

/// Opens `op`, pulls it through NextBatch at up to `max` rows a call until
/// it returns 0, and closes it.
inline Result<std::vector<Value>> DrainAt(PhysicalOp* op, ExecContext* ctx,
                                          size_t max) {
  Status status = op->Open(ctx);
  std::vector<Value> rows;
  while (status.ok()) {
    const size_t before = rows.size();
    Result<size_t> got = op->NextBatch(&rows, max);
    if (!got.ok()) {
      status = got.status();
    } else if (*got > max || rows.size() - before != *got) {
      status = Status::Internal("NextBatch returned a count it did not append");
    } else if (*got == 0) {
      break;
    }
  }
  op->Close();
  if (!status.ok()) return status;
  return rows;
}

/// Drains `op` at max 1, 3 and kExecBatchSize, each from a fresh Open, and
/// checks every drain against CollectRows: the same rows in the same order
/// and StatsMatch stats. `rows`, when given, receives the collected rows.
inline ::testing::AssertionResult DrainsAgreeAtEveryBatchSize(
    PhysicalOp* op, std::vector<Value>* rows = nullptr) {
  ExecStats full_stats;
  ExecContext full_ctx;
  full_ctx.stats = &full_stats;
  Result<std::vector<Value>> full = CollectRows(op, &full_ctx);
  if (!full.ok()) {
    return ::testing::AssertionFailure() << full.status().ToString();
  }
  for (size_t max : {size_t{1}, size_t{3}, kExecBatchSize}) {
    ExecStats stats;
    ExecContext ctx;
    ctx.stats = &stats;
    Result<std::vector<Value>> drained = DrainAt(op, &ctx, max);
    if (!drained.ok()) {
      return ::testing::AssertionFailure()
             << "max=" << max << ": " << drained.status().ToString();
    }
    if (drained->size() != full->size()) {
      return ::testing::AssertionFailure()
             << "max=" << max << ": " << drained->size() << " rows, not "
             << full->size();
    }
    for (size_t i = 0; i < full->size(); ++i) {
      if (!(*drained)[i].Equals((*full)[i])) {
        return ::testing::AssertionFailure()
               << "max=" << max << ": row " << i << " is "
               << (*drained)[i].ToString() << ", not "
               << (*full)[i].ToString();
      }
    }
    ::testing::AssertionResult same = StatsMatch(stats, full_stats);
    if (!same) return same << " (max=" << max << ")";
  }
  if (rows != nullptr) *rows = std::move(*full);
  return ::testing::AssertionSuccess();
}

}  // namespace testutil
}  // namespace tmdb

#endif  // TMDB_TESTS_TEST_UTIL_H_
