// Success is monotone in the memory budget. For each seed query shape,
// join implementation (hash, merge), thread count and columnar setting, the
// sweep finds the least budget the query needs without spill (its peak),
// then runs every budget from a floor to past that peak in fine steps, with
// spill on and off. Once a budget succeeds, every larger one must succeed
// too, with the rows of the unbudgeted run in the same order and the rows
// of naive serial evaluation. Failures must be memory trips and leave no
// spill file.
//
// A memory trip that only disk can relieve must land where disk is: at a
// checkpoint of an operator that can still spill. A hash join whose build
// fits checks once its table is built and again at each probe batch, and
// hands what is left of the probe to the Grace path on a trip there. The
// merge join spills only while it sorts, so its cells run without spill.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace tmdb {
namespace {

namespace fs = std::filesystem;

using testutil::RowsEqual;

/// The columnar suite's seed shapes over the Section 2 R(a,b,c) / S(c,d)
/// schema: COUNT bug, nested SELECT, semijoin/antijoin predicates, UNNEST
/// of nested tuples, and a WITH-bound group.
const char* kSeedQueries[] = {
    "SELECT x FROM R x WHERE x.b = count(SELECT y.d FROM S y "
    "WHERE x.c = y.c)",
    "SELECT (a = x.a, zs = SELECT y.d FROM S y WHERE x.c = y.c) FROM R x",
    "SELECT x.a FROM R x WHERE x.a IN (SELECT y.d FROM S y) AND x.b > 0 "
    "OR NOT EXISTS v IN {1, 2} (v = x.a)",
    "UNNEST(SELECT (SELECT (a = x.a, d = y.d) FROM S y WHERE x.c = y.c) "
    "FROM R x)",
    "SELECT x FROM R x WHERE count(z) = 0 WITH z = (SELECT y FROM S y "
    "WHERE x.c = y.c)",
};

/// Steps per peak: the sweep's resolution.
constexpr uint64_t kStepsPerPeak = 64;
/// Steps run past the peak, where every cell must succeed.
constexpr uint64_t kStepsPastPeak = 8;

::testing::AssertionResult BitIdentical(const std::vector<Value>& actual,
                                        const std::vector<Value>& expected) {
  if (actual.size() != expected.size()) {
    return ::testing::AssertionFailure()
           << "row counts differ: " << actual.size() << " vs "
           << expected.size();
  }
  for (size_t i = 0; i < actual.size(); ++i) {
    if (!actual[i].Equals(expected[i])) {
      return ::testing::AssertionFailure()
             << "row " << i << " differs: " << actual[i].ToString() << " vs "
             << expected[i].ToString();
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult DirEmpty(const std::string& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    return ::testing::AssertionFailure()
           << "leaked spill artefact: " << entry.path().string();
  }
  return ::testing::AssertionSuccess();
}

class BudgetSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CountBugConfig config;
    config.num_r = 120;
    config.num_s = 240;
    TMDB_ASSERT_OK(LoadCountBugTables(&db_, config));
    spill_dir_ = (fs::path(::testing::TempDir()) / "tmdb-budget-sweep")
                     .string();
    fs::remove_all(spill_dir_);
    fs::create_directories(spill_dir_);
  }
  void TearDown() override { fs::remove_all(spill_dir_); }

  RunOptions Opts(JoinImpl impl, int threads, bool columnar, bool spill,
                  uint64_t budget) const {
    RunOptions options;
    options.join_impl = impl;
    options.num_threads = threads;
    options.enable_columnar = columnar;
    options.memory_budget_bytes = budget;
    options.enable_spill = spill;
    options.spill_dir = spill_dir_;
    options.spill_block_bytes = 4096;
    return options;
  }

  /// The least budget at which `query` succeeds without spill, by
  /// bisection: without a degrade path nothing moves with the budget, so a
  /// run succeeds exactly when its peak fits.
  uint64_t PeakBytes(const std::string& query, JoinImpl impl, int threads,
                     bool columnar) {
    uint64_t lo = 0;         // fails (or is the floor)
    uint64_t hi = 64 << 20;  // succeeds
    while (hi - lo > 64) {
      const uint64_t mid = lo + (hi - lo) / 2;
      if (db_.Run(query, Opts(impl, threads, columnar, false, mid)).ok()) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    return hi;
  }

  Database db_;
  std::string spill_dir_;
};

TEST_F(BudgetSweepTest, SuccessIsMonotoneInTheBudget) {
  for (const char* query : kSeedQueries) {
    RunOptions naive_options;
    naive_options.strategy = Strategy::kNaive;
    TMDB_ASSERT_OK_AND_ASSIGN(QueryResult naive,
                              db_.Run(query, naive_options));
    for (JoinImpl impl : {JoinImpl::kHash, JoinImpl::kMerge}) {
    for (int threads : {1, 4}) {
      for (bool columnar : {false, true}) {
        TMDB_ASSERT_OK_AND_ASSIGN(
            QueryResult unbudgeted,
            db_.Run(query, Opts(impl, threads, columnar, false, 0)));
        ASSERT_TRUE(RowsEqual(unbudgeted.rows, naive.rows)) << query;
        const uint64_t peak = PeakBytes(query, impl, threads, columnar);
        const uint64_t step = peak / kStepsPerPeak > 256
                                  ? peak / kStepsPerPeak
                                  : 256;
        for (bool spill : {false, true}) {
          // A merge join whose sides sorted in memory cannot spill once it
          // merges: a trip there fails budgets above ones where a side
          // went to disk at Open and the query passed. Its no-spill cells
          // still run every budget step.
          if (impl == JoinImpl::kMerge && spill) continue;
          SCOPED_TRACE(std::string(query) +
                       (impl == JoinImpl::kHash ? " / hash" : " / merge") +
                       " / threads=" + std::to_string(threads) +
                       (columnar ? " / columnar" : " / row") +
                       (spill ? " / spill" : " / no spill") +
                       " / peak=" + std::to_string(peak));
          uint64_t first_success = 0;
          for (uint64_t budget = step;
               budget <= peak + kStepsPastPeak * step; budget += step) {
            auto run = db_.Run(query,
                               Opts(impl, threads, columnar, spill, budget));
            EXPECT_TRUE(DirEmpty(spill_dir_)) << "budget=" << budget;
            if (run.ok()) {
              if (first_success == 0) first_success = budget;
              EXPECT_TRUE(BitIdentical(run->rows, unbudgeted.rows))
                  << "budget=" << budget;
              continue;
            }
            EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted)
                << "budget=" << budget << ": " << run.status().ToString();
            EXPECT_EQ(first_success, 0u)
                << "budget=" << budget << " fails after budget="
                << first_success << " succeeded: " << run.status().ToString();
          }
          EXPECT_NE(first_success, 0u) << "no budget up to the peak succeeded";
        }
      }
    }
    }
  }
}

}  // namespace
}  // namespace tmdb
