// Differential execution: one query, one dataset, every execution
// configuration must produce the same rows. The matrix crosses
//  - strategy: naive correlated evaluation (the ground truth) against the
//    Ganski–Wong outerjoin and the paper's nest-join strategies;
//  - memory: unbudgeted against a budget small enough to force the spill
//    paths (hash-partition spill, external sort, ν spill, cache overflow);
//  - parallelism: serial against a 4-thread pool;
//  - join implementation: hash against sort-merge;
//  - under a budget, columnar execution on (arena-backed filter falling
//    back to the row filter on a memory trip, raw word keys in the hash
//    join's table) against off.
// Spilling, threading, and join choice are execution details — none of them
// may change a single row. Serial runs are additionally checked for
// determinism: repeating one reproduces rows bit for bit and the
// deterministic stats exactly.

#include <cstdint>
#include <cstdlib>
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

std::string MakeSpillBase(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("tmdb-test-" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

::testing::AssertionResult SpillBaseEmpty(const std::string& base) {
  if (!fs::exists(base)) return ::testing::AssertionSuccess();
  for (const auto& entry : fs::directory_iterator(base)) {
    return ::testing::AssertionFailure()
           << "leaked spill artefact: " << entry.path().string();
  }
  return ::testing::AssertionSuccess();
}

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

/// COUNT-bug workload sized so that a 256 KiB budget forces every
/// materialising operator to disk (the S build side is ~3 MiB) while the
/// sparse key domain keeps the result — and the outerjoin strategy's
/// irreducible flat output — far below the budget.
class DifferentialExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CountBugConfig config;
    config.num_r = 100;
    config.num_s = 12000;
    config.match_fraction = 0.5;  // half the R rows dangle: the bug trigger
    config.domain_scale = 256;
    TMDB_ASSERT_OK(LoadCountBugTables(&db_, config));
  }

  static constexpr const char* kQuery =
      "SELECT x FROM R x WHERE x.b = count(SELECT y.d FROM S y "
      "WHERE x.c = y.c)";

  /// Budget for the spilling cells. Overridable so scripts/tier1.sh can
  /// sweep the whole matrix across several low-memory settings; values
  /// from the hash join's skew bound to 560 KiB keep every cell green while
  /// changing where and how often operators spill. Past that the nest-join
  /// plans fit in memory (the join table holds one slot per distinct key,
  /// not the ~3 MiB of build keys) and the "spill engaged" check fails.
  static uint64_t Budget() {
    if (const char* env = std::getenv("TMDB_DIFF_BUDGET_BYTES")) {
      return std::strtoull(env, nullptr, 10);
    }
    return 256 << 10;
  }

  static RunOptions Opts(Strategy strategy, int threads, bool spill,
                         const std::string& dir, bool columnar = true) {
    RunOptions o;
    o.strategy = strategy;
    o.num_threads = threads;
    o.enable_columnar = columnar;
    if (spill) {
      o.memory_budget_bytes = Budget();
      o.enable_spill = true;
      o.spill_dir = dir;
      o.spill_block_bytes = 4096;
    }
    return o;
  }

  Database db_;
};

TEST_F(DifferentialExecTest, StrategySpillThreadMatrixAgrees) {
  TMDB_ASSERT_OK_AND_ASSIGN(
      QueryResult reference,
      db_.Run(kQuery, Opts(Strategy::kNaive, 1, false, "")));
  ASSERT_GT(reference.rows.size(), 0u);

  for (Strategy strategy : {Strategy::kNaive, Strategy::kOuterJoin,
                            Strategy::kNestJoin, Strategy::kNestJoinOnly,
                            Strategy::kAuto}) {
    for (int threads : {1, 4}) {
      // The budgeted cells run with columnar on and off: both must match.
      struct Cell {
        bool spill;
        bool columnar;
      };
      for (Cell cell : {Cell{false, true}, Cell{true, true},
                        Cell{true, false}}) {
        const bool spill = cell.spill;
        const bool columnar = cell.columnar;
        SCOPED_TRACE(StrategyName(strategy) + "/threads=" +
                     std::to_string(threads) +
                     (spill ? "/spill" : "/in-memory") +
                     (columnar ? "/columnar" : "/row"));
        const std::string base =
            spill ? MakeSpillBase("diff-" + StrategyName(strategy) + "-t" +
                                  std::to_string(threads))
                  : "";
        TMDB_ASSERT_OK_AND_ASSIGN(
            QueryResult run, db_.Run(kQuery, Opts(strategy, threads, spill,
                                                  base, columnar)));
        EXPECT_TRUE(RowsEqual(run.rows, reference.rows));
        if (strategy == Strategy::kAuto) {
          // Auto must resolve to a concrete strategy and report it.
          EXPECT_TRUE(run.auto_strategy);
          EXPECT_NE(run.strategy, Strategy::kAuto);
          EXPECT_EQ(run.stats.strategy_chosen, StrategyStatCode(run.strategy));
        }
        if (spill) {
          // The unnested strategies all materialise more than the budget;
          // naive evaluation holds no large state, so only require that
          // the budgeted run visibly engaged disk for the former. For auto
          // the check keys off the strategy it resolved to.
          if (run.strategy != Strategy::kNaive) {
            EXPECT_GT(run.stats.spill_partitions + run.stats.spill_sort_runs,
                      0u)
                << "budget never engaged the spill path: "
                << run.stats.ToString();
          }
          EXPECT_TRUE(SpillBaseEmpty(base));
          fs::remove_all(base);
        }
      }
    }
  }
}

TEST_F(DifferentialExecTest, AutoMatchesItsResolvedForcedStrategy) {
  // Whatever auto picks, its rows and deterministic work counters must be
  // bit-identical to forcing that same strategy — the cost model may only
  // choose between behaviours that already exist, never invent a new one.
  // (The planning phase's sampling checkpoints are the one legitimate
  // delta, so guard_checkpoints is compared with >=.)
  RunOptions auto_opts = Opts(Strategy::kAuto, 1, false, "");
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult auto_run, db_.Run(kQuery, auto_opts));
  ASSERT_NE(auto_run.strategy, Strategy::kAuto);
  TMDB_ASSERT_OK_AND_ASSIGN(
      QueryResult forced,
      db_.Run(kQuery, Opts(auto_run.strategy, 1, false, "")));
  EXPECT_TRUE(BitIdentical(auto_run.rows, forced.rows));
  EXPECT_EQ(auto_run.stats.rows_emitted, forced.stats.rows_emitted);
  EXPECT_EQ(auto_run.stats.subplan_evals, forced.stats.subplan_evals);
  EXPECT_EQ(auto_run.stats.predicate_evals, forced.stats.predicate_evals);
  EXPECT_GE(auto_run.stats.guard_checkpoints, forced.stats.guard_checkpoints);
}

TEST_F(DifferentialExecTest, AutoNeverExceedsWorstForcedStrategy) {
  // Without a mid-query switch (none fires on this workload), auto's row
  // and checkpoint counts are those of one forced strategy plus the
  // sampling checkpoints — never more than the worst forced strategy pays.
  uint64_t worst_rows = 0;
  uint64_t worst_checkpoints = 0;
  for (Strategy strategy : {Strategy::kNaive, Strategy::kOuterJoin,
                            Strategy::kNestJoin, Strategy::kNestJoinOnly}) {
    TMDB_ASSERT_OK_AND_ASSIGN(
        QueryResult run, db_.Run(kQuery, Opts(strategy, 1, false, "")));
    const uint64_t rows = run.stats.rows_emitted + run.stats.rows_built;
    if (rows > worst_rows) worst_rows = rows;
    if (run.stats.guard_checkpoints > worst_checkpoints) {
      worst_checkpoints = run.stats.guard_checkpoints;
    }
  }
  TMDB_ASSERT_OK_AND_ASSIGN(
      QueryResult auto_run,
      db_.Run(kQuery, Opts(Strategy::kAuto, 1, false, "")));
  EXPECT_EQ(auto_run.stats.strategy_switches, 0u);
  EXPECT_LE(auto_run.stats.rows_emitted + auto_run.stats.rows_built,
            worst_rows);
  EXPECT_LE(auto_run.stats.guard_checkpoints, worst_checkpoints)
      << "sampling checkpoints pushed auto past the worst forced strategy";
}

TEST_F(DifferentialExecTest, JoinImplementationsAgreeUnderSpill) {
  TMDB_ASSERT_OK_AND_ASSIGN(
      QueryResult reference,
      db_.Run(kQuery, Opts(Strategy::kNaive, 1, false, "")));

  for (JoinImpl impl : {JoinImpl::kHash, JoinImpl::kMerge}) {
    for (int threads : {1, 4}) {
      for (bool columnar : {true, false}) {
        SCOPED_TRACE(std::string(impl == JoinImpl::kHash ? "hash" : "merge") +
                     "/threads=" + std::to_string(threads) +
                     (columnar ? "/columnar" : "/row"));
        const std::string base = MakeSpillBase(
            std::string("diff-impl-") +
            (impl == JoinImpl::kHash ? "hash" : "merge") + "-t" +
            std::to_string(threads));
        RunOptions opts =
            Opts(Strategy::kNestJoin, threads, true, base, columnar);
        opts.join_impl = impl;
        TMDB_ASSERT_OK_AND_ASSIGN(QueryResult run, db_.Run(kQuery, opts));
        EXPECT_TRUE(RowsEqual(run.rows, reference.rows));
        if (impl == JoinImpl::kMerge) {
          EXPECT_GT(run.stats.spill_sort_runs, 0u)
              << "merge join never external-sorted: " << run.stats.ToString();
        } else {
          EXPECT_GT(run.stats.spill_partitions, 0u)
              << "hash join never partition-spilled: " << run.stats.ToString();
        }
        EXPECT_TRUE(SpillBaseEmpty(base));
        fs::remove_all(base);
      }
    }
  }
}

TEST_F(DifferentialExecTest, ProbeBatchBoundaryTripDivertsToSpill) {
  // At 548 KiB the hash join's build table fits, but the query's memory
  // crosses the budget while the join is probing. The trip lands on the
  // join's batch-boundary checkpoint, which hands the unread left rows to
  // the Grace path; without that divert every cell here fails.
  TMDB_ASSERT_OK_AND_ASSIGN(
      QueryResult reference,
      db_.Run(kQuery, Opts(Strategy::kNaive, 1, false, "")));
  for (int threads : {1, 4}) {
    for (bool columnar : {true, false}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   (columnar ? "/columnar" : "/row"));
      const std::string base =
          MakeSpillBase("diff-divert-t" + std::to_string(threads));
      RunOptions opts =
          Opts(Strategy::kNestJoin, threads, true, base, columnar);
      opts.join_impl = JoinImpl::kHash;
      opts.memory_budget_bytes = 548 << 10;
      TMDB_ASSERT_OK_AND_ASSIGN(QueryResult run, db_.Run(kQuery, opts));
      EXPECT_TRUE(RowsEqual(run.rows, reference.rows));
      EXPECT_GT(run.stats.spill_partitions, 0u) << run.stats.ToString();
      EXPECT_TRUE(SpillBaseEmpty(base));
      fs::remove_all(base);
    }
  }
}

TEST_F(DifferentialExecTest, SerialRunsAreDeterministic) {
  // Serial in-memory runs repeat with identical rows AND identical
  // deterministic stats; serial spilled runs repeat rows bit for bit (spill
  // volume counters may vary with live memory readings and are exempt).
  RunOptions plain = Opts(Strategy::kNestJoin, 1, false, "");
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult first, db_.Run(kQuery, plain));
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult second, db_.Run(kQuery, plain));
  EXPECT_TRUE(BitIdentical(second.rows, first.rows));
  EXPECT_EQ(second.stats.rows_emitted, first.stats.rows_emitted);
  EXPECT_EQ(second.stats.subplan_evals, first.stats.subplan_evals);

  const std::string base = MakeSpillBase("diff-determinism");
  RunOptions spilled = Opts(Strategy::kNestJoin, 1, true, base);
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult third, db_.Run(kQuery, spilled));
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult fourth, db_.Run(kQuery, spilled));
  EXPECT_TRUE(BitIdentical(fourth.rows, third.rows));
  EXPECT_TRUE(BitIdentical(third.rows, first.rows));
  EXPECT_TRUE(SpillBaseEmpty(base));
  fs::remove_all(base);
}

/// The correlated-subquery workload the cache tests use, swept across cache
/// configurations: memoization on, off, and thrashing through the
/// disk-overflow path — with and without threads — may never change rows.
class DifferentialCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CorrelatedConfig config;
    config.num_outer = 200;
    config.num_inner = 60;
    config.correlation_scale = 10;
    TMDB_ASSERT_OK(LoadCorrelatedTables(&db_, config));
  }

  static constexpr const char* kCorrelated =
      "SELECT (a = o.a, n = count(SELECT i.v FROM I i WHERE o.k = i.k)) "
      "FROM O o";

  Database db_;
};

TEST_F(DifferentialCacheTest, CacheConfigurationsAgree) {
  RunOptions reference_opts;
  reference_opts.strategy = Strategy::kNaive;
  reference_opts.subplan_cache_bytes = 0;
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult reference,
                            db_.Run(kCorrelated, reference_opts));

  struct Config {
    const char* name;
    uint64_t cache_bytes;
    bool spill;
  };
  const Config configs[] = {{"cached", 16ull << 20, false},
                            {"uncached", 0, false},
                            {"thrash", 1, false},
                            {"thrash-overflow", 1, true}};
  for (const Config& config : configs) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(config.name) + "/threads=" +
                   std::to_string(threads));
      const std::string base =
          config.spill ? MakeSpillBase(std::string("diff-cache-") +
                                       config.name + "-t" +
                                       std::to_string(threads))
                       : "";
      RunOptions opts;
      opts.strategy = Strategy::kNaive;
      opts.subplan_cache_bytes = config.cache_bytes;
      opts.num_threads = threads;
      if (config.spill) {
        opts.enable_spill = true;
        opts.spill_dir = base;
        opts.spill_block_bytes = 4096;
      }
      TMDB_ASSERT_OK_AND_ASSIGN(QueryResult run, db_.Run(kCorrelated, opts));
      EXPECT_TRUE(RowsEqual(run.rows, reference.rows));
      if (config.spill) {
        EXPECT_GT(run.stats.subplan_cache_disk_evictions, 0u)
            << "soft cap never overflowed to disk: " << run.stats.ToString();
        EXPECT_EQ(run.stats.subplan_evals, 10u)
            << "disk overflow lost exactly-once: " << run.stats.ToString();
        EXPECT_TRUE(SpillBaseEmpty(base));
        fs::remove_all(base);
      }
    }
  }
}

TEST_F(DifferentialCacheTest, AutoAgreesAcrossCacheConfigurations) {
  // strategy = auto across the same cache sweep: a healthy cache, no cache
  // (the cost model then never picks naive), and a 1-byte thrashing cache
  // that may trigger the adaptive switch. Rows must match the uncached
  // naive reference in every cell.
  RunOptions reference_opts;
  reference_opts.strategy = Strategy::kNaive;
  reference_opts.subplan_cache_bytes = 0;
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult reference,
                            db_.Run(kCorrelated, reference_opts));

  for (uint64_t cache_bytes : {16ull << 20, 0ull, 1ull}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE("cache=" + std::to_string(cache_bytes) +
                   "/threads=" + std::to_string(threads));
      RunOptions opts;
      opts.strategy = Strategy::kAuto;
      opts.subplan_cache_bytes = cache_bytes;
      opts.num_threads = threads;
      TMDB_ASSERT_OK_AND_ASSIGN(QueryResult run, db_.Run(kCorrelated, opts));
      EXPECT_TRUE(RowsEqual(run.rows, reference.rows));
      EXPECT_TRUE(run.auto_strategy);
      EXPECT_NE(run.strategy, Strategy::kAuto);
      if (cache_bytes == 0) {
        EXPECT_NE(run.strategy, Strategy::kNaive)
            << "memoization off must rule out naive";
      }
    }
  }
}

TEST_F(DifferentialCacheTest, AutoSwitchUnderThreadsAgrees) {
  // 1000 outer rows over 10 correlation values: the model picks memoized
  // naive, and a 1-byte cache makes every acquire miss, so the adaptive
  // switch fires (deterministically in serial; under threads the unwind
  // interleaves but the re-planned rows must still match). Fresh database:
  // the fixture's 200-row workload sits on the naive/nest-join cost knife
  // edge, this one does not.
  Database db;
  CorrelatedConfig config;
  config.num_outer = 1000;
  config.num_inner = 60;
  config.correlation_scale = 10;
  TMDB_ASSERT_OK(LoadCorrelatedTables(&db, config));

  RunOptions reference_opts;
  reference_opts.strategy = Strategy::kNaive;
  reference_opts.subplan_cache_bytes = 0;
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult reference,
                            db.Run(kCorrelated, reference_opts));

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    RunOptions opts;
    opts.strategy = Strategy::kAuto;
    opts.subplan_cache_bytes = 1;
    opts.num_threads = threads;
    TMDB_ASSERT_OK_AND_ASSIGN(QueryResult run, db.Run(kCorrelated, opts));
    EXPECT_TRUE(RowsEqual(run.rows, reference.rows));
    if (threads == 1) {
      // Serial acquire order is fixed: the switch fires at exactly the
      // 64th probe, every time.
      EXPECT_EQ(run.stats.strategy_switches, 1u) << run.stats.ToString();
      EXPECT_NE(run.strategy, Strategy::kNaive);
    }
  }
}

}  // namespace
}  // namespace tmdb
