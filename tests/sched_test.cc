// Tests for the process-wide work-stealing scheduler: exactly-once task
// execution, slot-ordered error reporting, per-query parallelism caps,
// row-aware morsel splitting, the no-thread-churn contract for reused
// executors, and a multi-query concurrency soak (skewed work, several
// tagged queries sharing the one pool, results and stats bit-identical to
// serial, cancellation of one query invisible to its neighbours).

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/random.h"
#include "core/database.h"
#include "exec/executor.h"
#include "exec/parallel_util.h"
#include "sched/scheduler.h"
#include "tests/test_util.h"

namespace tmdb {
namespace {

using testutil::IntRow;

// ---------------------------------------------------------- scheduler core

TEST(SchedulerTest, RunsEveryTaskExactlyOnce) {
  QuerySched sched(8);
  constexpr size_t kTasks = 512;
  std::vector<std::atomic<int>> runs(kTasks);
  Status status = Scheduler::Global().RunTaskSet(
      &sched, kTasks, [&runs](size_t i) {
        runs[i].fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  for (size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "task " << i;
  }
  EXPECT_EQ(sched.morsels_dispatched(), kTasks);
  EXPECT_LE(sched.morsels_stolen(), sched.morsels_dispatched());
}

TEST(SchedulerTest, ReturnsFirstErrorInTaskOrder) {
  // Many tasks fail; the reported error must be the lowest-indexed one no
  // matter which thread ran what, so failures are deterministic.
  QuerySched sched(8);
  Status status = Scheduler::Global().RunTaskSet(
      &sched, 64, [](size_t i) -> Status {
        if (i >= 5) return Status::Internal("task " + std::to_string(i));
        return Status::OK();
      });
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("task 5"), std::string::npos)
      << status.ToString();
}

TEST(SchedulerTest, ParallelismCapBoundsConcurrentTasks) {
  QuerySched sched(2);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  Status status = Scheduler::Global().RunTaskSet(
      &sched, 32, [&](size_t) {
        const int now = running.fetch_add(1) + 1;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        running.fetch_sub(1);
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_LE(peak.load(), 2);
  EXPECT_EQ(sched.morsels_dispatched(), 32u);
}

TEST(SchedulerTest, CapOneRunsEverythingOnTheCallingThread) {
  QuerySched sched(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  Status status = Scheduler::Global().RunTaskSet(
      &sched, 16, [&](size_t) {
        if (std::this_thread::get_id() != caller) {
          off_thread.fetch_add(1, std::memory_order_relaxed);
        }
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(off_thread.load(), 0);
  EXPECT_EQ(sched.morsels_stolen(), 0u);
}

TEST(SchedulerTest, ZeroTasksIsANoOp) {
  QuerySched sched(4);
  Status status = Scheduler::Global().RunTaskSet(
      &sched, 0, [](size_t) { return Status::OK(); });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(sched.morsels_dispatched(), 0u);
}

TEST(SchedulerTest, UntaggedSetsRunAtPoolWidth) {
  std::atomic<size_t> done{0};
  Status status = Scheduler::Global().RunTaskSet(
      nullptr, 64, [&done](size_t) {
        done.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(done.load(), 64u);
}

TEST(SchedulerTest, PerQueryCountersAccumulateAcrossSets) {
  QuerySched sched(4);
  for (size_t tasks : {10u, 20u}) {
    ASSERT_TRUE(Scheduler::Global()
                    .RunTaskSet(&sched, tasks,
                                [](size_t) { return Status::OK(); })
                    .ok());
  }
  EXPECT_EQ(sched.morsels_dispatched(), 30u);
  EXPECT_LE(sched.morsels_stolen(), 30u);
}

TEST(SchedulerTest, CapUpdateIsAPlainStore) {
  QuerySched sched(2);
  EXPECT_EQ(sched.max_parallelism(), 2);
  sched.set_max_parallelism(8);
  EXPECT_EQ(sched.max_parallelism(), 8);
  sched.set_max_parallelism(0);  // clamped
  EXPECT_EQ(sched.max_parallelism(), 1);
}

// ----------------------------------------------- row-aware morsel splitting

void ExpectExactCover(const std::vector<MorselRange>& morsels, size_t n) {
  size_t pos = 0;
  for (const MorselRange& m : morsels) {
    EXPECT_EQ(m.begin, pos);
    EXPECT_LT(m.begin, m.end);
    pos = m.end;
  }
  EXPECT_EQ(pos, n);
}

TEST(RowAwareMorselSplitTest, ZeroRowsYieldsNoMorsels) {
  EXPECT_TRUE(SplitMorsels(0, 1).empty());
  EXPECT_TRUE(SplitMorsels(0, 8).empty());
}

TEST(RowAwareMorselSplitTest, FewerRowsThanThreadsGetsOneRowMorsels) {
  std::vector<MorselRange> morsels = SplitMorsels(3, 8);
  EXPECT_EQ(morsels.size(), 3u);
  ExpectExactCover(morsels, 3);
}

TEST(RowAwareMorselSplitTest, SmallInputStillOccupiesEveryThread) {
  // Under one target-morsel of rows, the splitter still cuts min(n,
  // threads) morsels so a permitted-parallel query is not serialised.
  std::vector<MorselRange> morsels = SplitMorsels(100, 4);
  EXPECT_EQ(morsels.size(), 4u);
  ExpectExactCover(morsels, 100);
}

TEST(RowAwareMorselSplitTest, SerialSplitOfSmallInputIsOneMorsel) {
  std::vector<MorselRange> morsels = SplitMorsels(500, 1);
  EXPECT_EQ(morsels.size(), 1u);
  ExpectExactCover(morsels, 500);
}

TEST(RowAwareMorselSplitTest, LargeInputTargetsMorselSizedChunks) {
  // 10 × kMorselTargetRows rows with 2 threads: the row target, not the
  // thread count, decides the morsel count, exposing steal parallelism.
  const size_t n = 10 * kMorselTargetRows;
  std::vector<MorselRange> morsels = SplitMorsels(n, 2);
  EXPECT_EQ(morsels.size(), 10u);
  for (const MorselRange& m : morsels) EXPECT_EQ(m.size(), kMorselTargetRows);
  ExpectExactCover(morsels, n);
}

TEST(RowAwareMorselSplitTest, HugeInputIsCappedAtMaxMorsels) {
  const size_t n = size_t{1} << 20;
  std::vector<MorselRange> morsels = SplitMorsels(n, 8);
  EXPECT_EQ(morsels.size(), kMaxMorselsPerDispatch);
  ExpectExactCover(morsels, n);
}

// ------------------------------------------------ shared fixtures for e2e

/// X(e, d) ⋈ Y(a, b) on d = b with a heavily skewed key distribution:
/// half of each table lands on one hot key, so static per-thread splits
/// would leave one straggler morsel holding half the probe work.
void LoadSkewedTables(Database* db, int num_x, int num_y, int hot_key) {
  TMDB_ASSERT_OK(db->CreateTable("X", Type::Tuple({{"e", Type::Int()},
                                                   {"d", Type::Int()}}))
                     .status());
  TMDB_ASSERT_OK(db->CreateTable("Y", Type::Tuple({{"a", Type::Int()},
                                                   {"b", Type::Int()}}))
                     .status());
  Random rng(23);
  for (int i = 0; i < num_x; ++i) {
    const int d = (i % 2 == 0) ? hot_key : rng.UniformInt(0, 40);
    TMDB_ASSERT_OK(db->Insert("X", IntRow({"e", "d"}, {i, d})));
  }
  for (int i = 0; i < num_y; ++i) {
    const int b = (i % 2 == 0) ? hot_key : rng.UniformInt(0, 40);
    TMDB_ASSERT_OK(db->Insert("Y", IntRow({"a", "b"}, {i, b})));
  }
}

void ExpectIdenticalRows(const std::vector<Value>& actual,
                         const std::vector<Value>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_TRUE(actual[i].Equals(expected[i])) << "row " << i;
  }
}

/// The scheduling-independent work counters. The scheduler's own telemetry
/// (morsels_dispatched / morsels_stolen) is deliberately absent: dispatched
/// depends on the thread cap, stolen on timing.
void ExpectSameWorkStats(const ExecStats& a, const ExecStats& b) {
  EXPECT_EQ(a.rows_emitted, b.rows_emitted);
  EXPECT_EQ(a.predicate_evals, b.predicate_evals);
  EXPECT_EQ(a.subplan_evals, b.subplan_evals);
  EXPECT_EQ(a.hash_probes, b.hash_probes);
  EXPECT_EQ(a.rows_built, b.rows_built);
  EXPECT_EQ(a.subplan_cache_hits, b.subplan_cache_hits);
  EXPECT_EQ(a.subplan_cache_misses, b.subplan_cache_misses);
  EXPECT_EQ(a.subplan_cache_evictions, b.subplan_cache_evictions);
}

// ----------------------------------------------------- no-churn regression

TEST(ExecutorChurnTest, MixedThreadCountsOnAReusedExecutorCreateNoThreads) {
  Database db;
  LoadSkewedTables(&db, 120, 200, 7);
  const std::string query =
      "SELECT x FROM X x WHERE 1 IN (SELECT y.a FROM Y y WHERE x.d = y.b)";

  // Workers belong to the process-wide singleton; touch it first so its
  // one-time startup is not attributed to the executor under test.
  const uint64_t before = Scheduler::Global().threads_created();
  EXPECT_GE(before, 1u);

  Executor executor(1);
  std::vector<Value> reference;
  for (int round = 0; round < 3; ++round) {
    for (int threads : {1, 4, 2, 8, 3}) {
      RunOptions options;
      options.num_threads = threads;
      TMDB_ASSERT_OK_AND_ASSIGN(QueryResult result,
                                db.Run(query, options, &executor));
      if (reference.empty()) {
        reference = std::move(result.rows);
      } else {
        ExpectIdenticalRows(result.rows, reference);
      }
    }
  }
  // set_num_threads is a cap update, not a pool rebuild: fifteen runs over
  // five different widths must not have started a single OS thread.
  EXPECT_EQ(Scheduler::Global().threads_created(), before);
}

// ------------------------------------------------------- multi-query soak

TEST(MultiQuerySoakTest, ConcurrentTaggedQueriesMatchSerialWithNoStatBleed) {
  Database db;
  LoadSkewedTables(&db, 240, 420, 7);

  // Distinct shapes with distinct work counters, so any cross-query stat
  // bleed shows up as an exact-equality failure against the serial run.
  const std::vector<std::string> queries = {
      "SELECT x FROM X x WHERE 1 IN (SELECT y.a FROM Y y WHERE x.d = y.b)",
      "SELECT x FROM X x WHERE 2 NOT IN (SELECT y.a FROM Y y WHERE "
      "x.d = y.b)",
      "SELECT (e = x.e, n = count(SELECT y.a FROM Y y WHERE x.d = y.b)) "
      "FROM X x",
  };
  std::vector<QueryResult> serial;
  for (const std::string& query : queries) {
    RunOptions options;
    options.strategy = Strategy::kNestJoin;
    TMDB_ASSERT_OK_AND_ASSIGN(QueryResult reference, db.Run(query, options));
    serial.push_back(std::move(reference));
  }

  // Up to eight tagged queries in flight on the one scheduler, each with
  // its own cap, every result compared against its own serial reference.
  constexpr int kWorkers = 8;
  constexpr int kItersPerWorker = 3;
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (int iter = 0; iter < kItersPerWorker; ++iter) {
        const size_t qi = (w + iter) % queries.size();
        RunOptions options;
        options.strategy = Strategy::kNestJoin;
        options.num_threads = 2 + (w % 4) * 2;  // caps 2, 4, 6, 8
        auto result = db.Run(queries[qi], options);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ExpectIdenticalRows(result->rows, serial[qi].rows);
        ExpectSameWorkStats(result->stats, serial[qi].stats);
        // The scheduler telemetry is per-query: stolen never exceeds
        // dispatched, and a parallel run dispatched at least one morsel.
        EXPECT_GT(result->stats.morsels_dispatched, 0u);
        EXPECT_LE(result->stats.morsels_stolen,
                  result->stats.morsels_dispatched);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
}

TEST(MultiQuerySoakTest, CancellingOneQueryLeavesNeighboursUntouched) {
  Database db;
  LoadSkewedTables(&db, 260, 420, 7);
  const std::string heavy =
      "SELECT (e = x.e, n = count(SELECT y.a FROM Y y WHERE x.d = y.b)) "
      "FROM X x";
  const std::string light =
      "SELECT x FROM X x WHERE 1 IN (SELECT y.a FROM Y y WHERE x.d = y.b)";

  RunOptions light_options;
  light_options.strategy = Strategy::kNestJoin;
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult light_serial,
                            db.Run(light, light_options));

  // Cancellation is per-query (the guard lives on the victim's executor);
  // tasks of other queries on the same workers must be untouched. The
  // cancel races the victim's completion, so retry until one lands mid-run
  // — every attempt exercises neighbour isolation either way.
  bool cancelled_once = false;
  for (int attempt = 0; attempt < 5 && !cancelled_once; ++attempt) {
    Executor victim(4);
    std::atomic<bool> saw_cancel{false};
    std::thread victim_thread([&] {
      RunOptions options;
      options.strategy = Strategy::kNaive;   // slow on purpose
      options.subplan_cache_bytes = 0;       // no memo: every row pays
      options.num_threads = 4;
      auto result = db.Run(heavy, options, &victim);
      if (!result.ok()) {
        EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
            << result.status().ToString();
        saw_cancel.store(result.status().code() == StatusCode::kCancelled);
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    victim.guard()->Cancel();

    // Neighbours keep running while the victim unwinds.
    for (int i = 0; i < 3; ++i) {
      RunOptions options = light_options;
      options.num_threads = 4;
      auto result = db.Run(light, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectIdenticalRows(result->rows, light_serial.rows);
      ExpectSameWorkStats(result->stats, light_serial.stats);
    }
    victim_thread.join();
    cancelled_once = saw_cancel.load();
  }
  EXPECT_TRUE(cancelled_once)
      << "victim always finished before the cancel landed";

  // And after the victim is gone the pool is still healthy.
  RunOptions options = light_options;
  options.num_threads = 8;
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult after, db.Run(light, options));
  ExpectIdenticalRows(after.rows, light_serial.rows);
  ExpectSameWorkStats(after.stats, light_serial.stats);
}

}  // namespace
}  // namespace tmdb
