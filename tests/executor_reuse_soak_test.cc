// Executor-reuse soak (the server's per-connection discipline, embedded):
// ~1000 small queries through ONE reused Executor with a seeded mix of
// clean runs, memory trips (with and without spill), row-budget trips,
// injected checkpoint faults, deadline trips, cross-thread cancels, and
// subplan-cache disk overflow — swept across strategies (naive, outerjoin,
// nest join) and join implementations (hash, sort-merge) so every spill
// path (partition spill, external sort, ν spill, cache overflow) unwinds
// through the reuse contract. After every run the executor must be
// indistinguishable from fresh: no residual trip state, no outstanding
// reservation bytes, no spill files. The deterministic subset of the
// schedule must produce identical status sequences and checkpoint totals
// across two runs with the same seed; on any failure the seed is printed
// (override with TMDB_NET_SEED). A final section drives the same database
// through the TCP front end and vanishes mid-query while sessions spill.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "base/fault_injector.h"
#include "core/database.h"
#include "exec/executor.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "workload/generators.h"

namespace tmdb {
namespace {

const char kNestedQuery[] =
    "SELECT x FROM R x WHERE x.b = count(SELECT y.d FROM S y "
    "WHERE x.c = y.c)";
const char kScanQuery[] = "SELECT x FROM R x WHERE x.b >= 0";

uint64_t TestSeed() {
  if (const char* env = std::getenv("TMDB_NET_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 0x5EED50AEull;
}

/// One deterministic pass of the soak schedule. Returns the per-iteration
/// status codes and the summed guard checkpoints of the deterministic
/// iterations (cross-thread cancels race by design and are excluded).
struct SoakOutcome {
  std::vector<StatusCode> codes;
  uint64_t deterministic_checkpoints = 0;
  int ok_runs = 0;
  int trips = 0;
};

class ExecutorReuseSoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CountBugConfig config;
    config.num_r = 24;
    // Enough S rows that the 16 KiB spill budget below genuinely forces the
    // hash-partition, external-sort, and ν write-out paths, while the soak
    // still runs in seconds.
    config.num_s = 240;
    ASSERT_TRUE(LoadCountBugTables(&db_, config).ok());
    spill_dir_ = std::filesystem::temp_directory_path() /
                 ("tmdb_reuse_soak_" + std::to_string(::getpid()));
    std::filesystem::create_directories(spill_dir_);
  }

  void TearDown() override {
    if (::testing::Test::HasFailure()) {
      std::fprintf(stderr, "[executor_reuse_soak_test] TMDB_NET_SEED=%llu\n",
                   static_cast<unsigned long long>(TestSeed()));
    }
    std::error_code ec;
    std::filesystem::remove_all(spill_dir_, ec);
  }

  size_t SpillLeftovers() {
    size_t count = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(spill_dir_)) {
      (void)entry;
      ++count;
    }
    return count;
  }

  SoakOutcome RunSchedule(uint64_t seed, int iterations) {
    SoakOutcome outcome;
    std::mt19937_64 rng(seed);
    Executor executor(1);
    FaultInjector injector;
    for (int i = 0; i < iterations; ++i) {
      const int mode = static_cast<int>(rng() % 7);
      RunOptions options;
      options.spill_dir = spill_dir_.string();
      // Orthogonal sweep dimensions, drawn every iteration so the replay
      // stays aligned: which unnesting strategy plans the query and which
      // join implementation runs it (the merge join brings the external
      // sort into the budgeted modes, the outerjoin strategy brings ν*).
      const uint64_t strategy_pick = rng() % 4;
      options.join_impl =
          (rng() % 2 == 0) ? JoinImpl::kHash : JoinImpl::kMerge;
      const std::string query =
          (rng() % 2 == 0) ? kNestedQuery : kScanQuery;
      if (query == kNestedQuery) {
        // The baseline rewrites reject queries without a subquery conjunct,
        // so only the nested query sweeps away from the default strategy.
        options.strategy = strategy_pick == 0   ? Strategy::kNaive
                           : strategy_pick == 1 ? Strategy::kOuterJoin
                                                : Strategy::kNestJoin;
      }
      bool deterministic = true;
      std::thread canceller;
      switch (mode) {
        case 1:  // memory trip, fail-fast
          options.memory_budget_bytes = 1;
          break;
        case 2:  // memory trip, spill completes the query
          options.memory_budget_bytes = 16u << 10;
          options.enable_spill = true;
          break;
        case 3:  // row-budget trip
          options.max_rows = 1 + rng() % 4;
          break;
        case 4: {  // injected checkpoint fault (1-based nth)
          options.fault_injector = &injector;
          injector.ArmNth(1 + rng() % 20);
          break;
        }
        case 5: {  // cross-thread cancel: racy by design
          deterministic = false;
          const int delay_us = static_cast<int>(rng() % 500);
          QueryGuard* guard = executor.guard();
          canceller = std::thread([guard, delay_us] {
            std::this_thread::sleep_for(
                std::chrono::microseconds(delay_us));
            guard->Cancel();
          });
          break;
        }
        case 6:  // subplan-cache thrash through the disk-overflow path
          options.strategy = Strategy::kNaive;  // correlated eval uses the cache
          options.subplan_cache_bytes = 1;
          options.enable_spill = true;
          break;
        default:
          break;
      }

      Result<QueryResult> result = db_.Run(query, options, &executor);
      if (canceller.joinable()) canceller.join();
      injector.Disarm();

      // --- clean-outcome contract: every run ends in OK or a typed trip.
      if (result.ok()) {
        ++outcome.ok_runs;
      } else {
        ++outcome.trips;
        const StatusCode code = result.status().code();
        EXPECT_TRUE(code == StatusCode::kResourceExhausted ||
                    code == StatusCode::kDeadlineExceeded ||
                    code == StatusCode::kCancelled ||
                    code == StatusCode::kInternal ||  // injected checkpoint
                    code == StatusCode::kIoError)
            << "iteration " << i
            << " untyped failure: " << result.status().ToString();
      }

      // --- reuse contract: nothing carries over to the next query.
      EXPECT_FALSE(executor.guard()->last_trip_was_memory())
          << "residual memory-trip record after iteration " << i;
      EXPECT_EQ(executor.guard()->materialized_bytes(), 0)
          << "outstanding GuardReservation bytes after iteration " << i;
      EXPECT_EQ(SpillLeftovers(), 0u)
          << "leaked spill files after iteration " << i;

      if (deterministic) {
        outcome.codes.push_back(result.ok() ? StatusCode::kOk
                                            : result.status().code());
        outcome.deterministic_checkpoints +=
            executor.guard()->checkpoints();
      } else {
        // Keep the schedule aligned across replays: the racy iteration
        // contributes a placeholder, not its (nondeterministic) outcome.
        outcome.codes.push_back(StatusCode::kOk);
      }
    }
    return outcome;
  }

  Database db_;
  std::filesystem::path spill_dir_;
};

TEST_F(ExecutorReuseSoakTest, ThousandQueriesOneExecutorNothingLeaks) {
  constexpr int kIterations = 1000;
  const uint64_t seed = TestSeed();

  const SoakOutcome first = RunSchedule(seed, kIterations);
  ASSERT_EQ(first.codes.size(), static_cast<size_t>(kIterations));
  // The schedule genuinely exercised both outcomes.
  EXPECT_GT(first.ok_runs, 0);
  EXPECT_GT(first.trips, 0);

  // Replay: same seed, fresh executor. The deterministic subset must
  // reproduce exactly — statuses and guard-checkpoint totals.
  const SoakOutcome second = RunSchedule(seed, kIterations);
  EXPECT_EQ(first.codes, second.codes);
  EXPECT_EQ(first.deterministic_checkpoints,
            second.deterministic_checkpoints);
  EXPECT_GT(first.deterministic_checkpoints, 0u);
}

TEST_F(ExecutorReuseSoakTest, SpillTripThenCleanQueryStaysIndependent) {
  Executor executor(1);
  // Query 1: memory trip without spill -> kResourceExhausted, trip state
  // recorded during the run.
  RunOptions tripped;
  tripped.memory_budget_bytes = 1;
  Result<QueryResult> trip = db_.Run(kNestedQuery, tripped, &executor);
  ASSERT_FALSE(trip.ok());
  EXPECT_EQ(trip.status().code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(executor.guard()->last_trip_was_memory())
      << "trip state must be cleared when the run ends";

  // Query 2 on the same executor: unbudgeted, must be untouched.
  Result<QueryResult> clean =
      db_.Run(kNestedQuery, RunOptions(), &executor);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  // And its rows match a fresh executor's.
  Result<QueryResult> reference = db_.Run(kNestedQuery, RunOptions());
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(clean->rows.size(), reference->rows.size());
  for (size_t i = 0; i < clean->rows.size(); ++i) {
    EXPECT_TRUE(clean->rows[i] == reference->rows[i]) << "row " << i;
  }
}

TEST_F(ExecutorReuseSoakTest, TcpDisconnectsMidSpillLeaveNoResidue) {
  // The same reuse discipline through the TCP front end: clients submit
  // budgeted spilling queries and vanish — immediately, or a randomised
  // moment into execution. Every abandoned session must cancel its query,
  // unwind its (reused, per-session) executor, and remove its spill files;
  // afterwards a well-behaved client still gets the right answer.
  ServerOptions options;
  options.spill_dir = spill_dir_.string();
  QueryServer server(&db_, std::move(options));
  ASSERT_TRUE(server.Start().ok());

  auto wait_for = [](auto predicate, int timeout_ms = 5000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (!predicate()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  };

  std::mt19937_64 rng(TestSeed());
  for (int i = 0; i < 25; ++i) {
    Result<Socket> sock = Socket::ConnectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(sock.ok()) << sock.status().ToString();
    WireRequest request;
    request.query = kNestedQuery;
    request.timeout_ms = 30000;
    request.memory_budget_bytes = 16u << 10;
    request.enable_spill = true;
    Frame frame;
    frame.type = FrameType::kQuery;
    frame.request_id = static_cast<uint64_t>(i);
    EncodeRequest(request, &frame.payload);
    ASSERT_TRUE(WriteFrame(&*sock, nullptr, frame).ok());
    std::this_thread::sleep_for(std::chrono::microseconds(rng() % 3000));
    // Socket destructor: the client vanishes, possibly mid-spill.
  }

  ASSERT_TRUE(wait_for([&] { return server.stats().sessions_active == 0; }))
      << "abandoned sessions never unwound";
  ASSERT_TRUE(wait_for([&] { return SpillLeftovers() == 0; }))
      << "disconnected sessions leaked spill files";

  QueryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  WireRequest request;
  request.query = kNestedQuery;
  // Larger than the vanished clients' budget: tight enough to spill, roomy
  // enough that the hash join's skew depth-bound cannot trip it.
  request.memory_budget_bytes = 64u << 10;
  request.enable_spill = true;
  Result<ClientResult> wire = client.Run(request);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  Result<QueryResult> local = db_.Run(kNestedQuery, RunOptions());
  ASSERT_TRUE(local.ok());
  ASSERT_EQ(wire->rows.size(), local->rows.size());
  for (size_t i = 0; i < wire->rows.size(); ++i) {
    EXPECT_TRUE(wire->rows[i] == local->rows[i]) << "row " << i;
  }
  EXPECT_EQ(SpillLeftovers(), 0u);
  server.Shutdown();
}

}  // namespace
}  // namespace tmdb
