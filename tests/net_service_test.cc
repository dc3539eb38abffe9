// End-to-end tests for the TCP query service: queries over the wire match
// embedded execution, admission control rejects overload with typed
// frames, vanished clients cancel their queries, injected wire faults
// unwind cleanly on both sides, and teardown leaks nothing. The soak test
// drives >= 8 concurrent connections through normal, disconnect,
// timeout, rejection, and wire-fault modes; on any failure it prints the
// seed so the run reproduces (override with TMDB_NET_SEED).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
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
// A four-way cross product with no equality to hash on: 30 * 60^3 rows
// to filter, seconds of work, so only a cancel ends it quickly.
const char kLongQuery[] =
    "SELECT x FROM R x, S y, S z, S w WHERE x.b + y.d + z.d + w.d < 0";
// A three-way cross product that matches no row: 30 * 60^2 rows to
// filter, tens of milliseconds of work.
const char kMediumQuery[] =
    "SELECT x FROM R x, S y, S z WHERE x.b + y.d + z.d < 0";

int64_t ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Sends kLongQuery on a raw socket and reads its kAccepted grant, so the
/// statement has been admitted and is about to run when this returns.
void StartLongQuery(Socket* sock, uint64_t request_id) {
  WireRequest request;
  request.query = kLongQuery;
  request.timeout_ms = 120000;
  Frame frame;
  frame.type = FrameType::kQuery;
  frame.request_id = request_id;
  EncodeRequest(request, &frame.payload);
  ASSERT_TRUE(WriteFrame(sock, nullptr, frame).ok());
  Frame in;
  bool eof = false;
  ASSERT_TRUE(ReadFrame(sock, nullptr, &in, &eof).ok());
  ASSERT_FALSE(eof);
  ASSERT_EQ(in.type, FrameType::kAccepted);
}

uint64_t TestSeed() {
  if (const char* env = std::getenv("TMDB_NET_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 0xC0FFEE5EEDull;
}

class NetServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CountBugConfig config;
    config.num_r = 30;
    config.num_s = 60;
    ASSERT_TRUE(LoadCountBugTables(&db_, config).ok());
    spill_dir_ = std::filesystem::temp_directory_path() /
                 ("tmdb_net_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(spill_dir_);
  }

  void TearDown() override {
    server_.reset();
    if (::testing::Test::HasFailure()) {
      std::fprintf(stderr, "[net_service_test] TMDB_NET_SEED=%llu\n",
                   static_cast<unsigned long long>(TestSeed()));
    }
    std::error_code ec;
    std::filesystem::remove_all(spill_dir_, ec);
  }

  void StartServer(ServerOptions options) {
    options.spill_dir = spill_dir_.string();
    options.fault_injector = &injector_;
    server_ = std::make_unique<QueryServer>(&db_, std::move(options));
    ASSERT_TRUE(server_->Start().ok());
  }

  QueryClient MakeClient() {
    QueryClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    return client;
  }

  /// Spill directories are per-query and removed on every outcome; after
  /// the wire traffic quiesces nothing may remain.
  void ExpectNoLeakedSpillFiles() {
    size_t leftovers = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(spill_dir_)) {
      ++leftovers;
      ADD_FAILURE() << "leaked spill path: " << entry.path();
    }
    EXPECT_EQ(leftovers, 0u);
  }

  /// Waits (bounded) until `predicate` holds; false on timeout.
  template <typename Pred>
  bool WaitFor(Pred predicate, int timeout_ms = 5000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (!predicate()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  Database db_;
  FaultInjector injector_;
  std::filesystem::path spill_dir_;
  std::unique_ptr<QueryServer> server_;
};

TEST_F(NetServiceTest, WireResultsMatchEmbeddedExecution) {
  StartServer(ServerOptions());
  QueryClient client = MakeClient();

  Result<ClientResult> wire = client.Run(kNestedQuery);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_TRUE(wire->has_grant);
  EXPECT_GE(wire->grant.active_queries, 1u);

  Result<QueryResult> local = db_.Run(kNestedQuery, RunOptions());
  ASSERT_TRUE(local.ok());
  ASSERT_EQ(wire->rows.size(), local->rows.size());
  for (size_t i = 0; i < wire->rows.size(); ++i) {
    EXPECT_TRUE(wire->rows[i] == local->rows[i]) << "row " << i;
  }
  // Stats travelled too: the wire run did real work.
  EXPECT_EQ(wire->stats.rows_emitted, local->stats.rows_emitted);
  EXPECT_GT(wire->stats.guard_checkpoints, 0u);
}

TEST_F(NetServiceTest, DdlAndDmlRunOverTheWire) {
  StartServer(ServerOptions());
  QueryClient client = MakeClient();

  Result<ClientResult> created =
      client.Run("CREATE TABLE T (a : INT, b : INT)");
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_FALSE(created->message.empty());

  Result<ClientResult> inserted =
      client.Run("INSERT INTO T VALUES (a = 1, b = 2), (a = 3, b = 4)");
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();

  Result<ClientResult> rows = client.Run("SELECT t FROM T t WHERE t.a = 3");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows.size(), 1u);
}

TEST_F(NetServiceTest, GuardTripsRenderExactlyLikeTheRepl) {
  StartServer(ServerOptions());
  QueryClient client = MakeClient();

  WireRequest request;
  request.query = kNestedQuery;
  request.max_rows = 2;
  Result<ClientResult> wire = client.Run(request);
  ASSERT_FALSE(wire.ok());
  EXPECT_EQ(wire.status().code(), StatusCode::kResourceExhausted);

  RunOptions options;
  options.max_rows = 2;
  Result<QueryResult> local = db_.Run(kNestedQuery, options);
  ASSERT_FALSE(local.ok());
  // One Status-code -> message mapping for every front end: the wire
  // message IS the REPL rendering of the same failure.
  EXPECT_EQ(wire.status().message(), FormatStatusForUser(local.status()));
}

TEST_F(NetServiceTest, MalformedRequestsGetTypedErrorsAndKeepTheSession) {
  StartServer(ServerOptions());
  QueryClient client = MakeClient();

  Result<ClientResult> bad = client.Run("SELECT FROM WHERE");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().code(), StatusCode::kIoError);

  WireRequest request;
  request.query = kScanQuery;
  request.strategy = "no-such-strategy";
  Result<ClientResult> unknown = client.Run(request);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);

  // The connection survived both failures.
  Result<ClientResult> ok = client.Run(kScanQuery);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST_F(NetServiceTest, ExecutorReuseAcrossQueriesCarriesNoTripState) {
  StartServer(ServerOptions());
  QueryClient client = MakeClient();

  for (int round = 0; round < 10; ++round) {
    WireRequest tripped;
    tripped.query = kNestedQuery;
    tripped.memory_budget_bytes = 1;  // memory trip, spill disabled
    Result<ClientResult> trip = client.Run(tripped);
    ASSERT_FALSE(trip.ok());
    EXPECT_EQ(trip.status().code(), StatusCode::kResourceExhausted)
        << trip.status().ToString();

    // Same session, same executor: the next unbudgeted query must be
    // untouched by the previous trip.
    Result<ClientResult> clean = client.Run(kScanQuery);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    EXPECT_EQ(clean->rows.size(), 30u);
  }
  ExpectNoLeakedSpillFiles();
}

TEST_F(NetServiceTest, OverloadGetsTypedRejectionAndRetrySucceeds) {
  ServerOptions options;
  options.admission.max_concurrent = 1;
  options.admission.max_queue_depth = 0;
  options.admission.retry_after_ms = 5;
  StartServer(std::move(options));

  // Occupy the only slot directly, so the rejection is deterministic.
  Result<AdmissionGrant> held = server_->admission()->Admit(0);
  ASSERT_TRUE(held.ok());

  QueryClient client = MakeClient();
  Result<ClientResult> rejected = client.Run(kScanQuery);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(QueryClient::WasRejected(rejected.status()))
      << rejected.status().ToString();
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(client.last_retry_after_ms(), 5u);
  EXPECT_EQ(server_->stats().queries_rejected, 1u);

  // Free the slot from a helper thread while the client retries.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server_->admission()->Release();
  });
  WireRequest request;
  request.query = kScanQuery;
  Result<ClientResult> retried = client.RunWithRetry(request, 50);
  releaser.join();
  EXPECT_TRUE(retried.ok()) << retried.status().ToString();
}

TEST_F(NetServiceTest, VanishedClientCancelsItsQueryAndFreesTheSlot) {
  ServerOptions options;
  options.admission.max_concurrent = 1;
  options.admission.max_queue_depth = 0;
  StartServer(std::move(options));

  // Raw socket: send a query with a long timeout, then vanish without
  // reading the response.
  {
    Result<Socket> sock = Socket::ConnectTcp("127.0.0.1", server_->port());
    ASSERT_TRUE(sock.ok());
    WireRequest request;
    request.query = kNestedQuery;
    request.strategy = "naive";
    request.timeout_ms = 60000;
    Frame frame;
    frame.type = FrameType::kQuery;
    frame.request_id = 1;
    EncodeRequest(request, &frame.payload);
    ASSERT_TRUE(WriteFrame(&*sock, nullptr, frame).ok());
  }  // socket closes here — the client is gone

  // The session must notice, cancel through the guard, and release its
  // admission slot; with max_concurrent = 1 the next query proves it.
  EXPECT_TRUE(WaitFor([&] {
    const ServerStatsSnapshot stats = server_->stats();
    return stats.queries_disconnected + stats.queries_ok +
               stats.queries_error >= 1;
  })) << "query neither finished nor was cancelled after disconnect";
  EXPECT_TRUE(WaitFor([&] { return server_->admission()->active() == 0; }))
      << "admission slot leaked after disconnect";

  QueryClient client = MakeClient();
  Result<ClientResult> after = client.Run(kScanQuery);
  EXPECT_TRUE(after.ok()) << after.status().ToString();
  ExpectNoLeakedSpillFiles();
}

TEST_F(NetServiceTest, CancelFrameStopsTheQueryWithCancelled) {
  StartServer(ServerOptions());

  Result<Socket> sock = Socket::ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(sock.ok());
  WireRequest request;
  request.query = kNestedQuery;
  request.strategy = "naive";
  request.timeout_ms = 60000;
  Frame frame;
  frame.type = FrameType::kQuery;
  frame.request_id = 9;
  EncodeRequest(request, &frame.payload);
  ASSERT_TRUE(WriteFrame(&*sock, nullptr, frame).ok());

  // Read the grant, then cancel.
  Frame in;
  bool eof = false;
  ASSERT_TRUE(ReadFrame(&*sock, nullptr, &in, &eof).ok());
  ASSERT_FALSE(eof);
  ASSERT_EQ(in.type, FrameType::kAccepted);

  Frame cancel;
  cancel.type = FrameType::kCancel;
  cancel.request_id = 9;
  ASSERT_TRUE(WriteFrame(&*sock, nullptr, cancel).ok());

  // The terminator is either kError(kCancelled) — the cancel landed while
  // the query ran — or, if the query finished first, rows + kDone.
  bool saw_terminator = false;
  bool was_cancelled = false;
  for (int i = 0; i < 1000 && !saw_terminator; ++i) {
    ASSERT_TRUE(ReadFrame(&*sock, nullptr, &in, &eof).ok());
    ASSERT_FALSE(eof);
    if (in.type == FrameType::kError) {
      WireError error;
      ASSERT_TRUE(DecodeError(in.payload, &error).ok());
      EXPECT_EQ(error.code, StatusCode::kCancelled);
      EXPECT_NE(error.message.find("query cancelled"), std::string::npos)
          << error.message;
      was_cancelled = true;
      saw_terminator = true;
    } else if (in.type == FrameType::kDone) {
      saw_terminator = true;
    }
  }
  EXPECT_TRUE(saw_terminator);
  (void)was_cancelled;
  // Either way the cancel frame is eventually consumed and counted —
  // mid-query (cancelling the run) or idle (a no-op between queries).
  EXPECT_TRUE(WaitFor([&] { return server_->stats().cancel_frames == 1; }));
}

TEST_F(NetServiceTest, CancelFrameStopsALongQueryPromptly) {
  StartServer(ServerOptions());
  Result<Socket> sock = Socket::ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(sock.ok());
  StartLongQuery(&*sock, 21);

  // Cancel straight after the grant: the cancel may land before the run
  // arms its guard, and must still stop it.
  const auto start = std::chrono::steady_clock::now();
  Frame cancel;
  cancel.type = FrameType::kCancel;
  cancel.request_id = 21;
  ASSERT_TRUE(WriteFrame(&*sock, nullptr, cancel).ok());
  Frame in;
  bool eof = false;
  ASSERT_TRUE(ReadFrame(&*sock, nullptr, &in, &eof).ok());
  ASSERT_FALSE(eof);
  ASSERT_EQ(in.type, FrameType::kError);
  WireError error;
  ASSERT_TRUE(DecodeError(in.payload, &error).ok());
  EXPECT_EQ(error.code, StatusCode::kCancelled) << error.message;
  // The session polls with no timeout, so nothing but the query's next
  // guard checkpoint stands between the frame and the terminator.
  EXPECT_LT(ElapsedMs(start), 2000);

  // The connection stays usable, and the late cancel is not inherited.
  QueryClient client = MakeClient();
  Result<ClientResult> after = client.Run(kScanQuery);
  EXPECT_TRUE(after.ok()) << after.status().ToString();
}

TEST_F(NetServiceTest, DisconnectStopsALongQueryPromptly) {
  ServerOptions options;
  options.admission.max_concurrent = 1;
  options.admission.max_queue_depth = 0;
  StartServer(std::move(options));
  std::chrono::steady_clock::time_point start;
  {
    Result<Socket> sock = Socket::ConnectTcp("127.0.0.1", server_->port());
    ASSERT_TRUE(sock.ok());
    StartLongQuery(&*sock, 22);
    start = std::chrono::steady_clock::now();
  }  // the client vanishes mid-query

  ASSERT_TRUE(WaitFor([&] {
    return server_->stats().queries_disconnected >= 1 &&
           server_->admission()->active() == 0;
  }));
  EXPECT_LT(ElapsedMs(start), 2000);
  EXPECT_EQ(server_->stats().queries_ok, 0u);
  ExpectNoLeakedSpillFiles();
}

TEST_F(NetServiceTest, ShutdownWakesIdleAndBusySessions) {
  StartServer(ServerOptions());
  // Idle before any statement, idle after one, and busy on a long query.
  QueryClient fresh = MakeClient();
  QueryClient used = MakeClient();
  ASSERT_TRUE(used.Run(kScanQuery).ok());
  Result<Socket> busy = Socket::ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(busy.ok());
  StartLongQuery(&*busy, 23);
  ASSERT_TRUE(WaitFor([&] { return server_->stats().sessions_active == 3; }));

  const auto start = std::chrono::steady_clock::now();
  server_->Shutdown();
  EXPECT_LT(ElapsedMs(start), 2000);
  EXPECT_EQ(server_->stats().sessions_active, 0u);
  EXPECT_EQ(server_->stats().queries_ok, 1u);
  ExpectNoLeakedSpillFiles();
}

// The session waits for its statement with no timeout and is woken when
// the statement returns, not on a poll tick: each run of a statement that
// takes tens of milliseconds wakes it at most twice (once, plus a
// notification the run before may have left pending), where a 5 ms tick
// would wake it at every tick. Counted, not timed, so a busy host, which
// only lengthens the statement, cannot fail it.
TEST_F(NetServiceTest, SessionWakesOncePerStatementNotPerTick) {
  StartServer(ServerOptions());
  QueryClient client = MakeClient();
  ASSERT_TRUE(client.Run(kMediumQuery).ok());  // warm-up
  const uint64_t before = server_->stats().session_wakeups;
  constexpr uint64_t kRuns = 5;
  for (uint64_t i = 0; i < kRuns; ++i) {
    Result<ClientResult> result = client.Run(kMediumQuery);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->rows.empty());
  }
  EXPECT_LE(server_->stats().session_wakeups - before, 2 * kRuns);
}

TEST_F(NetServiceTest, ClientSideWireFaultSweepPoisonsOnlyTheConnection) {
  StartServer(ServerOptions());

  const WireFaultKind kinds[] = {
      WireFaultKind::kShortWrite, WireFaultKind::kTornFrame,
      WireFaultKind::kCorruptCrc, WireFaultKind::kDisconnect,
      WireFaultKind::kShortRead};
  FaultInjector client_injector;
  for (const WireFaultKind kind : kinds) {
    SCOPED_TRACE(static_cast<int>(kind));
    QueryClient client;
    ASSERT_TRUE(
        client.Connect("127.0.0.1", server_->port(), 5000).ok());
    client.set_fault_injector(&client_injector);
    // Send faults fire on the request frame; the recv fault fires on the
    // first response read. Either way Run fails with kIoError.
    client_injector.ArmWire(kind, 1);
    const auto start = std::chrono::steady_clock::now();
    Result<ClientResult> result = client.Run(kScanQuery);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kIoError)
        << result.status().ToString();
    // The server ends a connection it cannot use at once: the failure
    // arrives well inside the client's 5000 ms receive timeout.
    EXPECT_LT(elapsed, std::chrono::milliseconds(1000));
    // The wire error killed this connection...
    EXPECT_FALSE(client.connected());
    client_injector.DisarmWire();
  }

  // ...but never the server: a fresh client works, and the server's error
  // counters moved without any session thread leaking.
  QueryClient fresh = MakeClient();
  Result<ClientResult> ok = fresh.Run(kScanQuery);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(WaitFor([&] { return server_->stats().sessions_active <= 1; }));
}

TEST_F(NetServiceTest, ServerSideInjectedFaultsUnwindCleanly) {
  StartServer(ServerOptions());

  // Accept failure: the listener shrugs it off and keeps serving.
  injector_.ArmWire(WireFaultKind::kAcceptFail, 1);
  QueryClient client = MakeClient();
  Result<ClientResult> ok = client.Run(kScanQuery);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(WaitFor([&] { return server_->stats().accept_failures >= 1; }));
  injector_.DisarmWire();

  // Injected disconnect mid-result-stream: the server cuts the connection
  // while streaming; the client sees a clean kIoError; the server counts
  // the query as disconnected and survives.
  QueryClient victim = MakeClient();
  injector_.ArmWire(WireFaultKind::kDisconnect, 3);  // accepted, rows, ...
  Result<ClientResult> torn = victim.Run(kScanQuery);
  injector_.DisarmWire();
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kIoError);
  EXPECT_TRUE(WaitFor([&] {
    return server_->stats().queries_disconnected >= 1;
  }));

  QueryClient fresh = MakeClient();
  Result<ClientResult> after = fresh.Run(kScanQuery);
  EXPECT_TRUE(after.ok()) << after.status().ToString();
  ExpectNoLeakedSpillFiles();
}

TEST_F(NetServiceTest, GracefulShutdownWithBusyConnections) {
  ServerOptions options;
  options.admission.max_concurrent = 4;
  StartServer(std::move(options));

  // A few idle connections plus one mid-query.
  QueryClient idle1 = MakeClient();
  QueryClient idle2 = MakeClient();
  Result<Socket> busy = Socket::ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(busy.ok());
  WireRequest request;
  request.query = kNestedQuery;
  request.strategy = "naive";
  request.timeout_ms = 60000;
  Frame frame;
  frame.type = FrameType::kQuery;
  frame.request_id = 5;
  EncodeRequest(request, &frame.payload);
  ASSERT_TRUE(WriteFrame(&*busy, nullptr, frame).ok());
  ASSERT_TRUE(WaitFor([&] { return server_->stats().queries_started >= 1; }));

  // Shutdown must cancel the running query, join every session thread, and
  // return; calling it again (and via the destructor) is a no-op.
  server_->Shutdown();
  server_->Shutdown();
  EXPECT_EQ(server_->stats().sessions_active, 0u);
  ExpectNoLeakedSpillFiles();
  server_.reset();
}

// The acceptance soak: >= 8 concurrent connections, each mixing normal
// queries, guard trips, admission rejections, cancels, and abrupt
// disconnects, under a seeded schedule. Every outcome must be a clean
// typed Status, and afterwards nothing may leak: no admission slots, no
// session threads, no spill files.
TEST_F(NetServiceTest, ConcurrentConnectionSoak) {
  ServerOptions options;
  options.admission.max_concurrent = 4;
  options.admission.max_queue_depth = 2;
  options.admission.default_queue_wait_ms = 2000;
  options.admission.total_memory_bytes = 64ull << 20;
  StartServer(std::move(options));

  constexpr int kThreads = 8;
  constexpr int kIterations = 12;
  const uint64_t seed = TestSeed();

  std::atomic<int> unexpected{0};
  std::atomic<int> ok_count{0};
  std::atomic<int> typed_failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937_64 rng(seed ^ (0x9E3779B97F4A7C15ull * (t + 1)));
      for (int i = 0; i < kIterations; ++i) {
        const int mode = static_cast<int>(rng() % 5);
        if (mode == 4) {
          // Abrupt disconnect, possibly mid-query.
          Result<Socket> sock =
              Socket::ConnectTcp("127.0.0.1", server_->port());
          if (!sock.ok()) {
            unexpected.fetch_add(1);
            continue;
          }
          WireRequest request;
          request.query = kNestedQuery;
          request.timeout_ms = 30000;
          Frame frame;
          frame.type = FrameType::kQuery;
          frame.request_id = static_cast<uint64_t>(t) * 1000 + i;
          EncodeRequest(request, &frame.payload);
          (void)WriteFrame(&*sock, nullptr, frame);
          continue;  // socket destructor = vanish
        }
        QueryClient client;
        if (!client.Connect("127.0.0.1", server_->port(), 10000).ok()) {
          unexpected.fetch_add(1);
          continue;
        }
        WireRequest request;
        request.query = (rng() % 2 == 0) ? kNestedQuery : kScanQuery;
        switch (mode) {
          case 1:  // row-budget trip
            request.max_rows = 1 + rng() % 3;
            break;
          case 2:  // wall-clock trip (may legitimately finish in time)
            request.timeout_ms = 1;
            break;
          case 3:  // memory trip, sometimes spilling its way through
            request.memory_budget_bytes = (8u << 10) + rng() % (32u << 10);
            request.enable_spill = rng() % 2 == 0;
            break;
          default:
            break;
        }
        Result<ClientResult> result = client.Run(request);
        if (result.ok()) {
          ok_count.fetch_add(1);
          continue;
        }
        switch (result.status().code()) {
          case StatusCode::kResourceExhausted:
          case StatusCode::kDeadlineExceeded:
          case StatusCode::kCancelled:
            typed_failures.fetch_add(1);
            break;
          default:
            unexpected.fetch_add(1);
            ADD_FAILURE() << "thread " << t << " iter " << i
                          << " unexpected status: "
                          << result.status().ToString();
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_GT(ok_count.load(), 0);

  // Quiesce: every session that lost its client must unwind by itself.
  EXPECT_TRUE(WaitFor([&] { return server_->stats().sessions_active == 0; }))
      << "session threads still alive after clients left";
  EXPECT_TRUE(WaitFor([&] { return server_->admission()->active() == 0; }))
      << "admission slots leaked";
  EXPECT_EQ(server_->admission()->queued(), 0);

  const ServerStatsSnapshot stats = server_->stats();
  // Every started query ended in exactly one bucket.
  EXPECT_EQ(stats.queries_started,
            stats.queries_ok + stats.queries_error + stats.queries_rejected +
                stats.queries_disconnected);

  ExpectNoLeakedSpillFiles();
  server_->Shutdown();
  EXPECT_EQ(server_->stats().sessions_active, 0u);
}

}  // namespace
}  // namespace tmdb
