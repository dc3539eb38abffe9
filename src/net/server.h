#ifndef TMDB_NET_SERVER_H_
#define TMDB_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/fault_injector.h"
#include "base/status.h"
#include "core/database.h"
#include "net/admission.h"
#include "net/socket.h"

namespace tmdb {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back via QueryServer::port().
  int port = 0;
  int backlog = 64;
  AdmissionConfig admission;
  /// Spill configuration applied to sessions whose requests enable spill.
  std::string spill_dir;
  size_t spill_block_bytes = 0;
  /// Wire-channel fault injection for the server side of every connection
  /// (tests only). Not owned; must outlive the server.
  FaultInjector* fault_injector = nullptr;
};

/// Monotonic counters describing server activity; snapshot via
/// QueryServer::stats().
struct ServerStatsSnapshot {
  uint64_t connections_accepted = 0;
  uint64_t sessions_active = 0;
  uint64_t accept_failures = 0;
  uint64_t queries_started = 0;
  uint64_t queries_ok = 0;
  uint64_t queries_error = 0;
  uint64_t queries_rejected = 0;
  /// Queries whose client vanished mid-run or mid-stream; each was
  /// cancelled through its session's QueryGuard and unwound cleanly.
  uint64_t queries_disconnected = 0;
  uint64_t cancel_frames = 0;
  uint64_t wire_errors = 0;
  /// Times a session thread woke while its statement ran: once when the
  /// statement returns (twice if the last one's notification was still
  /// pending), plus a wake per re-issue of a cancel the statement owes.
  uint64_t session_wakeups = 0;
};

/// TCP front end for one Database: accepts connections, speaks the framed
/// protocol in net/wire.h, and runs queries concurrently across
/// connections — each session owns one reused Executor, so guards and
/// spill managers follow the executor-reuse discipline the embedded engine
/// already guarantees. Each statement runs on a thread of its own, kept
/// off the scheduler's workers, while the session thread watches the
/// socket.
///
/// Robustness invariants (tested by net_service_test):
///   - every query ends in a clean Status: completion, a guard trip, an
///     admission REJECTED, or kCancelled via disconnect/shutdown;
///   - a client that vanishes (abrupt close, torn frame, injected wire
///     fault) cancels its in-flight query at once — the session polls its
///     socket and completion fd with no timeout — plus one guard
///     checkpoint, and the session releases its admission slot, executor,
///     and spill files on the way out;
///   - a response leaves the moment its statement returns: the
///     statement's thread notifies the completion fd, not a timer;
///   - overload never accepts work it cannot start: beyond
///     max_concurrent + max_queue_depth, requests get typed REJECTED
///     frames immediately;
///   - Shutdown is graceful and idempotent: stop accepting, cancel active
///     queries, wake idle and busy sessions alike, join every session
///     thread, then return.
class QueryServer {
 public:
  /// `db` is not owned and must outlive the server. Statements that write
  /// (CREATE/DEFINE/INSERT) take a server-wide exclusive lock; queries
  /// share it, so wire sessions never race catalog or table mutation.
  QueryServer(Database* db, ServerOptions options);
  ~QueryServer();
  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, listens, and starts the accept loop.
  Status Start();

  /// Graceful teardown: stop accepting, cancel in-flight queries, join
  /// every session. Safe to call twice; the destructor calls it.
  void Shutdown();

  /// The bound port (after Start); useful with port 0.
  int port() const { return port_; }

  ServerStatsSnapshot stats() const;
  AdmissionController* admission() { return &admission_; }

 private:
  class Session;

  void AcceptLoop();
  /// Joins and frees sessions that have finished; with `all`, joins every
  /// session (Shutdown path, after they were asked to stop).
  void ReapSessions(bool all);

  Database* const db_;
  const ServerOptions options_;
  AdmissionController admission_;

  Socket listener_;
  int port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::mutex shutdown_mu_;  // serialises Shutdown callers

  std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 0;

  /// Readers = query statements, writers = DDL/DML statements.
  std::shared_mutex db_mu_;

  // Stats (relaxed atomics; snapshot copies them out).
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> accept_failures_{0};
  std::atomic<uint64_t> queries_started_{0};
  std::atomic<uint64_t> queries_ok_{0};
  std::atomic<uint64_t> queries_error_{0};
  std::atomic<uint64_t> queries_rejected_{0};
  std::atomic<uint64_t> queries_disconnected_{0};
  std::atomic<uint64_t> cancel_frames_{0};
  std::atomic<uint64_t> wire_errors_{0};
  std::atomic<uint64_t> session_wakeups_{0};
};

}  // namespace tmdb

#endif  // TMDB_NET_SERVER_H_
