#include "net/server.h"

#include <cctype>
#include <chrono>
#include <optional>
#include <utility>

#include "base/string_util.h"
#include "exec/executor.h"
#include "net/wire.h"
#include "spill/value_codec.h"
#include "translate/strategies.h"

namespace tmdb {

namespace {

/// Statements whose leading keyword mutates the catalog or a table take
/// the server's exclusive lock; everything else (queries, EXPLAIN) shares
/// it. Classified textually so the lock is held for parse + execution.
bool IsWriteStatement(const std::string& text) {
  size_t i = 0;
  while (i < text.size() &&
         std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  std::string keyword;
  while (i < text.size() &&
         std::isalpha(static_cast<unsigned char>(text[i]))) {
    keyword.push_back(static_cast<char>(
        std::toupper(static_cast<unsigned char>(text[i]))));
    ++i;
  }
  return keyword == "CREATE" || keyword == "DEFINE" || keyword == "INSERT";
}

/// RAII admission-slot release: every exit path of a handled query —
/// success, error, disconnect, stream failure — returns its slot.
class AdmissionSlot {
 public:
  AdmissionSlot(AdmissionController* controller, int weight)
      : controller_(controller), weight_(weight) {}
  ~AdmissionSlot() {
    if (controller_ != nullptr) controller_->Release(weight_);
  }
  AdmissionSlot(const AdmissionSlot&) = delete;
  AdmissionSlot& operator=(const AdmissionSlot&) = delete;

 private:
  AdmissionController* controller_;
  const int weight_;
};

/// How often a cancel still owed to a running statement is re-issued. A
/// Cancel() that lands before the run arms its guard is cleared by that
/// arming, so the session repeats it until the statement returns; only
/// this path polls on a timer.
constexpr int kCancelRetryMs = 1;

}  // namespace

/// One connection: a thread, a socket, a completion fd, and a reused
/// Executor. The session thread owns all socket reads and writes; other
/// threads influence it only through atomics, guard cancellation, the
/// completion fd, and socket shutdown.
class QueryServer::Session {
 public:
  Session(QueryServer* server, Socket sock, WakeFd wake, uint64_t id)
      : server_(server),
        sock_(std::move(sock)),
        id_(id),
        wake_(std::move(wake)) {}

  ~Session() {
    if (thread_.joinable()) thread_.join();
  }

  void Start() {
    thread_ = std::thread([this] { Loop(); });
  }

  /// Called by Shutdown (from the server's thread): flags the stop,
  /// cancels any in-flight query, shuts the socket down so blocking frame
  /// reads unblock, and notifies the completion fd so a session waiting on
  /// its statement wakes at once. Never closes the fd — the session thread
  /// may be mid-read, and shutdown() on a live fd is the race-free unblock.
  void RequestStop() {
    stop_requested_.store(true, std::memory_order_relaxed);
    executor_.guard()->Cancel();
    sock_.ShutdownBoth();
    wake_.Notify();
  }

  bool finished() const {
    return finished_.load(std::memory_order_acquire);
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  uint64_t id() const { return id_; }

 private:
  void Loop() {
    FaultInjector* injector = server_->options_.fault_injector;
    for (;;) {
      if (stop_requested_.load(std::memory_order_relaxed)) break;
      Frame frame;
      bool eof = false;
      const Status read = ReadFrame(&sock_, injector, &frame, &eof);
      if (!read.ok()) {
        server_->wire_errors_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      if (eof || frame.type == FrameType::kGoodbye) break;
      if (frame.type == FrameType::kCancel) {
        // No query in flight on this connection — nothing to cancel.
        server_->cancel_frames_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (frame.type != FrameType::kQuery) {
        SendError(frame.request_id, StatusCode::kInvalidArgument,
                  StrCat("protocol error: unexpected frame type ",
                         static_cast<uint32_t>(frame.type)));
        break;
      }
      if (!HandleQuery(frame)) break;
    }
    // The fd closes only when the next accept reaps this session. Shut the
    // socket down now, so a client still waiting on a reply after a wire or
    // protocol error sees the connection end, not its receive timeout.
    sock_.ShutdownBoth();
    finished_.store(true, std::memory_order_release);
  }

  /// Sends an error terminator; true when the connection is still usable.
  bool SendError(uint64_t request_id, StatusCode code, std::string message) {
    Frame frame;
    frame.type = FrameType::kError;
    frame.request_id = request_id;
    WireError error;
    error.code = code;
    error.message = std::move(message);
    EncodeError(error, &frame.payload);
    const Status sent =
        WriteFrame(&sock_, server_->options_.fault_injector, frame);
    if (!sent.ok()) {
      server_->wire_errors_.fetch_add(1, std::memory_order_relaxed);
    }
    return sent.ok();
  }

  /// Runs one admitted-or-rejected request end to end. Returns false when
  /// the connection is no longer usable (client vanished, wire error).
  bool HandleQuery(const Frame& frame) {
    FaultInjector* injector = server_->options_.fault_injector;
    const uint64_t id = frame.request_id;
    server_->queries_started_.fetch_add(1, std::memory_order_relaxed);

    WireRequest request;
    const Status decoded = DecodeRequest(frame.payload, &request);
    if (!decoded.ok()) {
      // The frame passed its CRC, so the stream is intact — reject the
      // request, keep the connection.
      server_->queries_error_.fetch_add(1, std::memory_order_relaxed);
      return SendError(id, StatusCode::kInvalidArgument, decoded.message());
    }
    Strategy strategy = Strategy::kNestJoin;
    if (!request.strategy.empty() &&
        !ParseStrategyName(request.strategy, &strategy)) {
      server_->queries_error_.fetch_add(1, std::memory_order_relaxed);
      return SendError(id, StatusCode::kInvalidArgument,
                       StrCat("unknown strategy '", request.strategy, "'"));
    }

    // ---------------------------------------------------------- admission
    // The requested parallelism doubles as the admission weight: a query
    // asking for 8 threads gets a proportionally larger share of the
    // scheduler pool than one asking for 1.
    const int admission_weight =
        request.num_threads < 1 ? 1 : static_cast<int>(request.num_threads);
    Result<AdmissionGrant> admitted = server_->admission_.Admit(
        static_cast<int64_t>(request.queue_wait_ms), admission_weight);
    if (!admitted.ok()) {
      server_->queries_rejected_.fetch_add(1, std::memory_order_relaxed);
      Frame rejected_frame;
      rejected_frame.type = FrameType::kRejected;
      rejected_frame.request_id = id;
      WireRejected rejected;
      rejected.code = admitted.status().code();
      rejected.message = FormatStatusForUser(admitted.status());
      rejected.retry_after_ms = static_cast<uint64_t>(
          server_->admission_.config().retry_after_ms);
      EncodeRejected(rejected, &rejected_frame.payload);
      const Status sent = WriteFrame(&sock_, injector, rejected_frame);
      if (!sent.ok()) {
        server_->wire_errors_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      return true;
    }
    const AdmissionGrant grant = *admitted;
    AdmissionSlot slot(&server_->admission_, admission_weight);

    Frame accepted_frame;
    accepted_frame.type = FrameType::kAccepted;
    accepted_frame.request_id = id;
    WireAccepted accepted;
    accepted.granted_memory_bytes = grant.memory_bytes;
    accepted.granted_threads = static_cast<uint32_t>(grant.threads);
    accepted.active_queries = static_cast<uint32_t>(grant.active);
    EncodeAccepted(accepted, &accepted_frame.payload);
    if (Status sent = WriteFrame(&sock_, injector, accepted_frame);
        !sent.ok()) {
      // The client vanished between admission and the grant notification.
      server_->wire_errors_.fetch_add(1, std::memory_order_relaxed);
      server_->queries_disconnected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }

    // ------------------------------------------------- options from grant
    RunOptions options;
    options.strategy = strategy;
    options.num_threads = static_cast<int>(request.num_threads);
    if (options.num_threads < 1) options.num_threads = 1;
    if (options.num_threads > grant.threads) {
      options.num_threads = grant.threads;
    }
    options.timeout_ms = static_cast<int64_t>(request.timeout_ms);
    // The grant caps the request; an unstated request budget inherits the
    // whole slice. grant 0 = server runs without a global memory budget.
    if (grant.memory_bytes == 0) {
      options.memory_budget_bytes = request.memory_budget_bytes;
    } else if (request.memory_budget_bytes == 0) {
      options.memory_budget_bytes = grant.memory_bytes;
    } else {
      options.memory_budget_bytes =
          request.memory_budget_bytes < grant.memory_bytes
              ? request.memory_budget_bytes
              : grant.memory_bytes;
    }
    options.max_rows = request.max_rows;
    options.enable_spill = request.enable_spill;
    options.spill_dir = server_->options_.spill_dir;
    options.spill_block_bytes = server_->options_.spill_block_bytes;
    options.enable_columnar = request.enable_columnar;

    // ------------------------------------------------------- execution
    // The statement runs on a thread of its own so this thread can watch
    // the socket: a vanished client or a CANCEL frame turns into
    // guard()->Cancel(), observed at the query's next checkpoint. That
    // thread notifies wake_ the moment the statement returns (as does
    // RequestStop), so the wait below has no timeout. It is not a
    // scheduler worker: a statement holds its thread for its whole run.
    std::optional<Result<StatementResult>> outcome;
    std::atomic<bool> done{false};
    const bool write_statement = IsWriteStatement(request.query);
    std::thread exec_thread([&] {
      if (write_statement) {
        std::unique_lock<std::shared_mutex> db_lock(server_->db_mu_);
        outcome.emplace(
            server_->db_->Execute(request.query, options, &executor_));
      } else {
        std::shared_lock<std::shared_mutex> db_lock(server_->db_mu_);
        outcome.emplace(
            server_->db_->Execute(request.query, options, &executor_));
      }
      // After done flips: a poller that drains the fd and then reads done
      // false is sure to be woken again.
      done.store(true, std::memory_order_release);
      wake_.Notify();
    });

    bool disconnected = false;
    bool cancel_owed = false;
    while (!done.load(std::memory_order_acquire)) {
      if (stop_requested_.load(std::memory_order_relaxed)) cancel_owed = true;
      if (cancel_owed) executor_.guard()->Cancel();
      const int timeout_ms = cancel_owed ? kCancelRetryMs : -1;
      if (disconnected) {
        // The socket reads as ready forever once it hung up: wait on the
        // completion fd alone.
        if (wake_.Wait(timeout_ms)) wake_.Drain();
        server_->session_wakeups_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const Socket::PollState state = sock_.Poll(wake_, timeout_ms);
      server_->session_wakeups_.fetch_add(1, std::memory_order_relaxed);
      switch (state) {
        case Socket::PollState::kWoken:
          wake_.Drain();
          break;
        case Socket::PollState::kTimeout:
          break;
        case Socket::PollState::kClosed:
          disconnected = true;
          cancel_owed = true;
          break;
        case Socket::PollState::kReadable: {
          Frame in;
          bool eof = false;
          const Status read = ReadFrame(&sock_, injector, &in, &eof);
          if (!read.ok() || eof || in.type == FrameType::kGoodbye) {
            if (!read.ok()) {
              server_->wire_errors_.fetch_add(1, std::memory_order_relaxed);
            }
            disconnected = true;
          } else if (in.type == FrameType::kCancel) {
            server_->cancel_frames_.fetch_add(1, std::memory_order_relaxed);
          } else {
            // Pipelining is not part of the protocol; a second request
            // mid-query is a protocol violation. Cancel and drop.
            disconnected = true;
          }
          cancel_owed = true;
          break;
        }
      }
    }
    exec_thread.join();
    // A re-issued cancel may land after the run cleared its guard; the
    // next statement must not inherit it.
    if (cancel_owed) executor_.guard()->ClearTripState();

    const Result<StatementResult>& result = *outcome;
    if (disconnected) {
      server_->queries_disconnected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (!result.ok()) {
      server_->queries_error_.fetch_add(1, std::memory_order_relaxed);
      // One rendering for every front end: the frame carries exactly what
      // the REPL would print for this status.
      return SendError(id, result.status().code(),
                       FormatStatusForUser(result.status()));
    }
    return StreamResult(id, *result);
  }

  /// Streams rows (chunked), stats, and the kDone terminator. Returns
  /// false when the client vanished mid-stream.
  bool StreamResult(uint64_t id, const StatementResult& statement) {
    FaultInjector* injector = server_->options_.fault_injector;
    const std::vector<Value>* rows =
        statement.is_query ? &statement.query.rows : nullptr;
    size_t index = 0;
    while (rows != nullptr && index < rows->size()) {
      Frame rows_frame;
      rows_frame.type = FrameType::kRows;
      rows_frame.request_id = id;
      std::string records;
      uint64_t count = 0;
      while (index < rows->size() && records.size() < kWireRowsChunkBytes) {
        EncodeValue((*rows)[index], &records);
        ++count;
        ++index;
      }
      PutVarint(count, &rows_frame.payload);
      rows_frame.payload += records;
      if (Status sent = WriteFrame(&sock_, injector, rows_frame);
          !sent.ok()) {
        server_->wire_errors_.fetch_add(1, std::memory_order_relaxed);
        server_->queries_disconnected_.fetch_add(1,
                                                 std::memory_order_relaxed);
        return false;
      }
    }
    if (statement.is_query) {
      Frame stats_frame;
      stats_frame.type = FrameType::kStats;
      stats_frame.request_id = id;
      EncodeStatsPayload(statement.query.stats, &stats_frame.payload);
      if (Status sent = WriteFrame(&sock_, injector, stats_frame);
          !sent.ok()) {
        server_->wire_errors_.fetch_add(1, std::memory_order_relaxed);
        server_->queries_disconnected_.fetch_add(1,
                                                 std::memory_order_relaxed);
        return false;
      }
    }
    Frame done_frame;
    done_frame.type = FrameType::kDone;
    done_frame.request_id = id;
    // DDL/DML outcomes ride in the terminator ("created table R", ...).
    EncodeDonePayload(statement.message, &done_frame.payload);
    if (Status sent = WriteFrame(&sock_, injector, done_frame); !sent.ok()) {
      server_->wire_errors_.fetch_add(1, std::memory_order_relaxed);
      server_->queries_disconnected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    server_->queries_ok_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  QueryServer* const server_;
  Socket sock_;
  const uint64_t id_;
  WakeFd wake_;  // notified when a statement returns, and by RequestStop
  Executor executor_;  // reused across every query on this connection
  std::thread thread_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> finished_{false};
};

QueryServer::QueryServer(Database* db, ServerOptions options)
    : db_(db), options_(std::move(options)), admission_(options_.admission) {}

QueryServer::~QueryServer() { Shutdown(); }

Status QueryServer::Start() {
  if (running_.load(std::memory_order_relaxed)) {
    return Status::InvalidArgument("server already started");
  }
  int bound_port = 0;
  TMDB_ASSIGN_OR_RETURN(listener_,
                        Socket::ListenTcp(options_.host, options_.port,
                                          options_.backlog, &bound_port));
  port_ = bound_port;
  running_.store(true, std::memory_order_relaxed);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void QueryServer::AcceptLoop() {
  for (;;) {
    if (stopping_.load(std::memory_order_relaxed)) break;
    // Reap finished sessions opportunistically so a long-lived server
    // doesn't accumulate joined-out session objects.
    ReapSessions(/*all=*/false);
    if (options_.fault_injector != nullptr &&
        options_.fault_injector->ShouldFailAccept()) {
      // Transient accept failure (EMFILE, aborted handshake): log-and-go —
      // the listener keeps serving.
      accept_failures_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Result<Socket> accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (stopping_.load(std::memory_order_relaxed)) break;
      accept_failures_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    Result<WakeFd> wake = WakeFd::Open();
    if (!wake.ok()) {
      // Out of fds: drop the connection, as a failed accept would.
      accept_failures_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_.push_back(std::make_unique<Session>(
        this, std::move(*accepted), std::move(*wake), next_session_id_++));
    sessions_.back()->Start();
  }
}

void QueryServer::ReapSessions(bool all) {
  std::vector<std::unique_ptr<Session>> dead;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (size_t i = 0; i < sessions_.size();) {
      if (all || sessions_[i]->finished()) {
        dead.push_back(std::move(sessions_[i]));
        sessions_.erase(sessions_.begin() + static_cast<long>(i));
      } else {
        ++i;
      }
    }
  }
  for (const std::unique_ptr<Session>& session : dead) session->Join();
}

void QueryServer::Shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  if (!running_.load(std::memory_order_relaxed)) return;
  stopping_.store(true, std::memory_order_relaxed);
  // Unblock queued admissions first so sessions stuck in Admit exit fast,
  // then unblock the accept loop (shutdown on a listening socket makes a
  // blocked accept return), then stop every session.
  admission_.Shutdown();
  listener_.ShutdownBoth();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const std::unique_ptr<Session>& session : sessions_) {
      session->RequestStop();
    }
  }
  ReapSessions(/*all=*/true);
  running_.store(false, std::memory_order_relaxed);
}

ServerStatsSnapshot QueryServer::stats() const {
  ServerStatsSnapshot snapshot;
  snapshot.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(
        const_cast<std::mutex&>(sessions_mu_));
    uint64_t active = 0;
    for (const std::unique_ptr<Session>& session : sessions_) {
      if (!session->finished()) ++active;
    }
    snapshot.sessions_active = active;
  }
  snapshot.accept_failures = accept_failures_.load(std::memory_order_relaxed);
  snapshot.queries_started = queries_started_.load(std::memory_order_relaxed);
  snapshot.queries_ok = queries_ok_.load(std::memory_order_relaxed);
  snapshot.queries_error = queries_error_.load(std::memory_order_relaxed);
  snapshot.queries_rejected =
      queries_rejected_.load(std::memory_order_relaxed);
  snapshot.queries_disconnected =
      queries_disconnected_.load(std::memory_order_relaxed);
  snapshot.cancel_frames = cancel_frames_.load(std::memory_order_relaxed);
  snapshot.wire_errors = wire_errors_.load(std::memory_order_relaxed);
  snapshot.session_wakeups = session_wakeups_.load(std::memory_order_relaxed);
  return snapshot;
}

}  // namespace tmdb
