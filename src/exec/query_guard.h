#ifndef TMDB_EXEC_QUERY_GUARD_H_
#define TMDB_EXEC_QUERY_GUARD_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "base/fault_injector.h"
#include "base/status.h"
#include "exec/exec_context.h"
#include "exec/physical_op.h"

namespace tmdb {

/// Per-query resource limits. Zero means "unlimited" for every field, so a
/// default-constructed GuardLimits imposes nothing.
struct GuardLimits {
  /// Wall-clock deadline, measured from QueryGuard::Reset.
  int64_t timeout_ms = 0;
  /// Budget for memory materialised during the query: newly built Values
  /// (tracked by ValueMemory) plus operator-side container reservations.
  uint64_t memory_budget_bytes = 0;
  /// Budget on total rows processed (emitted by operators + materialised
  /// into build tables), bounding work rather than result size.
  uint64_t max_rows = 0;

  bool any_set() const {
    return timeout_ms > 0 || memory_budget_bytes > 0 || max_rows > 0;
  }
};

/// Cooperative resource governor for one query execution.
///
/// The executor owns one QueryGuard, resets it per run, and hands a pointer
/// to every ExecContext (workers included). Operators call Check() at batch
/// boundaries and morsel tasks call it per morsel — the guard-checkpoint
/// invariant: no execution loop runs more than one batch (kExecBatchSize
/// rows) of work between checkpoints. A non-OK Check unwinds the plan into
/// a clean Status:
///   kCancelled          Cancel() was called (any thread),
///   kDeadlineExceeded   the deadline passed,
///   kResourceExhausted  the row or memory budget tripped,
///   kInternal           an armed FaultInjector fired (tests only).
///
/// Check() is thread-safe. With no limits set it costs one atomic
/// increment and a few relaxed loads; the clock is read only when a
/// timeout is armed.
class QueryGuard {
 public:
  QueryGuard() = default;
  ~QueryGuard();
  QueryGuard(const QueryGuard&) = delete;
  QueryGuard& operator=(const QueryGuard&) = delete;

  /// Rearms for a new run: clears cancellation, starts the deadline clock,
  /// snapshots the ValueMemory baseline (enabling tracking while a memory
  /// budget is set), and installs the stats/injector to consult. `stats`
  /// is the coordinator's counter block; `injector` may be null.
  void Reset(const GuardLimits& limits, const ExecStats* stats,
             FaultInjector* injector);

  /// The checkpoint. Returns OK to keep running.
  Status Check();

  /// Requests cooperative cancellation; callable from any thread while the
  /// query runs. Observed at the next checkpoint.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// True when a Cancel() has been requested but not yet cleared by
  /// Reset/ClearTripState. Lets teardown code distinguish a cancel racing
  /// another unwind (e.g. an adaptive strategy switch) without spending a
  /// checkpoint.
  bool cancel_pending() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Adds operator-side materialised bytes (container slots the Value
  /// tracker cannot see). Negative deltas release.
  void AddMaterialized(int64_t delta) {
    materialized_.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Checkpoints passed since Reset (sweep sizing for fault injection).
  uint64_t checkpoints() const {
    return checkpoints_.load(std::memory_order_relaxed);
  }

  /// Memory charged against the budget right now: tracked Value bytes
  /// allocated since Reset plus operator reservations.
  int64_t memory_used() const;

  /// True when a memory budget is set and current usage exceeds it. A live
  /// reading — it can flip back to false as soon as the tripping allocation
  /// is freed, so spill-eligibility decisions use last_trip_was_memory()
  /// instead.
  bool memory_over_budget() const {
    return limits_.memory_budget_bytes > 0 &&
           memory_used() >
               static_cast<int64_t>(limits_.memory_budget_bytes);
  }

  /// True when the most recent kResourceExhausted from this guard was a
  /// *memory* trip (spillable) rather than a max_rows trip (not helped by
  /// disk) — both surface as the same status code. Recorded at trip time,
  /// so it stays valid after the caller frees the tripping allocation on
  /// its way to the spill path.
  bool last_trip_was_memory() const {
    return last_trip_was_memory_.load(std::memory_order_relaxed);
  }

  /// Clears residual trip state — the memory-trip record and any pending
  /// cancellation — without rearming. The executor calls this when a run
  /// finishes (every outcome), so a reused executor's guard carries no
  /// stale state between queries: a memory trip from query N can never
  /// make query N+1 on the same connection look spill-eligible, and a
  /// cancel that raced the end of query N is not misread by N+1. Reset
  /// also clears both, so the two bracket every run.
  void ClearTripState() {
    cancelled_.store(false, std::memory_order_relaxed);
    last_trip_was_memory_.store(false, std::memory_order_relaxed);
  }

  /// Operator-reservation bytes currently charged (the materialised
  /// component of memory_used(), excluding tracked Values). Zero between
  /// runs once every GuardReservation has released — the executor-reuse
  /// soak asserts exactly that.
  int64_t materialized_bytes() const {
    return materialized_.load(std::memory_order_relaxed);
  }

  /// The injector installed at Reset (null when none) — spill I/O sites
  /// consult its I/O channels.
  FaultInjector* injector() const { return injector_; }

  /// Spill write-out loops run with the memory-budget comparison suspended:
  /// they exist to shed memory and would otherwise trip the very check that
  /// engaged them. Every other check — cancellation, deadline, max_rows,
  /// injected faults — stays live, so a cancel fires promptly even
  /// mid-spill. Nestable; use MemoryCheckSuspension, not these directly.
  void SuspendMemoryCheck() {
    memory_suspended_.fetch_add(1, std::memory_order_relaxed);
  }
  void ResumeMemoryCheck() {
    memory_suspended_.fetch_sub(1, std::memory_order_relaxed);
  }

  const GuardLimits& limits() const { return limits_; }

 private:
  GuardLimits limits_;
  const ExecStats* stats_ = nullptr;
  FaultInjector* injector_ = nullptr;

  std::atomic<bool> cancelled_{false};
  std::atomic<bool> last_trip_was_memory_{false};
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<int64_t> materialized_{0};
  std::atomic<int> memory_suspended_{0};

  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};

  uint64_t rows_baseline_ = 0;  // stats snapshot at Reset (stats accumulate
                                // across runs; the budget is per run)

  bool tracking_values_ = false;  // we hold a ValueMemory enable refcount
  int64_t value_baseline_ = 0;    // LiveBytes() snapshot at Reset
};

/// RAII scope for QueryGuard::SuspendMemoryCheck. Null guard is a no-op, so
/// ungoverned executions need no special-casing at spill sites.
class MemoryCheckSuspension {
 public:
  explicit MemoryCheckSuspension(QueryGuard* guard) : guard_(guard) {
    if (guard_ != nullptr) guard_->SuspendMemoryCheck();
  }
  ~MemoryCheckSuspension() {
    if (guard_ != nullptr) guard_->ResumeMemoryCheck();
  }
  MemoryCheckSuspension(const MemoryCheckSuspension&) = delete;
  MemoryCheckSuspension& operator=(const MemoryCheckSuspension&) = delete;

 private:
  QueryGuard* guard_;
};

/// Returns OK when `ctx` carries no guard — operators stay drivable in
/// isolation — otherwise runs a checkpoint.
inline Status CheckGuard(const ExecContext* ctx) {
  if (ctx == nullptr || ctx->guard == nullptr) return Status::OK();
  return ctx->guard->Check();
}

/// CheckGuard once per kExecBatchSize loop iterations (`i` counts up): the
/// row-granularity half of the checkpoint invariant.
inline Status PeriodicGuardCheck(const ExecContext* ctx, size_t i) {
  if ((i & (kExecBatchSize - 1)) == 0) return CheckGuard(ctx);
  return Status::OK();
}

/// Tracks the bytes one operator has charged to a guard for materialised
/// containers (build tables, sorted runs, grouped output). Charge with
/// Add() as batches land; Release() in Close() and at re-Open. Deliberately
/// no destructor release: plans can outlive the executor that ran them, so
/// an unreleased balance must not chase a dangling guard. Releasing twice
/// is a no-op.
class GuardReservation {
 public:
  /// Rebinds to `guard` (possibly null), releasing any held balance first.
  void Reset(QueryGuard* guard) {
    Release();
    guard_ = guard;
  }

  /// Charges `bytes` more and runs a checkpoint so a blown budget trips at
  /// the materialisation site. OK (and uncounted) when unbound.
  Status Add(uint64_t bytes) {
    if (guard_ == nullptr) return Status::OK();
    guard_->AddMaterialized(static_cast<int64_t>(bytes));
    bytes_ += bytes;
    return guard_->Check();
  }

  /// Batched variant of Add for hot loops that charge a few bytes per row:
  /// the bytes are reported to the guard immediately (memory_used stays
  /// exact), but the checkpoint runs only once `charge_granularity()` bytes
  /// have accumulated since the last one. A blown budget therefore trips
  /// within one granule of the limit at this site — and no later than the
  /// caller's next batch-boundary CheckGuard, which re-reads the same
  /// counter, so the one-batch guard invariant is untouched.
  Status Charge(uint64_t bytes) {
    if (guard_ == nullptr) return Status::OK();
    guard_->AddMaterialized(static_cast<int64_t>(bytes));
    bytes_ += bytes;
    pending_check_ += bytes;
    if (pending_check_ < granularity_) return Status::OK();
    pending_check_ = 0;
    return guard_->Check();
  }

  /// Bytes between deferred checkpoints for Charge(); 64 KiB by default.
  void set_charge_granularity(uint64_t bytes) {
    granularity_ = bytes > 0 ? bytes : 1;
  }
  uint64_t charge_granularity() const { return granularity_; }

  /// Refunds `bytes` of the held balance without unbinding — used when data
  /// the reservation covered moves to disk (spill) or a scratch container
  /// is dropped between pipeline stages. Clamped to the balance so a
  /// generous estimate can never drive the guard's accounting negative.
  void Shrink(uint64_t bytes) {
    if (guard_ == nullptr || bytes_ == 0) return;
    if (bytes > bytes_) bytes = bytes_;
    guard_->AddMaterialized(-static_cast<int64_t>(bytes));
    bytes_ -= bytes;
  }

  /// Returns the full balance to the guard.
  void Release() {
    if (guard_ != nullptr && bytes_ != 0) {
      guard_->AddMaterialized(-static_cast<int64_t>(bytes_));
    }
    bytes_ = 0;
    pending_check_ = 0;
  }

  /// Balance currently charged through this reservation.
  uint64_t held() const { return bytes_; }

  /// The guard charges go to (null when unbound).
  QueryGuard* guard() const { return guard_; }

 private:
  QueryGuard* guard_ = nullptr;
  uint64_t bytes_ = 0;
  uint64_t granularity_ = 64 * 1024;  // bytes between Charge() checkpoints
  uint64_t pending_check_ = 0;        // bytes charged since the last one
};

}  // namespace tmdb

#endif  // TMDB_EXEC_QUERY_GUARD_H_
