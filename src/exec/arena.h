#ifndef TMDB_EXEC_ARENA_H_
#define TMDB_EXEC_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "base/result.h"
#include "exec/query_guard.h"

namespace tmdb {

/// Allocator of per-query transient buffers: a columnar filter's mask,
/// selection and predicate scratch, arrays its owner sizes up front.
///
/// Allocations are trivially-destructible flat buffers only — the arena
/// never runs destructors. Each allocation is its own block of exactly its
/// 16-byte-aligned size, charged to the bound QueryGuard through a
/// GuardReservation before it is allocated, so a few KiB of scratch cost a
/// few KiB of budget. Reset() frees every block and refunds the full
/// charge, which is how operators drop their scratch when diverting to the
/// row path (the plan may outlive the executor, so Reset also runs at
/// Open/Close).
///
/// Not thread-safe: operators allocate from the coordinating thread only;
/// morsel workers receive raw pointers into already-allocated (read-only)
/// arrays.
class Arena {
 public:
  Arena() = default;
  ~Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Rebinds the guard the blocks are charged to, releasing any held
  /// memory first (an arena never carries blocks across runs).
  void Bind(QueryGuard* guard) {
    Reset();
    res_.Reset(guard);
  }

  /// Allocates `bytes` (16-byte aligned). The block is charged — and the
  /// guard checkpointed — before it is allocated, so a blown budget fails
  /// the allocation instead of materialising invisible memory.
  Result<void*> Allocate(size_t bytes);

  /// Typed array helper; T must be trivially destructible.
  template <typename T>
  Result<T*> AllocateArray(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory never runs destructors");
    TMDB_ASSIGN_OR_RETURN(void* p, Allocate(n * sizeof(T)));
    return static_cast<T*>(p);
  }

  /// Frees all blocks and refunds the whole reservation.
  void Reset();

  /// Total bytes currently charged to the guard for this arena.
  uint64_t bytes_charged() const { return res_.held(); }

  /// True when `s` is the bound guard's memory-budget trip — not max_rows,
  /// cancellation, a deadline or an injected fault. The columnar filter
  /// answers one by calling Reset() and continuing on the row path, which
  /// holds none of this memory; every other failure propagates.
  bool IsMemoryTrip(const Status& s) const {
    return s.code() == StatusCode::kResourceExhausted &&
           res_.guard() != nullptr && res_.guard()->last_trip_was_memory();
  }

 private:
  std::vector<std::unique_ptr<char[]>> blocks_;
  GuardReservation res_;
};

}  // namespace tmdb

#endif  // TMDB_EXEC_ARENA_H_
