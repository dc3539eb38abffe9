#ifndef TMDB_EXEC_ARENA_H_
#define TMDB_EXEC_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/result.h"
#include "exec/query_guard.h"

namespace tmdb {

/// Default arena block size — also the granularity at which arena memory is
/// charged (and checkpointed) against the query's memory budget.
inline constexpr size_t kArenaBlockBytes = 64 * 1024;

/// Block size for an arena whose owner allocates a few arrays it sizes up
/// front (a filter's selection scratch):
/// every allocation gets a block of exactly its 16-byte-aligned size, so the
/// guard is charged only the bytes the owner asked for. A few KiB of keys
/// then cost a few KiB of budget, not a whole default block.
inline constexpr size_t kArenaExactBlocks = 1;

/// Block bump allocator backing per-query transient buffers: column
/// gather and selection scratch.
///
/// Allocations are trivially-destructible flat buffers only — the arena
/// never runs destructors. Memory is charged to the bound QueryGuard one
/// block at a time through a GuardReservation, so a per-element allocation
/// costs a pointer bump while budget trips still fire within one block of
/// the limit; Reset() frees every block and refunds the full charge, which
/// is how operators drop their scratch when diverting to the row or spill
/// path (the plan may outlive the executor, so Reset also runs at
/// Open/Close). With kArenaExactBlocks each allocation is its own block, so
/// the charge is exact rather than block-rounded.
///
/// Not thread-safe: operators allocate from the coordinating thread only;
/// morsel workers receive raw pointers into already-allocated (read-only)
/// arrays.
class Arena {
 public:
  explicit Arena(size_t block_bytes = kArenaBlockBytes)
      : block_bytes_(block_bytes == 0 ? kArenaBlockBytes : block_bytes) {}
  ~Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Rebinds the guard the blocks are charged to, releasing any held
  /// memory first (an arena never carries blocks across runs).
  void Bind(QueryGuard* guard) {
    Reset();
    res_.Reset(guard);
  }

  /// Allocates `bytes` (16-byte aligned). A new block is charged — and the
  /// guard checkpointed — before it is touched, so a blown budget fails the
  /// allocation instead of materialising invisible memory.
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
  struct Block {
    std::unique_ptr<char[]> data;
    size_t size = 0;
    size_t used = 0;
  };

  size_t block_bytes_;
  std::vector<Block> blocks_;
  GuardReservation res_;
};

}  // namespace tmdb

#endif  // TMDB_EXEC_ARENA_H_
