#ifndef TMDB_VALUES_VALUE_MEM_H_
#define TMDB_VALUES_VALUE_MEM_H_

#include <cstdint>

namespace tmdb {

/// Process-wide accounting of live Value heap bytes, feeding the executor's
/// memory budget (QueryGuard) so a budget trips before the allocator does.
///
/// Tracking is off by default: building a String, Tuple, Set or List then
/// costs one relaxed atomic load (NULL, Bool, Int and Real live in the
/// Value handle and are never tracked: they allocate nothing). While at
/// least one EnableTracking() call is outstanding, each newly built rep
/// (and each new TupleNames list) records its shallow footprint (the rep,
/// string payloads, attribute names, child slots) and adds it to a global
/// relaxed counter; freeing the rep subtracts exactly what was added. Reps
/// built while tracking was off carry a zero footprint, so toggling
/// mid-stream never drives the counter negative — the counter measures
/// "bytes of tracked values still live", a sound lower bound on live Value
/// memory.
///
/// Shared reps are counted once no matter how many Value handles alias
/// them, matching what the allocator sees. The counter is process-wide:
/// every thread's values count, whichever query or session built them.
class ValueMemory {
 public:
  /// Nestable (refcounted) enable/disable. Typically driven by
  /// QueryGuard::Reset when a memory budget is set.
  static void EnableTracking();
  static void DisableTracking();

  /// True while any EnableTracking() is outstanding.
  static bool tracking_enabled();

  /// Live tracked bytes. Relaxed read; exact once all writers quiesce.
  static int64_t LiveBytes();

  /// Internal: called by the Value factories and when a rep is freed.
  static void Add(int64_t delta);
};

}  // namespace tmdb

#endif  // TMDB_VALUES_VALUE_MEM_H_
