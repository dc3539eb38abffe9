#ifndef TMDB_EXEC_SPILL_UTIL_H_
#define TMDB_EXEC_SPILL_UTIL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/status.h"
#include "exec/exec_context.h"
#include "exec/physical_op.h"
#include "exec/query_guard.h"
#include "spill/partition.h"
#include "spill/spill_manager.h"
#include "values/value.h"

namespace tmdb {

/// True when a failed status is a memory-budget trip that disk can relieve:
/// spill is configured and the guard recorded the trip kind as memory at
/// trip time. Only a *memory* trip is relieved by disk; max_rows also
/// surfaces as kResourceExhausted but bounds work, not residency — and a
/// live memory_over_budget() reading here would already be stale, since
/// unwinding to the catch site frees scratch. Shared by every operator that
/// degrades to disk (hash/nest join, merge join, ν/ν* grouping, the subplan
/// cache's insertion path).
inline bool SpillEligibleTrip(const ExecContext* ctx, const Status& s) {
  return s.code() == StatusCode::kResourceExhausted && ctx != nullptr &&
         ctx->spill != nullptr && ctx->guard != nullptr &&
         ctx->guard->last_trip_was_memory();
}

// --- Grace partitioning: the disk path of the hash join and of ν/ν* ---
//
// An operator's input goes to kSpillFanout partition files, each row routed
// on its key's hash, so rows with equal keys share a partition. Partitions
// are processed one at a time, and one that still overflows the budget is
// split into kSpillFanout more, one level down. Every record has one
// layout, known only here:
//
//   tag · key · payload
//
// The tag is a varint, the row's index in the input it was spilled from;
// key and payload are EncodeValue images: the key routes the record, the
// payload is what the operator keeps (a join row, ν's element image).
// Splitting reads only tag and key and moves the record's bytes verbatim,
// so a partition's read order is its input order at every level, and the
// output is put back in tag order at the end.

/// Sets the record fields of a row it consumes.
using GraceFieldsFn =
    std::function<Status(Value row, Value* key, Value* payload)>;

/// Spills an operator input to the level-0 partition files `name`: first
/// the salvaged `rows`, then, when `child_open`, the rest of `child`, each
/// row tagged with its index in that sequence and freed once written.
/// Closes `child` and returns the files' paths. `count_built` counts the
/// child's rows in rows_built, as a build input's drain does.
Result<std::vector<std::string>> SpillInput(ExecContext* ctx,
                                            std::string_view name,
                                            std::vector<Value> rows,
                                            PhysicalOp* child, bool child_open,
                                            bool count_built,
                                            const GraceFieldsFn& fields);

/// Calls `fn(tag, key, payload)` for each record of `path` in order,
/// checkpointing the guard at every block boundary and every
/// kExecBatchSize records. Counts the bytes read and closes the file on
/// every path.
Status ForEachRecord(
    ExecContext* ctx, const std::string& path,
    const std::function<Status(uint64_t tag, Value key, Value payload)>& fn);

/// Output rows, each with the tag of the input row it came from.
using TaggedRows = std::vector<std::pair<uint64_t, Value>>;

/// One partition: a file per side of the spilled input.
using GracePart = std::vector<std::string>;

/// An operator's decisions on its partitions.
struct GracePolicy {
  /// The file name of each side ("hj-build", "hj-probe"; "nest").
  std::vector<std::string_view> sides;
  /// Processes one partition, appending to `out` and charging each pair to
  /// the reservation given to RunGrace.
  std::function<Status(const GracePart& part, TaggedRows* out)> process;
  /// Whether the partition whose process just tripped can still split.
  std::function<bool()> splittable;
  /// What that trip comes to when the partition cannot split, or sits at
  /// kMaxSpillDepth.
  std::function<Status(const Status& trip, const GracePart& part,
                       TaggedRows* out)>
      at_bound;
};

/// Processes the level-0 partitions (`files[side][p]` is partition p's file
/// of that side) one at a time and appends their output to `output` in tag
/// order. A spill-eligible memory trip in `process` drops the partition's
/// partial output, refunding `out_res`, and splits every side one level
/// down while the depth bound and `splittable` allow; otherwise `at_bound`
/// decides. A processed partition's files are removed at once, so peak disk
/// stays one recursion path, not the whole input.
Status RunGrace(ExecContext* ctx, const GracePolicy& policy,
                GuardReservation* out_res,
                const std::vector<std::vector<std::string>>& files,
                std::vector<Value>* output);

}  // namespace tmdb

#endif  // TMDB_EXEC_SPILL_UTIL_H_
