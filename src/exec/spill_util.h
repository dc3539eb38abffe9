#ifndef TMDB_EXEC_SPILL_UTIL_H_
#define TMDB_EXEC_SPILL_UTIL_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/fault_injector.h"
#include "base/status.h"
#include "base/string_util.h"
#include "exec/exec_context.h"
#include "exec/physical_op.h"
#include "exec/query_guard.h"
#include "spill/partition.h"
#include "spill/spill_file.h"
#include "spill/spill_manager.h"

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

/// The fault injector spill I/O must consult, reached through the guard.
inline FaultInjector* SpillInjectorOf(const ExecContext* ctx) {
  return ctx->guard == nullptr ? nullptr : ctx->guard->injector();
}

/// One spill writer per partition, on kSpillFanout new files named
/// `<name>-p<i>`.
using PartitionWriters = std::vector<std::unique_ptr<SpillWriter>>;
inline Result<PartitionWriters> OpenPartitionWriters(const ExecContext* ctx,
                                                     const std::string& name) {
  PartitionWriters writers(kSpillFanout);
  for (size_t p = 0; p < kSpillFanout; ++p) {
    TMDB_ASSIGN_OR_RETURN(std::string path,
                          ctx->spill->NewFilePath(StrCat(name, "-p", p)));
    writers[p] = std::make_unique<SpillWriter>(
        std::move(path), ctx->spill->block_bytes(), SpillInjectorOf(ctx));
    TMDB_RETURN_IF_ERROR(writers[p]->Open());
  }
  return writers;
}

/// Appends `record`, checkpointing the guard when a block was flushed.
inline Status AppendRecord(const ExecContext* ctx, SpillWriter* writer,
                           std::string_view record) {
  TMDB_RETURN_IF_ERROR(writer->Append(record));
  return writer->TookBlockBoundary() ? CheckGuard(ctx) : Status::OK();
}

/// Finishes every writer, counting its bytes in spill_bytes_written.
inline Status FinishPartitionWriters(const ExecContext* ctx,
                                     const PartitionWriters& writers) {
  for (const std::unique_ptr<SpillWriter>& writer : writers) {
    TMDB_RETURN_IF_ERROR(writer->Finish());
    ctx->stats->spill_bytes_written += writer->stats().bytes;
  }
  return Status::OK();
}

}  // namespace tmdb

#endif  // TMDB_EXEC_SPILL_UTIL_H_
