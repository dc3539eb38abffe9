// Grace-style spill path of HashJoinOp (all join modes, nest join
// included). Engaged by Open/BuildTables when a memory-budget trip is
// spill-eligible; see the class comment in hash_join.h for the invariants
// (co-partitioning of equal keys, tag-restored output order, guard refund).
// The partition files, their record format and the repartitioning belong to
// spill_util.h; this file decides the keys, what a loaded partition does and
// what happens at the depth bound.

#include <string>
#include <utility>
#include <vector>

#include "base/string_util.h"
#include "exec/hash_join.h"
#include "exec/spill_util.h"

namespace tmdb {

Status HashJoinOp::SpillBuildAndProbe(ExecContext* ctx,
                                      std::vector<Value> build_rows,
                                      bool right_open, bool left_open,
                                      std::vector<Value> pending_left) {
  materialized_ = true;

  // Everything the reservation covered either moves to disk below or is
  // freed as it goes — refund it all so the guard's accounting tracks what
  // is actually resident. (Writer block buffers are small and bounded:
  // 2 × fanout × block_bytes, all freed before partitions are processed.)
  build_res_.Release();

  // A row's record: its composite key, and the row itself as the payload.
  auto keyed_by = [ctx](const std::vector<Expr>& keys, const std::string& var) {
    return [ctx, &keys, &var](Value row, Value* key,
                              Value* payload) -> Status {
      TMDB_ASSIGN_OR_RETURN(*key, EvalCompositeKey(keys, var, row, ctx));
      *payload = std::move(row);
      return Status::OK();
    };
  };
  std::vector<std::string> builds;
  std::vector<std::string> probes;
  {
    // Write-out sheds memory; suspend only the memory comparison (cancel,
    // deadline, max_rows, and injected faults stay live — see QueryGuard).
    MemoryCheckSuspension suspend(ctx->guard);
    TMDB_ASSIGN_OR_RETURN(
        builds, SpillInput(ctx, "hj-build", std::move(build_rows),
                           right_.get(), right_open, /*count_built=*/true,
                           keyed_by(right_keys_, spec_.right_var)));
    ctx->stats->spill_partitions += kSpillFanout;

    // The probe side, co-partitioned on the same hash; its tags are left-row
    // indexes and restore the output order.
    if (!left_open) TMDB_RETURN_IF_ERROR(left_->Open(ctx));
    TMDB_ASSIGN_OR_RETURN(
        probes, SpillInput(ctx, "hj-probe", std::move(pending_left),
                           left_.get(), /*child_open=*/!probe_.left_done,
                           /*count_built=*/false,
                           keyed_by(left_keys_, spec_.left_var)));
  }

  bool probing = false;  // which half of the partition last tripped
  GracePolicy policy{
      {"hj-build", "hj-probe"},
      [&](const GracePart& part, TaggedRows* out) {
        return JoinPartition(ctx, part, &probing, out);
      },
      // Any partition can split again: one hot key recurses to the bound.
      [] { return true; },
      [&](const Status& trip, const GracePart&, TaggedRows*) {
        return trip.WithContext(StrCat(
            "spill recursion limit ", kMaxSpillDepth, " reached; ",
            probing ? "join output alone exceeds the memory budget"
                    : "partition too skewed for the memory budget"));
      }};
  return RunGrace(ctx, policy, &build_res_, {builds, probes}, serve_.rows());
}

Status HashJoinOp::JoinPartition(ExecContext* ctx, const GracePart& part,
                                 bool* probing, TaggedRows* out) {
  // Load the build half into a table of its own. The memory check is live
  // again here: a trip means this partition alone exceeds the budget.
  JoinTable table(right_keys_, spec_.right_var, raw_spec());
  table.Reset(ctx->guard);
  GuardReservation slots;
  slots.Reset(ctx->guard);
  *probing = false;
  Status joined = ForEachRecord(
      ctx, part[0], [&](uint64_t, Value key, Value row) -> Status {
        TMDB_RETURN_IF_ERROR(slots.Add(sizeof(Value)));
        return table.Add(ctx, std::move(row), std::move(key));
      });
  if (joined.ok() && slot_sets_) joined = table.ReserveSets();

  // Stream the co-partitioned probe half against the table. Decoded left
  // rows are transient; only output rows stay resident (charged below). A
  // trip here means table and output no longer fit together: splitting
  // still shrinks the table's share, until the output alone is too much.
  std::vector<Value> row_out;
  uint64_t pairs = 0;
  if (joined.ok()) {
    *probing = true;
    joined = ForEachRecord(
        ctx, part[1], [&](uint64_t tag, Value key, Value left_row) -> Status {
          TMDB_ASSIGN_OR_RETURN(uint32_t slot,
                                ProbeSlot(table, left_row, &key, ctx));
          row_out.clear();
          TMDB_RETURN_IF_ERROR(
              ProcessMatch(table, left_row, slot, ctx, &pairs, &row_out));
          if (!row_out.empty()) {
            TMDB_RETURN_IF_ERROR(build_res_.Add(
                row_out.size() * sizeof(TaggedRows::value_type)));
            for (Value& v : row_out) out->emplace_back(tag, std::move(v));
          }
          return Status::OK();
        });
  }
  slots.Release();
  table.Reset(nullptr);
  return joined;
}

}  // namespace tmdb
