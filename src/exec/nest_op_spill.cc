// Grace-style spill path of NestOp (ν and ν*). Engaged by Open when a
// memory trip during the drain or the grouping is spill-eligible, at any
// thread count (the spill path itself is serial, and its tag discipline
// reproduces the in-memory output either way).
//
// Rows are hash-partitioned by group key through the Grace module of
// spill_util.h, each record's payload the row's element image and its tag
// the input row index. A partition is grouped in read order — which equals
// input order, because writes are sequential and repartitioning moves
// records verbatim — so element order inside each group matches the
// in-memory paths: each partition groups into a JoinTable of its own, like
// the in-memory path. Group tuples collect as (first-occurrence tag, row)
// pairs and AppendInTagOrder restores the in-memory group order bit for bit.

#include <string>
#include <utility>
#include <vector>

#include "exec/nest_op.h"
#include "exec/spill_util.h"
#include "expr/eval.h"

namespace tmdb {

Status NestOp::SpillGroup(std::vector<Value> rows, bool drained) {
  // Everything the reservation covered either moves to disk below or is
  // freed as it goes — refund it all so the guard tracks actual residency.
  build_res_.Release();

  std::vector<std::string> parts;
  {
    // Write-out sheds memory; suspend only the memory comparison (cancel,
    // deadline, max_rows, and injected faults stay live).
    MemoryCheckSuspension suspend(ctx_->guard);
    TMDB_ASSIGN_OR_RETURN(
        parts,
        SpillInput(ctx_, "nest", std::move(rows), child_.get(), !drained,
                   /*count_built=*/true,
                   [&](Value row, Value* key, Value* elem) -> Status {
                     TMDB_ASSIGN_OR_RETURN(*key, KeyOf(row));
                     // The element image is evaluated here, once per row in
                     // input order — the same evaluation sequence as the
                     // serial in-memory path — and spilled, so a group's
                     // elements never need to be resident together until
                     // its own partition is processed.
                     Environment env(ctx_->outer_env);
                     env.Bind(var_, row);
                     TMDB_ASSIGN_OR_RETURN(
                         *elem, EvalExpr(elem_, env, ctx_->subplans));
                     return Status::OK();
                   }));
    ctx_->stats->spill_partitions += kSpillFanout;
  }

  // A partition that cannot split further — one group key, or the depth
  // bound reached — runs a forced pass with the memory comparison suspended
  // instead: its groups must become resident output rows no matter what,
  // which is exactly the accounting the in-memory paths apply to their own
  // output.
  size_t keys_seen = 0;
  GracePolicy policy{
      {"nest"},
      [&](const GracePart& part, TaggedRows* out) {
        return GroupPartition(part[0], /*forced=*/false, &keys_seen, out);
      },
      [&] { return keys_seen > 1; },
      [&](const Status&, const GracePart& part, TaggedRows* out) {
        return GroupPartition(part[0], /*forced=*/true, &keys_seen, out);
      }};
  return RunGrace(ctx_, policy, &build_res_, {parts}, &output_);
}

Status NestOp::GroupPartition(const std::string& path, bool forced,
                              size_t* keys_seen, TaggedRows* out) {
  // Group in read order (= input order). Unless forced, the memory check is
  // live: a trip with several distinct keys in sight means the partition
  // can still be split.
  MemoryCheckSuspension suspend(forced ? ctx_->guard : nullptr);
  JoinTable table;
  table.Reset(ctx_->guard);
  std::vector<uint64_t> first_tag;  // per slot
  GuardReservation slots;
  slots.Reset(ctx_->guard);
  Status grouped = [&]() -> Status {
    TMDB_RETURN_IF_ERROR(ForEachRecord(
        ctx_, path, [&](uint64_t tag, Value key, Value elem) -> Status {
          TMDB_RETURN_IF_ERROR(slots.Add(2 * sizeof(Value)));
          const size_t groups = table.num_slots();
          TMDB_RETURN_IF_ERROR(
              table.Add(ctx_, std::move(elem), std::move(key)));
          if (table.num_slots() > groups) first_tag.push_back(tag);
          return Status::OK();
        }));
    // Emit this partition's groups; the output rows are resident state and
    // charge the operator's main reservation.
    for (uint32_t g = 0; g < table.num_slots(); ++g) {
      TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx_, g));
      TMDB_ASSIGN_OR_RETURN(Value row, GroupTuple(table, g));
      TMDB_RETURN_IF_ERROR(build_res_.Add(sizeof(TaggedRows::value_type)));
      out->emplace_back(first_tag[g], std::move(row));
    }
    return Status::OK();
  }();
  *keys_seen = table.num_slots();  // partial on failure = keys at trip time
  table.Reset(nullptr);
  slots.Release();
  return grouped;
}

}  // namespace tmdb
