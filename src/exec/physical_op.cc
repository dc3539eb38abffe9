#include "exec/physical_op.h"

#include "base/string_util.h"
#include "exec/query_guard.h"

namespace tmdb {

std::string ExecStats::ToString() const {
  std::string out =
      StrCat("rows_emitted=", rows_emitted,
             " predicate_evals=", predicate_evals,
             " subplan_evals=", subplan_evals, " hash_probes=", hash_probes,
             " rows_built=", rows_built);
  if (spill_partitions > 0 || spill_sort_runs > 0) {
    out += StrCat(" spill_partitions=", spill_partitions,
                  " spill_bytes_written=", spill_bytes_written,
                  " spill_bytes_read=", spill_bytes_read,
                  " spill_max_depth=", spill_max_depth,
                  " spill_sort_runs=", spill_sort_runs);
  }
  if (subplan_cache_hits > 0 || subplan_cache_misses > 0 ||
      subplan_cache_evictions > 0) {
    out += StrCat(" subplan_cache_hits=", subplan_cache_hits,
                  " subplan_cache_misses=", subplan_cache_misses,
                  " subplan_cache_evictions=", subplan_cache_evictions);
  }
  if (subplan_cache_disk_evictions > 0 || subplan_cache_disk_faults > 0) {
    out += StrCat(" subplan_cache_disk_evictions=", subplan_cache_disk_evictions,
                  " subplan_cache_disk_faults=", subplan_cache_disk_faults);
  }
  if (guard_checkpoints > 0) {
    out += StrCat(" guard_checkpoints=", guard_checkpoints);
  }
  if (strategy_chosen > 0) {
    out += StrCat(" strategy_chosen=", strategy_chosen,
                  " strategy_switches=", strategy_switches,
                  " est_distinct_corr=", est_distinct_corr);
  }
  if (morsels_dispatched > 0) {
    out += StrCat(" morsels_dispatched=", morsels_dispatched,
                  " morsels_stolen=", morsels_stolen);
  }
  return out;
}

namespace {

void PrintTree(const PhysicalOp& op, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(op.Describe());
  out->append("\n");
  for (const PhysicalOp* child : op.children()) {
    PrintTree(*child, depth + 1, out);
  }
}

}  // namespace

std::string PhysicalOp::ToString() const {
  std::string out;
  PrintTree(*this, 0, &out);
  return out;
}

Result<ColumnBatch> PhysicalOp::NextColumnBatch() {
  return Status::Internal(
      StrCat("NextColumnBatch on a row-only operator: ", Describe()));
}

Result<std::vector<Value>> CollectRows(PhysicalOp* op, ExecContext* ctx) {
  Status status = op->Open(ctx);
  if (!status.ok()) {
    // Close even though Open failed: a composite operator may have
    // materialised part of its input (or opened children) before tripping.
    op->Close();
    return status;
  }
  std::vector<Value> rows;
  while (true) {
    status = CheckGuard(ctx);
    if (!status.ok()) break;
    auto appended = op->NextBatch(&rows, kExecBatchSize);
    if (!appended.ok()) {
      status = appended.status();
      break;
    }
    if (*appended == 0) break;
  }
  op->Close();
  if (!status.ok()) return status;
  return rows;
}

}  // namespace tmdb
