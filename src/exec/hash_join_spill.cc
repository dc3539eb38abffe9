// Grace-style spill path of HashJoinOp (all join modes, nest join
// included). Engaged by Open/BuildTables when a memory-budget trip is
// spill-eligible; see the class comment in hash_join.h for the invariants
// (co-partitioning of equal keys, tag-restored output order, guard refund).

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/string_util.h"
#include "exec/hash_join.h"
#include "exec/spill_util.h"
#include "spill/value_codec.h"

namespace tmdb {

Status HashJoinOp::SpillBuildAndProbe(ExecContext* ctx,
                                      std::vector<Value> build_rows,
                                      bool right_open, bool left_open,
                                      std::vector<Value> pending_left) {
  spilled_ = true;
  materialized_ = true;

  // Everything the reservation covered either moves to disk below or is
  // freed as it goes — refund it all so the guard's accounting tracks what
  // is actually resident. (Writer block buffers are small and bounded:
  // 2 × fanout × block_bytes, all freed before partitions are processed.)
  build_res_.Release();

  std::vector<SpillPart> parts(kSpillFanout);
  {
    // Write-out sheds memory; suspend only the memory comparison (cancel,
    // deadline, max_rows, and injected faults stay live — see QueryGuard).
    MemoryCheckSuspension suspend(ctx->guard);
    std::string scratch;

    // --- build side out ---
    TMDB_ASSIGN_OR_RETURN(PartitionWriters writers,
                          OpenPartitionWriters(ctx, "hj-build-d0"));
    auto spill_build_row = [&](Value row) -> Status {
      TMDB_ASSIGN_OR_RETURN(Value key, EvalCompositeKey(right_keys_,
                                                        spec_.right_var,
                                                        row, ctx));
      const size_t p = SpillPartitionOf(key.Hash(), /*level=*/0);
      scratch.clear();
      EncodeValue(key, &scratch);
      EncodeValue(row, &scratch);
      return AppendRecord(ctx, writers[p].get(), scratch);
    };
    for (size_t i = 0; i < build_rows.size(); ++i) {
      TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx, i));
      Value row = std::move(build_rows[i]);
      build_rows[i] = Value();  // free the rep promptly; memory falls as we go
      TMDB_RETURN_IF_ERROR(spill_build_row(std::move(row)));
    }
    build_rows.clear();
    build_rows.shrink_to_fit();
    if (right_open) {
      std::vector<Value> batch;
      while (true) {
        TMDB_RETURN_IF_ERROR(CheckGuard(ctx));
        batch.clear();
        TMDB_ASSIGN_OR_RETURN(size_t got,
                              right_->NextBatch(&batch, kExecBatchSize));
        if (got == 0) break;
        ctx->stats->rows_built += got;
        for (Value& row : batch) {
          TMDB_RETURN_IF_ERROR(spill_build_row(std::move(row)));
        }
      }
    }
    right_->Close();
    TMDB_RETURN_IF_ERROR(FinishPartitionWriters(ctx, writers));
    ctx->stats->spill_partitions += kSpillFanout;

    // --- probe side out, co-partitioned on the same hash ---
    if (!left_open) TMDB_RETURN_IF_ERROR(left_->Open(ctx));
    TMDB_ASSIGN_OR_RETURN(PartitionWriters pwriters,
                          OpenPartitionWriters(ctx, "hj-probe-d0"));
    for (size_t p = 0; p < kSpillFanout; ++p) {
      parts[p] = {writers[p]->path(), pwriters[p]->path()};
    }
    uint64_t tag = 0;  // left-row index from here on; restores output order
    auto spill_probe_rows = [&](std::vector<Value>* rows) -> Status {
      for (Value& left_row : *rows) {
        TMDB_ASSIGN_OR_RETURN(Value key, EvalCompositeKey(left_keys_,
                                                          spec_.left_var,
                                                          left_row, ctx));
        const size_t p = SpillPartitionOf(key.Hash(), /*level=*/0);
        scratch.clear();
        PutVarint(tag++, &scratch);
        EncodeValue(key, &scratch);
        EncodeValue(left_row, &scratch);
        left_row = Value();
        TMDB_RETURN_IF_ERROR(AppendRecord(ctx, pwriters[p].get(), scratch));
      }
      rows->clear();
      return Status::OK();
    };
    TMDB_RETURN_IF_ERROR(spill_probe_rows(&pending_left));
    std::vector<Value> batch;
    while (true) {
      TMDB_RETURN_IF_ERROR(CheckGuard(ctx));
      TMDB_ASSIGN_OR_RETURN(size_t got, left_->NextBatch(&batch,
                                                         kExecBatchSize));
      if (got == 0) break;
      TMDB_RETURN_IF_ERROR(spill_probe_rows(&batch));
    }
    left_->Close();
    TMDB_RETURN_IF_ERROR(FinishPartitionWriters(ctx, pwriters));
  }

  // --- one partition at a time, recursing where one still overflows ---
  std::vector<std::pair<uint64_t, Value>> tagged;
  for (size_t p = 0; p < kSpillFanout; ++p) {
    TMDB_RETURN_IF_ERROR(ProcessSpillPartition(ctx, parts[p], /*depth=*/0,
                                               &tagged));
  }

  // Restore the original probe order bit for bit: tags are left-row
  // indexes, and the stable sort keeps each row's outputs in bucket order.
  std::stable_sort(
      tagged.begin(), tagged.end(),
      [](const std::pair<uint64_t, Value>& a,
         const std::pair<uint64_t, Value>& b) { return a.first < b.first; });
  std::vector<Value>* serve = serve_.rows();
  serve->reserve(serve->size() + tagged.size());
  for (auto& entry : tagged) serve->push_back(std::move(entry.second));
  return Status::OK();
}

Status HashJoinOp::ProcessSpillPartition(
    ExecContext* ctx, const SpillPart& part, int depth,
    std::vector<std::pair<uint64_t, Value>>* out) {
  SpillManager* mgr = ctx->spill;
  FaultInjector* inj = SpillInjectorOf(ctx);
  const size_t out_base = out->size();
  ctx->stats->spill_max_depth =
      std::max<uint64_t>(ctx->stats->spill_max_depth,
                         static_cast<uint64_t>(depth) + 1);

  // Load this partition's build half into a table of its own. The memory
  // check is live again here: a trip means this partition alone exceeds the
  // budget, and we recurse instead of failing (up to the depth bound).
  JoinTable table(right_keys_, spec_.right_var, raw_spec());
  table.Reset(ctx->guard);
  GuardReservation slots;
  slots.Reset(ctx->guard);
  SpillReader build_reader(part.build_path, inj);
  Status load = [&]() -> Status {
    TMDB_RETURN_IF_ERROR(build_reader.Open());
    ValueDecoder key_decoder;
    ValueDecoder row_decoder;
    size_t i = 0;
    while (true) {
      std::string_view rec;
      bool eof = false;
      TMDB_RETURN_IF_ERROR(build_reader.Next(&rec, &eof));
      if (eof) break;
      if (build_reader.TookBlockBoundary()) {
        TMDB_RETURN_IF_ERROR(CheckGuard(ctx));
      }
      TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx, i++));
      size_t pos = 0;
      Value key;
      Value row;
      TMDB_RETURN_IF_ERROR(key_decoder.Decode(rec, &pos, &key));
      TMDB_RETURN_IF_ERROR(row_decoder.Decode(rec, &pos, &row));
      TMDB_RETURN_IF_ERROR(slots.Add(sizeof(Value)));
      TMDB_RETURN_IF_ERROR(table.Add(ctx, std::move(row), std::move(key)));
    }
    return slot_sets_ ? table.ReserveSets() : Status::OK();
  }();
  ctx->stats->spill_bytes_read += build_reader.stats().bytes;
  build_reader.Close();
  if (!load.ok()) {
    table.Reset(nullptr);
    slots.Release();
    const bool memory_trip = SpillEligibleTrip(ctx, load);
    if (memory_trip && depth < kMaxSpillDepth) {
      return RepartitionAndRecurse(ctx, part, depth, out);
    }
    if (memory_trip) {
      return load.WithContext(
          StrCat("spill recursion limit ", kMaxSpillDepth,
                 " reached; partition too skewed for the memory budget"));
    }
    return load;
  }

  // Stream the co-partitioned probe half against the table. Decoded left
  // rows are transient; only output rows stay resident (charged below).
  SpillReader probe_reader(part.probe_path, inj);
  Status probe = [&]() -> Status {
    TMDB_RETURN_IF_ERROR(probe_reader.Open());
    ValueDecoder key_decoder;
    ValueDecoder row_decoder;
    std::vector<Value> row_out;
    size_t i = 0;
    uint64_t pairs = 0;
    while (true) {
      std::string_view rec;
      bool eof = false;
      TMDB_RETURN_IF_ERROR(probe_reader.Next(&rec, &eof));
      if (eof) break;
      if (probe_reader.TookBlockBoundary()) {
        TMDB_RETURN_IF_ERROR(CheckGuard(ctx));
      }
      TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx, i++));
      size_t pos = 0;
      uint64_t tag = 0;
      Value key;
      Value left_row;
      TMDB_RETURN_IF_ERROR(GetVarint(rec, &pos, &tag));
      TMDB_RETURN_IF_ERROR(key_decoder.Decode(rec, &pos, &key));
      TMDB_RETURN_IF_ERROR(row_decoder.Decode(rec, &pos, &left_row));
      TMDB_ASSIGN_OR_RETURN(uint32_t slot,
                            ProbeSlot(table, left_row, &key, ctx));
      row_out.clear();
      TMDB_RETURN_IF_ERROR(
          ProcessMatch(table, left_row, slot, ctx, &pairs, &row_out));
      if (!row_out.empty()) {
        TMDB_RETURN_IF_ERROR(build_res_.Add(
            row_out.size() * sizeof(std::pair<uint64_t, Value>)));
        for (Value& v : row_out) out->emplace_back(tag, std::move(v));
      }
    }
    return Status::OK();
  }();
  ctx->stats->spill_bytes_read += probe_reader.stats().bytes;
  probe_reader.Close();
  slots.Release();
  table.Reset(nullptr);
  if (!probe.ok()) {
    // A memory trip *during the probe* means table + accumulated output no
    // longer fit together. Recursing still helps — it shrinks the table's
    // share — so drop this partition's partial output (refunding its
    // charge) and retry one level deeper. Only when the output alone
    // exhausts the budget does the recursion bottom out and fail.
    const bool memory_trip = SpillEligibleTrip(ctx, probe);
    if (memory_trip && depth < kMaxSpillDepth) {
      build_res_.Shrink((out->size() - out_base) *
                        sizeof(std::pair<uint64_t, Value>));
      out->resize(out_base);
      return RepartitionAndRecurse(ctx, part, depth, out);
    }
    if (memory_trip) {
      return probe.WithContext(
          StrCat("spill recursion limit ", kMaxSpillDepth,
                 " reached; join output alone exceeds the memory budget"));
    }
    return probe;
  }

  // This partition is fully joined; its files go away now, not at query
  // end, so peak disk stays one recursion path, not the whole input.
  mgr->RemoveFile(part.build_path);
  mgr->RemoveFile(part.probe_path);
  return Status::OK();
}

Status HashJoinOp::RepartitionAndRecurse(
    ExecContext* ctx, const SpillPart& part, int depth,
    std::vector<std::pair<uint64_t, Value>>* out) {
  SpillManager* mgr = ctx->spill;
  FaultInjector* inj = SpillInjectorOf(ctx);
  std::vector<SpillPart> subparts(kSpillFanout);
  {
    MemoryCheckSuspension suspend(ctx->guard);
    for (int side = 0; side < 2; ++side) {
      const bool is_build = side == 0;
      const std::string& src = is_build ? part.build_path : part.probe_path;
      TMDB_ASSIGN_OR_RETURN(
          PartitionWriters writers,
          OpenPartitionWriters(ctx, StrCat("hj-", is_build ? "build" : "probe",
                                           "-d", depth + 1)));
      for (size_t p = 0; p < kSpillFanout; ++p) {
        (is_build ? subparts[p].build_path : subparts[p].probe_path) =
            writers[p]->path();
      }
      SpillReader reader(src, inj);
      Status moved = [&]() -> Status {
        TMDB_RETURN_IF_ERROR(reader.Open());
        size_t i = 0;
        while (true) {
          std::string_view rec;
          bool eof = false;
          TMDB_RETURN_IF_ERROR(reader.Next(&rec, &eof));
          if (eof) break;
          if (reader.TookBlockBoundary()) TMDB_RETURN_IF_ERROR(CheckGuard(ctx));
          TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx, i++));
          // Route on the key alone; the record's bytes move verbatim, so a
          // row is never re-encoded on its way down the recursion.
          size_t pos = 0;
          if (!is_build) {
            uint64_t tag = 0;
            TMDB_RETURN_IF_ERROR(GetVarint(rec, &pos, &tag));
          }
          Value key;
          TMDB_RETURN_IF_ERROR(DecodeValue(rec, &pos, &key));
          const size_t p = SpillPartitionOf(key.Hash(), depth + 1);
          TMDB_RETURN_IF_ERROR(AppendRecord(ctx, writers[p].get(), rec));
        }
        return Status::OK();
      }();
      ctx->stats->spill_bytes_read += reader.stats().bytes;
      reader.Close();
      TMDB_RETURN_IF_ERROR(moved);
      TMDB_RETURN_IF_ERROR(FinishPartitionWriters(ctx, writers));
      if (is_build) ctx->stats->spill_partitions += kSpillFanout;
      mgr->RemoveFile(src);
    }
  }
  for (size_t p = 0; p < kSpillFanout; ++p) {
    TMDB_RETURN_IF_ERROR(ProcessSpillPartition(ctx, subparts[p], depth + 1,
                                               out));
  }
  return Status::OK();
}

}  // namespace tmdb
