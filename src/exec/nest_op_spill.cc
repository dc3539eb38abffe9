// Grace-style spill path of NestOp (ν and ν*). Engaged by Open when a
// memory trip during the drain or the grouping is spill-eligible, at any
// thread count (the spill path itself is serial, and its tag discipline
// reproduces the in-memory output either way).
//
// Rows are hash-partitioned by group key into spill files, each record
// carrying its input row index as a varint tag plus the encoded key and
// element image. A partition is grouped in read order — which equals input
// order, because writes are sequential and repartitioning moves records
// verbatim — so element order inside each group matches the in-memory
// paths: each partition groups into a JoinTable of its own, like the
// in-memory path. Group tuples collect as (first-occurrence tag, row) pairs
// and a final stable sort by tag restores the in-memory group order bit for
// bit.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/string_util.h"
#include "exec/nest_op.h"
#include "exec/spill_util.h"
#include "expr/eval.h"
#include "spill/value_codec.h"
#include "values/value_ops.h"

namespace tmdb {

Status NestOp::SpillGroup(std::vector<Value> rows, bool drained) {

  // Everything the reservation covered either moves to disk below or is
  // freed as it goes — refund it all so the guard tracks actual residency.
  build_res_.Release();

  std::vector<std::string> parts(kSpillFanout);
  {
    // Write-out sheds memory; suspend only the memory comparison (cancel,
    // deadline, max_rows, and injected faults stay live).
    MemoryCheckSuspension suspend(ctx_->guard);
    std::string scratch;
    TMDB_ASSIGN_OR_RETURN(PartitionWriters writers,
                          OpenPartitionWriters(ctx_, "nest-d0"));
    for (size_t p = 0; p < kSpillFanout; ++p) parts[p] = writers[p]->path();
    uint64_t tag = 0;  // input row index; restores group insertion order
    auto spill_row = [&](const Value& row) -> Status {
      TMDB_ASSIGN_OR_RETURN(Value key, KeyOf(row));
      // The element image is evaluated here, once per row in input order —
      // the same evaluation sequence as the serial in-memory path — and
      // spilled, so a group's elements never need to be resident together
      // until its own partition is processed.
      Environment env(ctx_->outer_env);
      env.Bind(var_, row);
      TMDB_ASSIGN_OR_RETURN(Value elem, EvalExpr(elem_, env, ctx_->subplans));
      const size_t p = SpillPartitionOf(key.Hash(), /*level=*/0);
      scratch.clear();
      PutVarint(tag++, &scratch);
      EncodeValue(key, &scratch);
      EncodeValue(elem, &scratch);
      return AppendRecord(ctx_, writers[p].get(), scratch);
    };
    for (size_t i = 0; i < rows.size(); ++i) {
      TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx_, i));
      Value row = std::move(rows[i]);
      rows[i] = Value();  // free the rep promptly; memory falls as we go
      TMDB_RETURN_IF_ERROR(spill_row(row));
    }
    rows.clear();
    rows.shrink_to_fit();
    if (!drained) {
      std::vector<Value> batch;
      while (true) {
        TMDB_RETURN_IF_ERROR(CheckGuard(ctx_));
        batch.clear();
        TMDB_ASSIGN_OR_RETURN(size_t got,
                              child_->NextBatch(&batch, kExecBatchSize));
        if (got == 0) break;
        ctx_->stats->rows_built += got;
        for (Value& row : batch) {
          Value r = std::move(row);
          row = Value();
          TMDB_RETURN_IF_ERROR(spill_row(r));
        }
      }
    }
    child_->Close();
    TMDB_RETURN_IF_ERROR(FinishPartitionWriters(ctx_, writers));
    ctx_->stats->spill_partitions += kSpillFanout;
  }

  // One partition at a time, recursing where one's group state still
  // overflows the budget.
  std::vector<std::pair<uint64_t, Value>> tagged;
  for (size_t p = 0; p < kSpillFanout; ++p) {
    TMDB_RETURN_IF_ERROR(ProcessNestPartition(parts[p], /*depth=*/0, &tagged));
  }

  std::stable_sort(
      tagged.begin(), tagged.end(),
      [](const std::pair<uint64_t, Value>& a,
         const std::pair<uint64_t, Value>& b) { return a.first < b.first; });
  output_.reserve(tagged.size());
  for (auto& entry : tagged) output_.push_back(std::move(entry.second));
  return Status::OK();
}

Status NestOp::ProcessNestPartition(
    const std::string& path, int depth,
    std::vector<std::pair<uint64_t, Value>>* out) {
  SpillManager* mgr = ctx_->spill;
  FaultInjector* inj = SpillInjectorOf(ctx_);
  const size_t out_base = out->size();
  ctx_->stats->spill_max_depth = std::max<uint64_t>(
      ctx_->stats->spill_max_depth, static_cast<uint64_t>(depth) + 1);

  // Group this partition in read order (= input order). The memory check is
  // live on the first pass: a trip with several distinct keys in sight means
  // the partition can still be split, and we recurse. A partition that
  // cannot split further — one group key, or the depth bound reached — runs
  // a forced pass with the memory comparison suspended instead: its groups
  // must become resident output rows no matter what, which is exactly the
  // accounting the in-memory paths apply to their own output.
  size_t keys_seen = 0;
  auto load_and_emit = [&](bool forced) -> Status {
    MemoryCheckSuspension suspend(forced ? ctx_->guard : nullptr);
    JoinTable table;
    table.Reset(ctx_->guard);
    std::vector<uint64_t> first_tag;  // per slot
    GuardReservation slots;
    slots.Reset(ctx_->guard);
    SpillReader reader(path, inj);
    Status load = [&]() -> Status {
      TMDB_RETURN_IF_ERROR(reader.Open());
      ValueDecoder key_decoder;
      ValueDecoder elem_decoder;
      size_t i = 0;
      while (true) {
        std::string_view rec;
        bool eof = false;
        TMDB_RETURN_IF_ERROR(reader.Next(&rec, &eof));
        if (eof) break;
        if (reader.TookBlockBoundary()) {
          TMDB_RETURN_IF_ERROR(CheckGuard(ctx_));
        }
        TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx_, i++));
        size_t pos = 0;
        uint64_t tag = 0;
        Value key;
        Value elem;
        TMDB_RETURN_IF_ERROR(GetVarint(rec, &pos, &tag));
        TMDB_RETURN_IF_ERROR(key_decoder.Decode(rec, &pos, &key));
        TMDB_RETURN_IF_ERROR(elem_decoder.Decode(rec, &pos, &elem));
        TMDB_RETURN_IF_ERROR(slots.Add(2 * sizeof(Value)));
        const size_t groups = table.num_slots();
        TMDB_RETURN_IF_ERROR(table.Add(ctx_, std::move(elem), std::move(key)));
        if (table.num_slots() > groups) first_tag.push_back(tag);
      }
      // Emit this partition's groups; the output rows are resident state
      // and charge the operator's main reservation.
      for (uint32_t g = 0; g < table.num_slots(); ++g) {
        TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx_, g));
        TMDB_ASSIGN_OR_RETURN(Value row, GroupTuple(table, g));
        TMDB_RETURN_IF_ERROR(
            build_res_.Add(sizeof(std::pair<uint64_t, Value>)));
        out->emplace_back(first_tag[g], std::move(row));
      }
      return Status::OK();
    }();
    ctx_->stats->spill_bytes_read += reader.stats().bytes;
    reader.Close();
    keys_seen = table.num_slots();  // partial on failure = keys at trip time
    table.Reset(nullptr);
    slots.Release();
    return load;
  };

  Status load = load_and_emit(/*forced=*/false);
  if (!load.ok()) {
    if (!SpillEligibleTrip(ctx_, load)) return load;
    // Drop this pass's partial output, refunding its charge; the spill file
    // is only removed on success, so the retry re-reads it cleanly.
    build_res_.Shrink((out->size() - out_base) *
                      sizeof(std::pair<uint64_t, Value>));
    out->resize(out_base);
    if (keys_seen > 1 && depth < kMaxSpillDepth) {
      return RepartitionNest(path, depth, out);
    }
    TMDB_RETURN_IF_ERROR(load_and_emit(/*forced=*/true));
  }

  // This partition is fully grouped; its file goes away now, not at query
  // end, so peak disk stays one recursion path, not the whole input.
  mgr->RemoveFile(path);
  return Status::OK();
}

Status NestOp::RepartitionNest(const std::string& path, int depth,
                               std::vector<std::pair<uint64_t, Value>>* out) {
  SpillReader reader(path, SpillInjectorOf(ctx_));
  std::vector<std::string> subparts(kSpillFanout);
  {
    MemoryCheckSuspension suspend(ctx_->guard);
    TMDB_ASSIGN_OR_RETURN(
        PartitionWriters writers,
        OpenPartitionWriters(ctx_, StrCat("nest-d", depth + 1)));
    for (size_t p = 0; p < kSpillFanout; ++p) subparts[p] = writers[p]->path();
    Status moved = [&]() -> Status {
      TMDB_RETURN_IF_ERROR(reader.Open());
      size_t i = 0;
      while (true) {
        std::string_view rec;
        bool eof = false;
        TMDB_RETURN_IF_ERROR(reader.Next(&rec, &eof));
        if (eof) break;
        if (reader.TookBlockBoundary()) TMDB_RETURN_IF_ERROR(CheckGuard(ctx_));
        TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx_, i++));
        // Route on the key alone; the record's bytes move verbatim, so read
        // order stays input order all the way down the recursion.
        size_t pos = 0;
        uint64_t tag = 0;
        Value key;
        TMDB_RETURN_IF_ERROR(GetVarint(rec, &pos, &tag));
        TMDB_RETURN_IF_ERROR(DecodeValue(rec, &pos, &key));
        const size_t p = SpillPartitionOf(key.Hash(), depth + 1);
        TMDB_RETURN_IF_ERROR(AppendRecord(ctx_, writers[p].get(), rec));
      }
      return Status::OK();
    }();
    ctx_->stats->spill_bytes_read += reader.stats().bytes;
    reader.Close();
    TMDB_RETURN_IF_ERROR(moved);
    TMDB_RETURN_IF_ERROR(FinishPartitionWriters(ctx_, writers));
    ctx_->stats->spill_partitions += kSpillFanout;
    ctx_->spill->RemoveFile(path);
  }
  for (size_t p = 0; p < kSpillFanout; ++p) {
    TMDB_RETURN_IF_ERROR(ProcessNestPartition(subparts[p], depth + 1, out));
  }
  return Status::OK();
}

}  // namespace tmdb
