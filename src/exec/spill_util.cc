#include "exec/spill_util.h"

#include <algorithm>
#include <memory>

#include "base/fault_injector.h"
#include "base/string_util.h"
#include "spill/spill_file.h"
#include "spill/value_codec.h"

namespace tmdb {
namespace {

FaultInjector* SpillInjectorOf(const ExecContext* ctx) {
  return ctx->guard == nullptr ? nullptr : ctx->guard->injector();
}

/// The kSpillFanout partition files of one level, `<name>-d<level>-p<i>`.
class PartitionWriter {
 public:
  PartitionWriter(ExecContext* ctx, int level) : ctx_(ctx), level_(level) {}

  Status Open(std::string_view name) {
    for (size_t p = 0; p < kSpillFanout; ++p) {
      TMDB_ASSIGN_OR_RETURN(
          std::string path,
          ctx_->spill->NewFilePath(StrCat(name, "-d", level_, "-p", p)));
      files_.push_back(std::make_unique<SpillWriter>(
          std::move(path), ctx_->spill->block_bytes(), SpillInjectorOf(ctx_)));
      TMDB_RETURN_IF_ERROR(files_.back()->Open());
    }
    return Status::OK();
  }

  /// Appends `record` to the partition of `key`, checkpointing the guard
  /// when a block was flushed.
  Status Append(const Value& key, std::string_view record) {
    SpillWriter* file = files_[SpillPartitionOf(key.Hash(), level_)].get();
    TMDB_RETURN_IF_ERROR(file->Append(record));
    return file->TookBlockBoundary() ? CheckGuard(ctx_) : Status::OK();
  }

  /// Finishes every file, counting its bytes; returns the paths.
  Result<std::vector<std::string>> Finish() {
    std::vector<std::string> paths;
    for (const std::unique_ptr<SpillWriter>& file : files_) {
      TMDB_RETURN_IF_ERROR(file->Finish());
      ctx_->stats->spill_bytes_written += file->stats().bytes;
      paths.push_back(file->path());
    }
    return paths;
  }

 private:
  ExecContext* ctx_;
  int level_;
  std::vector<std::unique_ptr<SpillWriter>> files_;
};

/// Calls `fn` with each raw record of `path`: the one reader loop.
Status ForEachRawRecord(ExecContext* ctx, const std::string& path,
                        const std::function<Status(std::string_view)>& fn) {
  SpillReader reader(path, SpillInjectorOf(ctx));
  Status read = [&]() -> Status {
    TMDB_RETURN_IF_ERROR(reader.Open());
    for (size_t i = 0;; ++i) {
      std::string_view rec;
      bool eof = false;
      TMDB_RETURN_IF_ERROR(reader.Next(&rec, &eof));
      if (eof) return Status::OK();
      if (reader.TookBlockBoundary()) TMDB_RETURN_IF_ERROR(CheckGuard(ctx));
      TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx, i));
      TMDB_RETURN_IF_ERROR(fn(rec));
    }
  }();
  ctx->stats->spill_bytes_read += reader.stats().bytes;
  reader.Close();
  return read;
}

/// Splits `path` into the partition files `name` at `level`, moving each
/// record's bytes verbatim, then removes it. Splitting sheds memory, so the
/// memory comparison is suspended throughout.
Result<std::vector<std::string>> Repartition(ExecContext* ctx,
                                             const std::string& path,
                                             std::string_view name,
                                             int level) {
  MemoryCheckSuspension suspend(ctx->guard);
  PartitionWriter writer(ctx, level);
  TMDB_RETURN_IF_ERROR(writer.Open(name));
  ValueDecoder key_decoder;
  TMDB_RETURN_IF_ERROR(
      ForEachRawRecord(ctx, path, [&](std::string_view rec) -> Status {
        size_t pos = 0;
        uint64_t tag = 0;
        Value key;
        TMDB_RETURN_IF_ERROR(GetVarint(rec, &pos, &tag));
        TMDB_RETURN_IF_ERROR(key_decoder.Decode(rec, &pos, &key));
        return writer.Append(key, rec);
      }));
  TMDB_ASSIGN_OR_RETURN(std::vector<std::string> paths, writer.Finish());
  ctx->spill->RemoveFile(path);
  return paths;
}

/// RunGrace at `depth`; `files[side][p]` is partition p's file of a side.
Status ProcessParts(ExecContext* ctx, const GracePolicy& policy,
                    GuardReservation* out_res,
                    const std::vector<std::vector<std::string>>& files,
                    int depth, TaggedRows* out) {
  for (size_t p = 0; p < kSpillFanout; ++p) {
    GracePart part;
    for (const std::vector<std::string>& side : files) part.push_back(side[p]);
    ctx->stats->spill_max_depth = std::max<uint64_t>(
        ctx->stats->spill_max_depth, static_cast<uint64_t>(depth) + 1);
    const size_t out_base = out->size();
    Status processed = policy.process(part, out);
    if (!processed.ok()) {
      if (!SpillEligibleTrip(ctx, processed)) return processed;
      // Drop this pass's partial output, refunding its charge; the files
      // are only removed on success, so a retry re-reads them cleanly.
      out_res->Shrink((out->size() - out_base) *
                      sizeof(TaggedRows::value_type));
      out->resize(out_base);
      if (depth < kMaxSpillDepth && policy.splittable()) {
        std::vector<std::vector<std::string>> split;
        for (size_t side = 0; side < part.size(); ++side) {
          TMDB_ASSIGN_OR_RETURN(
              split.emplace_back(),
              Repartition(ctx, part[side], policy.sides[side], depth + 1));
          // New partitions count once their first side is on disk.
          if (side == 0) ctx->stats->spill_partitions += kSpillFanout;
        }
        TMDB_RETURN_IF_ERROR(
            ProcessParts(ctx, policy, out_res, split, depth + 1, out));
        continue;
      }
      TMDB_RETURN_IF_ERROR(policy.at_bound(processed, part, out));
    }
    for (const std::string& file : part) ctx->spill->RemoveFile(file);
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<std::string>> SpillInput(ExecContext* ctx,
                                            std::string_view name,
                                            std::vector<Value> rows,
                                            PhysicalOp* child, bool child_open,
                                            bool count_built,
                                            const GraceFieldsFn& fields) {
  PartitionWriter writer(ctx, /*level=*/0);
  TMDB_RETURN_IF_ERROR(writer.Open(name));
  uint64_t tag = 0;
  std::string record;
  auto write = [&](Value row) -> Status {
    Value key;
    Value payload;
    TMDB_RETURN_IF_ERROR(fields(std::move(row), &key, &payload));
    record.clear();
    PutVarint(tag++, &record);
    EncodeValue(key, &record);
    EncodeValue(payload, &record);
    return writer.Append(key, record);
  };
  for (size_t i = 0; i < rows.size(); ++i) {
    TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx, i));
    // Moved out and dropped once written: memory falls as we go.
    TMDB_RETURN_IF_ERROR(write(std::move(rows[i])));
  }
  rows.clear();
  rows.shrink_to_fit();
  if (child_open) {
    std::vector<Value> batch;
    while (true) {
      TMDB_RETURN_IF_ERROR(CheckGuard(ctx));
      batch.clear();
      TMDB_ASSIGN_OR_RETURN(size_t got,
                            child->NextBatch(&batch, kExecBatchSize));
      if (got == 0) break;
      if (count_built) ctx->stats->rows_built += got;
      for (Value& row : batch) TMDB_RETURN_IF_ERROR(write(std::move(row)));
    }
  }
  child->Close();
  return writer.Finish();
}

Status ForEachRecord(
    ExecContext* ctx, const std::string& path,
    const std::function<Status(uint64_t tag, Value key, Value payload)>& fn) {
  ValueDecoder key_decoder;
  ValueDecoder payload_decoder;
  return ForEachRawRecord(ctx, path, [&](std::string_view rec) -> Status {
    size_t pos = 0;
    uint64_t tag = 0;
    Value key;
    Value payload;
    TMDB_RETURN_IF_ERROR(GetVarint(rec, &pos, &tag));
    TMDB_RETURN_IF_ERROR(key_decoder.Decode(rec, &pos, &key));
    TMDB_RETURN_IF_ERROR(payload_decoder.Decode(rec, &pos, &payload));
    return fn(tag, std::move(key), std::move(payload));
  });
}

Status RunGrace(ExecContext* ctx, const GracePolicy& policy,
                GuardReservation* out_res,
                const std::vector<std::vector<std::string>>& files,
                std::vector<Value>* output) {
  TaggedRows tagged;
  TMDB_RETURN_IF_ERROR(
      ProcessParts(ctx, policy, out_res, files, /*depth=*/0, &tagged));
  // The stable sort keeps the order of the rows one input row produced.
  std::stable_sort(
      tagged.begin(), tagged.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  output->reserve(output->size() + tagged.size());
  for (auto& entry : tagged) output->push_back(std::move(entry.second));
  return Status::OK();
}

}  // namespace tmdb
