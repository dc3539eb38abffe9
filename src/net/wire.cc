#include "net/wire.h"

#include "base/crc32.h"
#include "base/string_util.h"
#include "spill/value_codec.h"

namespace tmdb {

namespace {

void PutU32(uint32_t v, std::string* out) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

void PutU64(uint64_t v, std::string* out) {
  PutU32(static_cast<uint32_t>(v & 0xFFFFFFFFu), out);
  PutU32(static_cast<uint32_t>(v >> 32), out);
}

uint32_t GetU32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

uint64_t GetU64(const char* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         (static_cast<uint64_t>(GetU32(p + 4)) << 32);
}

void PutString(std::string_view s, std::string* out) {
  PutVarint(s.size(), out);
  out->append(s.data(), s.size());
}

Status GetString(std::string_view data, size_t* pos, std::string* out) {
  uint64_t len = 0;
  TMDB_RETURN_IF_ERROR(GetVarint(data, pos, &len));
  if (len > data.size() - *pos) {
    return Status::IoError("wire: string length past end of payload");
  }
  out->assign(data.data() + *pos, static_cast<size_t>(len));
  *pos += static_cast<size_t>(len);
  return Status::OK();
}

Status GetStatusCode(std::string_view data, size_t* pos, StatusCode* out) {
  uint64_t raw = 0;
  TMDB_RETURN_IF_ERROR(GetVarint(data, pos, &raw));
  if (raw > static_cast<uint64_t>(StatusCode::kIoError)) {
    return Status::IoError(StrCat("wire: unknown status code ", raw));
  }
  *out = static_cast<StatusCode>(raw);
  return Status::OK();
}

/// CRC over everything a frame carries except the magic and the CRC field
/// itself: type, payload_len, request_id, then the payload bytes.
uint32_t FrameCrc(uint32_t type, uint32_t payload_len, uint64_t request_id,
                  std::string_view payload) {
  std::string head;
  head.reserve(16);
  PutU32(type, &head);
  PutU32(payload_len, &head);
  PutU64(request_id, &head);
  uint32_t crc = Crc32(head.data(), head.size());
  return Crc32(payload.data(), payload.size(), crc);
}

}  // namespace

bool IsKnownFrameType(uint32_t raw) {
  switch (static_cast<FrameType>(raw)) {
    case FrameType::kQuery:
    case FrameType::kCancel:
    case FrameType::kGoodbye:
    case FrameType::kAccepted:
    case FrameType::kRows:
    case FrameType::kStats:
    case FrameType::kDone:
    case FrameType::kError:
    case FrameType::kRejected:
      return true;
  }
  return false;
}

void EncodeFrame(const Frame& frame, std::string* out) {
  const uint32_t type = static_cast<uint32_t>(frame.type);
  const uint32_t payload_len = static_cast<uint32_t>(frame.payload.size());
  PutU32(kWireMagic, out);
  PutU32(type, out);
  PutU32(payload_len, out);
  PutU64(frame.request_id, out);
  PutU32(FrameCrc(type, payload_len, frame.request_id, frame.payload), out);
  out->append(frame.payload);
}

Status DecodeFrameHeader(const char* data, FrameHeader* header) {
  if (GetU32(data) != kWireMagic) {
    return Status::IoError("wire: bad frame magic");
  }
  header->type = GetU32(data + 4);
  header->payload_len = GetU32(data + 8);
  header->request_id = GetU64(data + 12);
  header->crc = GetU32(data + 20);
  if (!IsKnownFrameType(header->type)) {
    return Status::IoError(StrCat("wire: unknown frame type ", header->type));
  }
  if (header->payload_len > kWireMaxPayloadBytes) {
    return Status::IoError(StrCat("wire: frame payload of ",
                                  header->payload_len,
                                  " bytes exceeds the limit"));
  }
  return Status::OK();
}

Status ValidateFramePayload(const FrameHeader& header,
                            std::string_view payload) {
  const uint32_t expected =
      FrameCrc(header.type, header.payload_len, header.request_id, payload);
  if (expected != header.crc) {
    return Status::IoError("wire: frame checksum mismatch");
  }
  return Status::OK();
}

void EncodeRequest(const WireRequest& request, std::string* out) {
  PutVarint(kWireProtoVersion, out);
  PutString(request.strategy, out);
  PutVarint(request.num_threads, out);
  PutVarint(request.timeout_ms, out);
  PutVarint(request.memory_budget_bytes, out);
  PutVarint(request.max_rows, out);
  PutVarint(request.queue_wait_ms, out);
  const uint64_t flags = (request.enable_spill ? 1u : 0u) |
                         (request.enable_columnar ? 2u : 0u);
  PutVarint(flags, out);
  PutString(request.query, out);
}

Status DecodeRequest(std::string_view payload, WireRequest* request) {
  size_t pos = 0;
  uint64_t version = 0;
  TMDB_RETURN_IF_ERROR(GetVarint(payload, &pos, &version));
  if (version != kWireProtoVersion) {
    return Status::IoError(StrCat("wire: protocol version ", version,
                                  " not supported"));
  }
  TMDB_RETURN_IF_ERROR(GetString(payload, &pos, &request->strategy));
  uint64_t num_threads = 0;
  TMDB_RETURN_IF_ERROR(GetVarint(payload, &pos, &num_threads));
  request->num_threads =
      static_cast<uint32_t>(num_threads > 1024 ? 1024 : num_threads);
  TMDB_RETURN_IF_ERROR(GetVarint(payload, &pos, &request->timeout_ms));
  TMDB_RETURN_IF_ERROR(
      GetVarint(payload, &pos, &request->memory_budget_bytes));
  TMDB_RETURN_IF_ERROR(GetVarint(payload, &pos, &request->max_rows));
  TMDB_RETURN_IF_ERROR(GetVarint(payload, &pos, &request->queue_wait_ms));
  uint64_t flags = 0;
  TMDB_RETURN_IF_ERROR(GetVarint(payload, &pos, &flags));
  request->enable_spill = (flags & 1u) != 0;
  request->enable_columnar = (flags & 2u) != 0;
  TMDB_RETURN_IF_ERROR(GetString(payload, &pos, &request->query));
  if (pos != payload.size()) {
    return Status::IoError("wire: trailing bytes after request payload");
  }
  return Status::OK();
}

void EncodeError(const WireError& error, std::string* out) {
  PutVarint(static_cast<uint64_t>(error.code), out);
  PutString(error.message, out);
}

Status DecodeError(std::string_view payload, WireError* error) {
  size_t pos = 0;
  TMDB_RETURN_IF_ERROR(GetStatusCode(payload, &pos, &error->code));
  TMDB_RETURN_IF_ERROR(GetString(payload, &pos, &error->message));
  if (pos != payload.size()) {
    return Status::IoError("wire: trailing bytes after error payload");
  }
  return Status::OK();
}

void EncodeRejected(const WireRejected& rejected, std::string* out) {
  PutVarint(static_cast<uint64_t>(rejected.code), out);
  PutString(rejected.message, out);
  PutVarint(rejected.retry_after_ms, out);
}

Status DecodeRejected(std::string_view payload, WireRejected* rejected) {
  size_t pos = 0;
  TMDB_RETURN_IF_ERROR(GetStatusCode(payload, &pos, &rejected->code));
  TMDB_RETURN_IF_ERROR(GetString(payload, &pos, &rejected->message));
  TMDB_RETURN_IF_ERROR(GetVarint(payload, &pos, &rejected->retry_after_ms));
  if (pos != payload.size()) {
    return Status::IoError("wire: trailing bytes after rejected payload");
  }
  return Status::OK();
}

void EncodeAccepted(const WireAccepted& accepted, std::string* out) {
  PutVarint(accepted.granted_memory_bytes, out);
  PutVarint(accepted.granted_threads, out);
  PutVarint(accepted.active_queries, out);
}

Status DecodeAccepted(std::string_view payload, WireAccepted* accepted) {
  size_t pos = 0;
  TMDB_RETURN_IF_ERROR(
      GetVarint(payload, &pos, &accepted->granted_memory_bytes));
  uint64_t threads = 0;
  TMDB_RETURN_IF_ERROR(GetVarint(payload, &pos, &threads));
  accepted->granted_threads = static_cast<uint32_t>(threads);
  uint64_t active = 0;
  TMDB_RETURN_IF_ERROR(GetVarint(payload, &pos, &active));
  accepted->active_queries = static_cast<uint32_t>(active);
  if (pos != payload.size()) {
    return Status::IoError("wire: trailing bytes after accepted payload");
  }
  return Status::OK();
}

void EncodeRowsPayload(const std::vector<Value>& rows, size_t begin,
                       size_t end, std::string* out) {
  PutVarint(end - begin, out);
  for (size_t i = begin; i < end; ++i) EncodeValue(rows[i], out);
}

Status DecodeRowsPayload(std::string_view payload, std::vector<Value>* out) {
  size_t pos = 0;
  uint64_t count = 0;
  TMDB_RETURN_IF_ERROR(GetVarint(payload, &pos, &count));
  ValueDecoder decoder;
  for (uint64_t i = 0; i < count; ++i) {
    Value row;
    TMDB_RETURN_IF_ERROR(decoder.Decode(payload, &pos, &row));
    out->push_back(std::move(row));
  }
  if (pos != payload.size()) {
    return Status::IoError("wire: trailing bytes after rows payload");
  }
  return Status::OK();
}

void EncodeDonePayload(std::string_view message, std::string* out) {
  PutString(message, out);
}

Status DecodeDonePayload(std::string_view payload, std::string* message) {
  size_t pos = 0;
  TMDB_RETURN_IF_ERROR(GetString(payload, &pos, message));
  if (pos != payload.size()) {
    return Status::IoError("wire: trailing bytes after done payload");
  }
  return Status::OK();
}

void EncodeStatsPayload(const ExecStats& stats, std::string* out) {
  PutVarint(stats.rows_emitted, out);
  PutVarint(stats.predicate_evals, out);
  PutVarint(stats.subplan_evals, out);
  PutVarint(stats.hash_probes, out);
  PutVarint(stats.rows_built, out);
  PutVarint(stats.spill_partitions, out);
  PutVarint(stats.spill_bytes_written, out);
  PutVarint(stats.spill_bytes_read, out);
  PutVarint(stats.spill_max_depth, out);
  PutVarint(stats.spill_sort_runs, out);
  PutVarint(stats.subplan_cache_hits, out);
  PutVarint(stats.subplan_cache_misses, out);
  PutVarint(stats.subplan_cache_evictions, out);
  PutVarint(stats.subplan_cache_disk_evictions, out);
  PutVarint(stats.subplan_cache_disk_faults, out);
  PutVarint(stats.guard_checkpoints, out);
  PutVarint(stats.strategy_chosen, out);
  PutVarint(stats.strategy_switches, out);
  PutVarint(stats.est_distinct_corr, out);
  PutVarint(stats.morsels_dispatched, out);
  PutVarint(stats.morsels_stolen, out);
}

Status DecodeStatsPayload(std::string_view payload, ExecStats* stats) {
  size_t pos = 0;
  uint64_t* const fields[] = {
      &stats->rows_emitted,          &stats->predicate_evals,
      &stats->subplan_evals,         &stats->hash_probes,
      &stats->rows_built,            &stats->spill_partitions,
      &stats->spill_bytes_written,   &stats->spill_bytes_read,
      &stats->spill_max_depth,       &stats->spill_sort_runs,
      &stats->subplan_cache_hits,    &stats->subplan_cache_misses,
      &stats->subplan_cache_evictions,
      &stats->subplan_cache_disk_evictions,
      &stats->subplan_cache_disk_faults,
      &stats->guard_checkpoints,
      &stats->strategy_chosen,
      &stats->strategy_switches,
      &stats->est_distinct_corr,
      &stats->morsels_dispatched,
      &stats->morsels_stolen};
  for (uint64_t* field : fields) {
    TMDB_RETURN_IF_ERROR(GetVarint(payload, &pos, field));
  }
  if (pos != payload.size()) {
    return Status::IoError("wire: trailing bytes after stats payload");
  }
  return Status::OK();
}

}  // namespace tmdb
