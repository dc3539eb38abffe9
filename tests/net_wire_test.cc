// Frame and payload codec tests for the wire protocol: roundtrips,
// corruption detection (the CRC discipline mirrored from the spill codec),
// bounds enforcement, and the FaultInjector wire channels.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/fault_injector.h"
#include "net/wire.h"
#include "values/value.h"

namespace tmdb {
namespace {

Frame RoundtripHeaderAndPayload(const Frame& in, Status* status) {
  std::string bytes;
  EncodeFrame(in, &bytes);
  FrameHeader header;
  *status = DecodeFrameHeader(bytes.data(), &header);
  if (!status->ok()) return Frame{};
  std::string_view payload(bytes.data() + kWireHeaderBytes,
                           header.payload_len);
  *status = ValidateFramePayload(header, payload);
  if (!status->ok()) return Frame{};
  Frame out;
  out.type = static_cast<FrameType>(header.type);
  out.request_id = header.request_id;
  out.payload = std::string(payload);
  return out;
}

TEST(WireFrameTest, RoundtripsHeaderPayloadAndRequestId) {
  Frame in;
  in.type = FrameType::kRows;
  in.request_id = 0x1122334455667788ull;
  in.payload = "some payload bytes";
  Status status;
  const Frame out = RoundtripHeaderAndPayload(in, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out.type, in.type);
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.payload, in.payload);
}

TEST(WireFrameTest, EmptyPayloadRoundtrips) {
  Frame in;
  in.type = FrameType::kGoodbye;
  in.request_id = 7;
  Status status;
  const Frame out = RoundtripHeaderAndPayload(in, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(out.payload.empty());
}

TEST(WireFrameTest, DetectsBadMagic) {
  Frame in;
  in.type = FrameType::kDone;
  std::string bytes;
  EncodeFrame(in, &bytes);
  bytes[0] = static_cast<char>(bytes[0] ^ 0xFF);
  FrameHeader header;
  EXPECT_EQ(DecodeFrameHeader(bytes.data(), &header).code(),
            StatusCode::kIoError);
}

TEST(WireFrameTest, DetectsUnknownFrameType) {
  Frame in;
  in.type = static_cast<FrameType>(99);
  std::string bytes;
  EncodeFrame(in, &bytes);
  FrameHeader header;
  EXPECT_EQ(DecodeFrameHeader(bytes.data(), &header).code(),
            StatusCode::kIoError);
}

TEST(WireFrameTest, RejectsOversizedPayloadLength) {
  Frame in;
  in.type = FrameType::kRows;
  std::string bytes;
  EncodeFrame(in, &bytes);
  // Overwrite payload_len (bytes 8..11) with a hostile length.
  const uint32_t huge = static_cast<uint32_t>(kWireMaxPayloadBytes) + 1;
  bytes[8] = static_cast<char>(huge & 0xFF);
  bytes[9] = static_cast<char>((huge >> 8) & 0xFF);
  bytes[10] = static_cast<char>((huge >> 16) & 0xFF);
  bytes[11] = static_cast<char>((huge >> 24) & 0xFF);
  FrameHeader header;
  EXPECT_EQ(DecodeFrameHeader(bytes.data(), &header).code(),
            StatusCode::kIoError);
}

TEST(WireFrameTest, EveryFlippedBitFailsCrcOrHeaderCheck) {
  Frame in;
  in.type = FrameType::kError;
  in.request_id = 42;
  in.payload = "corruption sweep target";
  std::string clean;
  EncodeFrame(in, &clean);
  // Flip each byte (past the magic) once: header decode or CRC validation
  // must reject every single corruption — the spill-block discipline.
  for (size_t i = 4; i < clean.size(); ++i) {
    std::string bytes = clean;
    bytes[i] = static_cast<char>(bytes[i] ^ 0x10);
    FrameHeader header;
    Status status = DecodeFrameHeader(bytes.data(), &header);
    if (status.ok()) {
      status = ValidateFramePayload(
          header, std::string_view(bytes.data() + kWireHeaderBytes,
                                   bytes.size() - kWireHeaderBytes));
    }
    EXPECT_FALSE(status.ok()) << "corruption at byte " << i << " undetected";
  }
}

TEST(WireRequestTest, RoundtripsEveryKnob) {
  WireRequest in;
  in.query = "SELECT x FROM R x WHERE x.a > 3";
  in.strategy = "nestjoin";
  in.num_threads = 4;
  in.timeout_ms = 1500;
  in.memory_budget_bytes = 123456;
  in.max_rows = 999;
  in.queue_wait_ms = 250;
  in.enable_spill = true;
  in.enable_columnar = false;
  std::string payload;
  EncodeRequest(in, &payload);
  WireRequest out;
  ASSERT_TRUE(DecodeRequest(payload, &out).ok());
  EXPECT_EQ(out.query, in.query);
  EXPECT_EQ(out.strategy, in.strategy);
  EXPECT_EQ(out.num_threads, in.num_threads);
  EXPECT_EQ(out.timeout_ms, in.timeout_ms);
  EXPECT_EQ(out.memory_budget_bytes, in.memory_budget_bytes);
  EXPECT_EQ(out.max_rows, in.max_rows);
  EXPECT_EQ(out.queue_wait_ms, in.queue_wait_ms);
  EXPECT_EQ(out.enable_spill, in.enable_spill);
  EXPECT_EQ(out.enable_columnar, in.enable_columnar);
}

TEST(WireRequestTest, RejectsTrailingBytesAndTruncation) {
  WireRequest in;
  in.query = "SELECT 1";
  std::string payload;
  EncodeRequest(in, &payload);
  WireRequest out;
  EXPECT_FALSE(DecodeRequest(payload + "x", &out).ok());
  EXPECT_FALSE(
      DecodeRequest(std::string_view(payload).substr(0, payload.size() - 1),
                    &out)
          .ok());
  EXPECT_FALSE(DecodeRequest("", &out).ok());
}

TEST(WireRequestTest, RejectsWrongProtocolVersion) {
  WireRequest in;
  in.query = "SELECT 1";
  std::string payload;
  EncodeRequest(in, &payload);
  payload[0] = static_cast<char>(kWireProtoVersion + 1);  // version varint
  WireRequest out;
  EXPECT_FALSE(DecodeRequest(payload, &out).ok());
}

TEST(WirePayloadTest, ErrorRejectedAcceptedDoneRoundtrip) {
  WireError error_in{StatusCode::kDeadlineExceeded, "query deadline exceeded"};
  std::string payload;
  EncodeError(error_in, &payload);
  WireError error_out;
  ASSERT_TRUE(DecodeError(payload, &error_out).ok());
  EXPECT_EQ(error_out.code, error_in.code);
  EXPECT_EQ(error_out.message, error_in.message);

  WireRejected rejected_in;
  rejected_in.code = StatusCode::kResourceExhausted;
  rejected_in.message = std::string(kRejectedMessagePrefix) + ": queue full";
  rejected_in.retry_after_ms = 75;
  payload.clear();
  EncodeRejected(rejected_in, &payload);
  WireRejected rejected_out;
  ASSERT_TRUE(DecodeRejected(payload, &rejected_out).ok());
  EXPECT_EQ(rejected_out.code, rejected_in.code);
  EXPECT_EQ(rejected_out.message, rejected_in.message);
  EXPECT_EQ(rejected_out.retry_after_ms, rejected_in.retry_after_ms);

  WireAccepted accepted_in;
  accepted_in.granted_memory_bytes = 32 << 20;
  accepted_in.granted_threads = 2;
  accepted_in.active_queries = 5;
  payload.clear();
  EncodeAccepted(accepted_in, &payload);
  WireAccepted accepted_out;
  ASSERT_TRUE(DecodeAccepted(payload, &accepted_out).ok());
  EXPECT_EQ(accepted_out.granted_memory_bytes,
            accepted_in.granted_memory_bytes);
  EXPECT_EQ(accepted_out.granted_threads, accepted_in.granted_threads);
  EXPECT_EQ(accepted_out.active_queries, accepted_in.active_queries);

  payload.clear();
  EncodeDonePayload("created table R", &payload);
  std::string message;
  ASSERT_TRUE(DecodeDonePayload(payload, &message).ok());
  EXPECT_EQ(message, "created table R");
}

TEST(WirePayloadTest, ErrorPayloadRejectsUnknownStatusCode) {
  std::string payload;
  payload.push_back(60);  // no such StatusCode
  payload.push_back(0);   // empty message
  WireError error;
  EXPECT_FALSE(DecodeError(payload, &error).ok());
}

TEST(WirePayloadTest, RowsRoundtripThroughCanonicalCodec) {
  std::vector<Value> rows;
  rows.push_back(Value::Int(1));
  rows.push_back(Value::String("two"));
  rows.push_back(Value::Tuple({"a", "b"},
                              {Value::Int(3), Value::String("three")}));
  // A set of tuples holding sets of sets: decoding keeps it canonical.
  std::vector<Value> depts;
  for (int64_t d = 4; d >= 0; --d) {
    std::vector<Value> teams;
    for (int64_t t = 0; t < 3; ++t) {
      teams.push_back(Value::Set({Value::Int(d), Value::Int(t),
                                  Value::Int(d * t)}));
    }
    depts.push_back(Value::Tuple(
        {"dept", "teams"}, {Value::Int(d), Value::Set(std::move(teams))}));
  }
  rows.push_back(Value::Set(std::move(depts)));
  std::string payload;
  EncodeRowsPayload(rows, 0, rows.size(), &payload);
  std::vector<Value> decoded;
  ASSERT_TRUE(DecodeRowsPayload(payload, &decoded).ok());
  ASSERT_EQ(decoded.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(decoded[i] == rows[i]) << "row " << i;
    EXPECT_EQ(decoded[i].Hash(), rows[i].Hash()) << "row " << i;
  }
  EXPECT_FALSE(DecodeRowsPayload(payload + "x", &decoded).ok());
}

TEST(WirePayloadTest, StatsRoundtripAllCounters) {
  ExecStats in;
  in.rows_emitted = 1;
  in.predicate_evals = 2;
  in.subplan_evals = 3;
  in.hash_probes = 4;
  in.rows_built = 5;
  in.spill_partitions = 6;
  in.spill_bytes_written = 7;
  in.spill_bytes_read = 8;
  in.spill_max_depth = 9;
  in.spill_sort_runs = 14;
  in.subplan_cache_hits = 10;
  in.subplan_cache_misses = 11;
  in.subplan_cache_evictions = 12;
  in.subplan_cache_disk_evictions = 15;
  in.subplan_cache_disk_faults = 16;
  in.guard_checkpoints = 13;
  in.morsels_dispatched = 17;
  in.morsels_stolen = 18;
  std::string payload;
  EncodeStatsPayload(in, &payload);
  ExecStats out;
  ASSERT_TRUE(DecodeStatsPayload(payload, &out).ok());
  EXPECT_EQ(out.rows_emitted, in.rows_emitted);
  EXPECT_EQ(out.predicate_evals, in.predicate_evals);
  EXPECT_EQ(out.subplan_evals, in.subplan_evals);
  EXPECT_EQ(out.hash_probes, in.hash_probes);
  EXPECT_EQ(out.rows_built, in.rows_built);
  EXPECT_EQ(out.spill_partitions, in.spill_partitions);
  EXPECT_EQ(out.spill_bytes_written, in.spill_bytes_written);
  EXPECT_EQ(out.spill_bytes_read, in.spill_bytes_read);
  EXPECT_EQ(out.spill_max_depth, in.spill_max_depth);
  EXPECT_EQ(out.spill_sort_runs, in.spill_sort_runs);
  EXPECT_EQ(out.subplan_cache_hits, in.subplan_cache_hits);
  EXPECT_EQ(out.subplan_cache_misses, in.subplan_cache_misses);
  EXPECT_EQ(out.subplan_cache_evictions, in.subplan_cache_evictions);
  EXPECT_EQ(out.subplan_cache_disk_evictions, in.subplan_cache_disk_evictions);
  EXPECT_EQ(out.subplan_cache_disk_faults, in.subplan_cache_disk_faults);
  EXPECT_EQ(out.guard_checkpoints, in.guard_checkpoints);
  EXPECT_EQ(out.morsels_dispatched, in.morsels_dispatched);
  EXPECT_EQ(out.morsels_stolen, in.morsels_stolen);
}

TEST(WireFaultChannelTest, SendChannelFiresOnNthSendOnly) {
  FaultInjector injector;
  injector.ArmWire(WireFaultKind::kCorruptCrc, 3);
  EXPECT_EQ(injector.ShouldFailSend(), WireFaultKind::kNone);
  EXPECT_EQ(injector.ShouldFailSend(), WireFaultKind::kNone);
  EXPECT_EQ(injector.ShouldFailSend(), WireFaultKind::kCorruptCrc);
  EXPECT_EQ(injector.ShouldFailSend(), WireFaultKind::kNone);
  EXPECT_EQ(injector.wire_sends_seen(), 4u);
  EXPECT_EQ(injector.wire_faults_fired(), 1u);
}

TEST(WireFaultChannelTest, ChannelsAreIndependent) {
  FaultInjector injector;
  injector.ArmWire(WireFaultKind::kShortRead, 1);
  // Send and accept consultations do not consume the recv channel's count.
  EXPECT_EQ(injector.ShouldFailSend(), WireFaultKind::kNone);
  EXPECT_FALSE(injector.ShouldFailAccept());
  EXPECT_TRUE(injector.ShouldFailRecv());
  EXPECT_FALSE(injector.ShouldFailRecv());
  EXPECT_EQ(injector.wire_sends_seen(), 1u);
  EXPECT_EQ(injector.wire_accepts_seen(), 1u);
  EXPECT_EQ(injector.wire_recvs_seen(), 2u);
}

TEST(WireFaultChannelTest, CountOnlyArmTalliesWithoutFiring) {
  FaultInjector injector;
  injector.ArmWire(WireFaultKind::kNone, 0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(injector.ShouldFailSend(), WireFaultKind::kNone);
  }
  EXPECT_EQ(injector.wire_sends_seen(), 5u);
  EXPECT_EQ(injector.wire_faults_fired(), 0u);
  injector.DisarmWire();
  EXPECT_EQ(injector.ShouldFailSend(), WireFaultKind::kNone);
}

}  // namespace
}  // namespace tmdb
