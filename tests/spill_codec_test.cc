// The spill serialisation stack, bottom up: varint framing, the canonical
// Value codec (round-trip preserves structural equality, hash, and total-
// order position; malformed bytes yield kIoError, never a crash), the
// block-structured checksummed file format (any single corrupted byte
// surfaces as kIoError before a record is decoded), and the SpillManager
// temp-directory lifecycle including injected unlink failures.

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/fault_injector.h"
#include "spill/spill_file.h"
#include "spill/spill_manager.h"
#include "spill/value_codec.h"
#include "tests/test_util.h"
#include "values/value.h"

namespace tmdb {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

std::string Encoded(const Value& v) {
  std::string out;
  EncodeValue(v, &out);
  return out;
}

/// A corpus spanning every kind, the numeric edge cases, deep nesting, and
/// ugly strings. Kept deterministic so byte-level assertions are stable.
std::vector<Value> Corpus() {
  std::vector<Value> corpus;
  corpus.push_back(Value::Null());
  corpus.push_back(Value::Bool(false));
  corpus.push_back(Value::Bool(true));
  for (int64_t i : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{42},
                    int64_t{-300}, std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    corpus.push_back(Value::Int(i));
  }
  for (double d : {0.0, 1.5, -2.75, 1e300, -1e-300,
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::denorm_min()}) {
    corpus.push_back(Value::Real(d));
  }
  corpus.push_back(Value::String(""));
  corpus.push_back(Value::String("a"));
  corpus.push_back(Value::String(std::string("nul\0inside", 10)));
  corpus.push_back(Value::String(std::string(3000, 'x')));
  corpus.push_back(Value::EmptySet());
  corpus.push_back(testutil::IntSet({5, 1, 3}));
  corpus.push_back(Value::List({}));
  corpus.push_back(Value::List({Value::Int(1), Value::Null(),
                                Value::String("mixed")}));
  corpus.push_back(Value::Tuple({}, {}));
  corpus.push_back(testutil::IntRow({"a", "b"}, {7, -7}));
  // Complex-object shape: tuple with a set-of-tuples attribute.
  corpus.push_back(Value::Tuple(
      {"dept", "emps"},
      {Value::String("toys"),
       Value::Set({testutil::IntRow({"e", "sal"}, {1, 100}),
                   testutil::IntRow({"e", "sal"}, {2, 200})})}));
  // Company-Q2 shape: a set of tuples, each holding a set of sets.
  std::vector<Value> depts;
  for (int64_t d = 4; d >= 0; --d) {
    std::vector<Value> teams;
    for (int64_t t = 0; t < 3; ++t) {
      teams.push_back(testutil::IntSet({d, t, d * t}));
    }
    depts.push_back(Value::Tuple(
        {"dept", "teams"}, {Value::Int(d), Value::Set(std::move(teams))}));
  }
  corpus.push_back(Value::Set(std::move(depts)));
  // 200 levels of nesting — far beyond any plan, far below the decoder cap.
  Value deep = Value::Int(0);
  for (int i = 0; i < 200; ++i) deep = Value::List({std::move(deep)});
  corpus.push_back(std::move(deep));
  return corpus;
}

// ------------------------------------------------------------------ varint

TEST(VarintTest, RoundTripsBoundaryValues) {
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{127}, uint64_t{128},
                     uint64_t{16383}, uint64_t{16384}, uint64_t{1} << 35,
                     std::numeric_limits<uint64_t>::max()}) {
    std::string buf;
    PutVarint(v, &buf);
    size_t pos = 0;
    uint64_t out = 0;
    TMDB_ASSERT_OK(GetVarint(buf, &pos, &out));
    EXPECT_EQ(out, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(VarintTest, TruncatedAndOverlongAreIoErrors) {
  std::string buf;
  PutVarint(std::numeric_limits<uint64_t>::max(), &buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    size_t pos = 0;
    uint64_t out = 0;
    Status s = GetVarint(std::string_view(buf).substr(0, cut), &pos, &out);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kIoError);
  }
  // Eleven continuation bytes can never be a valid 64-bit varint.
  std::string overlong(11, static_cast<char>(0x80));
  size_t pos = 0;
  uint64_t out = 0;
  Status s = GetVarint(overlong, &pos, &out);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

// ------------------------------------------------------------- value codec

TEST(ValueCodecTest, CorpusRoundTripsWithEqualHashAndOrder) {
  const std::vector<Value> corpus = Corpus();
  std::vector<Value> decoded;
  for (const Value& v : corpus) {
    const std::string bytes = Encoded(v);
    size_t pos = 0;
    Value back;
    TMDB_ASSERT_OK(DecodeValue(bytes, &pos, &back));
    EXPECT_EQ(pos, bytes.size()) << v.ToString();
    EXPECT_TRUE(back.Equals(v)) << v.ToString() << " vs " << back.ToString();
    EXPECT_EQ(back.Hash(), v.Hash()) << v.ToString();
    // Determinism: re-encoding the decoded value reproduces the bytes.
    EXPECT_EQ(Encoded(back), bytes) << v.ToString();
    decoded.push_back(std::move(back));
  }
  // Total-order position is preserved pairwise across the whole corpus.
  for (size_t i = 0; i < corpus.size(); ++i) {
    for (size_t j = 0; j < corpus.size(); ++j) {
      const int orig = corpus[i].Compare(corpus[j]);
      const int dec = decoded[i].Compare(decoded[j]);
      EXPECT_EQ(orig < 0, dec < 0) << i << " vs " << j;
      EXPECT_EQ(orig == 0, dec == 0) << i << " vs " << j;
    }
  }
}

TEST(ValueCodecTest, RealsRoundTripExactBits) {
  // NaN and -0.0 compare strangely, so assert on the bit pattern: encoding
  // the decoded value must reproduce the original nine bytes exactly.
  for (double d : {-0.0, std::numeric_limits<double>::quiet_NaN()}) {
    const std::string bytes = Encoded(Value::Real(d));
    size_t pos = 0;
    Value back;
    TMDB_ASSERT_OK(DecodeValue(bytes, &pos, &back));
    EXPECT_EQ(Encoded(back), bytes);
  }
  // And -0.0 differs from +0.0 on the wire even though they compare equal.
  EXPECT_NE(Encoded(Value::Real(-0.0)), Encoded(Value::Real(0.0)));
}

TEST(ValueCodecTest, StructurallyEqualValuesEncodeIdentically) {
  const Value a = Value::Set({Value::Int(1), Value::Int(2)});
  const Value b = Value::Set({Value::Int(2), Value::Int(1), Value::Int(2)});
  ASSERT_TRUE(a.Equals(b));  // sets canonicalise on construction
  EXPECT_EQ(Encoded(a), Encoded(b));
}

TEST(ValueCodecTest, NonCanonicalSetBytesDecodeToCanonicalSet) {
  // Hand-craft a set encoding with unsorted, duplicated elements — bytes the
  // encoder never produces. Decoding must rebuild the canonical set.
  std::string bytes;
  bytes.push_back(0x07);  // set tag
  PutVarint(3, &bytes);
  EncodeValue(Value::Int(3), &bytes);
  EncodeValue(Value::Int(1), &bytes);
  EncodeValue(Value::Int(1), &bytes);
  size_t pos = 0;
  Value back;
  TMDB_ASSERT_OK(DecodeValue(bytes, &pos, &back));
  EXPECT_TRUE(back.Equals(testutil::IntSet({1, 3}))) << back.ToString();
  EXPECT_EQ(back.NumElements(), 2u);
}

TEST(ValueCodecTest, TruncationsAndBadTagsAreIoErrors) {
  const std::vector<Value> corpus = Corpus();
  for (const Value& v : corpus) {
    const std::string bytes = Encoded(v);
    const size_t stride = bytes.size() > 64 ? bytes.size() / 37 : 1;
    for (size_t cut = 0; cut < bytes.size(); cut += stride) {
      size_t pos = 0;
      Value back;
      Status s =
          DecodeValue(std::string_view(bytes).substr(0, cut), &pos, &back);
      ASSERT_FALSE(s.ok()) << v.ToString() << " cut at " << cut;
      EXPECT_EQ(s.code(), StatusCode::kIoError);
    }
  }
  std::string bad(1, static_cast<char>(0x7E));  // no such tag
  size_t pos = 0;
  Value back;
  Status s = DecodeValue(bad, &pos, &back);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(ValueCodecTest, AdversarialDepthIsRejectedNotOverflowed) {
  // 2000 nested single-element lists: over the decoder's depth cap, and the
  // kind of input only a corrupted-but-CRC-colliding block could present.
  std::string bytes;
  for (int i = 0; i < 2000; ++i) {
    bytes.push_back(0x08);  // list tag
    PutVarint(1, &bytes);
  }
  bytes.push_back(0x00);  // innermost null
  size_t pos = 0;
  Value back;
  Status s = DecodeValue(bytes, &pos, &back);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

// -------------------------------------------------------------- spill file

std::vector<std::string> CorpusRecords() {
  std::vector<std::string> records;
  for (const Value& v : Corpus()) records.push_back(Encoded(v));
  return records;
}

void WriteRecords(const std::string& path,
                  const std::vector<std::string>& records, size_t block_bytes,
                  FaultInjector* injector = nullptr) {
  SpillWriter writer(path, block_bytes, injector);
  TMDB_ASSERT_OK(writer.Open());
  for (const std::string& r : records) TMDB_ASSERT_OK(writer.Append(r));
  TMDB_ASSERT_OK(writer.Finish());
}

TEST(SpillFileTest, RoundTripsRecordsAcrossManySmallBlocks) {
  const std::string path = TempPath("spill_roundtrip.spill");
  const std::vector<std::string> records = CorpusRecords();
  WriteRecords(path, records, /*block_bytes=*/64);

  SpillReader reader(path, nullptr);
  TMDB_ASSERT_OK(reader.Open());
  size_t boundaries = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    std::string_view rec;
    bool eof = false;
    TMDB_ASSERT_OK(reader.Next(&rec, &eof));
    ASSERT_FALSE(eof) << "premature EOF at record " << i;
    EXPECT_EQ(std::string(rec), records[i]) << "record " << i;
    if (reader.TookBlockBoundary()) ++boundaries;
  }
  std::string_view rec;
  bool eof = false;
  TMDB_ASSERT_OK(reader.Next(&rec, &eof));
  EXPECT_TRUE(eof);
  // Tiny blocks force real block structure, and every load is observable
  // as a checkpointing boundary.
  EXPECT_GT(reader.stats().blocks, 3u);
  EXPECT_EQ(boundaries, reader.stats().blocks);
  EXPECT_EQ(reader.stats().records, records.size());
  fs::remove(path);
}

TEST(SpillFileTest, EmptyFileReadsAsImmediateEof) {
  const std::string path = TempPath("spill_empty.spill");
  WriteRecords(path, {}, 64);
  SpillReader reader(path, nullptr);
  TMDB_ASSERT_OK(reader.Open());
  std::string_view rec;
  bool eof = false;
  TMDB_ASSERT_OK(reader.Next(&rec, &eof));
  EXPECT_TRUE(eof);
  fs::remove(path);
}

/// The tentpole integrity property: flip ANY single byte of a spill file
/// and reading it must fail with kIoError — never a crash, never a wrong
/// (different-but-successfully-decoded) answer. Every byte is protected:
/// magic by the magic check, length/count/payload by the CRC, the CRC field
/// by the verification mismatch.
TEST(SpillFileTest, EverySingleByteCorruptionSurfacesAsIoError) {
  const std::string path = TempPath("spill_corrupt_base.spill");
  const std::string mutated = TempPath("spill_corrupt_mut.spill");
  WriteRecords(path, CorpusRecords(), /*block_bytes=*/256);

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 64u);

  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string copy = bytes;
    copy[i] = static_cast<char>(copy[i] ^ 0xFF);
    {
      std::ofstream out(mutated, std::ios::binary | std::ios::trunc);
      out.write(copy.data(), static_cast<std::streamsize>(copy.size()));
    }
    SpillReader reader(mutated, nullptr);
    TMDB_ASSERT_OK(reader.Open());
    Status result = Status::OK();
    while (true) {
      std::string_view rec;
      bool eof = false;
      result = reader.Next(&rec, &eof);
      if (!result.ok() || eof) break;
    }
    ASSERT_FALSE(result.ok()) << "flipped byte " << i << " went undetected";
    EXPECT_EQ(result.code(), StatusCode::kIoError)
        << "byte " << i << ": " << result.ToString();
  }
  fs::remove(path);
  fs::remove(mutated);
}

TEST(SpillFileTest, InjectedWriteFaultsSurfaceAsIoError) {
  for (IoFaultKind kind : {IoFaultKind::kShortWrite, IoFaultKind::kEnospc}) {
    const std::string path = TempPath("spill_wfault.spill");
    FaultInjector injector;
    injector.ArmIo(kind, 1);
    SpillWriter writer(path, /*block_bytes=*/64, &injector);
    TMDB_ASSERT_OK(writer.Open());
    Status s = Status::OK();
    for (int i = 0; i < 100 && s.ok(); ++i) {
      s = writer.Append(Encoded(Value::Int(i)));
    }
    if (s.ok()) s = writer.Finish();
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kIoError) << s.ToString();
    EXPECT_EQ(injector.io_faults_fired(), 1u);
    (void)writer.Finish();
    fs::remove(path);
  }
}

TEST(SpillFileTest, InjectedReadCorruptionIsCaughtByTheChecksum) {
  const std::string path = TempPath("spill_rfault.spill");
  std::vector<std::string> records;
  for (int i = 0; i < 200; ++i) records.push_back(Encoded(Value::Int(i)));
  WriteRecords(path, records, /*block_bytes=*/64);

  FaultInjector injector;
  injector.ArmIo(IoFaultKind::kCorruptRead, 2);  // corrupt the second block
  SpillReader reader(path, &injector);
  TMDB_ASSERT_OK(reader.Open());
  Status result = Status::OK();
  size_t yielded = 0;
  while (true) {
    std::string_view rec;
    bool eof = false;
    result = reader.Next(&rec, &eof);
    if (!result.ok() || eof) break;
    ++yielded;
  }
  ASSERT_FALSE(result.ok()) << "corrupted block went undetected";
  EXPECT_EQ(result.code(), StatusCode::kIoError) << result.ToString();
  EXPECT_EQ(injector.io_faults_fired(), 1u);
  // The first (clean) block's records were yielded; none from the bad one.
  EXPECT_GT(yielded, 0u);
  EXPECT_LT(yielded, records.size());
  fs::remove(path);
}

// ------------------------------------------------------------ spill manager

TEST(SpillManagerTest, CreatesUniquePathsAndCleansUpEverything) {
  SpillManager manager(::testing::TempDir(), /*block_bytes=*/0, nullptr);
  EXPECT_TRUE(manager.dir().empty()) << "directory should be lazy";

  TMDB_ASSERT_OK_AND_ASSIGN(std::string p1, manager.NewFilePath("hj-build"));
  TMDB_ASSERT_OK_AND_ASSIGN(std::string p2, manager.NewFilePath("hj-build"));
  EXPECT_NE(p1, p2);
  ASSERT_FALSE(manager.dir().empty());
  EXPECT_TRUE(fs::exists(manager.dir()));

  WriteRecords(p1, {Encoded(Value::Int(1))}, 64);
  WriteRecords(p2, {Encoded(Value::Int(2))}, 64);
  const std::string dir = manager.dir();
  manager.CleanupAll();
  EXPECT_FALSE(fs::exists(dir));
  manager.CleanupAll();  // idempotent
}

TEST(SpillManagerTest, RemoveFileDeletesConsumedPartitions) {
  SpillManager manager(::testing::TempDir(), 0, nullptr);
  TMDB_ASSERT_OK_AND_ASSIGN(std::string p, manager.NewFilePath("part"));
  WriteRecords(p, {Encoded(Value::Int(1))}, 64);
  ASSERT_TRUE(fs::exists(p));
  manager.RemoveFile(p);
  EXPECT_FALSE(fs::exists(p));
  manager.CleanupAll();
}

TEST(SpillManagerTest, InjectedUnlinkFailureDefersToCleanup) {
  FaultInjector injector;
  SpillManager manager(::testing::TempDir(), 0, &injector);
  TMDB_ASSERT_OK_AND_ASSIGN(std::string p, manager.NewFilePath("part"));
  WriteRecords(p, {Encoded(Value::Int(1))}, 64);

  injector.ArmIo(IoFaultKind::kUnlinkFail, 1);
  manager.RemoveFile(p);
  EXPECT_EQ(injector.io_faults_fired(), 1u);
  EXPECT_TRUE(fs::exists(p)) << "injected unlink should leave the file";

  // The final sweep still removes everything.
  const std::string dir = manager.dir();
  manager.CleanupAll();
  EXPECT_FALSE(fs::exists(p));
  EXPECT_FALSE(fs::exists(dir));
}

TEST(SpillManagerTest, DestructorCleansUp) {
  std::string dir;
  {
    SpillManager manager(::testing::TempDir(), 0, nullptr);
    TMDB_ASSERT_OK_AND_ASSIGN(std::string p, manager.NewFilePath("x"));
    WriteRecords(p, {Encoded(Value::Int(1))}, 64);
    dir = manager.dir();
    ASSERT_TRUE(fs::exists(dir));
  }
  EXPECT_FALSE(fs::exists(dir));
}

}  // namespace
}  // namespace tmdb
