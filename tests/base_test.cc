#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "base/crc32.h"
#include "base/hash.h"
#include "base/random.h"
#include "base/result.h"
#include "base/status.h"
#include "base/string_util.h"
#include "tests/test_util.h"

namespace tmdb {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ(Status::OK().ToString(), "OK");
  Status e = Status::TypeError("bad");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.code(), StatusCode::kTypeError);
  EXPECT_EQ(e.ToString(), "TypeError: bad");
  EXPECT_EQ(e.WithContext("ctx").ToString(), "TypeError: ctx: bad");
  EXPECT_TRUE(Status::OK().WithContext("ctx").ok());
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto fails = [] { return Status::NotFound("x"); };
  auto wrapper = [&]() -> Status {
    TMDB_RETURN_IF_ERROR(fails());
    return Status::Internal("unreached");
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kNotFound);
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.value_or(7), 42);
  Result<int> err = Status::ParseError("nope");
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kParseError);
  EXPECT_EQ(err.value_or(7), 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto produce = [](bool fail) -> Result<int> {
    if (fail) return Status::NotFound("no int");
    return 5;
  };
  auto wrapper = [&](bool fail) -> Result<int> {
    TMDB_ASSIGN_OR_RETURN(int v, produce(fail));
    return v * 2;
  };
  TMDB_ASSERT_OK_AND_ASSIGN(int v, wrapper(false));
  EXPECT_EQ(v, 10);
  EXPECT_FALSE(wrapper(true).ok());
}

TEST(ResultTest, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(3);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> owned = std::move(r).value();
  EXPECT_EQ(*owned, 3);
}

TEST(StringUtilTest, JoinSplitStrip) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(StripWhitespace("  x y \n"), "x y");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_TRUE(StartsWith("SELECT x", "SELECT"));
  EXPECT_TRUE(EndsWith("plan.cc", ".cc"));
  EXPECT_EQ(ToLower("SeLeCt"), "select");
}

TEST(StringUtilTest, StrCatAndIndent) {
  EXPECT_EQ(StrCat("a", 1, "-", 2.5), "a1-2.5");
  EXPECT_EQ(IndentLines("a\nb", 2), "  a\n  b");
  EXPECT_EQ(IndentLines("a\n", 2), "  a\n");
  EXPECT_EQ(EscapeString("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

TEST(HashTest, DeterministicAcrossRuns) {
  // Pinned values guard against accidental algorithm changes that would
  // invalidate recorded property-test seeds.
  EXPECT_EQ(HashString("nestjoin"), HashString("nestjoin"));
  EXPECT_NE(HashString("nestjoin"), HashString("semijoin"));
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
  EXPECT_EQ(HashCombineUnordered(HashCombineUnordered(0, 1), 2),
            HashCombineUnordered(HashCombineUnordered(0, 2), 1));
}

TEST(RandomTest, DeterministicAndBounded) {
  Random a(123);
  Random b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t u = r.Uniform(10);
    EXPECT_LT(u, 10u);
    const int64_t v = r.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, DifferentSeedsDiverge) {
  Random a(1);
  Random b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(ZipfTest, DeterministicAndInRange) {
  Zipf zipf(100, 1.2);
  Random a(5);
  Random b(5);
  for (int i = 0; i < 200; ++i) {
    const uint64_t va = zipf.Next(&a);
    EXPECT_EQ(va, zipf.Next(&b));
    EXPECT_LT(va, 100u);
  }
}

TEST(ZipfTest, SkewConcentratesOnSmallKeys) {
  Zipf skewed(50, 1.5);
  Zipf uniform(50, 0.0);
  Random r1(7);
  Random r2(7);
  int skew_zero = 0;
  int uniform_zero = 0;
  for (int i = 0; i < 5000; ++i) {
    if (skewed.Next(&r1) == 0) ++skew_zero;
    if (uniform.Next(&r2) == 0) ++uniform_zero;
  }
  // Key 0 takes ~40% of skewed mass vs 2% uniform.
  EXPECT_GT(skew_zero, 1200);
  EXPECT_LT(uniform_zero, 300);
  EXPECT_GT(skew_zero, 3 * uniform_zero);
}

TEST(RandomTest, BernoulliRoughlyCalibrated) {
  Random r(99);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (r.Bernoulli(0.3)) ++hits;
  }
  EXPECT_GT(hits, 2700);
  EXPECT_LT(hits, 3300);
}

// The byte-wise CRC-32 loop Crc32 replaced: slicing-by-8 must agree with it
// on every input, seed and alignment.
uint32_t ReferenceCrc32(const unsigned char* p, size_t len, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownAnswer) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(Crc32(nullptr, 0, 0x1234u), 0x1234u);
}

TEST(Crc32Test, MatchesByteWiseLoopAtEveryOffsetAndLength) {
  Random r(7);
  std::vector<unsigned char> buffer(8 + 300);
  for (unsigned char& b : buffer) b = static_cast<unsigned char>(r.Next());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      const unsigned char* p = buffer.data() + offset;
      ASSERT_EQ(Crc32(p, len), ReferenceCrc32(p, len, 0))
          << "offset " << offset << " len " << len;
      ASSERT_EQ(Crc32(p, len, 0xDEADBEEFu),
                ReferenceCrc32(p, len, 0xDEADBEEFu))
          << "seeded, offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32Test, ChunkedThroughSeedAtEverySplitPoint) {
  Random r(11);
  std::vector<unsigned char> buffer(300);
  for (unsigned char& b : buffer) b = static_cast<unsigned char>(r.Next());
  const uint32_t whole = ReferenceCrc32(buffer.data(), buffer.size(), 0);
  for (size_t split = 0; split <= buffer.size(); ++split) {
    const uint32_t head = Crc32(buffer.data(), split);
    EXPECT_EQ(Crc32(buffer.data() + split, buffer.size() - split, head), whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace tmdb
