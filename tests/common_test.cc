// Unit tests for the common substrate: Status/Result, serialization,
// hashing/key groups, RNG distributions, metrics, CRC, clock, and the Value
// model.

#include <gtest/gtest.h>

#include <set>

#include "common/clock.h"
#include "common/crc32.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/serde.h"
#include "common/status.h"
#include "event/value.h"

namespace evo {
namespace {

TEST(StatusTest, OkIsDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing key");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.message(), "missing key");
  EXPECT_EQ(st.ToString(), "NotFound: missing key");
}

TEST(StatusTest, CopyPreservesState) {
  Status a = Status::IOError("disk");
  Status b = a;
  EXPECT_EQ(a, b);
  EXPECT_EQ(b.message(), "disk");
}

Status FailingFn() { return Status::Internal("boom"); }
Status Propagates() {
  EVO_RETURN_IF_ERROR(FailingFn());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  EXPECT_EQ(Propagates().code(), StatusCode::kInternal);
}

Result<int> GiveInt(bool ok) {
  if (ok) return 7;
  return Status::InvalidArgument("nope");
}
Result<int> UseAssignOrReturn(bool ok) {
  EVO_ASSIGN_OR_RETURN(int v, GiveInt(ok));
  return v * 2;
}

TEST(ResultTest, ValueAndErrorPaths) {
  auto good = UseAssignOrReturn(true);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 14);
  auto bad = UseAssignOrReturn(false);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, ValueOr) {
  Result<int> err = Status::NotFound("x");
  EXPECT_EQ(err.ValueOr(3), 3);
  Result<int> val = 9;
  EXPECT_EQ(val.ValueOr(3), 9);
}

TEST(SerdeTest, FixedWidthRoundTrip) {
  BinaryWriter w;
  w.WriteU32(0xdeadbeef);
  w.WriteI64(-42);
  w.WriteDouble(3.5);
  w.WriteBool(true);
  BinaryReader r(w.buffer());
  uint32_t u = 0;
  int64_t i = 0;
  double d = 0;
  bool b = false;
  ASSERT_TRUE(r.ReadU32(&u).ok());
  ASSERT_TRUE(r.ReadI64(&i).ok());
  ASSERT_TRUE(r.ReadDouble(&d).ok());
  ASSERT_TRUE(r.ReadBool(&b).ok());
  EXPECT_EQ(u, 0xdeadbeef);
  EXPECT_EQ(i, -42);
  EXPECT_EQ(d, 3.5);
  EXPECT_TRUE(b);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, VarintBoundaries) {
  for (uint64_t v : std::vector<uint64_t>{0, 1, 127, 128, 16383, 16384,
                                          UINT64_MAX}) {
    BinaryWriter w;
    w.WriteVarU64(v);
    BinaryReader r(w.buffer());
    uint64_t out = 0;
    ASSERT_TRUE(r.ReadVarU64(&out).ok()) << v;
    EXPECT_EQ(out, v);
  }
}

TEST(SerdeTest, TruncationIsDataLoss) {
  BinaryWriter w;
  w.WriteU64(12345);
  std::string data = w.buffer().substr(0, 3);
  BinaryReader r(data);
  uint64_t out = 0;
  EXPECT_EQ(r.ReadU64(&out).code(), StatusCode::kDataLoss);
}

TEST(SerdeTest, BytesRoundTripIncludingEmbeddedNulls) {
  std::string payload("a\0b\0c", 5);
  BinaryWriter w;
  w.WriteBytes(payload);
  BinaryReader r(w.buffer());
  std::string_view got;
  ASSERT_TRUE(r.ReadBytes(&got).ok());
  EXPECT_EQ(got, payload);
}

TEST(SerdeTest, VectorAndPairSerde) {
  std::vector<std::pair<std::string, int64_t>> v = {
      {"alpha", 1}, {"beta", -2}, {"", 0}};
  auto data = SerializeToString(v);
  auto back = DeserializeFromString<decltype(v)>(data);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, v);
}

TEST(HashTest, KeyGroupAssignmentsArePartition) {
  // Every key group must be owned by exactly one instance, and ranges must
  // tile [0, max) exactly.
  const uint32_t kMax = 128;
  for (uint32_t p : {1u, 2u, 3u, 5u, 7u, 64u, 128u}) {
    uint32_t covered = 0;
    for (uint32_t inst = 0; inst < p; ++inst) {
      uint32_t start = KeyGroup::RangeStart(inst, kMax, p);
      uint32_t end = KeyGroup::RangeEnd(inst, kMax, p);
      EXPECT_LE(start, end);
      for (uint32_t g = start; g < end; ++g) {
        EXPECT_EQ(KeyGroup::Owner(g, kMax, p), inst)
            << "g=" << g << " p=" << p;
        ++covered;
      }
    }
    EXPECT_EQ(covered, kMax) << "p=" << p;
  }
}

TEST(HashTest, HashStringStableAndSpread) {
  EXPECT_EQ(HashString("stream"), HashString("stream"));
  EXPECT_NE(HashString("stream"), HashString("streaM"));
  std::set<uint64_t> buckets;
  for (int i = 0; i < 1000; ++i) {
    buckets.insert(HashInt(static_cast<uint64_t>(i)) % 64);
  }
  EXPECT_EQ(buckets.size(), 64u);  // all buckets hit with 1000 keys
}

TEST(Crc32Test, KnownVectorAndSensitivity) {
  // CRC-32("123456789") == 0xCBF43926 is the classic check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_NE(Crc32("hello"), Crc32("hellp"));
}

// The plain one-byte-per-step loop over the IEEE table: the reference the
// sliced Crc32 must match bit for bit.
uint32_t BytewiseCrc32(std::string_view data, uint32_t seed = 0) {
  uint32_t c = seed ^ 0xffffffffu;
  for (unsigned char byte : data) {
    c = internal::kCrcTables[0][(c ^ byte) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

TEST(Crc32Test, SlicedMatchesBytewiseAtEveryLengthAndAlignment) {
  Rng rng(0xc4c);
  std::string buf(6 << 20, '\0');
  for (char& ch : buf) ch = static_cast<char>(rng.NextU64());
  EXPECT_EQ(BytewiseCrc32(""), 0u);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      const std::string_view s = std::string_view(buf).substr(offset, len);
      ASSERT_EQ(Crc32(s), BytewiseCrc32(s)) << "offset " << offset << " len " << len;
      ASSERT_EQ(Crc32(s, 0x1234567u), BytewiseCrc32(s, 0x1234567u));
    }
  }
  EXPECT_EQ(Crc32(buf), BytewiseCrc32(buf));
  // Chaining through the seed equals one pass over the concatenation.
  const std::string_view whole(buf);
  EXPECT_EQ(Crc32(whole.substr(1001), Crc32(whole.substr(0, 1001))),
            Crc32(whole));
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, UniformDoubleInRange) {
  Rng rng(1);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ZipfIsSkewed) {
  ZipfGenerator zipf(1000, 0.99, 3);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 20000; ++i) {
    uint64_t r = zipf.Next();
    ASSERT_LT(r, 1000u);
    counts[r]++;
  }
  // Rank 0 should dominate rank 500 by a large margin.
  EXPECT_GT(counts[0], 50 * std::max(1, counts[500]));
}

TEST(ClockTest, ManualClockAdvances) {
  ManualClock clock(1000);
  EXPECT_EQ(clock.NowMs(), 1000);
  clock.AdvanceMs(500);
  EXPECT_EQ(clock.NowMs(), 1500);
  clock.SetMs(1750);
  EXPECT_EQ(clock.NowMs(), 1750);
}

TEST(MetricsTest, HistogramQuantiles) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(i);
  EXPECT_EQ(h.Count(), 1000u);
  EXPECT_NEAR(h.Mean(), 500.5, 0.01);
  // Log-bucketed quantiles are upper bounds within one power of two.
  double p50 = h.Quantile(0.5);
  EXPECT_GE(p50, 500);
  EXPECT_LE(p50, 1024);
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(int64_t{5}).AsInt(), 5);
  EXPECT_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value(true).AsBool(), true);
  EXPECT_EQ(Value("abc").AsString(), "abc");
  Value t = Value::Tuple("k", int64_t{1}, 3.5);
  ASSERT_TRUE(t.is_list());
  EXPECT_EQ(t.AsList().size(), 3u);
  EXPECT_EQ(t.Field(0)->AsString(), "k");
  EXPECT_EQ(t.Field(5).status().code(), StatusCode::kOutOfRange);
}

TEST(ValueTest, NumericCoercion) {
  EXPECT_EQ(Value(int64_t{3}).ToDouble(), 3.0);
  EXPECT_EQ(Value(1.5).ToDouble(), 1.5);
  EXPECT_EQ(Value(true).ToDouble(), 1.0);
  EXPECT_EQ(Value("x").ToDouble(), 0.0);
}

TEST(ValueTest, SerdeRoundTripAllTypes) {
  Value values[] = {
      Value(),
      Value(int64_t{-9}),
      Value(6.25),
      Value(false),
      Value("hello"),
      Value::Tuple("nested", Value::Tuple(int64_t{1}, int64_t{2}), 4.0),
  };
  for (const Value& v : values) {
    BinaryWriter w;
    v.EncodeTo(&w);
    BinaryReader r(w.buffer());
    Value out;
    ASSERT_TRUE(Value::DecodeFrom(&r, &out).ok());
    EXPECT_EQ(out, v) << v.ToString();
  }
}

TEST(ValueTest, HashEqualValuesAgree) {
  EXPECT_EQ(Value("key1").Hash(), Value("key1").Hash());
  EXPECT_NE(Value("key1").Hash(), Value("key2").Hash());
  EXPECT_EQ(Value::Tuple(1, 2).Hash(), Value::Tuple(1, 2).Hash());
}

TEST(ValueTest, TotalOrderIsStrict) {
  Value a(int64_t{1}), b(2.0), c("s");
  EXPECT_TRUE(a < b);  // int type tag < double type tag
  EXPECT_TRUE(b < c);
  EXPECT_FALSE(a < a);
}

}  // namespace
}  // namespace evo
