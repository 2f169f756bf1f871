// Tests for util/: Status, Result, Rng, CRC-32, framed sections,
// TableWriter, Stopwatch.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/crc32.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace rfid {
namespace {

// ---------------------------------------------------------------- Status ---

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  EXPECT_EQ(Status::Invalid("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Invalid("boom").message(), "boom");
}

TEST(StatusTest, ToStringIncludesCodeNameAndMessage) {
  const Status s = Status::NotFound("tag 7");
  EXPECT_EQ(s.ToString(), "NotFound: tag 7");
}

TEST(StatusTest, StatusCodeNameCoversAllCodes) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIOError), "IOError");
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status { return Status::Invalid("inner"); };
  auto outer = [&]() -> Status {
    RFID_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------- Result ---

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, ValueOrReturnsValueWhenOk) {
  Result<std::string> r(std::string("hello"));
  EXPECT_EQ(r.value_or("fallback"), "hello");
}

TEST(ResultTest, MoveOutValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

// ------------------------------------------------------------------- Rng ---

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, ReseedReproduces) {
  Rng a(99);
  std::vector<uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a.NextU64());
  a.Seed(99);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.NextU64(), first[i]);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 7.5);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 7.5);
  }
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  Rng rng(7);
  constexpr uint64_t kBuckets = 10;
  std::vector<int> counts(kBuckets, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.UniformInt(kBuckets)];
  for (uint64_t b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], kDraws / kBuckets, 500) << "bucket " << b;
  }
}

TEST(RngTest, UniformIntOneIsAlwaysZero) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.UniformInt(1), 0u);
}

TEST(RngTest, GaussianMomentsMatchStandardNormal) {
  Rng rng(9);
  double sum = 0.0, sum_sq = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.01);
  EXPECT_NEAR(sum_sq / kN, 1.0, 0.02);
}

TEST(RngTest, GaussianWithParamsShiftsAndScales) {
  Rng rng(10);
  double sum = 0.0, sum_sq = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.Gaussian(5.0, 2.0);
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / kN;
  const double var = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(11);
  constexpr int kN = 100000;
  int hits = 0;
  for (int i = 0; i < kN; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(12);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, CategoricalMatchesWeights) {
  Rng rng(13);
  const std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(kN), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kN), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(kN), 0.6, 0.01);
}

TEST(RngTest, CategoricalSingleElement) {
  Rng rng(14);
  EXPECT_EQ(rng.Categorical({5.0}), 0u);
}

TEST(RngTest, CategoricalZeroWeightNeverChosen) {
  Rng rng(15);
  const std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(rng.Categorical(weights), 1u);
}

// ---------------------------------------------------------------- CRC-32 ---

/// The textbook bitwise CRC-32 (reflected 0xEDB88320), independent of the
/// tables the production code uses.
uint32_t ReferenceCrc32(const unsigned char* data, size_t len) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (c >> 1) ^ 0xEDB88320u : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> RandomBytes(Rng* rng, size_t len) {
  std::vector<unsigned char> bytes(len);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng->UniformInt(256));
  return bytes;
}

TEST(Crc32Test, StandardCheckValue) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, MatchesBytewiseReferenceOnRandomBuffers) {
  Rng rng(31);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t len = static_cast<size_t>(rng.UniformInt(4097));
    const auto bytes = RandomBytes(&rng, len);
    // Unaligned starts exercise the 8-byte main loop from every offset.
    const size_t offset = std::min<size_t>(len, trial % 8);
    ASSERT_EQ(Crc32(bytes.data() + offset, len - offset),
              ReferenceCrc32(bytes.data() + offset, len - offset))
        << "length " << len << " offset " << offset;
  }
}

TEST(Crc32Test, ChainingEqualsOneShot) {
  Rng rng(32);
  const auto bytes = RandomBytes(&rng, 1000);
  const uint32_t head = Crc32(bytes.data(), 333);
  EXPECT_EQ(Crc32(bytes.data() + 333, 667, head),
            Crc32(bytes.data(), bytes.size()));
}

TEST(Crc32Test, CombineEqualsCrcOfConcatenation) {
  Rng rng(33);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t len = static_cast<size_t>(rng.UniformInt(4097));
    const auto bytes = RandomBytes(&rng, len);
    // Split points include both ends, so each side is sometimes empty.
    const size_t split =
        trial % 3 == 0 ? (trial % 2 == 0 ? 0 : len)
                       : static_cast<size_t>(rng.UniformInt(len + 1));
    const uint32_t a = Crc32(bytes.data(), split);
    const uint32_t b = Crc32(bytes.data() + split, len - split);
    ASSERT_EQ(Crc32Combine(a, b, len - split), Crc32(bytes.data(), len))
        << "length " << len << " split " << split;
  }
}

// -------------------------------------------------------- framed sections ---

/// The framed layout spelled out by hand: [u64 length][u32 crc][payload].
std::string Frame(const std::string& payload) {
  std::string out(12, '\0');
  const uint64_t length = payload.size();
  const uint32_t crc = Crc32(payload.data(), payload.size());
  std::memcpy(&out[0], &length, sizeof(length));
  std::memcpy(&out[8], &crc, sizeof(crc));
  return out + payload;
}

TEST(FramedSectionTest, NestedSectionsWriteTheStagedLayout) {
  // A section nested in another streams to the sink directly; the outer
  // frame must still carry the CRC of everything inside it, inner header
  // included. Payloads span several section buffers.
  const std::string before(50'000, 'a');
  const std::string inner(70'000, 'b');
  const std::string after = "tail";
  std::stringstream ss;
  ss << "head";
  const Status status =
      serialize::WriteFramedSection(ss, [&](std::ostream& outer) {
        outer << before;
        RFID_RETURN_NOT_OK(serialize::WriteFramedSection(
            outer, [&](std::ostream& os) { os << inner; }));
        outer << after;
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(ss.str(), "head" + Frame(before + Frame(inner) + after));

  std::string read_inner, read_after;
  ss.seekg(4);
  const auto read_inner_section = [&](std::istream& is) {
    read_inner.assign(std::istreambuf_iterator<char>(is), {});
    return Status::OK();
  };
  const auto read_outer_section = [&](std::istream& outer) {
    std::string skipped(before.size(), '\0');
    outer.read(&skipped[0], static_cast<std::streamsize>(skipped.size()));
    RFID_RETURN_NOT_OK(
        serialize::ReadFramedSection(outer, read_inner_section));
    read_after.assign(std::istreambuf_iterator<char>(outer), {});
    return Status::OK();
  };
  const Status read = serialize::ReadFramedSection(ss, read_outer_section);
  ASSERT_TRUE(read.ok()) << read.ToString();
  EXPECT_EQ(read_inner, inner);
  EXPECT_EQ(read_after, after);
}

TEST(FramedSectionTest, BytesTheParserLeavesAreCorrupt) {
  // Whatever a parser never reads would be dropped on re-save.
  std::stringstream ss(Frame("payload bytes"));
  const Status status = serialize::ReadFramedSection(ss, [](std::istream& is) {
    char first = 0;
    is.get(first);
    return Status::OK();
  });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
}

TEST(FramedSectionTest, ReaderReportsChecksumOverParseErrors) {
  std::string bytes = Frame("payload bytes");
  bytes[14] ^= 0x10;
  std::stringstream ss(bytes);
  const Status status = serialize::ReadFramedSection(
      ss, [](std::istream&) { return Status::IOError("parse failed"); });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
}

TEST(FramedSectionTest, LengthBeyondTheSourceIsTruncation) {
  std::string bytes = Frame("payload bytes");
  bytes.resize(bytes.size() - 1);
  std::stringstream ss(bytes);
  bool parsed = false;
  const Status status = serialize::ReadFramedSection(ss, [&](std::istream&) {
    parsed = true;
    return Status::OK();
  });
  EXPECT_EQ(status.code(), StatusCode::kIOError) << status.ToString();
  EXPECT_FALSE(parsed);
}

TEST(FramedSectionTest, CountsAreBoundedByTheBytesLeft) {
  // 3 elements of 8 bytes need 24 bytes; the section holds 16 after the
  // count, so a claim of 3 is a lie and 2 is fine.
  for (const uint64_t claimed : {uint64_t{2}, uint64_t{3}}) {
    std::string payload(sizeof(claimed), '\0');
    std::memcpy(&payload[0], &claimed, sizeof(claimed));
    payload += std::string(16, 'x');
    std::stringstream ss(Frame(payload));
    bool fits = false;
    ASSERT_TRUE(serialize::ReadFramedSection(ss, [&](std::istream& is) {
                  uint64_t count = 0;
                  fits = serialize::ReadCount(is, &count, 8);
                  is.ignore(std::numeric_limits<std::streamsize>::max());
                  return Status::OK();
                }).ok());
    EXPECT_EQ(fits, claimed == 2) << "claimed " << claimed;
  }
}

// ----------------------------------------------------------- TableWriter ---

TEST(TableWriterTest, CsvOutput) {
  TableWriter t({"a", "b"});
  ASSERT_TRUE(t.AddRow(std::vector<std::string>{"1", "2"}).ok());
  std::ostringstream os;
  t.WriteCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TableWriterTest, RejectsWrongArity) {
  TableWriter t({"a", "b", "c"});
  EXPECT_FALSE(t.AddRow(std::vector<std::string>{"1"}).ok());
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(TableWriterTest, DoubleRowsUsePrecision) {
  TableWriter t({"x"});
  ASSERT_TRUE(t.AddRow(std::vector<double>{1.23456}, 2).ok());
  std::ostringstream os;
  t.WriteCsv(os);
  EXPECT_EQ(os.str(), "x\n1.23\n");
}

TEST(TableWriterTest, AlignedOutputPadsColumns) {
  TableWriter t({"name", "v"});
  ASSERT_TRUE(t.AddRow(std::vector<std::string>{"longvalue", "1"}).ok());
  std::ostringstream os;
  t.WriteAligned(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name    "), std::string::npos);
  EXPECT_NE(out.find("longvalue"), std::string::npos);
}

TEST(FormatDoubleTest, Precision) {
  EXPECT_EQ(FormatDouble(3.14159, 3), "3.142");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

// ------------------------------------------------------------- Stopwatch ---

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double ms = w.ElapsedMillis();
  EXPECT_GE(ms, 15.0);
  EXPECT_LT(ms, 500.0);
}

TEST(StopwatchTest, StartResets) {
  Stopwatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  w.Start();
  EXPECT_LT(w.ElapsedMillis(), 15.0);
}

TEST(StopwatchTest, UnitsAreConsistent) {
  Stopwatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double s = w.ElapsedSeconds();
  const double ms = w.ElapsedMillis();
  EXPECT_NEAR(ms / 1000.0, s, 0.05);
}

}  // namespace
}  // namespace rfid
