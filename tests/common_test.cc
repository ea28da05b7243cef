// Unit tests for src/common: Status/Result, PRNGs, bit utilities.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/bits.h"
#include "common/random.h"
#include "common/status.h"

namespace li {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad knob");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad knob");
  EXPECT_NE(s.ToString().find("INVALID_ARGUMENT"), std::string::npos);
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  auto fails = [] { return Status::NotFound("x"); };
  auto wrapper = [&]() -> Status {
    LI_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kNotFound);
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> err(Status::Internal("boom"));
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInternal);
}

TEST(RandomTest, DeterministicForSeed) {
  Xorshift128Plus a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiverge) {
  Xorshift128Plus a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.Next() == b.Next();
  EXPECT_LT(equal, 5);
}

TEST(RandomTest, BoundedStaysInBound) {
  Xorshift128Plus rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RandomTest, DoubleInUnitInterval) {
  Xorshift128Plus rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, GaussianMomentsRoughlyStandard) {
  Xorshift128Plus rng(11);
  constexpr int kN = 100'000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kN;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(std::sqrt(sum_sq / kN - mean * mean), 1.0, 0.02);
}

TEST(RandomTest, ExponentialMeanMatchesRate) {
  Xorshift128Plus rng(13);
  constexpr int kN = 100'000;
  double sum = 0.0;
  for (int i = 0; i < kN; ++i) sum += rng.NextExponential(4.0);
  EXPECT_NEAR(sum / kN, 0.25, 0.01);
}

TEST(RandomTest, ZipfRanksInRangeAndHeadHeavy) {
  constexpr size_t kN = 1'000;
  ZipfGenerator zipf(kN, 1.1, 17);
  std::vector<int> hist(kN, 0);
  for (int i = 0; i < 100'000; ++i) {
    const size_t r = zipf.Next();
    ASSERT_LT(r, kN);
    ++hist[r];
  }
  // Head-heavy: rank 0 beats the middle rank by a wide margin, and the
  // top decile holds the majority of the mass (s = 1.1).
  EXPECT_GT(hist[0], hist[kN / 2] * 10);
  int top_decile = 0;
  for (size_t r = 0; r < kN / 10; ++r) top_decile += hist[r];
  EXPECT_GT(top_decile, 50'000);
}

TEST(RandomTest, ZipfZeroExponentIsRoughlyUniform) {
  constexpr size_t kN = 100;
  ZipfGenerator zipf(kN, 0.0, 23);
  std::vector<int> hist(kN, 0);
  for (int i = 0; i < 100'000; ++i) ++hist[zipf.Next()];
  for (const int c : hist) EXPECT_NEAR(c, 1'000, 250);
}

TEST(MurmurTest, FinalizerIsBijectiveOnSample) {
  std::set<uint64_t> seen;
  for (uint64_t k = 0; k < 10'000; ++k) seen.insert(Murmur3Fmix64(k));
  EXPECT_EQ(seen.size(), 10'000u);
}

TEST(MurmurTest, StringHashDependsOnAllBytes) {
  const uint64_t h1 = MurmurHash64("hello world", 11);
  const uint64_t h2 = MurmurHash64("hello worle", 11);
  const uint64_t h3 = MurmurHash64("hello world", 10);
  EXPECT_NE(h1, h2);
  EXPECT_NE(h1, h3);
}

TEST(BitsTest, NextPow2) {
  EXPECT_EQ(NextPow2(1), 1u);
  EXPECT_EQ(NextPow2(2), 2u);
  EXPECT_EQ(NextPow2(3), 4u);
  EXPECT_EQ(NextPow2(1000), 1024u);
}

TEST(BitsTest, Log2Floor) {
  EXPECT_EQ(Log2Floor(1), 0u);
  EXPECT_EQ(Log2Floor(2), 1u);
  EXPECT_EQ(Log2Floor(3), 1u);
  EXPECT_EQ(Log2Floor(1024), 10u);
}

}  // namespace
}  // namespace li
