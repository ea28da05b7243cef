// Edge-case coverage for every §3.4 search strategy: empty windows,
// single-element windows, and keys below/above every element — the
// degenerate shapes learned windows actually produce (empty leaves,
// perfect models, absent keys at the extremes) — plus the FindInWindow
// dispatch including its boundary fix-up.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "data/datasets.h"
#include "index/approx.h"
#include "search/search.h"

namespace li::search {
namespace {

const std::vector<uint64_t> kKeys = {10, 20, 30, 40, 50, 60, 70, 80};

TEST(SearchEdgeTest, EmptyWindowReturnsLo) {
  // A window [3, 3) holds nothing: lower_bound inside it is lo itself.
  for (const uint64_t q : {0ull, 35ull, 200ull}) {
    EXPECT_EQ(BinarySearch(kKeys.data(), 3, 3, q), 3u);
    EXPECT_EQ(UpperBound(kKeys.data(), 3, 3, q), 3u);
    EXPECT_EQ(BiasedBinarySearch(kKeys.data(), 3, 3, q, 3), 3u);
    EXPECT_EQ(BiasedQuaternarySearch(kKeys.data(), 3, 3, q, 3, 2), 3u);
    EXPECT_EQ(InterpolationSearch(kKeys.data(), 3, 3, q), 3u);
  }
  // The window-free strategies degenerate at n == 0.
  EXPECT_EQ(ExponentialSearch(kKeys.data(), 0, uint64_t{35}, 0), 0u);
  EXPECT_EQ(BranchFreeScan(kKeys.data(), 0, 35), 0u);
}

TEST(SearchEdgeTest, SingleElementWindow) {
  // Window [4, 5) holds only kKeys[4] == 50.
  struct Case {
    uint64_t q;
    size_t expect;
  };
  for (const Case c : {Case{49, 4}, Case{50, 4}, Case{51, 5}}) {
    EXPECT_EQ(BinarySearch(kKeys.data(), 4, 5, c.q), c.expect) << c.q;
    EXPECT_EQ(BiasedBinarySearch(kKeys.data(), 4, 5, c.q, 4), c.expect) << c.q;
    EXPECT_EQ(BiasedQuaternarySearch(kKeys.data(), 4, 5, c.q, 4, 1), c.expect)
        << c.q;
    EXPECT_EQ(InterpolationSearch(kKeys.data(), 4, 5, c.q), c.expect) << c.q;
    // BranchFreeScan counts elements < q within the window.
    EXPECT_EQ(4 + BranchFreeScan(kKeys.data() + 4, 1, c.q), c.expect) << c.q;
  }
  // Exponential over a single-element array.
  const std::vector<uint64_t> one = {50};
  EXPECT_EQ(ExponentialSearch(one.data(), 1, uint64_t{49}, 0), 0u);
  EXPECT_EQ(ExponentialSearch(one.data(), 1, uint64_t{50}, 0), 0u);
  EXPECT_EQ(ExponentialSearch(one.data(), 1, uint64_t{51}, 0), 1u);
}

TEST(SearchEdgeTest, KeyBelowAllElements) {
  const size_t n = kKeys.size();
  for (const uint64_t q : {0ull, 9ull}) {
    EXPECT_EQ(BinarySearch(kKeys.data(), 0, n, q), 0u);
    EXPECT_EQ(UpperBound(kKeys.data(), 0, n, q), 0u);
    // Deliberately bad predictions: the hint must not break correctness.
    EXPECT_EQ(BiasedBinarySearch(kKeys.data(), 0, n, q, n - 1), 0u);
    EXPECT_EQ(BiasedQuaternarySearch(kKeys.data(), 0, n, q, n - 1, 3), 0u);
    EXPECT_EQ(ExponentialSearch(kKeys.data(), n, q, n - 1), 0u);
    EXPECT_EQ(InterpolationSearch(kKeys.data(), 0, n, q), 0u);
    EXPECT_EQ(BranchFreeScan(kKeys.data(), n, q), 0u);
  }
}

TEST(SearchEdgeTest, KeyAboveAllElements) {
  const size_t n = kKeys.size();
  for (const uint64_t q : {81ull, 10'000ull}) {
    EXPECT_EQ(BinarySearch(kKeys.data(), 0, n, q), n);
    EXPECT_EQ(UpperBound(kKeys.data(), 0, n, q), n);
    EXPECT_EQ(BiasedBinarySearch(kKeys.data(), 0, n, q, 0), n);
    EXPECT_EQ(BiasedQuaternarySearch(kKeys.data(), 0, n, q, 0, 3), n);
    EXPECT_EQ(ExponentialSearch(kKeys.data(), n, q, 0), n);
    EXPECT_EQ(InterpolationSearch(kKeys.data(), 0, n, q), n);
    EXPECT_EQ(BranchFreeScan(kKeys.data(), n, q), n);
  }
}

// ---- FindInWindow: the shared Approx-consuming dispatch ----

constexpr Strategy kAllStrategies[] = {
    Strategy::kBinary, Strategy::kBiasedBinary, Strategy::kBiasedQuaternary,
    Strategy::kExponential, Strategy::kInterpolation};

TEST(FindInWindowTest, CorrectWindowAllStrategies) {
  const auto keys = data::GenUniform(5000, 31, 1'000'000);
  Xorshift128Plus rng(32);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t q = rng.NextBounded(1'100'000);
    const size_t truth = static_cast<size_t>(
        std::lower_bound(keys.begin(), keys.end(), q) - keys.begin());
    // A realistic window: truth +- a small error, clamped to the array.
    const size_t err = 2 + rng.NextBounded(30);
    index::Approx a;
    a.lo = truth > err ? truth - err : 0;
    a.hi = std::min(truth + err + 1, keys.size());
    a.pos = std::min(truth, keys.size() - 1);
    for (const Strategy s : kAllStrategies) {
      EXPECT_EQ(FindInWindow(s, keys.data(), keys.size(), q, a, 4), truth)
          << StrategyName(s) << " q=" << q;
    }
  }
}

TEST(FindInWindowTest, BoundaryFixupRecoversFromWrongWindows) {
  const auto keys = data::GenUniform(5000, 33, 1'000'000);
  Xorshift128Plus rng(34);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t q = rng.NextBounded(1'100'000);
    const size_t truth = static_cast<size_t>(
        std::lower_bound(keys.begin(), keys.end(), q) - keys.begin());
    // A window that may exclude the truth entirely (the non-monotonic
    // model case): the fix-up must still land on the right answer.
    const size_t start = rng.NextBounded(keys.size() - 8);
    const index::Approx a{start + 4, start, start + 8};
    for (const Strategy s : kAllStrategies) {
      EXPECT_EQ(FindInWindow(s, keys.data(), keys.size(), q, a, 2), truth)
          << StrategyName(s) << " q=" << q;
    }
  }
}

TEST(FindInWindowTest, SaturatedErrorBandStaysInRange) {
  // A leaf band saturated at the int32 limits (errors past +-2^31) widens
  // to the whole array, and the search still lands on the truth.
  const auto keys = data::GenUniform(5000, 35, 1'000'000);
  for (const size_t pos : {size_t{0}, size_t{2500}, keys.size() - 1}) {
    const index::Approx a = index::Approx::FromErrorBand(
        pos, INT32_MIN, INT32_MAX, keys.size());
    EXPECT_EQ(a.lo, 0u);
    EXPECT_EQ(a.hi, keys.size());
    EXPECT_EQ(a.pos, pos);
    for (const uint64_t q : {keys[17], keys[4000] + 1}) {
      const size_t truth = static_cast<size_t>(
          std::lower_bound(keys.begin(), keys.end(), q) - keys.begin());
      for (const Strategy s : kAllStrategies) {
        EXPECT_EQ(FindInWindow(s, keys.data(), keys.size(), q, a, 2), truth)
            << StrategyName(s) << " pos=" << pos;
      }
    }
  }
}

TEST(FindInWindowTest, WorksForStringKeys) {
  // Non-arithmetic keys: interpolation silently degrades to binary.
  const std::vector<std::string> keys = {"alpha", "beta", "delta", "gamma"};
  const std::string q = "canary";
  const index::Approx a{1, 0, keys.size()};
  for (const Strategy s : kAllStrategies) {
    EXPECT_EQ(FindInWindow(s, keys.data(), keys.size(), q, a), 2u)
        << StrategyName(s);
  }
}

}  // namespace
}  // namespace li::search
