// Conformance suite for the library-wide RangeFilter contract: both
// constructions in src/rangefilter/ — the learned segmented filter and
// the fixed-width interval-bitmap baseline — are (a) statically asserted
// to satisfy index::RangeFilter (and the section snapshot protocol) and
// (b) driven through identical dynamic checks over uniform, zipf,
// duplicate-heavy, and adversarial-gap key sets:
//
//   * zero false negatives against a std::set brute-force oracle — the
//     non-negotiable contract, checked over witness ranges *and* fully
//     random ranges so emptiness is decided by the oracle, not assumed;
//   * measured range-FPR at or under a calibrated bound on uniform keys
//     (skew-dependent FPR comparisons live in bench_rangefilter);
//   * degenerate [lo, lo) ranges answer false, the full-domain range
//     answers true, and MightContain(k) == MightContainRange(k, k+1)
//     point-vs-range consistency, including the 2^64-1 edge;
//   * an empty build and the empty AnyRangeFilter handle behave as the
//     empty set;
//   * the type-erased handle answers bit-for-bit like the concrete
//     filter it wraps.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "common/random.h"
#include "index/range_filter.h"
#include "index/snapshottable.h"
#include "rangefilter/interval_bitmap_filter.h"
#include "rangefilter/learned_range_filter.h"
#include "rangefilter/workload.h"

namespace li {
namespace {

// ---- Static acceptance gate: the contract holds for every filter ----
static_assert(index::RangeFilter<rangefilter::LearnedRangeFilter>);
static_assert(index::RangeFilter<rangefilter::IntervalBitmapFilter>);
// The erased handle itself satisfies the concept, so erased filters can
// be re-erased / stored wherever a concrete filter is expected.
static_assert(index::RangeFilter<index::AnyRangeFilter>);
// Both constructions persist through the shared section protocol.
static_assert(index::Snapshottable<rangefilter::LearnedRangeFilter>);
static_assert(index::SectionSnapshottable<rangefilter::LearnedRangeFilter>);
static_assert(index::Snapshottable<rangefilter::IntervalBitmapFilter>);
static_assert(
    index::SectionSnapshottable<rangefilter::IntervalBitmapFilter>);

/// Build with a bits-per-key budget, uniformly over both config types.
Status BuildFilter(rangefilter::LearnedRangeFilter& f,
                   std::span<const uint64_t> keys, double bits_per_key) {
  rangefilter::LearnedRangeFilterConfig cfg;
  cfg.bits_per_key = bits_per_key;
  return f.Build(keys, cfg);
}
Status BuildFilter(rangefilter::IntervalBitmapFilter& f,
                   std::span<const uint64_t> keys, double bits_per_key) {
  rangefilter::IntervalBitmapFilterConfig cfg;
  cfg.bits_per_key = bits_per_key;
  return f.Build(keys, cfg);
}

/// Exact range emptiness over the built keys — the ground truth every
/// probabilistic answer is held against.
bool OracleNonEmpty(const std::set<uint64_t>& keys, uint64_t lo,
                    uint64_t hi) {
  if (hi <= lo) return false;
  const auto it = keys.lower_bound(lo);
  return it != keys.end() && *it < hi;  // hi is exclusive
}

struct Dataset {
  const char* name;
  std::vector<uint64_t> keys;
};

std::vector<Dataset> MakeDatasets() {
  std::vector<Dataset> out;
  out.push_back({"uniform", rangefilter::GenUniformKeys(20'000, 11)});
  out.push_back({"zipf", rangefilter::GenZipfKeys(20'000, 12)});
  out.push_back(
      {"duplicates", rangefilter::GenDuplicateHeavyKeys(20'000, 13)});
  out.push_back({"advgap", rangefilter::GenAdversarialGapKeys(20'000, 14)});
  return out;
}

template <typename F>
class RangeFilterConformanceTest : public ::testing::Test {};

using FilterTypes = ::testing::Types<rangefilter::LearnedRangeFilter,
                                     rangefilter::IntervalBitmapFilter>;
TYPED_TEST_SUITE(RangeFilterConformanceTest, FilterTypes);

TYPED_TEST(RangeFilterConformanceTest, ZeroFalseNegativesVsOracle) {
  for (const Dataset& ds : MakeDatasets()) {
    SCOPED_TRACE(ds.name);
    TypeParam filter;
    ASSERT_TRUE(BuildFilter(filter, ds.keys, 8.0).ok());
    const std::set<uint64_t> oracle(ds.keys.begin(), ds.keys.end());

    // Witness ranges: each contains a built key by construction.
    for (const index::RangeQuery& q :
         rangefilter::GenWitnessRanges(
             std::vector<uint64_t>(oracle.begin(), oracle.end()), 21,
             2'000)) {
      ASSERT_TRUE(OracleNonEmpty(oracle, q.lo, q.hi));
      ASSERT_TRUE(filter.MightContainRange(q.lo, q.hi))
          << "false negative on [" << q.lo << ", " << q.hi << ")";
    }
    // Fully random ranges: the oracle decides emptiness; any non-empty
    // range the filter denies is a contract violation.
    Xorshift128Plus rng(22);
    const uint64_t span = *oracle.rbegin() - *oracle.begin();
    for (int i = 0; i < 4'000; ++i) {
      const uint64_t lo = *oracle.begin() + rng.NextBounded(span);
      const uint64_t hi = lo + 1 + rng.NextBounded(1u << 16);
      if (OracleNonEmpty(oracle, lo, hi)) {
        ASSERT_TRUE(filter.MightContainRange(lo, hi))
            << "false negative on [" << lo << ", " << hi << ")";
      }
    }
    // Every built key answers true as a point probe.
    for (size_t i = 0; i < ds.keys.size(); i += 7) {
      ASSERT_TRUE(filter.MightContain(ds.keys[i])) << ds.keys[i];
    }
  }
}

TYPED_TEST(RangeFilterConformanceTest, RangeFprUnderTarget) {
  // Uniform keys: both constructions place ~bits_per_key blocks per key
  // gap, so in-gap queries false-positive at roughly 2/bits_per_key.
  // At 32 bits/key that predicts ~0.06; 0.15 leaves wobble room while
  // still catching a broken layout (which measures near 1.0).
  const std::vector<uint64_t> keys = rangefilter::GenUniformKeys(20'000, 31);
  TypeParam filter;
  ASSERT_TRUE(BuildFilter(filter, keys, 32.0).ok());
  const std::vector<index::RangeQuery> empties =
      rangefilter::GenEmptyRanges(keys, 32);
  ASSERT_GE(empties.size(), 1'000u);
  const double fpr = index::MeasureRangeFprOver(filter, empties);
  EXPECT_LE(fpr, 0.15);
  // MeasureRangeFprOver agrees with a manual probe count.
  size_t fp = 0;
  for (const index::RangeQuery& q : empties) {
    fp += filter.MightContainRange(q.lo, q.hi);
  }
  EXPECT_DOUBLE_EQ(
      fpr, static_cast<double>(fp) / static_cast<double>(empties.size()));
  EXPECT_GT(filter.SizeBytes(), 0u);
}

TYPED_TEST(RangeFilterConformanceTest, DegenerateAndFullDomainRanges) {
  const std::vector<uint64_t> keys =
      rangefilter::GenAdversarialGapKeys(5'000, 41);
  TypeParam filter;
  ASSERT_TRUE(BuildFilter(filter, keys, 8.0).ok());

  // [lo, lo) is empty by definition — even at a built key.
  for (size_t i = 0; i < keys.size(); i += 97) {
    EXPECT_FALSE(filter.MightContainRange(keys[i], keys[i]));
  }
  EXPECT_FALSE(filter.MightContainRange(keys[0] + 1, keys[0]));  // hi < lo

  // The full domain always contains every built key.
  EXPECT_TRUE(filter.MightContainRange(0, ~uint64_t{0}));
  EXPECT_TRUE(filter.MightContainRange(keys.front(), keys.back() + 1));
}

TYPED_TEST(RangeFilterConformanceTest, PointVsRangeConsistency) {
  const std::vector<uint64_t> keys = rangefilter::GenZipfKeys(10'000, 51);
  TypeParam filter;
  ASSERT_TRUE(BuildFilter(filter, keys, 8.0).ok());

  Xorshift128Plus rng(52);
  for (int i = 0; i < 5'000; ++i) {
    const uint64_t k = (i % 2 == 0)
                           ? keys[rng.NextBounded(keys.size())]
                           : rng.NextBounded(keys.back() + 2);
    ASSERT_LT(k, ~uint64_t{0});
    ASSERT_EQ(filter.MightContain(k), filter.MightContainRange(k, k + 1))
        << k;
  }
}

TYPED_TEST(RangeFilterConformanceTest, MaxKeyEdgeIsHandledInternally) {
  // key == 2^64-1 cannot be probed as [k, k+1) by wrapping; the contract
  // requires the filter to handle it internally.
  const std::vector<uint64_t> keys = {10, 1'000, ~uint64_t{0} - 1,
                                      ~uint64_t{0}};
  TypeParam filter;
  ASSERT_TRUE(BuildFilter(filter, keys, 16.0).ok());
  EXPECT_TRUE(filter.MightContain(~uint64_t{0}));
  EXPECT_TRUE(filter.MightContainRange(~uint64_t{0} - 1, ~uint64_t{0}));
  EXPECT_TRUE(filter.MightContainRange(0, ~uint64_t{0}));
  EXPECT_FALSE(filter.MightContainRange(~uint64_t{0}, ~uint64_t{0}));
}

TYPED_TEST(RangeFilterConformanceTest, EmptyBuildIsTheEmptySet) {
  TypeParam filter;
  ASSERT_TRUE(BuildFilter(filter, {}, 16.0).ok());
  EXPECT_FALSE(filter.MightContain(0));
  EXPECT_FALSE(filter.MightContain(~uint64_t{0}));
  EXPECT_FALSE(filter.MightContainRange(0, ~uint64_t{0}));
  const std::vector<index::RangeQuery> probes = {{0, 100}, {5, 6}};
  EXPECT_DOUBLE_EQ(index::MeasureRangeFprOver(filter, probes), 0.0);

  // A never-built filter behaves the same way, not as "contains all".
  TypeParam unbuilt;
  EXPECT_FALSE(unbuilt.MightContain(42));
  EXPECT_FALSE(unbuilt.MightContainRange(0, ~uint64_t{0}));
}

TYPED_TEST(RangeFilterConformanceTest, ErasurePreservesEveryAnswer) {
  const std::vector<uint64_t> keys =
      rangefilter::GenAdversarialGapKeys(8'000, 61);
  TypeParam filter;
  ASSERT_TRUE(BuildFilter(filter, keys, 8.0).ok());
  TypeParam twin;
  ASSERT_TRUE(BuildFilter(twin, keys, 8.0).ok());
  const index::AnyRangeFilter erased(std::move(twin));
  EXPECT_FALSE(erased.empty());
  EXPECT_EQ(erased.SizeBytes(), filter.SizeBytes());

  Xorshift128Plus rng(62);
  for (int i = 0; i < 5'000; ++i) {
    const uint64_t lo = rng.NextBounded(keys.back() + 1024);
    const uint64_t hi = lo + rng.NextBounded(1u << 14);
    ASSERT_EQ(erased.MightContainRange(lo, hi),
              filter.MightContainRange(lo, hi))
        << "[" << lo << ", " << hi << ")";
    ASSERT_EQ(erased.MightContain(lo), filter.MightContain(lo)) << lo;
  }
}

TEST(AnyRangeFilterTest, EmptyHandleIsTheEmptySet) {
  index::AnyRangeFilter empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.MightContain(0));
  EXPECT_FALSE(empty.MightContainRange(0, ~uint64_t{0}));
  EXPECT_EQ(empty.SizeBytes(), 0u);
  const std::vector<index::RangeQuery> probes = {{0, 100}};
  EXPECT_DOUBLE_EQ(index::MeasureRangeFprOver(empty, probes), 0.0);
}

// The dataset generators hold the guarantees the suites lean on.
TEST(RangeFilterWorkloadTest, GeneratorsHoldTheirGuarantees) {
  const std::vector<uint64_t> keys = rangefilter::GenZipfKeys(10'000, 71);
  ASSERT_GE(keys.size(), 9'000u);  // near-exact size after dedupe+fill
  ASSERT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  ASSERT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());

  const std::set<uint64_t> oracle(keys.begin(), keys.end());
  for (const index::RangeQuery& q : rangefilter::GenEmptyRanges(keys, 72)) {
    ASSERT_FALSE(OracleNonEmpty(oracle, q.lo, q.hi))
        << "[" << q.lo << ", " << q.hi << ") is not empty";
    ASSERT_LT(q.lo, q.hi);
  }
  for (const index::RangeQuery& q :
       rangefilter::GenWitnessRanges(keys, 73, 2'000)) {
    ASSERT_TRUE(OracleNonEmpty(oracle, q.lo, q.hi))
        << "[" << q.lo << ", " << q.hi << ") has no witness";
  }
}

}  // namespace
}  // namespace li
