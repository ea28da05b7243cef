// SIMD kernel conformance suite: every compiled-and-supported dispatch
// level must agree bit-for-bit with the scalar reference kernels — on edge
// inputs (empty / 1-key / odd-length batches, duplicate keys, window ends,
// denormal and extreme doubles, NaN/infinity products) and end-to-end
// (RmiIndex::LookupBatch, hash SlotBatch/FindBatch) under forced-level
// dispatch. The concurrent range wrapper's Scan runs its write-log
// passes through the table, so it rides the matrix too: identical answers
// at every level, equal to a std::set oracle. The CI matrix runs this
// suite under ASan/UBSan and in the portable LI_NATIVE_ARCH=OFF build at
// forced-scalar and forced-AVX2.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "common/random.h"
#include "concurrent/concurrent_writable_index.h"
#include "data/datasets.h"
#include "dynamic/merge_policy.h"
#include "hash/chained_hash_map.h"
#include "hash/cuckoo_map.h"
#include "hash/hash_fn.h"
#include "hash/inplace_chained_map.h"
#include "rmi/rmi.h"
#include "simd/dispatch.h"

namespace li::simd {
namespace {

std::vector<Level> SupportedLevels() {
  std::vector<Level> levels;
  for (int l = 0; l < kNumLevels; ++l) {
    const auto level = static_cast<Level>(l);
    if (LevelSupported(level)) levels.push_back(level);
  }
  return levels;
}

// Batch lengths straddling every vector width and remainder shape.
const size_t kBatchSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64,
                              65, 100, 127, 128, 129};

std::vector<double> EdgeDoubles(size_t n, uint64_t seed) {
  const double specials[] = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      0.5,
      1.5,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      4503599627370495.5,   // 2^52 - 0.5: largest non-integer double
      4503599627370496.0,   // 2^52
      9007199254740993.0,   // 2^53 + 1 territory
      1e18,
      -1e18,
  };
  std::vector<double> xs(n);
  Xorshift128Plus rng(seed);
  for (size_t i = 0; i < n; ++i) {
    if (rng.NextBounded(4) == 0) {
      xs[i] = specials[rng.NextBounded(std::size(specials))];
    } else {
      xs[i] = (rng.NextDouble() - 0.5) * 2e12;
    }
  }
  return xs;
}

std::vector<uint64_t> EdgeUints(size_t n, uint64_t seed) {
  const uint64_t specials[] = {
      0,
      1,
      2,
      (uint64_t{1} << 52) - 1,
      uint64_t{1} << 52,
      (uint64_t{1} << 52) + 1,
      (uint64_t{1} << 53) + 1,
      uint64_t{1} << 63,
      (uint64_t{1} << 63) + 1,
      std::numeric_limits<uint64_t>::max(),
      std::numeric_limits<uint64_t>::max() - 1,
  };
  std::vector<uint64_t> keys(n);
  Xorshift128Plus rng(seed);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = rng.NextBounded(4) == 0 ? specials[rng.NextBounded(
                                            std::size(specials))]
                                      : rng.Next();
  }
  return keys;
}

// Model coefficient sets covering benign, degenerate, overflowing, and
// NaN-producing regimes.
struct Coeffs {
  double slope, intercept;
};
const Coeffs kCoeffs[] = {
    {1e-6, 100.0},     {0.0, 0.0},           {0.0, 42.5},
    {-3.5, 1e6},       {1e300, 1e300},       {-1e300, -1e300},
    {1.0, std::numeric_limits<double>::quiet_NaN()},
    {std::numeric_limits<double>::infinity(), 0.0},
    {2.5e-13, -17.0},
};

TEST(SimdDispatchTest, ScalarAlwaysSupportedAndForceRoundTrips) {
  EXPECT_TRUE(LevelSupported(Level::kScalar));
  EXPECT_FALSE(IsForced());
  {
    ScopedLevel pin(Level::kScalar);
    ASSERT_TRUE(pin.status().ok());
    EXPECT_TRUE(IsForced());
    EXPECT_EQ(ActiveLevel(), Level::kScalar);
    EXPECT_STREQ(GetKernels().name, "scalar");
  }
  EXPECT_FALSE(IsForced());
}

TEST(SimdDispatchTest, ForcingUnsupportedLevelFails) {
  for (int l = 0; l < kNumLevels; ++l) {
    const auto level = static_cast<Level>(l);
    if (LevelSupported(level)) continue;
    EXPECT_FALSE(ForceLevel(level).ok()) << LevelName(level);
    EXPECT_FALSE(IsForced());
  }
}

TEST(SimdDispatchTest, KernelsForUnsupportedFallsBackToScalar) {
  for (int l = 0; l < kNumLevels; ++l) {
    const auto level = static_cast<Level>(l);
    if (!LevelSupported(level)) {
      EXPECT_STREQ(KernelsFor(level).name, "scalar") << LevelName(level);
    }
  }
}

TEST(SimdKernelTest, RouteMatchesScalarOnEdgeInputs) {
  const Kernels& ref = KernelsFor(Level::kScalar);
  for (const Level level : SupportedLevels()) {
    const Kernels& k = KernelsFor(level);
    for (const size_t n : kBatchSizes) {
      const auto xs = EdgeDoubles(n, 1000 + n);
      for (const Coeffs& c : kCoeffs) {
        for (const uint32_t max_leaf : {0u, 1u, 9999u, 0x7FFFFFFEu,
                                        0xFFFFFFFEu}) {
          std::vector<uint32_t> got(n + 1, 0xABABABAB);
          std::vector<uint32_t> want(n + 1, 0xABABABAB);
          k.route(xs.data(), n, c.slope, c.intercept, 0.37, max_leaf,
                  got.data());
          ref.route(xs.data(), n, c.slope, c.intercept, 0.37, max_leaf,
                    want.data());
          ASSERT_EQ(got, want) << k.name << " n=" << n << " slope="
                               << c.slope << " max_leaf=" << max_leaf;
        }
      }
    }
  }
}

TEST(SimdKernelTest, PredictRunMatchesScalarOnEdgeInputs) {
  const Kernels& ref = KernelsFor(Level::kScalar);
  for (const Level level : SupportedLevels()) {
    const Kernels& k = KernelsFor(level);
    for (const size_t n : kBatchSizes) {
      const auto xs = EdgeDoubles(n, 2000 + n);
      for (const Coeffs& c : kCoeffs) {
        for (const uint64_t max_pos :
             {uint64_t{0}, uint64_t{1}, uint64_t{999'999},
              (uint64_t{1} << 52) - 1, uint64_t{1} << 52,
              std::numeric_limits<uint64_t>::max()}) {
          std::vector<uint64_t> got(n + 1, 0xCDCDCDCD);
          std::vector<uint64_t> want(n + 1, 0xCDCDCDCD);
          k.predict_run(xs.data(), n, c.slope, c.intercept, max_pos,
                        got.data());
          ref.predict_run(xs.data(), n, c.slope, c.intercept, max_pos,
                          want.data());
          ASSERT_EQ(got, want) << k.name << " n=" << n << " slope="
                               << c.slope << " max_pos=" << max_pos;
        }
      }
    }
  }
}

TEST(SimdKernelTest, BoundedSearchesMatchStdAlgorithms) {
  // Sorted u64 data with heavy duplicates; windows of every width around
  // the scan-handoff threshold, pinned at array ends and mid-array.
  std::vector<uint64_t> data;
  Xorshift128Plus rng(77);
  uint64_t v = 0;
  for (size_t i = 0; i < 400; ++i) {
    v += rng.NextBounded(3);  // duplicates with p ~ 1/3
    data.push_back(v);
  }
  std::vector<double> ddata(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    ddata[i] = static_cast<double>(data[i]) * 0.25;
  }
  const size_t n = data.size();
  const size_t windows[][2] = {{0, 0},     {0, 1},   {0, n},     {n, n},
                               {5, 5},     {5, 6},   {10, 70},   {10, 74},
                               {10, 75},   {3, 130}, {n - 1, n}, {n - 64, n},
                               {100, 101}, {0, 63},  {0, 64},    {0, 65}};
  for (const Level level : SupportedLevels()) {
    const Kernels& k = KernelsFor(level);
    for (const auto& w : windows) {
      const size_t lo = w[0], hi = w[1];
      for (size_t qi = 0; qi < 200; ++qi) {
        const uint64_t q = qi < data.size() ? data[qi] + qi % 3 - 1
                                            : rng.NextBounded(v + 10);
        const size_t want_lb = static_cast<size_t>(
            std::lower_bound(data.begin() + lo, data.begin() + hi, q) -
            data.begin());
        const size_t want_ub = static_cast<size_t>(
            std::upper_bound(data.begin() + lo, data.begin() + hi, q) -
            data.begin());
        ASSERT_EQ(k.lower_bound_u64(data.data(), lo, hi, q), want_lb)
            << k.name << " [" << lo << "," << hi << ") q=" << q;
        ASSERT_EQ(k.upper_bound_u64(data.data(), lo, hi, q), want_ub)
            << k.name << " [" << lo << "," << hi << ") q=" << q;
        const double dq = static_cast<double>(q) * 0.25;
        const size_t want_flb = static_cast<size_t>(
            std::lower_bound(ddata.begin() + lo, ddata.begin() + hi, dq) -
            ddata.begin());
        ASSERT_EQ(k.lower_bound_f64(ddata.data(), lo, hi, dq), want_flb)
            << k.name << " [" << lo << "," << hi << ") q=" << dq;
      }
    }
  }
}

TEST(SimdKernelTest, LowerBoundF64HandlesDenormalsAndExtremes) {
  std::vector<double> data = {-std::numeric_limits<double>::max(),
                              -1.0,
                              -std::numeric_limits<double>::denorm_min(),
                              0.0,
                              std::numeric_limits<double>::denorm_min(),
                              std::numeric_limits<double>::min(),
                              1.0,
                              std::numeric_limits<double>::max()};
  // Pad to exercise the vector sweep, keeping sortedness.
  while (data.size() < 96) {
    data.push_back(data.back());
  }
  for (const Level level : SupportedLevels()) {
    const Kernels& k = KernelsFor(level);
    for (const double q : data) {
      const size_t want = static_cast<size_t>(
          std::lower_bound(data.begin(), data.end(), q) - data.begin());
      ASSERT_EQ(k.lower_bound_f64(data.data(), 0, data.size(), q), want)
          << k.name << " q=" << q;
    }
  }
}

TEST(SimdKernelTest, U64ToF64MatchesStaticCastOverFullRange) {
  const Kernels& ref = KernelsFor(Level::kScalar);
  for (const Level level : SupportedLevels()) {
    const Kernels& k = KernelsFor(level);
    for (const size_t n : kBatchSizes) {
      const auto keys = EdgeUints(n, 3000 + n);
      std::vector<double> got(n + 1, -1.0);
      std::vector<double> want(n + 1, -1.0);
      k.u64_to_f64(keys.data(), n, got.data());
      ref.u64_to_f64(keys.data(), n, want.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], want[i]) << k.name << " key=" << keys[i];
        ASSERT_EQ(want[i], static_cast<double>(keys[i]));
      }
    }
  }
}

TEST(SimdKernelTest, HashAndCuckooSlotsMatchScalar) {
  const Kernels& ref = KernelsFor(Level::kScalar);
  for (const Level level : SupportedLevels()) {
    const Kernels& k = KernelsFor(level);
    for (const size_t n : kBatchSizes) {
      const auto keys = EdgeUints(n, 4000 + n);
      for (const uint64_t slots :
           {uint64_t{1}, uint64_t{2}, uint64_t{1000},
            uint64_t{1} << 32, std::numeric_limits<uint64_t>::max()}) {
        std::vector<uint64_t> got(n + 1, 7), want(n + 1, 7);
        k.hash_slots(keys.data(), n, /*seed=*/5, slots, got.data());
        ref.hash_slots(keys.data(), n, /*seed=*/5, slots, want.data());
        ASSERT_EQ(got, want) << k.name << " n=" << n << " slots=" << slots;
        std::vector<uint64_t> g1(n + 1, 7), g2(n + 1, 7), w1(n + 1, 7),
            w2(n + 1, 7);
        k.cuckoo_slots(keys.data(), n, /*seed=*/9, slots, g1.data(),
                       g2.data());
        ref.cuckoo_slots(keys.data(), n, /*seed=*/9, slots, w1.data(),
                         w2.data());
        ASSERT_EQ(g1, w1) << k.name;
        ASSERT_EQ(g2, w2) << k.name;
      }
    }
  }
}

// The concurrent Scan's two write-log passes over an unsorted key column
// with a parallel flags column: lengths around every vector width, keys 0
// and UINT64_MAX, one-key and empty ranges (lo == hi, lo > hi), a start
// at the end (begin == n), and flag bytes with bits outside the mask.
TEST(SimdKernelTest, LogScanKernelsMatchScalar) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  const Kernels& ref = KernelsFor(Level::kScalar);
  Xorshift128Plus rng(113);
  for (const size_t n : {0, 1, 7, 8, 9, 63, 64, 65, 1024}) {
    // Edge keys, plus a dense band so short ranges match several keys.
    std::vector<uint64_t> keys = EdgeUints(n, 127 + n);
    for (size_t i = 0; i < n; i += 3) keys[i] = 1'000 + rng.NextBounded(64);
    if (n > 1) keys[1] = 0;
    if (n > 2) keys[n - 1] = kMax;
    std::vector<uint8_t> flags(n);
    for (uint8_t& f : flags) f = static_cast<uint8_t>(rng.Next());
    std::vector<uint64_t> bounds = {0,     1,     999,      1'000, 1'031,
                                    1'063, 1'064, kMax - 1, kMax};
    for (size_t i = 0; i < std::min<size_t>(n, 8); ++i) {
      bounds.push_back(keys[rng.NextBounded(n)]);
    }
    std::vector<size_t> begins = {0, n / 2, n};
    if (n > 0) begins.push_back(n - 1);

    for (const uint64_t lo : bounds) {
      for (const uint8_t mask : {0x01, 0x02, 0x03, 0x80, 0xFF, 0x00}) {
        size_t want = 0;
        for (size_t i = 0; i < n; ++i) {
          want += keys[i] >= lo && (flags[i] & mask) != 0;
        }
        ASSERT_EQ(ref.count_at_least_flagged_u64(keys.data(), flags.data(),
                                                 n, lo, mask),
                  want)
            << "scalar n=" << n << " lo=" << lo << " mask=" << int{mask};
        for (const Level level : SupportedLevels()) {
          const Kernels& k = KernelsFor(level);
          ASSERT_EQ(k.count_at_least_flagged_u64(keys.data(), flags.data(),
                                                 n, lo, mask),
                    want)
              << k.name << " n=" << n << " lo=" << lo
              << " mask=" << int{mask};
        }
      }
      for (const uint64_t hi : bounds) {
        for (const size_t begin : begins) {
          size_t want = n;
          for (size_t i = begin; i < n; ++i) {
            if (lo <= keys[i] && keys[i] <= hi) {
              want = i;
              break;
            }
          }
          ASSERT_EQ(ref.next_in_range_u64(keys.data(), begin, n, lo, hi),
                    want)
              << "scalar n=" << n << " begin=" << begin << " [" << lo
              << ", " << hi << "]";
          for (const Level level : SupportedLevels()) {
            const Kernels& k = KernelsFor(level);
            ASSERT_EQ(k.next_in_range_u64(keys.data(), begin, n, lo, hi),
                      want)
                << k.name << " n=" << n << " begin=" << begin << " [" << lo
                << ", " << hi << "]";
          }
        }
      }
    }
  }
}

// ---- end-to-end: the batch entry points at every forced level ----------

TEST(SimdEndToEndTest, RmiLookupBatchBitExactAcrossLevels) {
  const auto keys = data::GenLognormal(60'000, /*seed=*/11);
  rmi::LinearRmi index;
  rmi::RmiConfig config;
  config.num_leaf_models = 500;
  ASSERT_TRUE(index.Build(keys, config).ok());

  // Query mix: hits, misses, and out-of-range probes — unsorted, so leaf
  // runs are short and the run-detection fallback is exercised too.
  std::vector<uint64_t> queries = EdgeUints(10'000, 55);
  Xorshift128Plus rng(66);
  for (size_t i = 0; i < queries.size(); i += 2) {
    queries[i] = keys[rng.NextBounded(keys.size())] + rng.NextBounded(3) - 1;
  }

  std::vector<size_t> ref(queries.size());
  {
    ScopedLevel pin(Level::kScalar);
    ASSERT_TRUE(pin.status().ok());
    index.LookupBatch(queries, ref);
    // The scalar batch path must agree with the single-key path.
    for (size_t i = 0; i < 512; ++i) {
      ASSERT_EQ(ref[i], index.Lookup(queries[i])) << "i=" << i;
    }
  }
  for (const Level level : SupportedLevels()) {
    ScopedLevel pin(level);
    ASSERT_TRUE(pin.status().ok());
    std::vector<size_t> got(queries.size());
    index.LookupBatch(queries, got);
    ASSERT_EQ(got, ref) << LevelName(level);
  }
}

TEST(SimdEndToEndTest, DoubleKeyRmiLookupBatchBitExactAcrossLevels) {
  std::vector<double> keys(40'000);
  Xorshift128Plus rng(13);
  for (auto& k : keys) k = rng.NextGaussian() * 1e6;
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  rmi::DoubleRmi index;
  rmi::RmiConfig config;
  config.num_leaf_models = 300;
  ASSERT_TRUE(index.Build(keys, config).ok());

  std::vector<double> queries(8'000);
  for (auto& q : queries) {
    q = rng.NextBounded(2) ? keys[rng.NextBounded(keys.size())]
                           : rng.NextGaussian() * 1e6;
  }
  std::vector<size_t> ref(queries.size());
  {
    ScopedLevel pin(Level::kScalar);
    ASSERT_TRUE(pin.status().ok());
    index.LookupBatch(queries, ref);
  }
  for (const Level level : SupportedLevels()) {
    ScopedLevel pin(level);
    ASSERT_TRUE(pin.status().ok());
    std::vector<size_t> got(queries.size());
    index.LookupBatch(queries, got);
    ASSERT_EQ(got, ref) << LevelName(level);
  }
}

TEST(SimdEndToEndTest, PointHashSlotBatchMatchesSingleKeyAtEveryLevel) {
  const auto keys = data::GenLognormal(20'000, /*seed=*/3);
  for (const hash::HashKind kind :
       {hash::HashKind::kRandom, hash::HashKind::kLearnedCdf}) {
    hash::PointHash fn;
    hash::HashConfig hc;
    hc.kind = kind;
    hc.seed = 17;
    ASSERT_TRUE(fn.Build(keys, /*num_slots=*/30'000, hc).ok());
    const auto queries = EdgeUints(5'000, 8);
    for (const Level level : SupportedLevels()) {
      ScopedLevel pin(level);
      ASSERT_TRUE(pin.status().ok());
      std::vector<uint64_t> slots(queries.size());
      fn.SlotBatch(queries.data(), queries.size(), slots.data());
      for (size_t i = 0; i < queries.size(); ++i) {
        ASSERT_EQ(slots[i], fn(queries[i]))
            << LevelName(level) << " kind="
            << (kind == hash::HashKind::kRandom ? "random" : "learned")
            << " i=" << i;
      }
    }
  }
}

TEST(SimdEndToEndTest, HashMapFindBatchBitExactAcrossLevels) {
  const auto keys = data::GenUniform(30'000, /*seed=*/23);
  std::vector<hash::Record> records;
  records.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    records.push_back(hash::Record{keys[i], i, 0});
  }
  std::vector<uint64_t> queries = EdgeUints(6'000, 31);
  Xorshift128Plus rng(37);
  for (size_t i = 0; i < queries.size(); i += 2) {
    queries[i] = keys[rng.NextBounded(keys.size())];
  }

  const auto check = [&](const auto& map) {
    std::vector<const hash::Record*> ref(queries.size());
    {
      ScopedLevel pin(Level::kScalar);
      ASSERT_TRUE(pin.status().ok());
      map.FindBatch(queries, ref);
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(ref[i], map.Find(queries[i])) << "i=" << i;
    }
    for (const Level level : SupportedLevels()) {
      ScopedLevel pin(level);
      ASSERT_TRUE(pin.status().ok());
      std::vector<const hash::Record*> got(queries.size());
      map.FindBatch(queries, got);
      ASSERT_EQ(got, ref) << LevelName(level);
    }
  };

  for (const hash::HashKind kind :
       {hash::HashKind::kRandom, hash::HashKind::kLearnedCdf}) {
    {
      hash::ChainedHashMapConfig config;
      config.num_slots = keys.size();
      config.hash.kind = kind;
      hash::ChainedHashMap map;
      ASSERT_TRUE(map.Build(records, config).ok());
      check(map);
    }
    {
      hash::InplaceChainedMapConfig config;
      config.hash.kind = kind;
      hash::InplaceChainedMap map;
      ASSERT_TRUE(map.Build(records, config).ok());
      check(map);
    }
  }
}

TEST(SimdEndToEndTest, CuckooFindBatchBitExactAcrossLevels) {
  const auto keys = data::GenUniform(25'000, /*seed=*/41);
  std::vector<hash::Record> records;
  records.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    records.push_back(hash::Record{keys[i], i, 0});
  }
  hash::CuckooMap<hash::Record> map;
  hash::CuckooMapConfig config;
  config.load_factor = 0.9;
  ASSERT_TRUE(map.Build(records, config).ok());

  std::vector<uint64_t> queries = EdgeUints(6'000, 43);
  Xorshift128Plus rng(47);
  for (size_t i = 0; i < queries.size(); i += 2) {
    queries[i] = keys[rng.NextBounded(keys.size())];
  }
  std::vector<const hash::Record*> ref(queries.size());
  {
    ScopedLevel pin(Level::kScalar);
    ASSERT_TRUE(pin.status().ok());
    map.FindBatch(queries, ref);
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(ref[i], map.Find(queries[i])) << "i=" << i;
  }
  for (const Level level : SupportedLevels()) {
    ScopedLevel pin(level);
    ASSERT_TRUE(pin.status().ok());
    std::vector<const hash::Record*> got(queries.size());
    map.FindBatch(queries, got);
    ASSERT_EQ(got, ref) << LevelName(level);
  }
}

// ConcurrentWritableIndex::Scan counts the log's tombstones at or above
// its start and collects the log writes inside its window through the
// kernel table. With every write still in the live log (large log_cap,
// manual merges) — inserts, erases of base keys inside and just past the
// windows, erase-then-reinsert, insert-then-erase, and a log length that
// no vector width divides — every level must return the scalar level's
// answer, and both must equal a std::set oracle.
TEST(SimdEndToEndTest, ConcurrentScanBitExactAcrossLevels) {
  using Conc = concurrent::ConcurrentWritableIndex<rmi::LinearRmi>;
  std::vector<uint64_t> keys(4'000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = 10 * (i + 1);
  Conc idx;
  Conc::Config cfg;
  cfg.base.num_leaf_models = 64;
  cfg.policy.trigger = dynamic::MergeTrigger::kManual;
  cfg.log_cap = 8'192;
  ASSERT_TRUE(idx.Build(keys, cfg).ok());
  std::set<uint64_t> live(keys.begin(), keys.end());
  size_t writes = 0;
  auto erase = [&](uint64_t k) {
    ++writes;
    ASSERT_EQ(idx.Erase(k), live.erase(k) > 0) << k;
  };
  auto insert = [&](uint64_t k) {
    ++writes;
    ASSERT_EQ(idx.Insert(k), live.insert(k).second) << k;
  };

  // Clusters of writes around window starts, the last one at the top of
  // the key range where few tombstones lie above a start.
  Xorshift128Plus rng(131);
  std::vector<uint64_t> starts;
  for (int c = 0; c < 30; ++c) {
    starts.push_back(10 * (1 + rng.NextBounded(3'880)));
  }
  starts.push_back(39'900);
  for (const uint64_t a : starts) {
    erase(a + 10);   // inside a short window
    erase(a + 40);
    erase(a + 100);  // just past a 10-key window
    erase(a + 20);   // erase, then reinsert: live
    insert(a + 20);
    insert(a + 25);  // insert, then erase: dead
    erase(a + 25);
    insert(a + 55);  // a new key inside the window
    insert(a + 105);  // a new key just past it
  }
  // Scattered writes up to an odd log length, below the top cluster so
  // that near the top the tombstones at or above a start are exactly the
  // cluster's: there E is tight (Scan(40'000, 1) must reach 40'005).
  while (writes < 1'001) {
    const uint64_t k = rng.NextBounded(39'000);
    if (rng.NextBounded(3) == 0) {
      erase(k);
    } else {
      insert(k);
    }
  }
  const auto stats = idx.ConcurrentStats();
  ASSERT_EQ(stats.freezes, 0u);
  ASSERT_EQ(stats.log_entries, writes);
  ASSERT_NE(stats.log_entries % 4, 0u);

  std::vector<uint64_t> froms = {0, 5, 10, 40'000, 40'995,
                                 std::numeric_limits<uint64_t>::max()};
  for (const uint64_t a : starts) {
    for (uint64_t off = 0; off <= 110; off += 5) froms.push_back(a + off);
  }
  const size_t limits[] = {1, 2, 3, 5, 8, 13, 50, 200, 5'000};
  auto scan_all = [&] {
    std::vector<std::vector<uint64_t>> out;
    for (const uint64_t from : froms) {
      for (const size_t limit : limits) out.push_back(idx.Scan(from, limit));
    }
    return out;
  };
  std::vector<std::vector<uint64_t>> ref;
  {
    ScopedLevel pin(Level::kScalar);
    ASSERT_TRUE(pin.status().ok());
    ref = scan_all();
  }
  size_t at = 0;
  for (const uint64_t from : froms) {
    for (const size_t limit : limits) {
      std::vector<uint64_t> want;
      for (auto it = live.lower_bound(from);
           it != live.end() && want.size() < limit; ++it) {
        want.push_back(*it);
      }
      ASSERT_EQ(ref[at++], want) << "scalar from " << from << " limit "
                                 << limit;
    }
  }
  for (const Level level : SupportedLevels()) {
    ScopedLevel pin(level);
    ASSERT_TRUE(pin.status().ok());
    const auto got = scan_all();
    at = 0;
    for (const uint64_t from : froms) {
      for (const size_t limit : limits) {
        ASSERT_EQ(got[at], ref[at])
            << LevelName(level) << " from " << from << " limit " << limit;
        ++at;
      }
    }
  }
}

}  // namespace
}  // namespace li::simd
