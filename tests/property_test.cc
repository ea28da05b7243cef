// Differential property tests: structurally different index
// implementations answering the same query stream must agree exactly.
// This catches semantic drift that per-module unit tests can miss —
// the B-Tree family, the RMI family and std::lower_bound are mutually
// cross-checked over randomized datasets, seeds and configurations.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "btree/fast_tree.h"
#include "btree/lookup_table.h"
#include "btree/readonly_btree.h"
#include "common/random.h"
#include "data/datasets.h"
#include "hash/chained_hash_map.h"
#include "hash/cuckoo_map.h"
#include "hash/hash_fn.h"
#include "hash/inplace_chained_map.h"
#include "rmi/quantized_rmi.h"
#include "rmi/rmi.h"
#include "test_seed.h"

namespace li {
namespace {

/// Every range index over the same keys must agree with std::lower_bound
/// on every query — parameterized over dataset seeds.
class RangeIndexDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(RangeIndexDifferentialTest, SixImplementationsAgree) {
  const uint64_t seed = testing::TestSeed(GetParam());
  Xorshift128Plus rng(seed);
  const auto kind = static_cast<data::DatasetKind>(rng.NextBounded(3));
  const size_t n = 10'000 + rng.NextBounded(40'000);
  const auto keys = data::Generate(kind, n, seed);

  btree::ReadOnlyBTree btree;
  ASSERT_TRUE(btree.Build(keys, 64 + rng.NextBounded(200)).ok());
  btree::FastTree fast;
  ASSERT_TRUE(fast.Build(keys).ok());
  btree::LookupTable lookup;
  ASSERT_TRUE(lookup.Build(keys).ok());
  rmi::LinearRmi rmi;
  rmi::RmiConfig rmi_cfg;
  rmi_cfg.num_leaf_models = 1 + rng.NextBounded(2 * n);
  ASSERT_TRUE(rmi.Build(keys, rmi_cfg).ok());
  rmi::QuantizedRmi quantized;
  ASSERT_TRUE(quantized.Build(keys, rmi_cfg, models::QuantLevel::kInt16).ok());
  // The routing stage at an explicit K (the RMI above runs the default).
  rmi::LinearRmi routed;
  rmi::RmiConfig routed_cfg;
  routed_cfg.num_leaf_models = 1 + rng.NextBounded(n);
  routed_cfg.num_route_models = 1 + rng.NextBounded(64);
  ASSERT_TRUE(routed.Build(keys, routed_cfg).ok());

  for (int probe = 0; probe < 5000; ++probe) {
    uint64_t q;
    switch (rng.NextBounded(4)) {
      case 0: q = keys[rng.NextBounded(keys.size())]; break;
      case 1: q = keys[rng.NextBounded(keys.size())] + 1; break;
      case 2: q = keys[rng.NextBounded(keys.size())] - 1; break;
      default: q = rng.NextBounded(keys.back() + 1000); break;
    }
    const size_t expect = static_cast<size_t>(
        std::lower_bound(keys.begin(), keys.end(), q) - keys.begin());
    ASSERT_EQ(btree.LowerBound(q), expect) << "btree q=" << q;
    ASSERT_EQ(fast.LowerBound(q), expect) << "fast q=" << q;
    ASSERT_EQ(lookup.LowerBound(q), expect) << "lookup q=" << q;
    ASSERT_EQ(rmi.LowerBound(q), expect) << "rmi q=" << q;
    ASSERT_EQ(quantized.LowerBound(q), expect) << "quantized q=" << q;
    ASSERT_EQ(routed.LowerBound(q), expect)
        << "routed K=" << routed_cfg.num_route_models << " q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeIndexDifferentialTest,
                         ::testing::Values(101, 202, 303, 404, 505));

/// Every hash map over the same records must agree with an
/// unordered_map oracle on hits and misses.
class HashMapDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HashMapDifferentialTest, ThreeImplementationsAgree) {
  const uint64_t seed = testing::TestSeed(GetParam());
  const auto keys = data::GenUniform(30'000, seed, uint64_t{1} << 44);
  std::vector<hash::Record> records;
  std::unordered_map<uint64_t, uint64_t> oracle;
  for (size_t i = 0; i < keys.size(); ++i) {
    records.push_back({keys[i], i, 0});
    oracle[keys[i]] = i;
  }

  hash::ChainedHashMapConfig chained_cfg;
  chained_cfg.num_slots = keys.size();
  chained_cfg.hash.seed = seed;
  hash::ChainedHashMap chained;
  ASSERT_TRUE(chained.Build(records, chained_cfg).ok());
  hash::InplaceChainedMapConfig inplace_cfg;
  inplace_cfg.hash.seed = seed + 1;
  hash::InplaceChainedMap inplace;
  ASSERT_TRUE(inplace.Build(records, inplace_cfg).ok());
  hash::CuckooMap<hash::Record> cuckoo;
  ASSERT_TRUE(cuckoo.Build(records, {}).ok());

  Xorshift128Plus rng(seed + 2);
  for (int probe = 0; probe < 30'000; ++probe) {
    const uint64_t q = rng.NextBounded(2) ? keys[rng.NextBounded(keys.size())]
                                          : rng.Next();
    const auto it = oracle.find(q);
    const bool expect = it != oracle.end();
    const hash::Record* a = chained.Find(q);
    const hash::Record* b = inplace.Find(q);
    const hash::Record* c = cuckoo.Find(q);
    ASSERT_EQ(a != nullptr, expect) << q;
    ASSERT_EQ(b != nullptr, expect) << q;
    ASSERT_EQ(c != nullptr, expect) << q;
    if (expect) {
      EXPECT_EQ(a->payload, it->second);
      EXPECT_EQ(b->payload, it->second);
      EXPECT_EQ(c->payload, it->second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HashMapDifferentialTest,
                         ::testing::Values(11, 22, 33));

/// Range scans via two lower bounds must count exactly the in-range keys,
/// for every index, across range widths.
TEST(RangeScanPropertyTest, CountsMatchBruteForce) {
  const auto keys = data::GenWeblog(50'000, 7);
  rmi::LinearRmi rmi;
  rmi::RmiConfig config;
  config.num_leaf_models = 500;
  ASSERT_TRUE(rmi.Build(keys, config).ok());
  btree::ReadOnlyBTree btree;
  ASSERT_TRUE(btree.Build(keys, 128).ok());

  Xorshift128Plus rng(8);
  for (int trial = 0; trial < 300; ++trial) {
    const uint64_t a = keys[rng.NextBounded(keys.size())];
    const uint64_t b = a + rng.NextBounded(uint64_t{1} << (10 + trial % 30));
    size_t expect = 0;
    for (const uint64_t k : keys) expect += (k >= a && k < b);
    ASSERT_EQ(rmi.LowerBound(b) - rmi.LowerBound(a), expect);
    ASSERT_EQ(btree.LowerBound(b) - btree.LowerBound(a), expect);
  }
}

/// Determinism: identical build inputs produce identical lookup behaviour
/// and sizes across separate instances (no hidden global state).
TEST(DeterminismTest, RebuildIsBitIdentical) {
  const auto keys = data::GenLognormal(30'000, 12);
  rmi::RmiConfig config;
  config.num_leaf_models = 300;
  config.train.nn.hidden = {8};
  config.train.nn.epochs = 5;
  rmi::NeuralRmi a, b;
  ASSERT_TRUE(a.Build(keys, config).ok());
  ASSERT_TRUE(b.Build(keys, config).ok());
  EXPECT_EQ(a.SizeBytes(), b.SizeBytes());
  Xorshift128Plus rng(13);
  for (int i = 0; i < 10'000; ++i) {
    const uint64_t q = rng.NextBounded(keys.back() + 7);
    const auto pa = a.Predict(q);
    const auto pb = b.Predict(q);
    ASSERT_EQ(pa.pos, pb.pos);
    ASSERT_EQ(pa.window.lo, pb.window.lo);
    ASSERT_EQ(pa.window.hi, pb.window.hi);
    ASSERT_EQ(a.LowerBound(q), b.LowerBound(q));
  }
}

/// Hostile key sets: extreme magnitudes, dense runs at the uint64 edges,
/// huge gaps — all indexes must stay correct.
TEST(AdversarialKeysTest, ExtremesAndGaps) {
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 1000; ++i) keys.push_back(i);  // dense at 0
  for (uint64_t i = 0; i < 1000; ++i) {
    keys.push_back((uint64_t{1} << 62) + i * 3);  // sparse middle
  }
  for (uint64_t i = 0; i < 1000; ++i) {
    keys.push_back(UINT64_MAX - 2000 + i);  // dense at the top
  }
  data::MakeStrictlyIncreasing(&keys);

  rmi::LinearRmi rmi;
  rmi::RmiConfig config;
  config.num_leaf_models = 64;
  ASSERT_TRUE(rmi.Build(keys, config).ok());
  btree::ReadOnlyBTree btree;
  ASSERT_TRUE(btree.Build(keys, 32).ok());

  Xorshift128Plus rng(14);
  for (int i = 0; i < 20'000; ++i) {
    uint64_t q;
    switch (rng.NextBounded(3)) {
      case 0: q = keys[rng.NextBounded(keys.size())]; break;
      case 1: q = rng.Next(); break;
      default: q = keys[rng.NextBounded(keys.size())] + rng.NextBounded(5);
    }
    const size_t expect = static_cast<size_t>(
        std::lower_bound(keys.begin(), keys.end(), q) - keys.begin());
    ASSERT_EQ(rmi.LowerBound(q), expect) << q;
    ASSERT_EQ(btree.LowerBound(q), expect) << q;
  }
  // The exact extremes: 0 is a stored key; UINT64_MAX is above all keys
  // (the top run ends at UINT64_MAX - 1001).
  EXPECT_EQ(rmi.LowerBound(0), 0u);
  EXPECT_TRUE(rmi.Contains(0));
  EXPECT_EQ(rmi.LowerBound(UINT64_MAX), keys.size());
  EXPECT_FALSE(rmi.Contains(UINT64_MAX));
  EXPECT_TRUE(rmi.Contains(keys.back()));
}

}  // namespace
}  // namespace li
