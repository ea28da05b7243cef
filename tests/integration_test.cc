// End-to-end integration tests spanning modules: the three §2/§4/§5 index
// families driven through realistic multi-step scenarios, plus randomized
// configuration fuzzing of the RMI build/lookup contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bloom/learned_bloom.h"
#include "btree/readonly_btree.h"
#include "classifier/ngram_logistic.h"
#include "common/random.h"
#include "data/datasets.h"
#include "data/strings.h"
#include "hash/chained_hash_map.h"
#include "hash/hash_fn.h"
#include "lif/synthesizer.h"
#include "rmi/hybrid.h"
#include "rmi/rmi.h"

namespace li {
namespace {

TEST(IntegrationTest, AnalyticsPipelineOverWeblog) {
  // Build a secondary index over timestamps, answer a batch of time-range
  // aggregation queries, and cross-check every answer against a B-Tree.
  const auto ts = data::GenWeblog(200'000, 77);
  rmi::RmiConfig rmi_cfg;
  rmi_cfg.num_leaf_models = 2000;
  rmi::LinearRmi learned;
  ASSERT_TRUE(learned.Build(ts, rmi_cfg).ok());
  btree::ReadOnlyBTree btree;
  ASSERT_TRUE(btree.Build(ts, 128).ok());

  Xorshift128Plus rng(78);
  for (int q = 0; q < 500; ++q) {
    const uint64_t start = ts[rng.NextBounded(ts.size())];
    const uint64_t end = start + rng.NextBounded(uint64_t{3600} * 1'000'000);
    const size_t a = learned.LowerBound(start);
    const size_t b = learned.LowerBound(end);
    EXPECT_EQ(a, btree.LowerBound(start));
    EXPECT_EQ(b, btree.LowerBound(end));
    EXPECT_LE(a, b);
  }
}

TEST(IntegrationTest, SynthesizedIndexServesPointAndRange) {
  // LIF picks a configuration; the resulting index must serve both query
  // types correctly.
  const auto keys = data::GenMaps(100'000, 79);
  lif::SynthesisSpec spec;
  spec.stage2_sizes = {500, 2000};
  spec.nn_hidden = {};
  spec.eval_queries = 2000;
  lif::Synthesis<index::AnyRangeIndex> s;
  ASSERT_TRUE(lif::SynthesizeRange(keys, spec, &s).ok());
  const index::AnyRangeIndex& winner = s.winner;
  Xorshift128Plus rng(80);
  for (int i = 0; i < 5000; ++i) {
    const size_t idx = rng.NextBounded(keys.size());
    EXPECT_EQ(winner.Lookup(keys[idx]), idx);
  }
  // Range scan: count via two lower bounds equals brute force.
  const uint64_t lo = keys[1000], hi = keys[4321];
  EXPECT_EQ(winner.Lookup(hi) - winner.Lookup(lo), 4321u - 1000u);
}

TEST(IntegrationTest, HashMapBuiltFromRangeIndexKeys) {
  // The same key set indexed as a range index and a point index must agree
  // on membership for 20k probes.
  const auto keys = data::GenLognormal(100'000, 81);
  rmi::RmiConfig config;
  config.num_leaf_models = 1000;
  rmi::LinearRmi range_index;
  ASSERT_TRUE(range_index.Build(keys, config).ok());

  std::vector<hash::Record> records;
  for (size_t i = 0; i < keys.size(); ++i) {
    records.push_back({keys[i], i, 0});
  }
  hash::ChainedHashMapConfig map_cfg;
  map_cfg.num_slots = keys.size();
  map_cfg.hash.kind = hash::HashKind::kLearnedCdf;
  map_cfg.hash.cdf_leaf_models = 10'000;
  hash::ChainedHashMap map;
  ASSERT_TRUE(map.Build(records, map_cfg).ok());

  Xorshift128Plus rng(82);
  for (int i = 0; i < 20'000; ++i) {
    const uint64_t probe = rng.NextBounded(keys.back() + 100);
    EXPECT_EQ(range_index.Contains(probe), map.Find(probe) != nullptr)
        << probe;
  }
}

TEST(IntegrationTest, BloomGuardsColdStorageLookups) {
  // §5 scenario: the existence index filters lookups before they hit the
  // (expensive) key store; zero false negatives means no lost reads.
  auto corpus = data::GenUrls(10'000, 10'000, 83);
  const size_t half = corpus.random_negatives.size() / 2;
  std::vector<std::string> train_neg(corpus.random_negatives.begin(),
                                     corpus.random_negatives.begin() + half);
  std::vector<std::string> live_neg(corpus.random_negatives.begin() + half,
                                    corpus.random_negatives.end());
  classifier::NgramConfig ncfg;
  ncfg.num_buckets = 2048;
  classifier::NgramLogistic model;
  ASSERT_TRUE(model.Train(corpus.keys, train_neg, ncfg).ok());
  bloom::LearnedBloomFilter<classifier::NgramLogistic> filter;
  ASSERT_TRUE(filter.Build(&model, corpus.keys, train_neg, 0.02).ok());

  // Key store = sorted vector; the filter must never hide a real key.
  std::sort(corpus.keys.begin(), corpus.keys.end());
  size_t store_hits = 0, filtered = 0;
  for (const auto& k : corpus.keys) {
    ASSERT_TRUE(filter.MightContain(k));
    store_hits += std::binary_search(corpus.keys.begin(), corpus.keys.end(), k);
  }
  EXPECT_EQ(store_hits, corpus.keys.size());
  for (const auto& u : live_neg) filtered += !filter.MightContain(u);
  // The filter should block the vast majority of absent probes.
  EXPECT_GT(filtered, live_neg.size() * 9 / 10);
}

TEST(IntegrationTest, RandomizedRmiConfigFuzz) {
  // Property fuzz: random datasets x random configurations; LowerBound
  // must equal std::lower_bound on every probe.
  Xorshift128Plus rng(99);
  for (int trial = 0; trial < 12; ++trial) {
    const auto kind = static_cast<data::DatasetKind>(rng.NextBounded(3));
    const size_t n = 2000 + rng.NextBounded(60'000);
    const auto keys = data::Generate(kind, n, 1000 + trial);
    rmi::RmiConfig config;
    config.num_leaf_models = 1 + rng.NextBounded(3 * n);
    config.strategy = static_cast<search::Strategy>(rng.NextBounded(5));
    rmi::LinearRmi index;
    ASSERT_TRUE(index.Build(keys, config).ok()) << trial;
    for (int probe = 0; probe < 3000; ++probe) {
      uint64_t q;
      switch (rng.NextBounded(3)) {
        case 0: q = keys[rng.NextBounded(keys.size())]; break;
        case 1: q = keys[rng.NextBounded(keys.size())] + 1; break;
        default: q = rng.NextBounded(keys.back() + 1000); break;
      }
      const size_t expect = static_cast<size_t>(
          std::lower_bound(keys.begin(), keys.end(), q) - keys.begin());
      ASSERT_EQ(index.LowerBound(q), expect)
          << "trial " << trial << " q=" << q << " leaves "
          << config.num_leaf_models << " strategy "
          << search::StrategyName(config.strategy);
    }
  }
}

TEST(IntegrationTest, MonotonicTopRmi) {
  // Isotonic (monotone) top model — the §3.4 monotonicity option — slots
  // into the same RMI template and stays correct.
  const auto keys = data::GenWeblog(100'000, 85);
  rmi::RmiConfig config;
  config.num_leaf_models = 1000;
  rmi::Rmi<models::IsotonicModel> index;
  ASSERT_TRUE(index.Build(keys, config).ok());
  Xorshift128Plus rng(86);
  for (int i = 0; i < 20'000; ++i) {
    const uint64_t q = rng.NextBounded(keys.back() + 1000);
    const size_t expect = static_cast<size_t>(
        std::lower_bound(keys.begin(), keys.end(), q) - keys.begin());
    ASSERT_EQ(index.LowerBound(q), expect) << q;
  }
}

TEST(IntegrationTest, HybridWorstCaseOnAdversarialData) {
  // Adversarial distribution: alternating dense runs and huge gaps breaks
  // linear leaves; hybrid must stay correct and bounded.
  Xorshift128Plus rng(87);
  std::vector<uint64_t> keys;
  uint64_t base = 0;
  while (keys.size() < 100'000) {
    base += uint64_t{1} << (20 + rng.NextBounded(20));  // erratic gaps
    const size_t run = 1 + rng.NextBounded(50);
    for (size_t i = 0; i < run && keys.size() < 100'000; ++i) {
      keys.push_back(base + i * (1 + rng.NextBounded(3)));
    }
    base = keys.back();
  }
  data::MakeStrictlyIncreasing(&keys);
  rmi::HybridConfig config;
  config.rmi.num_leaf_models = 500;
  config.threshold = 32;
  rmi::HybridRmi<models::LinearModel> hybrid;
  ASSERT_TRUE(hybrid.Build(keys, config).ok());
  EXPECT_GT(hybrid.num_btree_leaves(), 0u);
  for (int i = 0; i < 20'000; ++i) {
    const uint64_t q = keys[rng.NextBounded(keys.size())];
    const size_t expect = static_cast<size_t>(
        std::lower_bound(keys.begin(), keys.end(), q) - keys.begin());
    ASSERT_EQ(hybrid.LowerBound(q), expect);
  }
}

}  // namespace
}  // namespace li
