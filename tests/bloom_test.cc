// Tests for the existence indexes (§5): standard Bloom filter, learned
// Bloom filter (classifier + overflow), and the model-hash variant.
// The non-negotiable invariant everywhere: zero false negatives.

#include <gtest/gtest.h>

#include <cmath>

#include "bloom/bloom_filter.h"
#include "bloom/learned_bloom.h"
#include "bloom/model_hash_bloom.h"
#include "classifier/ngram_logistic.h"
#include "common/random.h"
#include "data/strings.h"
#include "index/existence_index.h"

namespace li::bloom {
namespace {

TEST(BloomFilterTest, NoFalseNegativesIntKeys) {
  BloomFilter filter;
  ASSERT_TRUE(filter.Init(10'000, 0.01).ok());
  Xorshift128Plus rng(1);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 10'000; ++i) keys.push_back(rng.Next());
  for (const auto k : keys) filter.Add(k);
  for (const auto k : keys) EXPECT_TRUE(filter.MightContain(k));
}

TEST(BloomFilterTest, FprNearTarget) {
  for (const double target : {0.1, 0.01, 0.001}) {
    BloomFilter filter;
    ASSERT_TRUE(filter.Init(50'000, target).ok());
    Xorshift128Plus rng(2);
    for (int i = 0; i < 50'000; ++i) filter.Add(rng.Next() | 1);  // odd keys
    size_t fp = 0;
    const int probes = 200'000;
    for (int i = 0; i < probes; ++i) fp += filter.MightContain(rng.Next() & ~uint64_t{1});
    const double fpr = static_cast<double>(fp) / probes;
    EXPECT_LT(fpr, target * 1.6) << target;
    EXPECT_GT(fpr, target * 0.3) << target;
  }
}

TEST(BloomFilterTest, SizeMatchesTextbookFormula) {
  BloomFilter filter;
  ASSERT_TRUE(filter.Init(1'000'000, 0.01).ok());
  // ~9.585 bits/key at 1%.
  const double bits_per_key =
      static_cast<double>(filter.num_bits()) / 1'000'000.0;
  EXPECT_NEAR(bits_per_key, 9.585, 0.05);
  EXPECT_EQ(filter.num_hashes(), 7);
}

TEST(BloomFilterTest, PaperHeadlineSizes) {
  // §5: "for one billion records roughly 1.76 GB are needed; for a FPR of
  // 0.01% we would require 2.23 GB". Verify the geometry reproduces them.
  BloomFilter one_pct, hundredth_pct;
  ASSERT_TRUE(one_pct.Init(1'000'000'000, 0.01).ok());
  ASSERT_TRUE(hundredth_pct.Init(1'000'000'000, 0.0001).ok());
  EXPECT_NEAR(one_pct.SizeBytes() / 1e9, 1.2, 0.05);     // 1% -> ~1.2 GB
  EXPECT_NEAR(hundredth_pct.SizeBytes() / 1e9, 2.4, 0.1);  // 0.01% -> ~2.4 GB
}

TEST(BloomFilterTest, StringKeysSupported) {
  BloomFilter filter;
  ASSERT_TRUE(filter.Init(1000, 0.01).ok());
  filter.Add(std::string_view("hello"));
  EXPECT_TRUE(filter.MightContain(std::string_view("hello")));
}

TEST(BloomFilterTest, BadParamsRejected) {
  BloomFilter filter;
  EXPECT_FALSE(filter.Init(0, 0.01).ok());
  EXPECT_FALSE(filter.Init(10, 0.0).ok());
  EXPECT_FALSE(filter.Init(10, 1.0).ok());
}

class LearnedBloomTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = data::GenUrls(20'000, 30'000, 41);
    // Split negatives: train / validation / test (the §5.2 protocol).
    const size_t third = corpus_.random_negatives.size() / 3;
    train_neg_.assign(corpus_.random_negatives.begin(),
                      corpus_.random_negatives.begin() + third);
    valid_neg_.assign(corpus_.random_negatives.begin() + third,
                      corpus_.random_negatives.begin() + 2 * third);
    test_neg_.assign(corpus_.random_negatives.begin() + 2 * third,
                     corpus_.random_negatives.end());
    // Size the classifier's hashed feature table for the key-set scale —
    // at 20k keys a 64 KB table would dwarf the Bloom filter it replaces.
    classifier::NgramConfig config;
    config.num_buckets = 2048;
    ASSERT_TRUE(model_.Train(corpus_.keys, train_neg_, config).ok());
  }

  data::UrlCorpus corpus_;
  std::vector<std::string> train_neg_, valid_neg_, test_neg_;
  classifier::NgramLogistic model_;
};

TEST_F(LearnedBloomTest, ZeroFalseNegativesStructurally) {
  LearnedBloomFilter<classifier::NgramLogistic> filter;
  ASSERT_TRUE(filter.Build(&model_, corpus_.keys, valid_neg_, 0.01).ok());
  for (const auto& k : corpus_.keys) {
    ASSERT_TRUE(filter.MightContain(k)) << k;
  }
}

TEST_F(LearnedBloomTest, TestFprNearTarget) {
  for (const double target : {0.05, 0.01}) {
    LearnedBloomFilter<classifier::NgramLogistic> filter;
    ASSERT_TRUE(filter.Build(&model_, corpus_.keys, valid_neg_, target).ok());
    const double fpr = index::MeasureFprOver(filter, test_neg_);
    EXPECT_LE(fpr, target * 2.5) << target;  // validated threshold transfers
  }
}

TEST_F(LearnedBloomTest, SmallerThanStandardBloomAtSameFpr) {
  // The §5.2 headline: model + spillover < plain Bloom filter.
  const double target = 0.01;
  LearnedBloomFilter<classifier::NgramLogistic> learned;
  ASSERT_TRUE(learned.Build(&model_, corpus_.keys, valid_neg_, target).ok());
  BloomFilter plain;
  ASSERT_TRUE(plain.Init(corpus_.keys.size(), target).ok());
  EXPECT_LT(learned.SizeBytes(), plain.SizeBytes());
}

TEST_F(LearnedBloomTest, FnrDrivesOverflowSize) {
  LearnedBloomFilter<classifier::NgramLogistic> strict, loose;
  ASSERT_TRUE(strict.Build(&model_, corpus_.keys, valid_neg_, 0.001).ok());
  ASSERT_TRUE(loose.Build(&model_, corpus_.keys, valid_neg_, 0.05).ok());
  // A stricter FPR target raises tau, creating more false negatives and a
  // bigger overflow filter.
  EXPECT_GE(strict.fnr(), loose.fnr());
  EXPECT_GE(strict.OverflowBytes(), loose.OverflowBytes());
}

TEST_F(LearnedBloomTest, BuildValidation) {
  LearnedBloomFilter<classifier::NgramLogistic> filter;
  EXPECT_FALSE(filter.Build(nullptr, corpus_.keys, valid_neg_, 0.01).ok());
  EXPECT_FALSE(filter.Build(&model_, corpus_.keys, valid_neg_, 0.0).ok());
  EXPECT_FALSE(filter.Build(&model_, corpus_.keys, {}, 0.01).ok());
}

TEST_F(LearnedBloomTest, ModelHashVariantNoFalseNegatives) {
  ModelHashBloomFilter<classifier::NgramLogistic> filter;
  ASSERT_TRUE(
      filter.Build(&model_, corpus_.keys, valid_neg_, 0.01, 1'000'000).ok());
  for (const auto& k : corpus_.keys) {
    ASSERT_TRUE(filter.MightContain(k)) << k;
  }
}

TEST_F(LearnedBloomTest, ModelHashFprBounded) {
  ModelHashBloomFilter<classifier::NgramLogistic> filter;
  ASSERT_TRUE(
      filter.Build(&model_, corpus_.keys, valid_neg_, 0.01, 1'000'000).ok());
  EXPECT_LE(index::MeasureFprOver(filter, test_neg_), 0.03);
  // A cleanly separable corpus can drive the bitmap FPR to zero.
  EXPECT_GE(filter.fpr_m(), 0.0);
  EXPECT_LT(filter.fpr_m(), 1.0);
}

TEST_F(LearnedBloomTest, ModelHashBadArgsRejected) {
  ModelHashBloomFilter<classifier::NgramLogistic> filter;
  EXPECT_FALSE(filter.Build(&model_, corpus_.keys, valid_neg_, 0.01, 0).ok());
  EXPECT_FALSE(
      filter.Build(nullptr, corpus_.keys, valid_neg_, 0.01, 1000).ok());
}

}  // namespace
}  // namespace li::bloom
