// Conformance suite for the library-wide ExistenceIndex contract: every
// filter — standard Bloom, learned Bloom (classifier + overflow, §5.1.1),
// model-hash sandwich (§5.1.2) — is (a) statically asserted to satisfy
// the index::ExistenceIndex concept and (b) driven over the same URL
// corpus through identical dynamic checks: zero false negatives for every
// inserted key, MeasuredFpr consistent with a manual probe count and
// bounded for a calibrated filter, and the type-erased AnyExistenceIndex
// answering exactly like the concrete filter it wraps.
//
// The family edges ride at the bottom: never-built and empty-built
// filters answer as the empty set (a leg the suite long lacked — it hid
// a plain-Bloom "contains everything" bug), out-of-domain probes stay
// at the filter's FPR, and the range filters' degenerate point path
// (src/rangefilter/) passes the same matrix through a typed suite.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bloom/bloom_filter.h"
#include "bloom/learned_bloom.h"
#include "bloom/model_hash_bloom.h"
#include "classifier/ngram_logistic.h"
#include "common/random.h"
#include "data/strings.h"
#include "index/existence_index.h"
#include "rangefilter/interval_bitmap_filter.h"
#include "rangefilter/learned_range_filter.h"
#include "rangefilter/workload.h"

namespace li {
namespace {

// ---- Static acceptance gate: the contract holds for every filter ----
static_assert(index::ExistenceIndex<bloom::BloomFilter>);
static_assert(
    index::ExistenceIndex<bloom::LearnedBloomFilter<classifier::NgramLogistic>>);
static_assert(index::ExistenceIndex<
              bloom::ModelHashBloomFilter<classifier::NgramLogistic>>);
// The erased handle itself satisfies the concept, so erased filters can
// be re-erased / stored wherever a concrete filter is expected.
static_assert(index::ExistenceIndex<index::AnyExistenceIndex>);

class ExistenceConformanceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new data::UrlCorpus(data::GenUrls(15'000, 24'000, 61));
    const size_t third = corpus_->random_negatives.size() / 3;
    train_neg_ = new std::vector<std::string>(
        corpus_->random_negatives.begin(),
        corpus_->random_negatives.begin() + third);
    valid_neg_ = new std::vector<std::string>(
        corpus_->random_negatives.begin() + third,
        corpus_->random_negatives.begin() + 2 * third);
    test_neg_ = new std::vector<std::string>(
        corpus_->random_negatives.begin() + 2 * third,
        corpus_->random_negatives.end());
    model_ = new classifier::NgramLogistic();
    classifier::NgramConfig config;
    config.num_buckets = 2048;
    ASSERT_TRUE(model_->Train(corpus_->keys, *train_neg_, config).ok());
  }
  static void TearDownTestSuite() {
    delete model_;
    delete test_neg_;
    delete valid_neg_;
    delete train_neg_;
    delete corpus_;
    model_ = nullptr;
    corpus_ = nullptr;
    train_neg_ = valid_neg_ = test_neg_ = nullptr;
  }

  /// The shared dynamic checks, applied to concrete and erased handles
  /// alike (the contract surface is identical).
  template <typename F>
  static void CheckContract(const F& filter, double fpr_bound) {
    // Zero false negatives — the non-negotiable §5 invariant.
    for (const auto& k : corpus_->keys) {
      ASSERT_TRUE(filter.MightContain(k)) << k;
    }
    // MeasuredFpr agrees with a manual probe count.
    size_t fp = 0;
    for (const auto& s : *test_neg_) {
      fp += filter.MightContain(std::string_view(s));
    }
    const double manual =
        static_cast<double>(fp) / static_cast<double>(test_neg_->size());
    EXPECT_DOUBLE_EQ(filter.MeasuredFpr(*test_neg_), manual);
    EXPECT_LE(manual, fpr_bound);
    EXPECT_GT(filter.SizeBytes(), 0u);
  }

  static data::UrlCorpus* corpus_;
  static std::vector<std::string>* train_neg_;
  static std::vector<std::string>* valid_neg_;
  static std::vector<std::string>* test_neg_;
  static classifier::NgramLogistic* model_;
};

data::UrlCorpus* ExistenceConformanceTest::corpus_ = nullptr;
std::vector<std::string>* ExistenceConformanceTest::train_neg_ = nullptr;
std::vector<std::string>* ExistenceConformanceTest::valid_neg_ = nullptr;
std::vector<std::string>* ExistenceConformanceTest::test_neg_ = nullptr;
classifier::NgramLogistic* ExistenceConformanceTest::model_ = nullptr;

TEST_F(ExistenceConformanceTest, PlainBloomSatisfiesContract) {
  bloom::BloomFilter filter;
  ASSERT_TRUE(filter.Init(corpus_->keys.size(), 0.01).ok());
  for (const auto& k : corpus_->keys) filter.Add(std::string_view(k));
  CheckContract(filter, 0.03);

  const index::AnyExistenceIndex erased(std::move(filter));
  CheckContract(erased, 0.03);
}

TEST_F(ExistenceConformanceTest, LearnedBloomSatisfiesContract) {
  bloom::LearnedBloomFilter<classifier::NgramLogistic> filter;
  ASSERT_TRUE(filter.Build(model_, corpus_->keys, *valid_neg_, 0.01).ok());
  CheckContract(filter, 0.05);

  // Erasure preserves every answer bit-for-bit.
  bloom::LearnedBloomFilter<classifier::NgramLogistic> twin;
  ASSERT_TRUE(twin.Build(model_, corpus_->keys, *valid_neg_, 0.01).ok());
  const index::AnyExistenceIndex erased(std::move(twin));
  for (size_t i = 0; i < test_neg_->size(); i += 7) {
    ASSERT_EQ(erased.MightContain((*test_neg_)[i]),
              filter.MightContain((*test_neg_)[i]));
  }
  CheckContract(erased, 0.05);
}

TEST_F(ExistenceConformanceTest, ModelHashBloomSatisfiesContract) {
  bloom::ModelHashBloomFilter<classifier::NgramLogistic> filter;
  ASSERT_TRUE(
      filter.Build(model_, corpus_->keys, *valid_neg_, 0.01, 500'000).ok());
  CheckContract(filter, 0.05);

  const index::AnyExistenceIndex erased(std::move(filter));
  CheckContract(erased, 0.05);
}

TEST_F(ExistenceConformanceTest, EmptyHandleIsTheEmptySet) {
  index::AnyExistenceIndex empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.MightContain("anything"));
  EXPECT_EQ(empty.SizeBytes(), 0u);
  EXPECT_DOUBLE_EQ(empty.MeasuredFpr(*test_neg_), 0.0);
}

TEST_F(ExistenceConformanceTest, NeverBuiltFiltersAnswerEmptySet) {
  // Contract edge: a default-constructed learned filter has no classifier
  // and must behave like a filter over the empty set, not crash.
  bloom::LearnedBloomFilter<classifier::NgramLogistic> learned;
  EXPECT_FALSE(learned.MightContain("x"));
  bloom::ModelHashBloomFilter<classifier::NgramLogistic> model_hash;
  EXPECT_FALSE(model_hash.MightContain("x"));
  // The plain Bloom filter used to FAIL this leg: with num_hashes_ == 0
  // its probe loop ran zero iterations and answered "contains
  // everything" — the exact opposite of the empty set.
  bloom::BloomFilter plain;
  EXPECT_FALSE(plain.MightContain("x"));
  EXPECT_FALSE(plain.MightContain(uint64_t{42}));
  std::vector<std::string> probes = {"a", "b", "c"};
  EXPECT_DOUBLE_EQ(plain.MeasuredFpr(probes), 0.0);
}

TEST_F(ExistenceConformanceTest, EmptyBuiltFiltersAnswerEmptySet) {
  // A filter *built over zero keys* (Init'ed but nothing added) is a
  // distinct edge from never-built: sized state exists, yet every probe
  // must still miss with overwhelming probability — and the no-FN
  // contract is vacuous, so a strict empty-set answer is required of
  // the probe math, not just permitted.
  bloom::BloomFilter plain;
  ASSERT_TRUE(plain.Init(1, 0.01).ok());  // minimal sizing, zero Adds
  size_t hits = 0;
  for (const auto& s : *test_neg_) hits += plain.MightContain(s);
  EXPECT_EQ(hits, 0u) << "empty-built bloom answered true";

  const std::vector<std::string> no_keys;
  bloom::LearnedBloomFilter<classifier::NgramLogistic> learned;
  // Building over an empty key set may legitimately refuse; if it
  // builds, it must answer like the empty set at the overflow stage
  // (the classifier can still false-positive — that is its FPR budget,
  // bounded like any other candidate's).
  if (learned.Build(model_, no_keys, *valid_neg_, 0.01).ok()) {
    EXPECT_LE(learned.MeasuredFpr(*test_neg_), 0.05);
  }
}

TEST_F(ExistenceConformanceTest, OutOfDomainProbesStayBounded) {
  // Keys far outside the build corpus's shape (different scheme, length,
  // alphabet) must miss at the filter's FPR, not systematically hit —
  // the suite previously only probed lookalike negatives. The probes
  // must be *diverse*: a shared prefix would feed every probe the same
  // n-grams and make the classifier's 2000 verdicts one correlated coin
  // flip, which no statistical bound survives.
  Xorshift128Plus rng(0xA11E17);
  std::vector<std::string> alien;
  for (int i = 0; i < 2'000; ++i) {
    std::string s;
    const size_t len = 8 + rng.NextBounded(56);
    switch (i % 4) {
      case 0:  // uppercase words with spaces — no URL corpus has either
        for (size_t j = 0; j < len; ++j)
          s.push_back(j % 7 == 6 ? ' '
                                 : static_cast<char>('A' + rng.NextBounded(26)));
        break;
      case 1:  // long digit runs
        for (size_t j = 0; j < len; ++j)
          s.push_back(static_cast<char>('0' + rng.NextBounded(10)));
        break;
      case 2:  // full printable-ASCII noise
        for (size_t j = 0; j < len; ++j)
          s.push_back(static_cast<char>(0x20 + rng.NextBounded(95)));
        break;
      default:  // high-bit / control bytes, never URL-legal
        for (size_t j = 0; j < len; ++j)
          s.push_back(static_cast<char>(rng.NextBounded(0x1F) + 0x80));
        break;
    }
    alien.push_back(std::move(s));
  }

  bloom::BloomFilter plain;
  ASSERT_TRUE(plain.Init(corpus_->keys.size(), 0.01).ok());
  for (const auto& k : corpus_->keys) plain.Add(std::string_view(k));
  EXPECT_LE(plain.MeasuredFpr(alien), 0.03);

  bloom::LearnedBloomFilter<classifier::NgramLogistic> learned;
  ASSERT_TRUE(learned.Build(model_, corpus_->keys, *valid_neg_, 0.01).ok());
  // The classifier never saw this distribution; the §5.2 caveat is that
  // out-of-distribution FPR blows past the calibrated target (measured
  // ~0.8 here — every seed above is fixed, so the number is stable).
  // The two bounds below pin the caveat from both sides: the learned
  // filter degrades measurably worse than the hash-only baseline on
  // alien shapes, yet stays a filter rather than a yes-machine.
  const double learned_ood = learned.MeasuredFpr(alien);
  EXPECT_GT(learned_ood, plain.MeasuredFpr(alien));
  EXPECT_LE(learned_ood, 0.95);
}

// ---- The range filters' point path through the same family matrix ----
// MightContain(k) on a range filter is the degenerate [k, k+1) range;
// the existence-family edges (never-built / empty-built / out-of-domain)
// must hold for them exactly as for the string filters above.

template <typename F>
class RangeFilterPointPathTest : public ::testing::Test {};

using RangeFilterTypes = ::testing::Types<rangefilter::LearnedRangeFilter,
                                          rangefilter::IntervalBitmapFilter>;
TYPED_TEST_SUITE(RangeFilterPointPathTest, RangeFilterTypes);

TYPED_TEST(RangeFilterPointPathTest, PointPathMatchesExistenceContract) {
  // Never-built and empty-built both answer as the empty set.
  TypeParam unbuilt;
  EXPECT_FALSE(unbuilt.MightContain(0));
  EXPECT_FALSE(unbuilt.MightContain(~uint64_t{0}));
  TypeParam empty;
  ASSERT_TRUE(empty.Build({}).ok());
  EXPECT_FALSE(empty.MightContain(12345));

  // Built: zero false negatives on every key; probes outside the
  // covered domain [min, max] are definitively false for a filter whose
  // bitmap only spans the domain.
  const std::vector<uint64_t> keys =
      rangefilter::GenUniformKeys(10'000, 77, uint64_t{1} << 32);
  TypeParam filter;
  ASSERT_TRUE(filter.Build(keys).ok());
  for (size_t i = 0; i < keys.size(); i += 3) {
    ASSERT_TRUE(filter.MightContain(keys[i])) << keys[i];
  }
  Xorshift128Plus rng(78);
  for (int i = 0; i < 2'000; ++i) {
    const uint64_t below = rng.NextBounded(keys.front());
    EXPECT_FALSE(filter.MightContain(below)) << below;
    const uint64_t above = keys.back() + 1 + rng.NextBounded(uint64_t{1}
                                                             << 40);
    EXPECT_FALSE(filter.MightContain(above)) << above;
  }
}

}  // namespace
}  // namespace li
