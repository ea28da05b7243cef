// ThreadSanitizer-able stress suite for RebuildableExistence: N writer
// threads Insert fresh keys while M reader threads check that every
// acknowledged key answers MightContain == true — the §5 no-false-negative
// guarantee extended to online inserts.
//
// Each writer owns a disjoint key stream and publishes how far it got
// (a release store after Insert returns), so a reader can pick any key
// below that mark and demand a positive answer without locks: a key lost
// by a freeze fold, a rotation into the pending set, a filter publish, or
// a stale pointer into a retired version shows up as a false negative.
// The staleness trigger is armed low so background rebuilds run all
// through the race, and the Rebuilder fails every third call, so the
// fold-back path (pending keys return to the side set, the old filter
// keeps serving) runs too.
//
// A second leg runs the same race over a learned Bloom filter whose
// rebuilder re-calibrates the threshold and re-forms the overflow Bloom
// against a captured validation split on every rebuild, with one shared
// NgramLogistic — the recalibrating rebuild path a learned filter takes
// online.
//
// Thread failures are recorded, never asserted off-thread, and re-raised
// on the main thread. Seeds run through tests/test_seed.h.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bloom/bloom_filter.h"
#include "bloom/learned_bloom.h"
#include "classifier/ngram_logistic.h"
#include "common/random.h"
#include "common/status.h"
#include "concurrent/rebuildable_existence.h"
#include "data/strings.h"
#include "test_seed.h"

namespace li {
namespace {

using Filter = concurrent::RebuildableExistence<bloom::BloomFilter>;

/// First failure observed by any thread; asserted on the main thread.
class FailureLog {
 public:
  void Record(const std::string& msg) {
    std::lock_guard<std::mutex> lk(mu_);
    if (first_.empty()) first_ = msg;
  }
  bool ok() const {
    std::lock_guard<std::mutex> lk(mu_);
    return first_.empty();
  }
  std::string first() const {
    std::lock_guard<std::mutex> lk(mu_);
    return first_;
  }

 private:
  mutable std::mutex mu_;
  std::string first_;
};

std::string WriterKey(size_t writer, size_t i) {
  return "w" + std::to_string(writer) + "/" + std::to_string(i);
}

/// A plain-Bloom Rebuilder that fails every `k`-th call (the first call,
/// Build's, succeeds for k >= 2).
struct FlakyRebuilder {
  Status operator()(std::span<const std::string> keys,
                    bloom::BloomFilter* out) {
    if (calls->fetch_add(1) % k == k - 1) {
      failures->fetch_add(1);
      return Status::Internal("injected rebuild failure");
    }
    return concurrent::PlainBloomRebuilder(0.01)(keys, out);
  }
  std::atomic<uint64_t>* calls;
  std::atomic<uint64_t>* failures;
  uint64_t k;
};

/// Races `writers` threads, each inserting `per_writer` fresh keys,
/// against `readers` threads that demand MightContain == true for any
/// acknowledged key and any corpus key. Returns the first violation
/// (empty = none).
template <typename F>
std::string RaceInsertsAgainstReaders(F& filter,
                                      const std::vector<std::string>& corpus,
                                      size_t writers, size_t readers,
                                      size_t per_writer, uint64_t seed) {
  FailureLog log;
  std::atomic<bool> stop{false};
  std::vector<std::atomic<size_t>> acked(writers);
  for (auto& a : acked) a.store(0);
  std::vector<std::thread> reader_threads;
  for (size_t r = 0; r < readers; ++r) {
    reader_threads.emplace_back([&, r] {
      Xorshift128Plus rng(seed * 31 + r);
      while (!stop.load(std::memory_order_relaxed) && log.ok()) {
        const size_t w = rng.NextBounded(writers);
        const size_t n = acked[w].load(std::memory_order_acquire);
        if (n > 0) {
          const std::string k = WriterKey(w, rng.NextBounded(n));
          if (!filter.MightContain(k)) {
            log.Record("acknowledged key " + k + " answered false");
          }
        }
        const std::string& c = corpus[rng.NextBounded(corpus.size())];
        if (!filter.MightContain(c)) {
          log.Record("corpus key " + c + " answered false");
        }
      }
    });
  }
  std::vector<std::thread> writer_threads;
  for (size_t w = 0; w < writers; ++w) {
    writer_threads.emplace_back([&, w] {
      for (size_t i = 0; i < per_writer && log.ok(); ++i) {
        const std::string k = WriterKey(w, i);
        if (!filter.Insert(k)) {
          log.Record("fresh key " + k + " was reported present");
          return;
        }
        acked[w].store(i + 1, std::memory_order_release);
        if (!filter.MightContain(k)) {
          log.Record("own key " + k + " invisible right after Insert");
          return;
        }
        if (filter.Insert(k)) {
          log.Record("duplicate Insert of " + k + " returned true");
          return;
        }
      }
    });
  }
  for (auto& t : writer_threads) t.join();
  stop.store(true);
  for (auto& t : reader_threads) t.join();
  return log.first();
}

TEST(ConcurrentExistenceStressTest, AckedInsertsStayVisibleAcrossRebuilds) {
  constexpr size_t kWriters = 3;
  constexpr size_t kReaders = 2;
  constexpr size_t kPerWriter = 3'000;
  constexpr size_t kCorpus = 4'000;
  std::vector<std::string> corpus;
  for (size_t i = 0; i < kCorpus; ++i) {
    corpus.push_back("corpus/" + std::to_string(i));
  }
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> failures{0};
  Filter::Config cfg;
  cfg.rebuild = FlakyRebuilder{&calls, &failures, 3};
  cfg.staleness = 0.02;    // 80 side keys over the 4k corpus arm it
  cfg.min_side_keys = 64;
  cfg.log_cap = 32;        // freeze folds race the appends
  Filter filter;
  ASSERT_TRUE(filter.Build(corpus, cfg).ok());

  const std::string failure = RaceInsertsAgainstReaders(
      filter, corpus, kWriters, kReaders, kPerWriter, testing::TestSeed(9001));
  ASSERT_TRUE(failure.empty()) << failure;

  // Quiesce, then fold everything in with a cycle that succeeds (at most
  // one in three fails).
  filter.WaitForRebuilds();
  Status st = filter.Rebuild();
  for (int i = 0; i < 3 && !st.ok(); ++i) st = filter.Rebuild();
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(filter.num_keys(), kCorpus + kWriters * kPerWriter);
  for (size_t w = 0; w < kWriters; ++w) {
    for (size_t i = 0; i < kPerWriter; ++i) {
      ASSERT_TRUE(filter.MightContain(WriterKey(w, i))) << WriterKey(w, i);
    }
  }
  const auto cs = filter.ConcurrentStats();
  EXPECT_GT(cs.background_merges, 0u) << "no rebuild published";
  EXPECT_GT(failures.load(), 0u) << "the fold-back path never ran";
  EXPECT_GT(cs.freezes, 0u);
  EXPECT_EQ(cs.states_retired, cs.states_published);
}

TEST(ConcurrentExistenceStressTest, LearnedRebuilderKeepsZeroFalseNegatives) {
  using Learned = bloom::LearnedBloomFilter<classifier::NgramLogistic>;
  using LearnedFilter = concurrent::RebuildableExistence<Learned>;
  constexpr size_t kWriters = 3;
  constexpr size_t kReaders = 2;
  constexpr size_t kPerWriter = 1'500;
  const uint64_t seed = testing::TestSeed(9002);
  const data::UrlCorpus urls = data::GenUrls(3'000, 3'000, seed);
  const size_t half = urls.random_negatives.size() / 2;
  const std::vector<std::string> train_neg(
      urls.random_negatives.begin(), urls.random_negatives.begin() + half);
  classifier::NgramConfig ncfg;
  ncfg.num_buckets = 1024;
  ncfg.seed = seed;
  auto model = std::make_shared<classifier::NgramLogistic>();
  ASSERT_TRUE(model->Train(urls.keys, train_neg, ncfg).ok());
  // Every rebuild re-calibrates the threshold and re-forms the overflow
  // Bloom against the validation split, so the rebuilder owns a copy of
  // it; the model is fixed (§5 retrains offline, not per insert batch).
  auto valid = std::make_shared<std::vector<std::string>>(
      urls.random_negatives.begin() + half, urls.random_negatives.end());
  LearnedFilter::Config cfg;
  cfg.rebuild = [model, valid](std::span<const std::string> keys,
                               Learned* out) {
    return out->Build(model.get(), keys, *valid, 0.01);
  };
  cfg.staleness = 0.02;
  cfg.min_side_keys = 64;
  cfg.log_cap = 32;
  LearnedFilter filter;
  ASSERT_TRUE(filter.Build(urls.keys, cfg).ok());

  const std::string failure = RaceInsertsAgainstReaders(
      filter, urls.keys, kWriters, kReaders, kPerWriter, seed);
  ASSERT_TRUE(failure.empty()) << failure;

  // Quiesce, fold the side set in, and re-check every key against the
  // freshly calibrated filter.
  filter.WaitForRebuilds();
  ASSERT_TRUE(filter.Rebuild().ok());
  for (const std::string& k : urls.keys) {
    ASSERT_TRUE(filter.MightContain(k)) << k;
  }
  for (size_t w = 0; w < kWriters; ++w) {
    for (size_t i = 0; i < kPerWriter; ++i) {
      ASSERT_TRUE(filter.MightContain(WriterKey(w, i))) << WriterKey(w, i);
    }
  }
  const auto cs = filter.ConcurrentStats();
  EXPECT_GT(cs.background_merges, 0u) << "no learned rebuild published";
  EXPECT_EQ(cs.states_retired, cs.states_published);
}

}  // namespace
}  // namespace li
