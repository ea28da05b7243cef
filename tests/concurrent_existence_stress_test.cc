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
// Thread failures are recorded, never asserted off-thread, and re-raised
// on the main thread. Seeds run through tests/test_seed.h.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bloom/bloom_filter.h"
#include "common/random.h"
#include "common/status.h"
#include "concurrent/rebuildable_existence.h"
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

  FailureLog log;
  std::atomic<bool> stop{false};
  std::vector<std::atomic<size_t>> acked(kWriters);
  for (auto& a : acked) a.store(0);
  std::vector<std::thread> readers;
  const uint64_t seed = testing::TestSeed(9001);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Xorshift128Plus rng(seed * 31 + r);
      while (!stop.load(std::memory_order_relaxed) && log.ok()) {
        const size_t w = rng.NextBounded(kWriters);
        const size_t n = acked[w].load(std::memory_order_acquire);
        if (n > 0) {
          const std::string k = WriterKey(w, rng.NextBounded(n));
          if (!filter.MightContain(k)) {
            log.Record("acknowledged key " + k + " answered false");
          }
        }
        const std::string c = corpus[rng.NextBounded(kCorpus)];
        if (!filter.MightContain(c)) {
          log.Record("corpus key " + c + " answered false");
        }
      }
    });
  }
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (size_t i = 0; i < kPerWriter && log.ok(); ++i) {
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
  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();
  ASSERT_TRUE(log.ok()) << log.first();

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

}  // namespace
}  // namespace li
