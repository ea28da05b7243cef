// ThreadSanitizer-able stress suite for the concurrent write path:
// N writer + M reader threads drive ConcurrentWritableIndex and
// ShardedIndex against a mutex-guarded std::set oracle.
//
// Writers apply every op to the index and the oracle under one mutex, so
// the oracle's op order equals the index's writer-serialization order and
// the Insert/Erase liveness booleans must match op-for-op. Readers run
// lock-free throughout — during write storms, background merges and the
// verification passes — checking the invariants that hold at any instant
// (ranks bounded by the live-count envelope, scans strictly ascending).
// At the end of each round the writers quiesce (join) and the main thread
// runs a linearizable snapshot check — size, full ordered scan, ranks and
// membership against the oracle — while the readers keep hammering, so
// the read path is exercised against concurrent merge publishes even at
// verification time.
//
// Thread failures are recorded, never asserted off-thread (gtest asserts
// are not thread-safe), and re-raised on the main thread. Dataset and
// schedule seeds run through tests/test_seed.h, so LI_TEST_SEED=<n>
// sweeps fresh interleavings while failures stay reproducible.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "concurrent/concurrent_writable_index.h"
#include "concurrent/sharded_index.h"
#include "data/datasets.h"
#include "dynamic/merge_policy.h"
#include "rmi/rmi.h"
#include "test_seed.h"

namespace li {
namespace {

using ConcRmi = concurrent::ConcurrentWritableIndex<rmi::LinearRmi>;
using ShardedRmi = concurrent::ShardedIndex<ConcRmi>;

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

std::vector<uint64_t> SeedKeys(size_t n, uint64_t seed) {
  auto keys = data::GenLognormal(n, seed);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

constexpr uint64_t kKeySpace = 400'000'000;

/// One writer's workload for one round: ops applied to index + oracle
/// under the oracle mutex; liveness booleans cross-checked op-for-op.
template <typename Idx>
void WriterBody(Idx& idx, std::set<uint64_t>& oracle, std::mutex& oracle_mu,
                FailureLog& log, uint64_t seed, size_t ops) {
  Xorshift128Plus rng(seed);
  for (size_t i = 0; i < ops && log.ok(); ++i) {
    const uint64_t k = rng.NextBounded(kKeySpace);
    std::lock_guard<std::mutex> lk(oracle_mu);
    if (rng.NextBounded(3) == 0) {
      const bool got = idx.Erase(k);
      const bool want = oracle.erase(k) > 0;
      if (got != want) {
        log.Record("Erase(" + std::to_string(k) + ") returned " +
                   std::to_string(got) + ", oracle says " +
                   std::to_string(want));
        return;
      }
    } else {
      const bool got = idx.Insert(k);
      const bool want = oracle.insert(k).second;
      if (got != want) {
        log.Record("Insert(" + std::to_string(k) + ") returned " +
                   std::to_string(got) + ", oracle says " +
                   std::to_string(want));
        return;
      }
    }
  }
}

/// Free-running reader: invariants that hold at any instant, even with
/// writes and merges in flight.
template <typename Idx>
void ReaderBody(const Idx& idx, const std::atomic<bool>& stop,
                FailureLog& log, uint64_t seed, size_t max_live,
                std::atomic<uint64_t>& ops_done) {
  Xorshift128Plus rng(seed);
  uint64_t local_ops = 0;
  while (!stop.load(std::memory_order_relaxed) && log.ok()) {
    const uint64_t q = rng.NextBounded(kKeySpace);
    const size_t rank = idx.Lookup(q);
    if (rank > max_live) {
      log.Record("Lookup(" + std::to_string(q) + ") rank " +
                 std::to_string(rank) + " exceeds live-count envelope " +
                 std::to_string(max_live));
      return;
    }
    (void)idx.Contains(q);
    if ((local_ops & 63) == 0) {
      const auto scan = idx.Scan(q, 32);
      for (size_t i = 0; i + 1 < scan.size(); ++i) {
        if (!(scan[i] < scan[i + 1])) {
          log.Record("Scan not strictly ascending at " +
                     std::to_string(scan[i]));
          return;
        }
      }
      if (!scan.empty() && scan.front() < q) {
        log.Record("Scan returned key below the probe");
        return;
      }
    }
    ++local_ops;
  }
  ops_done.fetch_add(local_ops, std::memory_order_relaxed);
}

/// Quiesced-writer snapshot check: exact equivalence with the oracle.
/// Readers may still be running — reads must stay exact because no write
/// is in flight, whatever the background mergers are doing.
template <typename Idx>
void VerifySnapshot(const Idx& idx, const std::set<uint64_t>& oracle,
                    uint64_t seed, int round) {
  const std::vector<uint64_t> ref(oracle.begin(), oracle.end());
  ASSERT_EQ(idx.size(), ref.size()) << "round " << round;
  ASSERT_EQ(idx.Scan(0, ref.size() + 10), ref) << "round " << round;
  Xorshift128Plus rng(seed);
  for (int p = 0; p < 400; ++p) {
    const uint64_t q = rng.NextBounded(kKeySpace + 100);
    const size_t want = static_cast<size_t>(
        std::lower_bound(ref.begin(), ref.end(), q) - ref.begin());
    ASSERT_EQ(idx.Lookup(q), want) << "round " << round << " probe " << q;
    ASSERT_EQ(idx.Contains(q), oracle.count(q) > 0)
        << "round " << round << " probe " << q;
  }
}

template <typename Idx>
void RunStress(Idx& idx, std::vector<uint64_t> base_keys, size_t writers,
               size_t readers, size_t ops_per_writer, int rounds,
               uint64_t seed) {
  std::set<uint64_t> oracle(base_keys.begin(), base_keys.end());
  std::mutex oracle_mu;
  FailureLog log;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> read_ops{0};
  // Ranks can never exceed every key that could ever be live.
  const size_t max_live =
      base_keys.size() + writers * ops_per_writer * rounds + 1;

  std::vector<std::thread> reader_threads;
  for (size_t r = 0; r < readers; ++r) {
    reader_threads.emplace_back([&, r] {
      ReaderBody(idx, stop, log, seed * 977 + r, max_live, read_ops);
    });
  }
  for (int round = 0; round < rounds; ++round) {
    std::vector<std::thread> writer_threads;
    for (size_t w = 0; w < writers; ++w) {
      writer_threads.emplace_back([&, w, round] {
        WriterBody(idx, oracle, oracle_mu, log,
                   seed + static_cast<uint64_t>(round) * 131 + w * 17,
                   ops_per_writer);
      });
    }
    for (std::thread& t : writer_threads) t.join();
    ASSERT_TRUE(log.ok()) << log.first();
    // Periodic linearizable snapshot check, readers still hammering.
    VerifySnapshot(idx, oracle, seed ^ (round + 1), round);
    if (::testing::Test::HasFatalFailure()) break;
  }
  stop.store(true);
  for (std::thread& t : reader_threads) t.join();
  ASSERT_TRUE(log.ok()) << log.first();
  // Final quiesce: drain merges, re-verify, and sanity-check the gauges.
  idx.WaitForMerges();
  VerifySnapshot(idx, oracle, seed ^ 0xabcd, rounds);
  EXPECT_GT(read_ops.load(), 0u);
}

TEST(ConcurrentStressTest, SingleFrontEndUnderWriteStorm) {
  auto keys = SeedKeys(20'000, testing::TestSeed(51));
  ConcRmi::Config cfg;
  cfg.base.num_leaf_models = 256;
  cfg.policy.min_delta_entries = 256;   // frequent background merges
  cfg.policy.max_delta_entries = 512;
  cfg.log_cap = 128;                    // frequent freezes
  ConcRmi idx;
  ASSERT_TRUE(idx.Build(keys, cfg).ok());
  RunStress(idx, std::move(keys), /*writers=*/3, /*readers=*/2,
            /*ops_per_writer=*/2'000, /*rounds=*/3,
            /*seed=*/testing::TestSeed(1001));
  const auto cs = idx.ConcurrentStats();
  EXPECT_GT(cs.merges, 0u);
  EXPECT_GT(cs.freezes, 0u);
  EXPECT_EQ(cs.states_retired, cs.states_published);
}

TEST(ConcurrentStressTest, ShardedFrontEndUnderWriteStorm) {
  auto keys = SeedKeys(20'000, testing::TestSeed(53));
  ShardedRmi::Config cfg;
  cfg.inner.base.num_leaf_models = 128;
  cfg.inner.policy.min_delta_entries = 256;
  cfg.inner.policy.max_delta_entries = 512;
  cfg.inner.log_cap = 128;
  cfg.num_shards = 4;
  ShardedRmi idx;
  ASSERT_TRUE(idx.Build(keys, cfg).ok());
  RunStress(idx, std::move(keys), /*writers=*/3, /*readers=*/2,
            /*ops_per_writer=*/2'000, /*rounds=*/3,
            /*seed=*/testing::TestSeed(2002));
  const auto cs = idx.ConcurrentStats();
  EXPECT_EQ(cs.shards, 4u);
  EXPECT_GT(cs.merges, 0u);
}

/// Writers with NO external serialization — unlike the oracle phases,
/// where the oracle mutex (intentionally, for op-for-op bool checking)
/// serializes writers, here Insert/Erase race each other directly:
/// contended writer-mutex acquisitions, freeze folds racing appends,
/// policy merges firing mid-burst. Each writer owns a disjoint strided
/// key range, so the final state is verifiable post-hoc without any
/// locking during the run.
template <typename Idx>
void RunUnserializedWriters(Idx& idx, const std::vector<uint64_t>& base) {
  constexpr size_t kWriters = 4;
  constexpr size_t kPerWriter = 4'000;
  const uint64_t lo = base.back() + 1;
  FailureLog log;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> read_ops{0};
  const size_t max_live = base.size() + kWriters * kPerWriter + 1;
  std::vector<std::thread> pool;
  for (int r = 0; r < 2; ++r) {
    pool.emplace_back([&, r] {
      ReaderBody(idx, stop, log, 9'000 + r, max_live, read_ops);
    });
  }
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      // Insert the strided range, then erase every third own key —
      // returns must be exact even under contention because the ranges
      // are disjoint (no other thread ever touches these keys).
      for (size_t i = 0; i < kPerWriter; ++i) {
        const uint64_t k = lo + w + kWriters * i;
        if (!idx.Insert(k)) {
          log.Record("Insert of owned key returned false");
          return;
        }
      }
      for (size_t i = 0; i < kPerWriter; i += 3) {
        const uint64_t k = lo + w + kWriters * i;
        if (!idx.Erase(k)) {
          log.Record("Erase of owned live key returned false");
          return;
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true);
  for (std::thread& t : pool) t.join();
  ASSERT_TRUE(log.ok()) << log.first();
  idx.WaitForMerges();
  // Post-hoc oracle: base plus every owned key that survived its erase.
  std::set<uint64_t> oracle(base.begin(), base.end());
  for (size_t w = 0; w < kWriters; ++w) {
    for (size_t i = 0; i < kPerWriter; ++i) {
      if (i % 3 != 0) oracle.insert(lo + w + kWriters * i);
    }
  }
  VerifySnapshot(idx, oracle, 0xfeed, 0);
}

TEST(ConcurrentStressTest, UnserializedWritersRaceSingleFrontEnd) {
  auto keys = SeedKeys(10'000, testing::TestSeed(59));
  ConcRmi::Config cfg;
  cfg.base.num_leaf_models = 128;
  cfg.policy.min_delta_entries = 512;
  cfg.policy.max_delta_entries = 1024;
  cfg.log_cap = 128;
  ConcRmi idx;
  ASSERT_TRUE(idx.Build(keys, cfg).ok());
  RunUnserializedWriters(idx, keys);
  EXPECT_GT(idx.ConcurrentStats().merges, 0u);
}

TEST(ConcurrentStressTest, UnserializedWritersRaceShardedFrontEnd) {
  auto keys = SeedKeys(10'000, testing::TestSeed(61));
  ShardedRmi::Config cfg;
  cfg.inner.base.num_leaf_models = 64;
  cfg.inner.policy.min_delta_entries = 256;
  cfg.inner.policy.max_delta_entries = 512;
  cfg.inner.log_cap = 128;
  cfg.num_shards = 4;
  ShardedRmi idx;
  ASSERT_TRUE(idx.Build(keys, cfg).ok());
  RunUnserializedWriters(idx, keys);
}

// Scan skips the log's tombstone count while the published log prefix
// holds no erase, so the boundary — the first erase of a version's log —
// must be exact for every prefix a reader loads. Writers insert only
// (above the base, outside every watched window) until, mid-log, one of
// them erases a watched base key; readers scan windows that hold it.
// A window is right only as the whole base window with the key or
// without it: a miscounted tombstone shows as a short or shifted scan.
TEST(ConcurrentStressTest, ScansSeeTheFirstLogEraseExactly) {
  const std::vector<uint64_t> keys = SeedKeys(20'000, testing::TestSeed(63));
  ConcRmi::Config cfg;
  cfg.base.num_leaf_models = 256;
  cfg.policy.trigger = dynamic::MergeTrigger::kManual;
  cfg.log_cap = 1'024;  // a few erases per log, each after many inserts
  ConcRmi idx;
  ASSERT_TRUE(idx.Build(keys, cfg).ok());

  constexpr size_t kBefore = 4, kLimit = 12, kRounds = 12;
  std::vector<size_t> targets;  // base positions of the erased keys
  for (size_t r = 0; r < kRounds; ++r) {
    targets.push_back(kBefore + (r + 1) * (keys.size() - 2 * kLimit) /
                                    (kRounds + 1));
  }
  FailureLog log;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> read_ops{0};
  const size_t max_live = keys.size() + 3 * kRounds * 400 + 1;
  std::vector<std::thread> readers;
  readers.emplace_back([&] {
    ReaderBody(idx, stop, log, testing::TestSeed(6'300), max_live, read_ops);
  });
  readers.emplace_back([&] {
    Xorshift128Plus rng(testing::TestSeed(6'301));
    while (!stop.load(std::memory_order_relaxed) && log.ok()) {
      const size_t t = targets[rng.NextBounded(targets.size())];
      const auto first = keys.begin() + static_cast<ptrdiff_t>(t - kBefore);
      const std::vector<uint64_t> with(first, first + kLimit);
      std::vector<uint64_t> without = with;
      without.erase(without.begin() + kBefore);
      without.push_back(keys[t - kBefore + kLimit]);
      const std::vector<uint64_t> got = idx.Scan(keys[t - kBefore], kLimit);
      if (got != with && got != without) {
        log.Record("Scan of the window around " + std::to_string(keys[t]) +
                   " returned " + std::to_string(got.size()) +
                   " keys, neither with nor without it");
        return;
      }
    }
  });
  std::set<uint64_t> oracle(keys.begin(), keys.end());
  std::mutex oracle_mu;
  for (size_t r = 0; r < kRounds; ++r) {
    std::vector<std::thread> writers;
    for (size_t w = 0; w < 3; ++w) {
      writers.emplace_back([&, w, r] {
        for (size_t i = 0; i < 400 && log.ok(); ++i) {
          std::lock_guard<std::mutex> lk(oracle_mu);
          if (w == 0 && i == 200) {
            const uint64_t k = keys[targets[r]];
            if (!idx.Erase(k) || oracle.erase(k) != 1) {
              log.Record("Erase of a live base key returned false");
              return;
            }
          }
          const uint64_t k = keys.back() + 1 + (r * 3 + w) * 400 + i;
          if (!idx.Insert(k) || !oracle.insert(k).second) {
            log.Record("Insert of a fresh key returned false");
            return;
          }
        }
      });
    }
    for (std::thread& t : writers) t.join();
    ASSERT_TRUE(log.ok()) << log.first();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  ASSERT_TRUE(log.ok()) << log.first();
  VerifySnapshot(idx, oracle, 0x7e57, 0);
  EXPECT_GT(idx.ConcurrentStats().freezes, 0u);
  EXPECT_GT(read_ops.load(), 0u);
}

TEST(ConcurrentStressTest, ReadersSurviveAMergeStorm) {
  // Merges forced back-to-back while readers run: exercises the
  // rotate/build/publish pipeline and epoch reclamation under constant
  // version churn.
  auto keys = SeedKeys(30'000, testing::TestSeed(57));
  ConcRmi::Config cfg;
  cfg.base.num_leaf_models = 256;
  cfg.policy.trigger = dynamic::MergeTrigger::kManual;
  cfg.log_cap = 256;
  ConcRmi idx;
  ASSERT_TRUE(idx.Build(keys, cfg).ok());

  FailureLog log;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> read_ops{0};
  const size_t max_live = keys.size() + 20'000;
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      ReaderBody(idx, stop, log, 7'000 + r, max_live, read_ops);
    });
  }
  Xorshift128Plus rng(testing::TestSeed(771));
  std::set<uint64_t> oracle(keys.begin(), keys.end());
  for (int storm = 0; storm < 25; ++storm) {
    for (int i = 0; i < 400; ++i) {
      const uint64_t k = rng.NextBounded(kKeySpace);
      ASSERT_EQ(idx.Insert(k), oracle.insert(k).second);
    }
    ASSERT_TRUE(idx.Merge().ok());
    ASSERT_EQ(idx.Stats().delta_entries, 0u);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  ASSERT_TRUE(log.ok()) << log.first();
  VerifySnapshot(idx, oracle, 0xbeef, 0);
  const auto cs = idx.ConcurrentStats();
  EXPECT_EQ(cs.merges, 25u);
  EXPECT_GT(cs.states_reclaimed, 0u);
}

}  // namespace
}  // namespace li
