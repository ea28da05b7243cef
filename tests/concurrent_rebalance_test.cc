// Online shard re-balancing under skewed insert streams (the drift case
// ShardedIndex's split/coalesce machinery exists to absorb), TSan-able
// like the rest of the concurrent suite.
//
// Coverage:
//  * append/moving-hotspot and zipf insert skews vs a std::set oracle,
//    free-racing writers (disjoint owned key slices, so return values
//    stay exactly checkable with no external serialization) +
//    free-running readers, with linearizable snapshot checks landing
//    *between* split/coalesce publishes (the rebalance worker keeps
//    running while the snapshots are verified);
//  * the post-rebalance invariant: max/mean shard mass bounded by the
//    configured imbalance factor once the worker quiesces;
//  * coalescing of erase-drained shards;
//  * fixed boundaries when rebalancing is disabled (the pre-PR-5
//    behavior stays available);
//  * the knob clamp: a zero check stride and scan chunk still split;
//  * shard-grouped LookupBatch == per-key Lookup across publishes.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "concurrent/concurrent_writable_index.h"
#include "concurrent/sharded_index.h"
#include "data/datasets.h"
#include "lif/measure.h"
#include "rmi/rmi.h"
#include "test_seed.h"

namespace li {
namespace {

using ConcRmi = concurrent::ConcurrentWritableIndex<rmi::LinearRmi>;
using ShardedRmi = concurrent::ShardedIndex<ConcRmi>;

/// First failure observed by any thread; asserted on the main thread
/// (gtest asserts are not thread-safe off-thread).
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

/// Small shards, aggressive thresholds: splits and coalesces fire within
/// a few thousand ops instead of millions.
ShardedRmi::Config RebalancingConfig(size_t shards, double factor) {
  ShardedRmi::Config cfg;
  cfg.inner.base.num_leaf_models = 64;
  cfg.inner.policy.min_delta_entries = 256;
  cfg.inner.policy.max_delta_entries = 512;
  cfg.inner.log_cap = 128;
  cfg.num_shards = shards;
  cfg.rebalance.enabled = true;
  cfg.rebalance.max_imbalance = factor;
  cfg.rebalance.min_split_keys = 512;
  cfg.rebalance.check_stride = 64;
  return cfg;
}

/// Free-running reader: invariants that hold at any instant, even with
/// writes, merges and rebalance publishes in flight. Every 64th op runs
/// the shard-grouped batch path so cutovers race it under TSan.
void ReaderBody(const ShardedRmi& idx, const std::atomic<bool>& stop,
                FailureLog& log, uint64_t seed, size_t max_live,
                uint64_t key_space) {
  Xorshift128Plus rng(seed);
  std::vector<uint64_t> batch(32);
  std::vector<size_t> ranks(32);
  uint64_t ops = 0;
  while (!stop.load(std::memory_order_relaxed) && log.ok()) {
    const uint64_t q = rng.NextBounded(key_space);
    const size_t rank = idx.Lookup(q);
    if (rank > max_live) {
      log.Record("Lookup rank " + std::to_string(rank) +
                 " exceeds live-count envelope");
      return;
    }
    (void)idx.Contains(q);
    if ((ops & 63) == 0) {
      for (auto& b : batch) b = rng.NextBounded(key_space);
      idx.LookupBatch(batch, ranks);
      for (const size_t r : ranks) {
        if (r > max_live) {
          log.Record("LookupBatch rank exceeds live-count envelope");
          return;
        }
      }
      const auto scan = idx.Scan(q, 24);
      for (size_t i = 0; i + 1 < scan.size(); ++i) {
        if (!(scan[i] < scan[i + 1])) {
          log.Record("Scan not strictly ascending across shards");
          return;
        }
      }
    }
    ++ops;
  }
}

/// Quiesced-writer snapshot check: exact oracle equivalence. The
/// rebalance worker may still be publishing new ShardMaps underneath —
/// reads must stay exact because no write is in flight.
void VerifySnapshot(const ShardedRmi& idx, const std::set<uint64_t>& oracle,
                    uint64_t seed, uint64_t key_space) {
  const std::vector<uint64_t> ref(oracle.begin(), oracle.end());
  ASSERT_EQ(idx.size(), ref.size());
  ASSERT_EQ(idx.Scan(0, ref.size() + 10), ref);
  Xorshift128Plus rng(seed);
  std::vector<uint64_t> probes;
  for (int p = 0; p < 400; ++p) probes.push_back(rng.NextBounded(key_space));
  std::vector<size_t> batched(probes.size());
  idx.LookupBatch(probes, batched);
  for (size_t p = 0; p < probes.size(); ++p) {
    const uint64_t q = probes[p];
    const size_t want = static_cast<size_t>(
        std::lower_bound(ref.begin(), ref.end(), q) - ref.begin());
    ASSERT_EQ(idx.Lookup(q), want) << "probe " << q;
    ASSERT_EQ(batched[p], want) << "batched probe " << q;
    ASSERT_EQ(idx.Contains(q), oracle.count(q) > 0) << "probe " << q;
  }
}

/// Full quiesce: one request catches drift the last check_stride
/// missed, and the self-re-arming worker drains every remaining
/// split/coalesce before WaitForRebalances returns.
void DrainRebalances(ShardedRmi& idx) {
  idx.RequestRebalance();
  idx.WaitForRebalances();
  idx.WaitForMerges();
  ASSERT_TRUE(idx.last_rebalance_status().ok());
}

/// Skewed writers + readers + live rebalancing, with NO external writer
/// serialization: writer w owns the insert-stream positions congruent
/// to w (disjoint, duplicate-free, fresh keys), so Insert/Erase return
/// values are exactly checkable without any lock while the writers
/// genuinely race each other — and the seal/dual-write/cutover
/// machinery — through the index. The oracle is folded in post-hoc per
/// round (deterministic from the ownership scheme); erases tombstone
/// every 5th owned key so splits replay both op kinds.
void RunSkewedStress(ShardedRmi& idx, const std::vector<uint64_t>& base,
                     const std::vector<uint64_t>& inserts, size_t writers,
                     uint64_t key_space, uint64_t seed) {
  std::set<uint64_t> oracle(base.begin(), base.end());
  FailureLog log;
  std::atomic<bool> stop{false};
  const size_t max_live = base.size() + inserts.size() + 1;

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      ReaderBody(idx, stop, log, seed * 31 + r, max_live, key_space);
    });
  }
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    const size_t lo = round * inserts.size() / kRounds;
    const size_t hi = (round + 1) * inserts.size() / kRounds;
    std::vector<std::thread> pool;
    for (size_t w = 0; w < writers; ++w) {
      pool.emplace_back([&, w] {
        for (size_t i = lo + w; i < hi && log.ok(); i += writers) {
          if (!idx.Insert(inserts[i])) {
            log.Record("Insert of owned fresh key returned false");
            return;
          }
        }
        for (size_t i = lo + w; i < hi && log.ok(); i += 5 * writers) {
          if (!idx.Erase(inserts[i])) {
            log.Record("Erase of owned live key returned false");
            return;
          }
        }
      });
    }
    for (std::thread& t : pool) t.join();
    ASSERT_TRUE(log.ok()) << log.first();
    for (size_t i = lo; i < hi; ++i) oracle.insert(inserts[i]);
    for (size_t w = 0; w < writers; ++w) {
      for (size_t i = lo + w; i < hi; i += 5 * writers) {
        oracle.erase(inserts[i]);
      }
    }
    // Linearizable snapshot between publishes, readers still hammering.
    VerifySnapshot(idx, oracle, seed ^ (round + 1), key_space);
    if (::testing::Test::HasFatalFailure()) break;
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  ASSERT_TRUE(log.ok()) << log.first();
  DrainRebalances(idx);
  VerifySnapshot(idx, oracle, seed ^ 0xabcd, key_space);
}

TEST(ShardRebalanceTest, AppendHotspotSplitsAndBoundsImbalance) {
  // Pure append beyond the max build key: every insert lands in the
  // rightmost shard — the unbounded-head-shard case.
  const auto keys = SeedKeys(16'000, testing::TestSeed(71));
  auto cfg = RebalancingConfig(4, 2.0);
  ShardedRmi idx;
  ASSERT_TRUE(idx.Build(keys, cfg).ok());
  std::set<uint64_t> oracle(keys.begin(), keys.end());
  uint64_t next = keys.back() + 1;
  Xorshift128Plus rng(testing::TestSeed(711));
  for (int i = 0; i < 16'000; ++i) {
    const uint64_t k = next;
    next += 1 + rng.NextBounded(16);
    ASSERT_EQ(idx.Insert(k), oracle.insert(k).second);
  }
  DrainRebalances(idx);
  const auto cs = idx.ConcurrentStats();
  EXPECT_GT(cs.shard_splits, 0u);
  EXPECT_GT(cs.shards, 4u);
  EXPECT_GT(cs.shard_maps_published, 1u);
  EXPECT_LE(cs.shard_imbalance, cfg.rebalance.max_imbalance + 0.05);
  VerifySnapshot(idx, oracle, 0x71, next + 100);
}

TEST(ShardRebalanceTest, EraseDrainedShardsCoalesce) {
  const auto keys = SeedKeys(24'000, testing::TestSeed(73));
  auto cfg = RebalancingConfig(8, 2.0);
  ShardedRmi idx;
  ASSERT_TRUE(idx.Build(keys, cfg).ok());
  // Drain everything below the 6/8 quantile: the left shards empty out
  // and must coalesce away.
  std::set<uint64_t> oracle(keys.begin(), keys.end());
  const uint64_t cut = keys[keys.size() * 6 / 8];
  for (const uint64_t k : keys) {
    if (k < cut) {
      ASSERT_TRUE(idx.Erase(k));
      oracle.erase(k);
    }
  }
  DrainRebalances(idx);
  const auto cs = idx.ConcurrentStats();
  EXPECT_GT(cs.shard_coalesces, 0u);
  EXPECT_LT(cs.shards, 8u);
  VerifySnapshot(idx, oracle, 0x73, keys.back() + 100);
}

TEST(ShardRebalanceTest, DisabledRebalanceKeepsBoundariesFixed) {
  const auto keys = SeedKeys(8'000, testing::TestSeed(79));
  auto cfg = RebalancingConfig(4, 2.0);
  cfg.rebalance.enabled = false;
  ShardedRmi idx;
  ASSERT_TRUE(idx.Build(keys, cfg).ok());
  uint64_t next = keys.back() + 1;
  for (int i = 0; i < 8'000; ++i) idx.Insert(next += 2);
  idx.WaitForRebalances();
  idx.WaitForMerges();
  const auto cs = idx.ConcurrentStats();
  EXPECT_EQ(cs.shard_splits, 0u);
  EXPECT_EQ(cs.shard_coalesces, 0u);
  EXPECT_EQ(cs.shard_maps_published, 1u);
  EXPECT_EQ(cs.shards, 4u);
  EXPECT_GT(cs.shard_imbalance, 2.0);  // the drift rebalancing would fix
}

TEST(ShardRebalanceTest, ZipfInsertStressAgainstOracle) {
  const auto keys = SeedKeys(16'000, testing::TestSeed(83));
  lif::InsertSkew skew;
  skew.kind = lif::InsertSkew::Kind::kZipf;
  skew.zipf_s = 1.2;
  const lif::ReadWriteWorkload w = lif::MakeSkewedReadWriteWorkload(
      keys, 12'000, 1.0, 64, 833, skew);
  ShardedRmi idx;
  ASSERT_TRUE(idx.Build(w.base, RebalancingConfig(4, 2.0)).ok());
  RunSkewedStress(idx, w.base, w.inserts, /*writers=*/3,
                  /*key_space=*/keys.back() + 200'000,
                  /*seed=*/testing::TestSeed(3003));
  EXPECT_GT(idx.ConcurrentStats().shard_splits, 0u);
}

TEST(ShardRebalanceTest, MovingHotspotStressAgainstOracle) {
  const auto keys = SeedKeys(16'000, testing::TestSeed(89));
  lif::InsertSkew skew;
  skew.kind = lif::InsertSkew::Kind::kMovingHotspot;
  skew.hotspot_fraction = 0.05;
  const lif::ReadWriteWorkload w = lif::MakeSkewedReadWriteWorkload(
      keys, 12'000, 1.0, 64, 899, skew);
  ShardedRmi idx;
  ASSERT_TRUE(idx.Build(w.base, RebalancingConfig(4, 2.0)).ok());
  RunSkewedStress(idx, w.base, w.inserts, /*writers=*/3,
                  /*key_space=*/keys.back() + 200'000,
                  /*seed=*/testing::TestSeed(4004));
}

TEST(ShardRebalanceTest, ManualRequestWorksWithAutoTriggerOff) {
  const auto keys = SeedKeys(12'000, testing::TestSeed(97));
  auto cfg = RebalancingConfig(2, 1.4);
  cfg.rebalance.enabled = false;  // no writer-side trigger...
  ShardedRmi idx;
  ASSERT_TRUE(idx.Build(keys, cfg).ok());
  uint64_t next = keys.back() + 1;
  for (int i = 0; i < 16'000; ++i) idx.Insert(next += 2);
  // ...but an explicit request still rebalances.
  DrainRebalances(idx);
  EXPECT_GT(idx.ConcurrentStats().shard_splits, 0u);
  EXPECT_LE(idx.CurrentImbalance(), cfg.rebalance.max_imbalance + 0.05);
}

TEST(ShardRebalanceTest, ZeroStrideIsClampedAtBuild) {
  // A stride of 0 would be a modulo by zero in the writer-side monitor;
  // Build clamps it to 1 instead of trusting the knob.
  const auto keys = SeedKeys(4'000, testing::TestSeed(101));
  auto cfg = RebalancingConfig(4, 2.0);
  cfg.rebalance.check_stride = 0;
  ShardedRmi idx;
  ASSERT_TRUE(idx.Build(keys, cfg).ok());
  std::set<uint64_t> oracle(keys.begin(), keys.end());
  uint64_t next = keys.back() + 1;
  for (int i = 0; i < 40'000 && idx.ConcurrentStats().shard_splits == 0;
       ++i) {
    ASSERT_EQ(idx.Insert(next), oracle.insert(next).second);
    next += 3;
  }
  DrainRebalances(idx);
  EXPECT_GT(idx.ConcurrentStats().shard_splits, 0u);
  VerifySnapshot(idx, oracle, 0x101, next + 100);
}

}  // namespace
}  // namespace li
