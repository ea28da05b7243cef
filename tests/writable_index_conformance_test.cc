// Conformance suite for the WritableRangeIndex contract: static concept
// gates, insert/erase/merge equivalence against a std::set oracle across
// all merge policies, a property test that Lookup after any interleaving
// of writes and merges matches a from-scratch rebuild, and the
// duplicate-key merge regression inherited from the old inline example (a
// delta key equal to a base key mid-run must survive as exactly one
// copy). The oracle stream is generic over the implementation, so the
// same suite is the source of truth for *every* writable index:
// dynamic::DeltaRangeIndex and the concurrent wrappers
// (ConcurrentWritableIndex, ShardedIndex) driven single-threaded — their
// multi-threaded behavior is covered by concurrent_stress_test.cc. The
// delta's base-fence seek gets edge-case streams of its own (skewed
// runs, empty base, delta keys on base keys) for both index classes.
//
// Also hosts the Scan allocation regression: this translation unit
// replaces the global operator new/delete with counting versions, and
// asserts DeltaRangeIndex::Scan allocates exactly once (the returned
// vector), i.e. the rank prefix sums hoisted into the consolidation step
// keep the read path reservation-exact.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "btree/dynamic_btree.h"
#include "btree/readonly_btree.h"
#include "common/random.h"
#include "concurrent/concurrent_writable_index.h"
#include "concurrent/sharded_index.h"
#include "data/datasets.h"
#include "dynamic/delta_buffer.h"
#include "dynamic/delta_range_index.h"
#include "dynamic/merge_policy.h"
#include "index/range_index.h"
#include "index/writable_range_index.h"
#include "rmi/rmi.h"
#include "test_seed.h"
#include "wal/wal.h"

// ---- Counting allocator hooks (for the Scan regression) ----
// External linkage is required for the replacements to take effect; the
// counter itself stays internal.
static std::atomic<uint64_t> g_heap_allocs{0};

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace li {
namespace {

using DeltaRmi = dynamic::DeltaRangeIndex<rmi::LinearRmi>;
using DeltaBtree = dynamic::DeltaRangeIndex<btree::ReadOnlyBTree>;
using DeltaBtreeMap = dynamic::DeltaRangeIndex<btree::BTreeMap>;
using ConcRmi = concurrent::ConcurrentWritableIndex<rmi::LinearRmi>;
using ShardedRmi = concurrent::ShardedIndex<ConcRmi>;

// ---- Static acceptance gate ----
static_assert(index::WritableRangeIndex<DeltaRmi>);
static_assert(index::WritableRangeIndex<DeltaBtree>);
static_assert(index::WritableRangeIndex<DeltaBtreeMap>);
// A writable index is still a RangeIndex (read-only call sites keep
// working), and the wrapper ships a native batch path.
static_assert(index::RangeIndex<DeltaRmi>);
static_assert(index::HasNativeLookupBatch<DeltaRmi>);
// Read-only structures must NOT satisfy the writable contract.
static_assert(!index::WritableRangeIndex<rmi::LinearRmi>);
static_assert(!index::WritableRangeIndex<btree::ReadOnlyBTree>);
static_assert(!index::WritableRangeIndex<btree::BTreeMap>);

DeltaRmi::Config RmiConfigFor(size_t n, dynamic::MergePolicy policy,
                              size_t active_cap = 256) {
  DeltaRmi::Config c;
  c.base.num_leaf_models = std::max<size_t>(32, n / 100);
  c.policy = policy;
  c.active_cap = active_cap;
  return c;
}

size_t OracleRank(const std::vector<uint64_t>& sorted, uint64_t key) {
  return static_cast<size_t>(
      std::lower_bound(sorted.begin(), sorted.end(), key) - sorted.begin());
}

/// The first `limit` oracle keys >= `from`.
std::vector<uint64_t> OracleScan(const std::vector<uint64_t>& sorted,
                                 uint64_t from, size_t limit) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), from);
  const size_t n = std::min<size_t>(limit, sorted.end() - it);
  return std::vector<uint64_t>(it, it + static_cast<ptrdiff_t>(n));
}

/// Drives idx and a std::set oracle through the same op stream and checks
/// full equivalence (liveness booleans per op; ranks, membership, scans
/// and size at checkpoints). Generic over the implementation: the same
/// stream is the source of truth for the single-threaded delta index and
/// the concurrent wrappers alike.
template <index::WritableRangeIndex Idx>
void RunOracleStream(Idx& idx, std::set<uint64_t>& oracle,
                     size_t num_ops, uint64_t seed, uint64_t key_space,
                     bool manual_merges) {
  Xorshift128Plus rng(seed);
  // Windowed scans draw from their own stream (the op stream stays as
  // it was) and start half the time just below a recent write, so the
  // window often holds unmerged writes.
  Xorshift128Plus scan_rng(seed ^ 0x5ca1ab1e);
  std::vector<uint64_t> recent(64, 0);
  for (size_t i = 0; i < num_ops; ++i) {
    const uint64_t k = rng.NextBounded(key_space);
    recent[i % recent.size()] = k;
    switch (rng.NextBounded(4)) {
      case 0:
      case 1: {
        ASSERT_EQ(idx.Insert(k), oracle.insert(k).second) << "op " << i;
        break;
      }
      case 2: {
        ASSERT_EQ(idx.Erase(k), oracle.erase(k) > 0) << "op " << i;
        break;
      }
      default:
        ASSERT_EQ(idx.Contains(k), oracle.count(k) > 0) << "op " << i;
    }
    if (manual_merges && i % 977 == 976) ASSERT_TRUE(idx.Merge().ok());
    if (i % 1500 == 1499) {
      ASSERT_EQ(idx.size(), oracle.size()) << "op " << i;
      const std::vector<uint64_t> ref(oracle.begin(), oracle.end());
      for (int p = 0; p < 50; ++p) {
        const uint64_t q = rng.NextBounded(key_space + 100);
        ASSERT_EQ(idx.Lookup(q), OracleRank(ref, q)) << "op " << i;
      }
      const uint64_t span = key_space / std::max<size_t>(ref.size(), 1) * 300;
      for (int p = 0; p < 50; ++p) {
        const uint64_t near = recent[scan_rng.NextBounded(recent.size())];
        const uint64_t q =
            p % 2 == 0 ? scan_rng.NextBounded(key_space + 100)
                       : near - std::min(near, scan_rng.NextBounded(span));
        const size_t limit = 1 + scan_rng.NextBounded(300);
        ASSERT_EQ(idx.Scan(q, limit), OracleScan(ref, q, limit))
            << "op " << i << " from " << q << " limit " << limit;
      }
    }
  }
  // Final: the whole live set in order, and batch lookups agree.
  const std::vector<uint64_t> ref(oracle.begin(), oracle.end());
  ASSERT_EQ(idx.size(), ref.size());
  ASSERT_EQ(idx.Scan(0, ref.size() + 10), ref);
  std::vector<uint64_t> qs;
  Xorshift128Plus qrng(seed ^ 7);
  for (int p = 0; p < 1000; ++p) qs.push_back(qrng.NextBounded(key_space));
  std::vector<size_t> out(qs.size());
  index::LookupBatch(idx, std::span<const uint64_t>(qs),
                     std::span<size_t>(out));
  for (size_t p = 0; p < qs.size(); ++p) {
    ASSERT_EQ(out[p], OracleRank(ref, qs[p]));
    ASSERT_EQ(idx.Lookup(qs[p]), OracleRank(ref, qs[p]));
  }
}

std::vector<uint64_t> SeedKeys(size_t n, uint64_t seed) {
  auto keys = data::GenLognormal(n, seed);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

TEST(WritableOracleTest, SizeThresholdPolicyMatchesSet) {
  const auto keys = SeedKeys(20'000, 11);
  dynamic::MergePolicy policy;  // defaults: size threshold
  policy.min_delta_entries = 512;
  policy.max_delta_entries = 1024;  // force frequent merges
  DeltaRmi idx;
  ASSERT_TRUE(idx.Build(keys, RmiConfigFor(keys.size(), policy, 64)).ok());
  std::set<uint64_t> oracle(keys.begin(), keys.end());
  RunOracleStream(idx, oracle, 12'000, 101, 2'000'000'000, false);
  EXPECT_GT(idx.Stats().merges, 0u);
}

TEST(WritableOracleTest, ManualPolicyWithExplicitMergesMatchesSet) {
  const auto keys = SeedKeys(20'000, 13);
  dynamic::MergePolicy policy;
  policy.trigger = dynamic::MergeTrigger::kManual;
  DeltaRmi idx;
  ASSERT_TRUE(idx.Build(keys, RmiConfigFor(keys.size(), policy)).ok());
  std::set<uint64_t> oracle(keys.begin(), keys.end());
  RunOracleStream(idx, oracle, 12'000, 103, 2'000'000'000, true);
  const auto stats = idx.Stats();
  EXPECT_GT(stats.merges, 0u);
  EXPECT_GT(stats.inserts, 0u);
  EXPECT_GT(stats.erases, 0u);
}

// The property test of the ISSUE: after ANY interleaving of inserts,
// erases and merges, Lookup must match a from-scratch rebuild over the
// final live key set.
TEST(WritablePropertyTest, InterleavedWritesMatchFromScratchRebuild) {
  for (const uint64_t seed : {21u, 22u, 23u, 24u}) {
    const auto keys = SeedKeys(8'000, seed);
    dynamic::MergePolicy policy;
    policy.min_delta_entries = 256;
    policy.max_delta_entries = 700 + seed * 97;  // vary merge points
    DeltaRmi idx;
    ASSERT_TRUE(
        idx.Build(keys, RmiConfigFor(keys.size(), policy, 32 + seed)).ok());
    std::set<uint64_t> oracle(keys.begin(), keys.end());
    Xorshift128Plus rng(seed * 7919);
    for (int i = 0; i < 6'000; ++i) {
      const uint64_t k = rng.NextBounded(1'000'000'000);
      if (rng.NextBounded(3) == 0) {
        idx.Erase(k);
        oracle.erase(k);
      } else {
        idx.Insert(k);
        oracle.insert(k);
      }
      if (rng.NextBounded(997) == 0) ASSERT_TRUE(idx.Merge().ok());
    }
    // From-scratch rebuild over the final live set.
    const std::vector<uint64_t> live(oracle.begin(), oracle.end());
    DeltaRmi rebuilt;
    ASSERT_TRUE(
        rebuilt.Build(live, RmiConfigFor(live.size(), policy)).ok());
    ASSERT_EQ(idx.size(), rebuilt.size());
    for (int p = 0; p < 3'000; ++p) {
      const uint64_t q = rng.NextBounded(1'000'000'100);
      ASSERT_EQ(idx.Lookup(q), rebuilt.Lookup(q)) << "seed " << seed;
    }
    ASSERT_EQ(idx.Scan(0, live.size() + 1), live);
  }
}

// Regression for the old examples/delta_inserts.cpp inline merge loop:
// when a delta key equals a base key mid-run, the merged base must hold
// exactly one copy (the old loop dropped the base copy and kept the
// delta's — correct result, but never verified; and with tombstones in
// the mix the invariant is easy to break). Every duplicate pattern:
// dup at front, mid-run, back, plus erase-then-reinsert.
TEST(WritableMergeTest, DuplicateBaseAndDeltaKeysMergeToOneCopy) {
  const std::vector<uint64_t> base = {10, 20, 30, 40, 50};
  dynamic::MergePolicy manual;
  manual.trigger = dynamic::MergeTrigger::kManual;
  DeltaRmi idx;
  ASSERT_TRUE(idx.Build(base, RmiConfigFor(base.size(), manual)).ok());

  EXPECT_FALSE(idx.Insert(10));  // dup of first base key
  EXPECT_FALSE(idx.Insert(30));  // dup mid-run
  EXPECT_FALSE(idx.Insert(50));  // dup of last base key
  EXPECT_TRUE(idx.Insert(25));   // genuinely new, between base keys
  EXPECT_EQ(idx.size(), 6u);

  ASSERT_TRUE(idx.Merge().ok());
  EXPECT_EQ(idx.size(), 6u);
  EXPECT_EQ(idx.Scan(0, 100),
            (std::vector<uint64_t>{10, 20, 25, 30, 40, 50}));
  // Ranks stay lower_bound-exact after the dedupe.
  EXPECT_EQ(idx.Lookup(30), 3u);
  EXPECT_EQ(idx.Lookup(31), 4u);
  EXPECT_EQ(idx.Lookup(9), 0u);
  EXPECT_EQ(idx.Lookup(51), 6u);

  // Erase a base key, re-insert it, merge: still one copy.
  EXPECT_TRUE(idx.Erase(20));
  EXPECT_FALSE(idx.Contains(20));
  EXPECT_TRUE(idx.Insert(20));
  ASSERT_TRUE(idx.Merge().ok());
  EXPECT_EQ(idx.Scan(0, 100),
            (std::vector<uint64_t>{10, 20, 25, 30, 40, 50}));
}

TEST(WritableMergeTest, TombstonesFoldAtMergeAndBaseShrinks) {
  const auto keys = SeedKeys(5'000, 31);
  dynamic::MergePolicy manual;
  manual.trigger = dynamic::MergeTrigger::kManual;
  DeltaRmi idx;
  ASSERT_TRUE(idx.Build(keys, RmiConfigFor(keys.size(), manual)).ok());
  for (size_t i = 0; i < keys.size(); i += 2) {
    EXPECT_TRUE(idx.Erase(keys[i]));
  }
  EXPECT_FALSE(idx.Erase(keys[0]));  // double erase: no longer live
  ASSERT_TRUE(idx.Merge().ok());
  EXPECT_EQ(idx.Stats().base_keys, keys.size() - (keys.size() + 1) / 2);
  EXPECT_EQ(idx.Stats().delta_entries, 0u);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(idx.Contains(keys[i]), i % 2 == 1) << i;
  }
}

TEST(WritableIndexTest, EmptyBuildThenInsertsAndMerge) {
  dynamic::MergePolicy manual;
  manual.trigger = dynamic::MergeTrigger::kManual;
  DeltaRmi idx;
  ASSERT_TRUE(idx.Build({}, RmiConfigFor(1, manual)).ok());
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_EQ(idx.Lookup(42), 0u);
  EXPECT_TRUE(idx.Insert(7));
  EXPECT_TRUE(idx.Insert(3));
  EXPECT_FALSE(idx.Insert(7));
  EXPECT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx.Lookup(5), 1u);
  ASSERT_TRUE(idx.Merge().ok());
  EXPECT_EQ(idx.Scan(0, 10), (std::vector<uint64_t>{3, 7}));
}

TEST(WritableIndexTest, NonRmiBasesServeTheSameContract) {
  const auto keys = SeedKeys(10'000, 41);
  dynamic::MergePolicy policy;
  policy.min_delta_entries = 256;
  policy.max_delta_entries = 512;

  DeltaBtree bt;
  DeltaBtree::Config bt_cfg;
  bt_cfg.base.keys_per_page = 64;
  bt_cfg.policy = policy;
  ASSERT_TRUE(bt.Build(keys, bt_cfg).ok());

  DeltaBtreeMap btm;
  DeltaBtreeMap::Config btm_cfg;
  btm_cfg.policy = policy;
  ASSERT_TRUE(btm.Build(keys, btm_cfg).ok());

  std::set<uint64_t> oracle(keys.begin(), keys.end());
  Xorshift128Plus rng(404);
  for (int i = 0; i < 3'000; ++i) {
    const uint64_t k = rng.NextBounded(2'000'000'000);
    if (rng.NextBounded(3) == 0) {
      const bool was = oracle.erase(k) > 0;
      EXPECT_EQ(bt.Erase(k), was);
      EXPECT_EQ(btm.Erase(k), was);
    } else {
      const bool fresh = oracle.insert(k).second;
      EXPECT_EQ(bt.Insert(k), fresh);
      EXPECT_EQ(btm.Insert(k), fresh);
    }
  }
  const std::vector<uint64_t> ref(oracle.begin(), oracle.end());
  EXPECT_EQ(bt.size(), ref.size());
  EXPECT_EQ(btm.size(), ref.size());
  for (int p = 0; p < 1'500; ++p) {
    const uint64_t q = rng.NextBounded(2'000'000'100);
    EXPECT_EQ(bt.Lookup(q), OracleRank(ref, q));
    EXPECT_EQ(btm.Lookup(q), OracleRank(ref, q));
  }
  EXPECT_GT(bt.Stats().merges, 0u);
}

TEST(WritableIndexTest, StatsTrackOpsAndMerges) {
  const auto keys = SeedKeys(2'000, 51);
  dynamic::MergePolicy manual;
  manual.trigger = dynamic::MergeTrigger::kManual;
  DeltaRmi idx;
  ASSERT_TRUE(idx.Build(keys, RmiConfigFor(keys.size(), manual)).ok());
  const uint64_t fresh1 = keys.back() + 1, fresh2 = keys.back() + 2;
  idx.Insert(fresh1);
  idx.Insert(fresh2);
  idx.Erase(keys[0]);
  idx.Contains(fresh1);   // delta hit
  idx.Contains(keys[1]);  // base hit
  idx.Lookup(12345);
  ASSERT_TRUE(idx.Merge().ok());
  const auto s = idx.Stats();
  EXPECT_EQ(s.inserts, 2u);
  EXPECT_EQ(s.erases, 1u);
  EXPECT_EQ(s.lookups, 3u);
  EXPECT_EQ(s.contains, 2u);
  EXPECT_EQ(s.delta_hits, 1u);
  EXPECT_EQ(s.merges, 1u);
  EXPECT_GT(s.last_merge_ns, 0.0);
  EXPECT_EQ(s.base_keys, keys.size() + 1);  // +2 inserts -1 erase
  EXPECT_DOUBLE_EQ(s.DeltaHitRate(), 0.5);  // 1 delta hit / 2 Contains
}

// ---- Concurrent wrappers through the same oracle suite ----
// Single-threaded here by design: writable *semantics* have one source of
// truth, this stream. The wrappers' thread-safety is stressed separately.

static_assert(index::WritableRangeIndex<ConcRmi>);
static_assert(index::WritableRangeIndex<ShardedRmi>);

TEST(WritableOracleTest, ConcurrentWrapperMatchesSet) {
  const auto keys = SeedKeys(20'000, 14);
  ConcRmi::Config cfg;
  cfg.base.num_leaf_models = std::max<size_t>(32, keys.size() / 100);
  cfg.policy.min_delta_entries = 512;
  cfg.policy.max_delta_entries = 1024;  // frequent background merges
  cfg.log_cap = 128;                    // frequent freeze folds
  ConcRmi idx;
  ASSERT_TRUE(idx.Build(keys, cfg).ok());
  std::set<uint64_t> oracle(keys.begin(), keys.end());
  RunOracleStream(idx, oracle, 12'000, 104, 2'000'000'000, false);
  idx.WaitForMerges();
  EXPECT_GT(idx.Stats().merges, 0u);
}

// Dense keys: the stream's erases and re-inserts hit live keys, so the
// windowed scans meet log erases inside and just past their windows.
TEST(WritableOracleTest, ConcurrentWrapperDenseKeysMatchSet) {
  for (const size_t log_cap : {32, 96, 256}) {
    std::vector<uint64_t> keys(3'000);
    for (size_t i = 0; i < keys.size(); ++i) keys[i] = 2 * i;
    ConcRmi::Config cfg;
    cfg.base.num_leaf_models = 32;
    cfg.policy.min_delta_entries = 200;
    cfg.policy.max_delta_entries = 400;
    cfg.log_cap = log_cap;
    ConcRmi idx;
    ASSERT_TRUE(idx.Build(keys, cfg).ok());
    std::set<uint64_t> oracle(keys.begin(), keys.end());
    RunOracleStream(idx, oracle, 6'000, 108 + log_cap, 6'200, false);
    idx.WaitForMerges();
    EXPECT_GT(idx.Stats().merges, 0u);
  }
}

TEST(WritableOracleTest, ConcurrentWrapperManualMergesMatchSet) {
  const auto keys = SeedKeys(20'000, 15);
  ConcRmi::Config cfg;
  cfg.base.num_leaf_models = std::max<size_t>(32, keys.size() / 100);
  cfg.policy.trigger = dynamic::MergeTrigger::kManual;
  cfg.log_cap = 64;
  ConcRmi idx;
  ASSERT_TRUE(idx.Build(keys, cfg).ok());
  std::set<uint64_t> oracle(keys.begin(), keys.end());
  RunOracleStream(idx, oracle, 12'000, 105, 2'000'000'000, true);
  EXPECT_GT(idx.Stats().merges, 0u);
}

TEST(WritableOracleTest, ShardedWrapperMatchesSet) {
  const auto keys = SeedKeys(20'000, 16);
  ShardedRmi::Config cfg;
  cfg.inner.base.num_leaf_models = 64;
  cfg.inner.policy.min_delta_entries = 256;
  cfg.inner.policy.max_delta_entries = 512;
  cfg.inner.log_cap = 64;
  cfg.num_shards = 4;
  ShardedRmi idx;
  ASSERT_TRUE(idx.Build(keys, cfg).ok());
  std::set<uint64_t> oracle(keys.begin(), keys.end());
  RunOracleStream(idx, oracle, 12'000, 106, 2'000'000'000, false);
  idx.WaitForMerges();
  EXPECT_GT(idx.Stats().merges, 0u);
  EXPECT_EQ(idx.ConcurrentStats().shards, 4u);
}

// A WAL-attached DeltaRangeIndex must pass the same oracle stream as the
// plain one — logging is write-path instrumentation, never a semantic
// change — and the log it leaves behind must reconstruct the exact final
// state from the pre-stream snapshot. Merges run throughout, so this
// also pins that consolidation does not disturb the LSN sequence.
TEST(WritableOracleTest, WalEnabledDeltaMatchesSetAndRecovers) {
  const auto keys = SeedKeys(20'000, 17);
  dynamic::MergePolicy policy;
  policy.min_delta_entries = 512;
  policy.max_delta_entries = 1024;
  DeltaRmi idx;
  ASSERT_TRUE(idx.Build(keys, RmiConfigFor(keys.size(), policy, 64)).ok());

  const std::string base = ::testing::TempDir() + "li_conf_wal_base.snap";
  wal::DurabilityConfig dcfg;
  dcfg.path = ::testing::TempDir() + "li_conf_wal.log";
  dcfg.fsync_every_n = 64;  // group commit; stream correctness is sync-free
  ASSERT_TRUE(idx.WriteSnapshot(base).ok());
  ASSERT_TRUE(idx.EnableDurability(dcfg).ok());

  std::set<uint64_t> oracle(keys.begin(), keys.end());
  RunOracleStream(idx, oracle, 12'000, 107, 2'000'000'000, false);
  EXPECT_GT(idx.Stats().merges, 0u);
  ASSERT_TRUE(idx.wal_status().ok());
  ASSERT_TRUE(idx.SyncWal().ok());
  EXPECT_GT(idx.DurabilityStats().appends, 0u);

  // Recovery equivalence: snapshot + full replay == the live index.
  auto reopened = DeltaRmi::OpenSnapshot(base);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  DeltaRmi rec = reopened.take();
  ASSERT_TRUE(rec.RecoverFromWal(dcfg).ok());
  const std::vector<uint64_t> ref(oracle.begin(), oracle.end());
  EXPECT_EQ(rec.size(), ref.size());
  EXPECT_EQ(rec.Scan(0, ref.size() + 10), ref);
  std::remove(base.c_str());
  std::remove(dcfg.path.c_str());
}

// ---- Base-fence edge cases ----
// A delta run is sought from the base rank through its base fence: the
// run's cursor at every S-th base key. These streams put the run where
// the fence has least to go on — every insert past the base max, in one
// gap between adjacent base keys, or below the base min; an empty base;
// a one-entry run — and put delta keys on base keys (shadowing inserts
// and tombstones). Every read is checked against the oracle at 0,
// UINT64_MAX, each stored or written key and its neighbours: as written,
// after a snapshot round trip (which rebuilds the fence), and after a
// merge plus a second batch of the same shape.

enum class FenceShape { kPastMax, kOneGap, kBelowMin, kOneEntry, kOnBaseKeys };

struct FenceOp {
  uint64_t key;
  bool erase;
};

/// One batch of `shape` over the live set `oracle` (whose keys are the
/// base at the first batch); `base` is the built base.
std::vector<FenceOp> FenceBatch(FenceShape shape,
                                const std::vector<uint64_t>& base,
                                const std::set<uint64_t>& oracle,
                                Xorshift128Plus& rng) {
  std::vector<FenceOp> ops;
  const uint64_t max = oracle.empty() ? 0 : *oracle.rbegin();
  switch (shape) {
    case FenceShape::kPastMax:
      for (int i = 0; i < 300; ++i) {
        ops.push_back({max + 1 + rng.NextBounded(1'000'000), false});
      }
      ops.push_back({UINT64_MAX, false});
      ops.push_back({UINT64_MAX - 1, false});
      break;
    case FenceShape::kOneGap: {
      // The widest gap between adjacent base keys, the one nearest the
      // middle among equals.
      uint64_t lo = 0, width = 0;
      for (size_t i = 0; i + 1 < base.size(); ++i) {
        const uint64_t w = base[i + 1] - base[i];
        if (w > width || (w == width && i <= base.size() / 2)) {
          lo = base[i];
          width = w;
        }
      }
      for (int i = 0; i < 300 && width > 1; ++i) {
        ops.push_back({lo + 1 + rng.NextBounded(width - 1), false});
      }
      break;
    }
    case FenceShape::kBelowMin: {
      // After the first batch the min is 0: the second one rewrites it.
      const uint64_t min = base.empty() ? 1'000 : base.front();
      for (int i = 0; i < 300; ++i) {
        ops.push_back({rng.NextBounded(min), false});
      }
      ops.push_back({0, false});
      break;
    }
    case FenceShape::kOneEntry:
      ops.push_back({base.empty() ? 77 : base[base.size() / 3] + 1, false});
      break;
    case FenceShape::kOnBaseKeys:
      // Tombstones on base keys, shadowing re-inserts of some of them,
      // inserts of live base keys and erases of absent keys.
      for (int i = 0; i < 300 && !base.empty(); ++i) {
        const uint64_t k = base[rng.NextBounded(base.size())];
        ops.push_back({k, true});
        if (i % 3 == 0) ops.push_back({k, false});
        if (i % 5 == 0) {
          ops.push_back({base[rng.NextBounded(base.size())], false});
        }
        if (i % 7 == 0) ops.push_back({k + 1, true});
      }
      break;
  }
  return ops;
}

/// Lookup, LookupBatch, Scan and Contains against the oracle at 0,
/// UINT64_MAX and every key of `touched` with its neighbours.
template <typename Idx>
void ExpectFenceReads(const Idx& idx, const std::set<uint64_t>& oracle,
                      const std::vector<uint64_t>& touched,
                      const std::string& where) {
  const std::vector<uint64_t> ref(oracle.begin(), oracle.end());
  std::vector<uint64_t> probes = {0, 1, UINT64_MAX - 1, UINT64_MAX};
  for (const uint64_t k : touched) {
    probes.push_back(k);
    if (k > 0) probes.push_back(k - 1);
    if (k < UINT64_MAX) probes.push_back(k + 1);
  }
  ASSERT_EQ(idx.size(), ref.size()) << where;
  ASSERT_EQ(idx.Scan(0, ref.size() + 10), ref) << where;
  std::vector<size_t> batch(probes.size());
  index::LookupBatch(idx, std::span<const uint64_t>(probes),
                     std::span<size_t>(batch));
  for (size_t i = 0; i < probes.size(); ++i) {
    const uint64_t q = probes[i];
    const size_t rank = OracleRank(ref, q);
    ASSERT_EQ(idx.Lookup(q), rank) << where << " q=" << q;
    ASSERT_EQ(batch[i], rank) << where << " batch q=" << q;
    ASSERT_EQ(idx.Contains(q), oracle.count(q) > 0) << where << " q=" << q;
    const size_t limit = 1 + i % 40;
    ASSERT_EQ(idx.Scan(q, limit), OracleScan(ref, q, limit))
        << where << " scan q=" << q << " limit " << limit;
  }
}

/// Applies `ops` to idx and the oracle, checking each liveness answer,
/// and records the written keys in `touched`.
template <typename Idx>
void ApplyFenceOps(Idx& idx, std::set<uint64_t>& oracle,
                   const std::vector<FenceOp>& ops,
                   std::vector<uint64_t>& touched) {
  for (const FenceOp& op : ops) {
    touched.push_back(op.key);
    if (op.erase) {
      ASSERT_EQ(idx.Erase(op.key), oracle.erase(op.key) > 0) << op.key;
    } else {
      ASSERT_EQ(idx.Insert(op.key), oracle.insert(op.key).second) << op.key;
    }
  }
}

template <typename Idx>
void RunFenceCase(FenceShape shape, bool empty_base,
                  const typename Idx::config_type& cfg,
                  const std::string& name) {
  std::vector<uint64_t> base;
  if (!empty_base) {
    for (uint64_t i = 1; i <= 4'000; ++i) base.push_back(1'000 * i);
  }
  Xorshift128Plus rng(testing::TestSeed(2100 + static_cast<uint64_t>(shape) +
                                        (empty_base ? 50 : 0)));
  Idx idx;
  ASSERT_TRUE(idx.Build(base, cfg).ok()) << name;
  std::set<uint64_t> oracle(base.begin(), base.end());
  std::vector<uint64_t> touched = base;
  ApplyFenceOps(idx, oracle, FenceBatch(shape, base, oracle, rng), touched);
  ExpectFenceReads(idx, oracle, touched, name + " written");
  if (::testing::Test::HasFatalFailure()) return;

  const std::string path = ::testing::TempDir() + "li_fence_" + name + ".snap";
  ASSERT_TRUE(idx.WriteSnapshot(path).ok()) << name;
  auto reopened = Idx::OpenSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(reopened.ok()) << name << ": " << reopened.status().message();
  Idx re = reopened.take();
  ExpectFenceReads(re, oracle, touched, name + " reopened");
  if (::testing::Test::HasFatalFailure()) return;

  ASSERT_TRUE(idx.Merge().ok()) << name;
  ExpectFenceReads(idx, oracle, touched, name + " merged");
  if (::testing::Test::HasFatalFailure()) return;
  const std::vector<uint64_t> merged_base(oracle.begin(), oracle.end());
  ApplyFenceOps(idx, oracle, FenceBatch(shape, merged_base, oracle, rng),
                touched);
  ExpectFenceReads(idx, oracle, touched, name + " second batch");
}

const struct {
  FenceShape shape;
  bool empty_base;
  const char* name;
} kFenceCases[] = {
    {FenceShape::kPastMax, false, "past_max"},
    {FenceShape::kOneGap, false, "one_gap"},
    {FenceShape::kBelowMin, false, "below_min"},
    {FenceShape::kOneEntry, false, "one_entry"},
    {FenceShape::kOnBaseKeys, false, "on_base_keys"},
    {FenceShape::kPastMax, true, "empty_base"},
    {FenceShape::kOneEntry, true, "empty_base_one_entry"},
};

TEST(FenceEdgeTest, DeltaIndexMatchesSet) {
  dynamic::MergePolicy manual;
  manual.trigger = dynamic::MergeTrigger::kManual;
  // A tiny active run: nearly every write lands in the consolidated run.
  const DeltaRmi::Config cfg = RmiConfigFor(4'000, manual, 4);
  for (const auto& c : kFenceCases) {
    RunFenceCase<DeltaRmi>(c.shape, c.empty_base, cfg,
                           std::string("delta_") + c.name);
    if (HasFatalFailure()) return;
  }
}

TEST(FenceEdgeTest, ConcurrentIndexMatchesSet) {
  ConcRmi::Config cfg;
  cfg.base.num_leaf_models = 40;
  cfg.policy.trigger = dynamic::MergeTrigger::kManual;
  cfg.log_cap = 2;  // every second write freezes into the frozen run
  for (const auto& c : kFenceCases) {
    RunFenceCase<ConcRmi>(c.shape, c.empty_base, cfg,
                          std::string("conc_") + c.name);
    if (HasFatalFailure()) return;
  }
}

// ---- Scan allocation regression ----
// DeltaRangeIndex::Scan used to reserve a fixed 1024-entry guess and grow
// from there, re-deriving the result size it could have read off the rank
// prefix sums maintained at consolidation time. It now reserves the exact
// result size up front; this regression pins the "exactly one allocation,
// the returned vector" property via the counting operator new above.

TEST(ScanAllocationRegressionTest, ScanAllocatesOnlyTheResultBuffer) {
  const auto keys = SeedKeys(10'000, 81);
  dynamic::MergePolicy manual;
  manual.trigger = dynamic::MergeTrigger::kManual;
  DeltaRmi idx;
  ASSERT_TRUE(idx.Build(keys, RmiConfigFor(keys.size(), manual, 64)).ok());
  std::set<uint64_t> oracle(keys.begin(), keys.end());
  // Populate both delta runs (active + consolidated) with inserts and
  // tombstones; no merge, so Scan exercises the full three-way path.
  Xorshift128Plus rng(811);
  for (int i = 0; i < 2'000; ++i) {
    const uint64_t k = rng.NextBounded(2'000'000'000);
    if (rng.NextBounded(4) == 0) {
      idx.Erase(k);
      oracle.erase(k);
    } else {
      idx.Insert(k);
      oracle.insert(k);
    }
  }
  const std::vector<uint64_t> ref(oracle.begin(), oracle.end());
  ASSERT_GT(idx.delta_entries(), 0u);
  const struct {
    uint64_t from;
    size_t limit;
  } cases[] = {
      {0, 100},                        // window inside the live set
      {ref[ref.size() / 2], 5'000},    // mid-range, large window
      {ref[ref.size() / 2], 1'500},    // window larger than the old 1024 guess
      {0, ref.size() + 1'000},         // limit beyond the live count
      {ref.back() + 1, 100},           // empty result
  };
  for (const auto& c : cases) {
    const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    const std::vector<uint64_t> got = idx.Scan(c.from, c.limit);
    const uint64_t allocs =
        g_heap_allocs.load(std::memory_order_relaxed) - before;
    EXPECT_LE(allocs, got.empty() ? 0u : 1u)
        << "Scan(from=" << c.from << ", limit=" << c.limit
        << ") must allocate the result buffer at most once";
    const auto it = std::lower_bound(ref.begin(), ref.end(), c.from);
    const std::vector<uint64_t> want(
        it, it + std::min<ptrdiff_t>(static_cast<ptrdiff_t>(c.limit),
                                     ref.end() - it));
    EXPECT_EQ(got, want);
  }
}

// ---- Merge-policy decision function ----

TEST(MergePolicyTest, SizeThresholdUsesTighterOfAbsoluteAndFraction) {
  dynamic::MergePolicy p;  // defaults: threshold trigger
  p.min_delta_entries = 100;
  p.max_delta_entries = 1000;
  p.max_delta_fraction = 0.10;
  // Base 5000: fraction cap = 500 (tighter than 1000).
  EXPECT_FALSE(dynamic::ShouldMerge(p, 499, 5000));
  EXPECT_TRUE(dynamic::ShouldMerge(p, 500, 5000));
  // Base 100k: absolute cap 1000 is tighter.
  EXPECT_FALSE(dynamic::ShouldMerge(p, 999, 100'000));
  EXPECT_TRUE(dynamic::ShouldMerge(p, 1000, 100'000));
  // Tiny base: the min floor prevents merge-per-write.
  EXPECT_FALSE(dynamic::ShouldMerge(p, 99, 10));
  EXPECT_TRUE(dynamic::ShouldMerge(p, 100, 10));
}

TEST(MergePolicyTest, ManualNeverAutoMerges) {
  dynamic::MergePolicy p;
  p.trigger = dynamic::MergeTrigger::kManual;
  EXPECT_FALSE(dynamic::ShouldMerge(p, 1 << 30, 10));
}

// ---- The delta buffer's rank bookkeeping in isolation ----

TEST(DeltaBufferTest, RankContributionsAndShadowing) {
  dynamic::DeltaBuffer<uint64_t> buf(4);  // tiny active run: consolidate often
  // Keys 10,20,30 in the paired base; 15,25 new.
  const std::vector<uint64_t> base = {10, 20, 30};
  const std::span<const uint64_t> b(base);
  auto seek = [&](uint64_t k) { return buf.Seek(k, OracleRank(base, k)); };
  auto upsert = [&](uint64_t k, bool tombstone, bool in_base) {
    buf.Upsert(seek(k), k, tombstone, in_base, b);
  };
  upsert(15, false, false);  // +1
  upsert(25, false, false);  // +1
  upsert(20, true, true);    // -1 (erase base key)
  upsert(10, false, true);   // 0 (re-insert of base key)
  EXPECT_EQ(buf.LiveAdjustTotal(), 1);
  EXPECT_EQ(buf.RankAdjustBelow(seek(10)), 0);
  EXPECT_EQ(buf.RankAdjustBelow(seek(16)), 1);   // the +1 at 15
  EXPECT_EQ(buf.RankAdjustBelow(seek(21)), 0);   // +1 at 15, -1 at 20
  EXPECT_EQ(buf.RankAdjustBelow(seek(100)), 1);
  // Newest write wins, and shadowing does not double-count: un-erase 20.
  upsert(20, false, true);  // now 0; consolidated -1 must be cancelled
  EXPECT_EQ(buf.RankAdjustBelow(seek(21)), 1);
  EXPECT_EQ(buf.LiveAdjustTotal(), 2);
  ASSERT_TRUE(buf.Find(20, OracleRank(base, 20)).has_value());
  EXPECT_FALSE(buf.Find(20, OracleRank(base, 20))->tombstone);
  // Visit sees the newest state per key, in order.
  std::vector<uint64_t> visited;
  buf.VisitAll([&](const dynamic::DeltaEntry<uint64_t>& e) {
    visited.push_back(e.key);
    EXPECT_FALSE(e.tombstone);
    return true;
  });
  EXPECT_EQ(visited, (std::vector<uint64_t>{10, 15, 20, 25}));
}

// A frozen run built from the run it replaces (the freeze path) takes
// most fence slots from that run's fence. Whatever entries the new run
// gained or lost, every seek must land where a lower_bound over the run
// does, and so must a fence built from scratch.
TEST(DeltaBufferTest, FenceFromThePreviousRunSeeksExactly) {
  using Buf = dynamic::DeltaBuffer<uint64_t>;
  Xorshift128Plus rng(testing::TestSeed(2200));
  std::vector<uint64_t> base;
  for (uint64_t i = 1; i <= 5'000; ++i) base.push_back(100 * i);
  auto entries_of = [&](const std::set<uint64_t>& keys) {
    std::vector<dynamic::DeltaEntry<uint64_t>> out;
    for (const uint64_t k : keys) {
      const bool in_base = k % 100 == 0 && k >= 100 && k <= base.back();
      out.push_back({k, rng.NextBounded(4) == 0, in_base});
    }
    return out;
  };
  auto expect_exact = [&](const Buf& buf, const std::set<uint64_t>& keys,
                          const std::string& where) {
    const std::vector<uint64_t> run(keys.begin(), keys.end());
    std::vector<uint64_t> probes = {0, UINT64_MAX};
    auto add = [&](uint64_t k) {
      probes.insert(probes.end(), {k - 1, k, k + 1});
    };
    for (const uint64_t k : run) add(k);
    for (const uint64_t k : base) add(k);
    for (const uint64_t q : probes) {
      ASSERT_EQ(buf.Seek(q, OracleRank(base, q)).consolidated,
                OracleRank(run, q))
          << where << " q=" << q;
    }
  };
  std::set<uint64_t> keys;
  while (keys.size() < 600) keys.insert(rng.NextBounded(base.back() + 5'000));
  Buf prev = Buf::FromSortedEntries(entries_of(keys), base, 2);
  expect_exact(prev, keys, "first run");
  for (int round = 0; round < 30 && !HasFatalFailure(); ++round) {
    // Drop some keys, add some — in clusters, so whole fence brackets
    // change — and now and then shrink the run below the fence's
    // slot count, which forces a fresh walk.
    std::set<uint64_t> next;
    for (const uint64_t k : keys) {
      if (rng.NextBounded(8) != 0) next.insert(k);
    }
    const uint64_t at = rng.NextBounded(base.back());
    for (int i = 0; i < 40; ++i) next.insert(at + rng.NextBounded(2'000));
    for (int i = 0; i < 40; ++i) {
      next.insert(rng.NextBounded(base.back() + 5'000));
    }
    if (round % 10 == 9) {
      while (next.size() > 50) next.erase(next.begin());
    }
    const auto entries = entries_of(next);
    const Buf buf = Buf::FromSortedEntries(entries, base, 2, &prev);
    expect_exact(buf, next, "round " + std::to_string(round));
    expect_exact(Buf::FromSortedEntries(entries, base, 2), next,
                 "fresh round " + std::to_string(round));
    prev = buf;
    keys = std::move(next);
  }
}

}  // namespace
}  // namespace li
