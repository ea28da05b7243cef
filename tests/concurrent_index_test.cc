// Unit tests for the concurrent subsystem's building blocks, exercised
// single-threaded (the multi-threaded stress lives in
// concurrent_stress_test.cc): epoch-based reclamation mechanics, the
// BackgroundWorker request/cycle protocol, the
// ConcurrentWritableIndex state machine (log append, freeze fold,
// background merge rotation/rebase), and ShardedIndex routing/balance.
// The full std::set-oracle equivalence for both wrappers runs in
// writable_index_conformance_test.cc, shared with DeltaRangeIndex.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "concurrent/concurrent_writable_index.h"
#include "concurrent/epoch.h"
#include "concurrent/sharded_index.h"
#include "concurrent/versioned.h"
#include "data/datasets.h"
#include "dynamic/delta_range_index.h"
#include "dynamic/merge_policy.h"
#include "index/concurrent_writable_index.h"
#include "index/writable_range_index.h"
#include "rmi/rmi.h"

namespace li {
namespace {

using ConcRmi = concurrent::ConcurrentWritableIndex<rmi::LinearRmi>;
using ShardedRmi = concurrent::ShardedIndex<ConcRmi>;

// ---- Static acceptance gate ----
static_assert(index::ConcurrentWritableRangeIndex<ConcRmi>);
static_assert(index::ConcurrentWritableRangeIndex<ShardedRmi>);
// The concurrent contract subsumes the writable and range contracts, so
// every read-only call site and the writable conformance suite apply.
static_assert(index::WritableRangeIndex<ConcRmi>);
static_assert(index::RangeIndex<ConcRmi>);
static_assert(index::WritableRangeIndex<ShardedRmi>);
// The single-threaded delta index must NOT satisfy the concurrent
// contract (it has no merge-control surface).
static_assert(
    !index::ConcurrentWritableRangeIndex<
        dynamic::DeltaRangeIndex<rmi::LinearRmi>>);
// Only concurrent, durable, snapshottable front-ends can be shards: the
// single-threaded delta index would run two writers at once under a
// shard's shared cutover lock.
static_assert(concurrent::Shardable<ConcRmi>);
static_assert(
    !concurrent::Shardable<dynamic::DeltaRangeIndex<rmi::LinearRmi>>);

// ---- Epoch manager ----

struct Tracked {
  explicit Tracked(std::atomic<int>& live) : live_(live) { ++live_; }
  ~Tracked() { --live_; }
  std::atomic<int>& live_;
};

TEST(EpochManagerTest, RetiredObjectsOutliveActiveGuards) {
  concurrent::EpochManager mgr;
  std::atomic<int> live{0};
  auto* obj = new Tracked(live);
  {
    concurrent::EpochManager::Guard g(mgr);
    mgr.Retire(obj);
    mgr.Reclaim();
    // Our own pin must keep it alive.
    EXPECT_EQ(live.load(), 1);
    EXPECT_EQ(mgr.pending(), 1u);
  }
  mgr.Reclaim();
  EXPECT_EQ(live.load(), 0);
  EXPECT_EQ(mgr.pending(), 0u);
  EXPECT_EQ(mgr.retired_count(), 1u);
  EXPECT_EQ(mgr.reclaimed_count(), 1u);
}

TEST(EpochManagerTest, NestedGuardsPinUntilOutermostExit) {
  concurrent::EpochManager mgr;
  std::atomic<int> live{0};
  {
    concurrent::EpochManager::Guard outer(mgr);
    {
      concurrent::EpochManager::Guard inner(mgr);
      mgr.Retire(new Tracked(live));
    }
    mgr.Reclaim();
    EXPECT_EQ(live.load(), 1) << "inner exit must not unpin the thread";
  }
  mgr.Reclaim();
  EXPECT_EQ(live.load(), 0);
}

TEST(EpochManagerTest, GuardFromAnotherThreadBlocksReclaim) {
  concurrent::EpochManager mgr;
  std::atomic<int> live{0};
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    concurrent::EpochManager::Guard g(mgr);
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!pinned.load()) std::this_thread::yield();
  mgr.Retire(new Tracked(live));
  mgr.Reclaim();
  EXPECT_EQ(live.load(), 1) << "peer pin must block reclamation";
  release.store(true);
  reader.join();
  mgr.Reclaim();
  EXPECT_EQ(live.load(), 0);
}

TEST(EpochManagerTest, ThreadIdsRecycleAfterThreadExit) {
  size_t id1 = 0, id2 = 0;
  std::thread([&] { id1 = concurrent::ThisThreadIndex(); }).join();
  std::thread([&] { id2 = concurrent::ThisThreadIndex(); }).join();
  EXPECT_EQ(id1, id2) << "a dead thread's slot id must be leased again";
  EXPECT_LT(id1, concurrent::EpochManager::kMaxThreads);
}

TEST(EpochManagerTest, SlotTableSurvivesThreadChurn) {
  // More short-lived threads than the slot table holds: with leased ids
  // none may land in the fallback path, and reclamation keeps working.
  concurrent::EpochManager mgr;
  for (int i = 0; i < 300; ++i) {
    std::thread([&] { concurrent::EpochManager::Guard g(mgr); }).join();
  }
  std::atomic<int> live{0};
  mgr.Retire(new Tracked(live));
  EXPECT_EQ(mgr.Reclaim(), 1u) << "churned-out threads must not block reclaim";
  EXPECT_EQ(live.load(), 0);
  EXPECT_EQ(mgr.fallback_pins(), 0u);
}

TEST(EpochManagerTest, DestructorFreesStragglers) {
  std::atomic<int> live{0};
  {
    concurrent::EpochManager mgr;
    mgr.Retire(new Tracked(live));
    // no Reclaim: destructor must free it
  }
  EXPECT_EQ(live.load(), 0);
}

// ---- BackgroundWorker ----

template <typename Pred>
void SpinUntil(Pred&& pred) {
  while (!pred()) std::this_thread::yield();
}

/// A worker whose first cycle blocks until `release` is set; `runs`
/// counts cycle starts.
struct GatedWorker {
  GatedWorker() {
    worker.Start([this](bool*) {
      if (runs.fetch_add(1) == 0) SpinUntil([&] { return release.load(); });
      return Status::OK();
    });
  }
  /// Requests a cycle and returns once it is running (and blocked).
  void StartBlockedCycle() {
    worker.Request();
    SpinUntil([&] { return runs.load() == 1; });
  }
  std::atomic<int> runs{0};
  std::atomic<bool> release{false};
  concurrent::BackgroundWorker worker;  // last: stops before the flags die
};

TEST(BackgroundWorkerTest, RunSyncWaitsForACycleStartedAfterTheCall) {
  GatedWorker g;
  g.StartBlockedCycle();
  Status synced = Status::Internal("RunSync did not return");
  std::thread caller([&] { synced = g.worker.RunSync(); });
  g.release = true;
  caller.join();
  EXPECT_TRUE(synced.ok());
  // Whether the call landed before or after the release, the cycle that
  // was already running does not satisfy it: a second one must run.
  EXPECT_EQ(g.runs.load(), 2);
  EXPECT_EQ(g.worker.cycles(), 2u);
}

TEST(BackgroundWorkerTest, RequestsCoalesceIntoOneCycle) {
  GatedWorker g;
  g.StartBlockedCycle();
  for (int i = 0; i < 5; ++i) g.worker.Request();
  g.release = true;
  g.worker.WaitIdle();
  EXPECT_EQ(g.runs.load(), 2) << "five pending requests run one cycle";
  EXPECT_EQ(g.worker.cycles(), 2u);
}

TEST(BackgroundWorkerTest, ReArmsWhileTheBodyReportsWorkLeft) {
  std::atomic<int> runs{0};
  concurrent::BackgroundWorker worker;
  worker.Start([&](bool* work_left) {
    *work_left = runs.fetch_add(1) + 1 < 3;
    return Status::OK();
  });
  worker.Request();
  worker.WaitIdle();  // one wait covers every re-armed cycle
  EXPECT_EQ(runs.load(), 3);
  EXPECT_EQ(worker.cycles(), 3u);
}

TEST(BackgroundWorkerTest, StopWithAPendingRequestReturns) {
  GatedWorker g;
  g.StartBlockedCycle();
  g.worker.Request();  // pending behind the blocked cycle
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    g.release = true;
  });
  g.worker.Stop();  // waits out the running cycle, drops the pending one
  releaser.join();
  EXPECT_GE(g.runs.load(), 1);
  EXPECT_LE(g.runs.load(), 2);
  const int runs = g.runs.load();
  g.worker.Request();  // after Stop: accepted, never run
  g.worker.Stop();     // idempotent
  EXPECT_EQ(g.runs.load(), runs);
}

TEST(BackgroundWorkerTest, KeepsTheLastCycleStatus) {
  std::atomic<int> runs{0};
  concurrent::BackgroundWorker worker;
  worker.Start([&](bool* work_left) {
    if (runs.fetch_add(1) == 0) {
      *work_left = true;  // a failed cycle must not re-arm anyway
      return Status::Internal("cycle failed");
    }
    return Status::OK();
  });
  EXPECT_TRUE(worker.last_status().ok()) << "OK before the first cycle";
  EXPECT_EQ(worker.RunSync().code(), StatusCode::kInternal);
  worker.WaitIdle();
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(worker.last_status().code(), StatusCode::kInternal)
      << "the failure stays visible until the next cycle";
  EXPECT_TRUE(worker.RunSync().ok());
  EXPECT_TRUE(worker.last_status().ok());
  EXPECT_EQ(worker.cycles(), 2u);
}

// ---- ConcurrentWritableIndex, single-threaded semantics ----

std::vector<uint64_t> SeedKeys(size_t n, uint64_t seed) {
  auto keys = data::GenLognormal(n, seed);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

ConcRmi::Config ManualConfig(size_t n, size_t log_cap = 64) {
  ConcRmi::Config c;
  c.base.num_leaf_models = std::max<size_t>(32, n / 100);
  c.policy.trigger = dynamic::MergeTrigger::kManual;
  c.log_cap = log_cap;
  return c;
}

TEST(ConcurrentIndexTest, FreezeFoldKeepsRanksExact) {
  const auto keys = SeedKeys(5'000, 7);
  ConcRmi idx;
  // Tiny log: every 8 writes force a freeze fold.
  ASSERT_TRUE(idx.Build(keys, ManualConfig(keys.size(), 8)).ok());
  std::set<uint64_t> oracle(keys.begin(), keys.end());
  Xorshift128Plus rng(99);
  for (int i = 0; i < 2'000; ++i) {
    const uint64_t k = rng.NextBounded(2'000'000'000);
    if (rng.NextBounded(3) == 0) {
      EXPECT_EQ(idx.Erase(k), oracle.erase(k) > 0) << "op " << i;
    } else {
      EXPECT_EQ(idx.Insert(k), oracle.insert(k).second) << "op " << i;
    }
  }
  EXPECT_GT(idx.ConcurrentStats().freezes, 0u);
  const std::vector<uint64_t> ref(oracle.begin(), oracle.end());
  ASSERT_EQ(idx.size(), ref.size());
  ASSERT_EQ(idx.Scan(0, ref.size() + 1), ref);
  for (int p = 0; p < 1'000; ++p) {
    const uint64_t q = rng.NextBounded(2'000'000'100);
    const size_t want = static_cast<size_t>(
        std::lower_bound(ref.begin(), ref.end(), q) - ref.begin());
    ASSERT_EQ(idx.Lookup(q), want);
  }
}

TEST(ConcurrentIndexTest, SynchronousMergeFoldsDeltaIntoBase) {
  const auto keys = SeedKeys(4'000, 11);
  ConcRmi idx;
  ASSERT_TRUE(idx.Build(keys, ManualConfig(keys.size())).ok());
  const uint64_t fresh = keys.back() + 17;
  EXPECT_TRUE(idx.Insert(fresh));
  EXPECT_TRUE(idx.Erase(keys[0]));
  ASSERT_TRUE(idx.Merge().ok());
  const auto stats = idx.Stats();
  EXPECT_EQ(stats.merges, 1u);
  EXPECT_EQ(stats.delta_entries, 0u) << "merge must clear the delta";
  EXPECT_EQ(stats.base_keys, keys.size());  // +1 insert, -1 erase
  EXPECT_TRUE(idx.Contains(fresh));
  EXPECT_FALSE(idx.Contains(keys[0]));
  // Idempotent on an empty delta.
  ASSERT_TRUE(idx.Merge().ok());
}

TEST(ConcurrentIndexTest, WritesDuringBackgroundMergeSurviveRebase) {
  // Deterministic re-creation of the merge race: rotate + build happen,
  // then writes land before publish. Single-threaded we can't pause the
  // worker mid-cycle, so instead interleave writes with many synchronous
  // merges over a key the merge keeps toggling.
  const auto keys = SeedKeys(3'000, 13);
  ConcRmi idx;
  ASSERT_TRUE(idx.Build(keys, ManualConfig(keys.size())).ok());
  std::set<uint64_t> oracle(keys.begin(), keys.end());
  Xorshift128Plus rng(131);
  for (int round = 0; round < 20; ++round) {
    // erase a base key, merge, re-insert it, merge again: the re-insert
    // is rebased against a base that no longer holds the key.
    const uint64_t victim =
        *std::next(oracle.begin(),
                   static_cast<long>(rng.NextBounded(oracle.size())));
    EXPECT_TRUE(idx.Erase(victim));
    oracle.erase(victim);
    ASSERT_TRUE(idx.Merge().ok());
    EXPECT_FALSE(idx.Contains(victim));
    EXPECT_TRUE(idx.Insert(victim));
    oracle.insert(victim);
    ASSERT_TRUE(idx.Merge().ok());
    EXPECT_TRUE(idx.Contains(victim));
  }
  const std::vector<uint64_t> ref(oracle.begin(), oracle.end());
  ASSERT_EQ(idx.size(), ref.size());
  ASSERT_EQ(idx.Scan(0, ref.size() + 1), ref);
}

TEST(ConcurrentIndexTest, PolicyTriggersBackgroundMerges) {
  const auto keys = SeedKeys(8'000, 17);
  ConcRmi::Config cfg;
  cfg.base.num_leaf_models = 64;
  cfg.policy.min_delta_entries = 128;
  cfg.policy.max_delta_entries = 256;
  cfg.log_cap = 64;
  ConcRmi idx;
  ASSERT_TRUE(idx.Build(keys, cfg).ok());
  std::set<uint64_t> oracle(keys.begin(), keys.end());
  Xorshift128Plus rng(171);
  for (int i = 0; i < 4'000; ++i) {
    const uint64_t k = rng.NextBounded(1'000'000'000);
    EXPECT_EQ(idx.Insert(k), oracle.insert(k).second);
  }
  idx.WaitForMerges();
  EXPECT_GT(idx.Stats().merges, 0u) << "size policy should have fired";
  EXPECT_TRUE(idx.last_merge_status().ok());
  const std::vector<uint64_t> ref(oracle.begin(), oracle.end());
  EXPECT_EQ(idx.size(), ref.size());
  for (int p = 0; p < 1'000; ++p) {
    const uint64_t q = rng.NextBounded(1'000'000'100);
    const size_t want = static_cast<size_t>(
        std::lower_bound(ref.begin(), ref.end(), q) - ref.begin());
    ASSERT_EQ(idx.Lookup(q), want);
  }
}

// Regression: Scan used to cap delta-overlay collection at a size
// heuristic (limit + log entries), so a dense run of frozen base-key
// tombstones past the cap stopped cancelling and erased keys leaked into
// the result.
TEST(ConcurrentIndexTest, ScanAppliesDenseTombstoneRunsBeyondLimit) {
  std::vector<uint64_t> keys(4'000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = 10 * (i + 1);
  ConcRmi idx;
  ASSERT_TRUE(idx.Build(keys, ManualConfig(keys.size(), 16)).ok());
  // Erase 600 consecutive base keys; the tiny log forces them through
  // freeze folds into the frozen delta as in_base tombstones.
  for (size_t i = 100; i < 700; ++i) EXPECT_TRUE(idx.Erase(keys[i]));
  // Window starting before the tombstone run, much smaller than the run.
  const auto got = idx.Scan(keys[95], 10);
  std::vector<uint64_t> want;
  for (size_t i = 95; i < 100; ++i) want.push_back(keys[i]);
  for (size_t i = 700; i < 705; ++i) want.push_back(keys[i]);
  EXPECT_EQ(got, want) << "erased keys must not leak past the overlay";
  // A window entirely inside the tombstone run.
  EXPECT_EQ(idx.Scan(keys[200], 3),
            (std::vector<uint64_t>{keys[700], keys[701], keys[702]}));
  EXPECT_EQ(idx.size(), keys.size() - 600);
}

// The first `limit` keys of `live` >= `from`.
std::vector<uint64_t> OracleScan(const std::set<uint64_t>& live,
                                 uint64_t from, size_t limit) {
  std::vector<uint64_t> out;
  for (auto it = live.lower_bound(from);
       it != live.end() && out.size() < limit; ++it) {
    out.push_back(*it);
  }
  return out;
}

// Scan takes limit + E live keys of base + frozen (E = log tombstones at
// or above `from`) and overlays only the log writes inside that window.
// Every write here stays in the live log (nothing freezes), and the log
// holds the cases that bound has to cover: erases inside the window and
// just past its end, inserts above its last key, an erase-then-reinsert
// and an insert-then-erase of one key, and windows longer than what is
// left live.
TEST(ConcurrentIndexTest, ScanOverlaysOnlyWindowLogWrites) {
  std::vector<uint64_t> keys(1'000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = 10 * (i + 1);
  ConcRmi idx;
  ASSERT_TRUE(idx.Build(keys, ManualConfig(keys.size(), 4'096)).ok());
  std::set<uint64_t> live(keys.begin(), keys.end());
  auto erase = [&](uint64_t k) {
    EXPECT_EQ(idx.Erase(k), live.erase(k) > 0) << k;
  };
  auto insert = [&](uint64_t k) {
    EXPECT_EQ(idx.Insert(k), live.insert(k).second) << k;
  };
  // Around Scan(1010, 10): base window 1010..1100.
  erase(1020);  // inside the window
  erase(1050);
  erase(1110);  // just past its end: the answer must reach further
  erase(1120);
  erase(1030);  // erase, then reinsert: live
  insert(1030);
  insert(1035);  // insert, then erase: dead
  erase(1035);
  insert(1105);   // inside the widened window
  insert(1165);   // just above the window's last key
  insert(5'005);  // far above
  // Near the top of the key range: windows outlast the live keys.
  erase(9'960);
  erase(9'990);
  insert(9'995);
  insert(10'005);
  insert(20'000);
  erase(20'000);
  ASSERT_EQ(idx.ConcurrentStats().freezes, 0u);
  ASSERT_GT(idx.ConcurrentStats().log_entries, 0u);

  EXPECT_EQ(idx.Scan(1'010, 10),
            (std::vector<uint64_t>{1010, 1030, 1040, 1060, 1070, 1080, 1090,
                                   1100, 1105, 1130}));
  EXPECT_EQ(idx.Scan(9'940, 100),
            (std::vector<uint64_t>{9940, 9950, 9970, 9980, 9995, 10000,
                                   10005}));
  for (uint64_t from = 995; from <= 1'175; from += 5) {
    for (size_t limit = 1; limit <= 24; ++limit) {
      ASSERT_EQ(idx.Scan(from, limit), OracleScan(live, from, limit))
          << "from " << from << " limit " << limit;
    }
  }
  for (uint64_t from = 9'900; from <= 10'010; from += 5) {
    for (const size_t limit : {1, 3, 7, 12, 50, 5'000}) {
      ASSERT_EQ(idx.Scan(from, limit), OracleScan(live, from, limit))
          << "from " << from << " limit " << limit;
    }
  }
}

// A key written several times inside one log prefix: its newest write
// decides its state, and its oldest write's prior liveness is its base
// membership, which the fold must carry into the frozen entry. One base
// key and one absent key each take insert, erase, insert and erase,
// insert, erase; reads, the freeze fold, a snapshot round trip and a
// merge must all agree with the oracle.
TEST(ConcurrentIndexTest, RepeatedWritesInOneLogPrefixFoldExactly) {
  std::vector<uint64_t> keys(500);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = 10 * (i + 1);
  ConcRmi idx;
  // 16 writes fill the log; the 17th freezes it.
  ASSERT_TRUE(idx.Build(keys, ManualConfig(keys.size(), 16)).ok());
  std::set<uint64_t> live(keys.begin(), keys.end());
  auto insert = [&](uint64_t k) {
    EXPECT_EQ(idx.Insert(k), live.insert(k).second) << k;
  };
  auto erase = [&](uint64_t k) {
    EXPECT_EQ(idx.Erase(k), live.erase(k) > 0) << k;
  };
  for (const uint64_t k : {1'000, 1'005}) {  // base key, absent key
    insert(k);
    erase(k);
    insert(k);
  }
  for (const uint64_t k : {2'000, 2'005}) {
    erase(k);
    insert(k);
    erase(k);
  }
  auto check = [&](const ConcRmi& ix, const char* stage) {
    SCOPED_TRACE(stage);
    const std::vector<uint64_t> ref(live.begin(), live.end());
    ASSERT_EQ(ix.size(), ref.size());
    ASSERT_EQ(ix.Scan(0, ref.size() + 1), ref);
    for (uint64_t q = 990; q <= 2'015; q += 5) {
      EXPECT_EQ(ix.Contains(q), live.count(q) > 0) << q;
      EXPECT_EQ(ix.Lookup(q),
                static_cast<size_t>(std::lower_bound(ref.begin(), ref.end(),
                                                     q) -
                                    ref.begin()))
          << q;
      EXPECT_EQ(ix.Scan(q, 3), OracleScan(live, q, 3)) << q;
    }
  };
  ASSERT_EQ(idx.ConcurrentStats().freezes, 0u);
  ASSERT_EQ(idx.ConcurrentStats().log_entries, 12u);
  check(idx, "one log prefix");

  for (uint64_t k = 100'001; k <= 100'005; ++k) insert(k);
  ASSERT_EQ(idx.ConcurrentStats().freezes, 1u);
  check(idx, "after the freeze fold");

  const std::string path = ::testing::TempDir() + "li_conc_repeated.snap";
  ASSERT_TRUE(idx.WriteSnapshot(path).ok());
  auto opened = ConcRmi::OpenSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ConcRmi reopened = opened.take();
  check(reopened, "snapshot round trip");

  ASSERT_TRUE(idx.Merge().ok());
  EXPECT_EQ(idx.Stats().delta_entries, 0u);
  check(idx, "after merge");
  ASSERT_TRUE(reopened.Merge().ok());
  check(reopened, "reopened, after merge");
}

TEST(ConcurrentIndexTest, BatchLookupMatchesSingleKeyPath) {
  const auto keys = SeedKeys(6'000, 19);
  ConcRmi idx;
  ASSERT_TRUE(idx.Build(keys, ManualConfig(keys.size())).ok());
  Xorshift128Plus rng(191);
  for (int i = 0; i < 500; ++i) idx.Insert(rng.NextBounded(1u << 30));
  std::vector<uint64_t> qs;
  for (int i = 0; i < 1'000; ++i) qs.push_back(rng.NextBounded(1u << 30));
  std::vector<size_t> out(qs.size());
  index::LookupBatch(idx, std::span<const uint64_t>(qs),
                     std::span<size_t>(out));
  for (size_t i = 0; i < qs.size(); ++i) {
    ASSERT_EQ(out[i], idx.Lookup(qs[i]));
  }
}

TEST(ConcurrentIndexTest, EmptyBuildThenInserts) {
  ConcRmi idx;
  ASSERT_TRUE(idx.Build({}, ManualConfig(1)).ok());
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

// Library-wide convention (PR 2 pinned it for the hash maps): a failed
// or never-run Build leaves the index safe — reads answer empty, writes
// return false, Merge fails cleanly, nothing crashes or hangs.
TEST(ConcurrentIndexTest, FailedBuildLeavesSafeNeverBuiltState) {
  const std::vector<uint64_t> keys = {1, 2, 3};
  ConcRmi idx;
  ConcRmi::Config bad;
  bad.base.num_leaf_models = 0;  // RMI rejects a zero-leaf config
  EXPECT_FALSE(idx.Build(keys, bad).ok());
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_EQ(idx.Lookup(2), 0u);
  EXPECT_FALSE(idx.Insert(5));
  EXPECT_FALSE(idx.Erase(1));
  EXPECT_FALSE(idx.Contains(5));
  EXPECT_TRUE(idx.Scan(0, 10).empty());
  EXPECT_FALSE(idx.Merge().ok());
  idx.WaitForMerges();  // must not hang
  // A subsequent good Build recovers the handle completely.
  ASSERT_TRUE(idx.Build(keys, ManualConfig(keys.size())).ok());
  EXPECT_TRUE(idx.Insert(5));
  EXPECT_EQ(idx.size(), 4u);
}

TEST(ConcurrentIndexTest, TypeErasureRoundTrip) {
  const auto keys = SeedKeys(2'000, 23);
  ConcRmi idx;
  ASSERT_TRUE(idx.Build(keys, ManualConfig(keys.size())).ok());
  index::AnyConcurrentWritableIndex any(std::move(idx));
  EXPECT_FALSE(any.empty());
  const uint64_t fresh = keys.back() + 5;
  EXPECT_TRUE(any.Insert(fresh));
  EXPECT_TRUE(any.Contains(fresh));
  any.RequestMerge();
  any.WaitForMerges();
  EXPECT_EQ(any.Stats().merges, 1u);
  EXPECT_EQ(any.ConcurrentStats().shards, 1u);
  EXPECT_EQ(any.size(), keys.size() + 1);
}

// ---- ShardedIndex ----

ShardedRmi::Config ShardedConfig(size_t n, size_t shards) {
  ShardedRmi::Config c;
  c.inner = ManualConfig(std::max<size_t>(n / std::max<size_t>(shards, 1), 1));
  c.num_shards = shards;
  return c;
}

TEST(ShardedIndexTest, BoundariesBalanceSkewedKeys) {
  const auto keys = SeedKeys(40'000, 29);  // lognormal: heavily skewed
  ShardedRmi idx;
  ASSERT_TRUE(idx.Build(keys, ShardedConfig(keys.size(), 8)).ok());
  EXPECT_EQ(idx.num_shards(), 8u);
  const std::vector<size_t> sizes = idx.ShardSizes();
  const size_t expect = keys.size() / 8;
  for (const size_t s : sizes) {
    EXPECT_GT(s, expect / 2) << "CDF split should balance under skew";
    EXPECT_LT(s, expect * 2);
  }
  EXPECT_EQ(idx.size(), keys.size());
}

TEST(ShardedIndexTest, RankAndScanSpanShards) {
  const auto keys = SeedKeys(20'000, 31);
  ShardedRmi idx;
  ASSERT_TRUE(idx.Build(keys, ShardedConfig(keys.size(), 4)).ok());
  Xorshift128Plus rng(311);
  std::set<uint64_t> oracle(keys.begin(), keys.end());
  for (int i = 0; i < 3'000; ++i) {
    const uint64_t k = rng.NextBounded(2'000'000'000);
    if (rng.NextBounded(3) == 0) {
      EXPECT_EQ(idx.Erase(k), oracle.erase(k) > 0);
    } else {
      EXPECT_EQ(idx.Insert(k), oracle.insert(k).second);
    }
  }
  ASSERT_TRUE(idx.Merge().ok());
  const std::vector<uint64_t> ref(oracle.begin(), oracle.end());
  ASSERT_EQ(idx.size(), ref.size());
  // Scans crossing shard boundaries stitch seamlessly.
  for (int p = 0; p < 50; ++p) {
    const uint64_t from = rng.NextBounded(2'000'000'000);
    const auto got = idx.Scan(from, 200);
    const auto it = std::lower_bound(ref.begin(), ref.end(), from);
    std::vector<uint64_t> want(
        it, it + std::min<ptrdiff_t>(200, ref.end() - it));
    ASSERT_EQ(got, want) << "from " << from;
  }
  for (int p = 0; p < 2'000; ++p) {
    const uint64_t q = rng.NextBounded(2'000'000'100);
    const size_t want = static_cast<size_t>(
        std::lower_bound(ref.begin(), ref.end(), q) - ref.begin());
    ASSERT_EQ(idx.Lookup(q), want);
  }
  std::vector<uint64_t> qs;
  for (int p = 0; p < 500; ++p) qs.push_back(rng.NextBounded(1u << 30));
  std::vector<size_t> out(qs.size());
  idx.LookupBatch(std::span<const uint64_t>(qs), std::span<size_t>(out));
  for (size_t i = 0; i < qs.size(); ++i) {
    ASSERT_EQ(out[i], idx.Lookup(qs[i]));
  }
}

TEST(ShardedIndexTest, StatsAggregateAcrossShards) {
  const auto keys = SeedKeys(8'000, 37);
  ShardedRmi idx;
  ASSERT_TRUE(idx.Build(keys, ShardedConfig(keys.size(), 4)).ok());
  Xorshift128Plus rng(371);
  for (int i = 0; i < 1'000; ++i) idx.Insert(rng.NextBounded(1u << 30));
  ASSERT_TRUE(idx.Merge().ok());
  const auto cs = idx.ConcurrentStats();
  EXPECT_EQ(cs.shards, 4u);
  EXPECT_EQ(cs.inserts, 1'000u);
  EXPECT_GT(cs.merges, 0u);
  EXPECT_GT(cs.states_published, 0u);
  // Type erasure accepts the sharded wrapper too.
  index::AnyConcurrentWritableIndex any(std::move(idx));
  EXPECT_EQ(any.ConcurrentStats().shards, 4u);
}

TEST(ShardedIndexTest, SingleShardDegeneratesGracefully) {
  const auto keys = SeedKeys(2'000, 41);
  ShardedRmi idx;
  ASSERT_TRUE(idx.Build(keys, ShardedConfig(keys.size(), 1)).ok());
  EXPECT_EQ(idx.num_shards(), 1u);
  EXPECT_EQ(idx.size(), keys.size());
  EXPECT_TRUE(idx.Contains(keys[0]));
}

}  // namespace
}  // namespace li
