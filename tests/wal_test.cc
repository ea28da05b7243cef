// WAL unit suite: on-disk framing (roundtrip, torn tail, bit flips,
// header corruption), writer semantics (LSN continuity, group commit,
// truncation rotation, reopen-after-tear), the CrashFileBackend fault
// layer driven in-process (kill_process = false), and the durable index
// classes end to end — snapshot + log replay equals a std::set oracle
// for DeltaRangeIndex, ConcurrentWritableIndex and the directory-based
// ShardedIndex (including a durable rebalance cutover). Process-death
// crash injection lives in crash_recovery_test.cc; this file covers
// every failure mode that can be exercised without dying.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "concurrent/concurrent_writable_index.h"
#include "concurrent/sharded_index.h"
#include "data/datasets.h"
#include "dynamic/delta_range_index.h"
#include "index/durable_index.h"
#include "rmi/rmi.h"
#include "wal/file_backend.h"
#include "wal/wal.h"
#include "wal/wal_format.h"

namespace li {
namespace {

using DeltaRmi = dynamic::DeltaRangeIndex<rmi::LinearRmi>;
using ConcRmi = concurrent::ConcurrentWritableIndex<rmi::LinearRmi>;
using ShardedRmi = concurrent::ShardedIndex<ConcRmi>;

// ---- Static acceptance gate ----
static_assert(index::DurableIndex<DeltaRmi>);
static_assert(index::DurableIndex<ConcRmi>);

std::string TmpPath(const std::string& name) {
  return ::testing::TempDir() + "li_wal_" + name;
}

struct Rec {
  wal::WalRecordType type;
  uint64_t lsn;
  std::vector<uint8_t> payload;
};

Result<std::pair<wal::WalReplayResult, std::vector<Rec>>> ReplayAll(
    const std::string& path) {
  std::vector<Rec> recs;
  auto r = wal::Replay(path, [&](wal::WalRecordType t, uint64_t lsn,
                                 const void* p, size_t n) {
    Rec rec;
    rec.type = t;
    rec.lsn = lsn;
    rec.payload.assign(static_cast<const uint8_t*>(p),
                       static_cast<const uint8_t*>(p) + n);
    recs.push_back(std::move(rec));
    return Status::OK();
  });
  if (!r.ok()) return r.status();
  return std::make_pair(r.value(), std::move(recs));
}

int64_t FileSize(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  return f.good() ? static_cast<int64_t>(f.tellg()) : -1;
}

void Truncate(const std::string& path, int64_t size) {
  ASSERT_EQ(::truncate(path.c_str(), size), 0);
}

void FlipByte(const std::string& path, int64_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  f.seekg(offset);
  char c = 0;
  f.read(&c, 1);
  c ^= 0x40;
  f.seekp(offset);
  f.write(&c, 1);
}

// ---- Format / writer ----

TEST(WalFormatTest, AppendReplayRoundtrip) {
  const std::string path = TmpPath("roundtrip.wal");
  wal::DurabilityConfig cfg;
  cfg.path = path;
  auto w = wal::WalWriter::Create(path, /*base_lsn=*/0, sizeof(uint64_t),
                                  cfg);
  ASSERT_TRUE(w.ok()) << w.status().message();
  wal::WalWriter writer = w.take();
  for (uint64_t k = 0; k < 100; ++k) {
    const auto type = (k % 3 == 0) ? wal::WalRecordType::kErase
                                   : wal::WalRecordType::kInsert;
    auto lsn = writer.Append(type, &k, sizeof(k));
    ASSERT_TRUE(lsn.ok()) << lsn.status().message();
    EXPECT_EQ(lsn.value(), k + 1);  // strictly monotonic from base + 1
  }
  EXPECT_EQ(writer.stats().appends, 100u);
  EXPECT_EQ(writer.stats().last_lsn, 100u);
  EXPECT_EQ(writer.stats().last_synced_lsn, 100u);  // fsync_every_n = 1

  auto replayed = ReplayAll(path);
  ASSERT_TRUE(replayed.ok());
  const auto& [res, recs] = replayed.value();
  EXPECT_EQ(res.records, 100u);
  EXPECT_EQ(res.base_lsn, 0u);
  EXPECT_EQ(res.last_lsn, 100u);
  EXPECT_FALSE(res.torn_tail);
  EXPECT_EQ(res.valid_bytes, res.file_bytes);
  ASSERT_EQ(recs.size(), 100u);
  for (uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(recs[k].lsn, k + 1);
    EXPECT_EQ(recs[k].type, (k % 3 == 0) ? wal::WalRecordType::kErase
                                         : wal::WalRecordType::kInsert);
    uint64_t got = 0;
    ASSERT_EQ(recs[k].payload.size(), sizeof(got));
    std::memcpy(&got, recs[k].payload.data(), sizeof(got));
    EXPECT_EQ(got, k);
  }
}

TEST(WalFormatTest, MissingFileIsNotFound) {
  auto r = wal::Replay(TmpPath("nope.wal"), nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(WalFormatTest, CorruptHeaderIsInvalidArgument) {
  const std::string path = TmpPath("badheader.wal");
  wal::DurabilityConfig cfg;
  cfg.path = path;
  {
    auto w = wal::WalWriter::Create(path, 0, sizeof(uint64_t), cfg);
    ASSERT_TRUE(w.ok());
    wal::WalWriter writer = w.take();
    const uint64_t k = 7;
    ASSERT_TRUE(writer.Append(wal::WalRecordType::kInsert, &k, 8).ok());
  }
  FlipByte(path, 3);  // inside the magic
  auto r = wal::Replay(path, nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(WalFormatTest, TornTailStopsCleanly) {
  const std::string path = TmpPath("torn.wal");
  wal::DurabilityConfig cfg;
  cfg.path = path;
  {
    auto w = wal::WalWriter::Create(path, 0, sizeof(uint64_t), cfg);
    ASSERT_TRUE(w.ok());
    wal::WalWriter writer = w.take();
    for (uint64_t k = 0; k < 10; ++k) {
      ASSERT_TRUE(writer.Append(wal::WalRecordType::kInsert, &k, 8).ok());
    }
  }
  const int64_t full = FileSize(path);
  const int64_t frame =
      static_cast<int64_t>(sizeof(wal::WalRecordHeader)) + 8;
  // Tear off half of the last record: 9 valid records + garbage tail.
  Truncate(path, full - frame / 2);
  auto replayed = ReplayAll(path);
  ASSERT_TRUE(replayed.ok());
  const auto& [res, recs] = replayed.value();
  EXPECT_TRUE(res.torn_tail);
  EXPECT_EQ(res.records, 9u);
  EXPECT_EQ(res.last_lsn, 9u);
  EXPECT_EQ(recs.size(), 9u);
  EXPECT_LT(res.valid_bytes, res.file_bytes);
}

TEST(WalFormatTest, BitFlipStopsAtCorruptRecord) {
  const std::string path = TmpPath("bitflip.wal");
  wal::DurabilityConfig cfg;
  cfg.path = path;
  {
    auto w = wal::WalWriter::Create(path, 0, sizeof(uint64_t), cfg);
    ASSERT_TRUE(w.ok());
    wal::WalWriter writer = w.take();
    for (uint64_t k = 0; k < 10; ++k) {
      ASSERT_TRUE(writer.Append(wal::WalRecordType::kInsert, &k, 8).ok());
    }
  }
  const int64_t frame =
      static_cast<int64_t>(sizeof(wal::WalRecordHeader)) + 8;
  // Flip one payload byte inside record 6 (0-based 5).
  FlipByte(path, 64 + 5 * frame + sizeof(wal::WalRecordHeader) + 2);
  auto replayed = ReplayAll(path);
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(replayed.value().first.torn_tail);
  EXPECT_EQ(replayed.value().first.records, 5u);
}

TEST(WalWriterTest, OpenResumesAfterTornTail) {
  const std::string path = TmpPath("resume.wal");
  wal::DurabilityConfig cfg;
  cfg.path = path;
  {
    auto w = wal::WalWriter::Create(path, 0, sizeof(uint64_t), cfg);
    ASSERT_TRUE(w.ok());
    wal::WalWriter writer = w.take();
    for (uint64_t k = 0; k < 5; ++k) {
      ASSERT_TRUE(writer.Append(wal::WalRecordType::kInsert, &k, 8).ok());
    }
  }
  Truncate(path, FileSize(path) - 3);  // tear the 5th record
  wal::WalReplayResult scan;
  auto w = wal::WalWriter::Open(path, cfg, &scan);
  ASSERT_TRUE(w.ok()) << w.status().message();
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.last_lsn, 4u);
  wal::WalWriter writer = w.take();
  const uint64_t k = 99;
  auto lsn = writer.Append(wal::WalRecordType::kInsert, &k, 8);
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(lsn.value(), 5u);  // LSNs resume after the last valid record
  auto replayed = ReplayAll(path);
  ASSERT_TRUE(replayed.ok());
  EXPECT_FALSE(replayed.value().first.torn_tail);  // tear truncated away
  EXPECT_EQ(replayed.value().first.records, 5u);
}

TEST(WalWriterTest, GroupCommitSyncsEveryNth) {
  const std::string path = TmpPath("group.wal");
  wal::DurabilityConfig cfg;
  cfg.path = path;
  cfg.fsync_every_n = 4;
  auto w = wal::WalWriter::Create(path, 0, sizeof(uint64_t), cfg);
  ASSERT_TRUE(w.ok());
  wal::WalWriter writer = w.take();
  for (uint64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(writer.Append(wal::WalRecordType::kInsert, &k, 8).ok());
  }
  // 10 appends, policy fires at 4 and 8 (+1 sync at create time is not
  // counted in stats.syncs).
  EXPECT_EQ(writer.stats().syncs, 2u);
  EXPECT_EQ(writer.stats().last_lsn, 10u);
  EXPECT_EQ(writer.stats().last_synced_lsn, 8u);
  ASSERT_TRUE(writer.Sync().ok());
  EXPECT_EQ(writer.stats().syncs, 3u);
  EXPECT_EQ(writer.stats().last_synced_lsn, 10u);
  ASSERT_TRUE(writer.Sync().ok());  // nothing new: no extra fdatasync
  EXPECT_EQ(writer.stats().syncs, 3u);
}

TEST(WalWriterTest, ResetToCarriesNewerRecords) {
  const std::string path = TmpPath("reset.wal");
  wal::DurabilityConfig cfg;
  cfg.path = path;
  auto w = wal::WalWriter::Create(path, 0, sizeof(uint64_t), cfg);
  ASSERT_TRUE(w.ok());
  wal::WalWriter writer = w.take();
  for (uint64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(writer.Append(wal::WalRecordType::kInsert, &k, 8).ok());
  }
  ASSERT_TRUE(writer.ResetTo(6).ok());  // snapshot covered lsn 1..6
  EXPECT_EQ(writer.stats().base_lsn, 6u);
  EXPECT_EQ(writer.stats().resets, 1u);
  auto replayed = ReplayAll(path);
  ASSERT_TRUE(replayed.ok());
  const auto& [res, recs] = replayed.value();
  EXPECT_EQ(res.base_lsn, 6u);
  ASSERT_EQ(recs.size(), 4u);  // lsns 7..10 carried over
  EXPECT_EQ(recs.front().lsn, 7u);
  EXPECT_EQ(recs.back().lsn, 10u);
  // Appends continue where the pre-rotation stream left off.
  const uint64_t k = 11;
  auto lsn = writer.Append(wal::WalRecordType::kInsert, &k, 8);
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(lsn.value(), 11u);
  // Covering everything empties the log.
  ASSERT_TRUE(writer.ResetTo(11).ok());
  replayed = ReplayAll(path);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value().first.records, 0u);
  EXPECT_EQ(replayed.value().first.base_lsn, 11u);
}

TEST(WalWriterTest, PayloadSizeMismatchRejected) {
  const std::string path = TmpPath("paysize.wal");
  wal::DurabilityConfig cfg;
  cfg.path = path;
  auto w = wal::WalWriter::Create(path, 0, sizeof(uint64_t), cfg);
  ASSERT_TRUE(w.ok());
  wal::WalWriter writer = w.take();
  const uint32_t small = 1;
  auto lsn = writer.Append(wal::WalRecordType::kInsert, &small, 4);
  EXPECT_FALSE(lsn.ok());
}

// ---- CrashFileBackend (in-process: kill_process = false) ----

TEST(CrashBackendTest, InjectedWriteFailureIsStickyOnTheLog) {
  const std::string path = TmpPath("crashwrite.wal");
  wal::CrashFileBackend::Plan plan;
  plan.mode = wal::CrashFileBackend::Mode::kBeforeWrite;
  plan.trigger_at = 3;  // third record write (header I/O bypasses the
                        // backend, so ordinals count records exactly)
  plan.kill_process = false;
  wal::CrashFileBackend backend(plan);
  wal::DurabilityConfig cfg;
  cfg.path = path;
  cfg.backend = &backend;
  auto w = wal::WalWriter::Create(path, 0, sizeof(uint64_t), cfg);
  ASSERT_TRUE(w.ok());
  wal::WalWriter writer = w.take();
  uint64_t k = 1;
  ASSERT_TRUE(writer.Append(wal::WalRecordType::kInsert, &k, 8).ok());
  k = 2;
  ASSERT_TRUE(writer.Append(wal::WalRecordType::kInsert, &k, 8).ok());
  k = 3;
  EXPECT_FALSE(writer.Append(wal::WalRecordType::kInsert, &k, 8).ok());
  EXPECT_TRUE(backend.crashed());
  // Sticky: later appends fail without touching the file.
  k = 4;
  EXPECT_FALSE(writer.Append(wal::WalRecordType::kInsert, &k, 8).ok());
  // The two acknowledged records replay fine.
  auto replayed = ReplayAll(path);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value().first.records, 2u);
}

TEST(CrashBackendTest, DropTailTruncatesToSyncedSize) {
  const std::string path = TmpPath("droptail.wal");
  wal::CrashFileBackend::Plan plan;
  plan.mode = wal::CrashFileBackend::Mode::kDropTail;
  plan.trigger_at = 6;  // records 1..5 land; 6th write triggers the drop
  plan.kill_process = false;
  wal::CrashFileBackend backend(plan);
  wal::DurabilityConfig cfg;
  cfg.path = path;
  cfg.backend = &backend;
  cfg.fsync_every_n = 2;  // only even records are on "stable storage"
  auto w = wal::WalWriter::Create(path, 0, sizeof(uint64_t), cfg);
  ASSERT_TRUE(w.ok());
  wal::WalWriter writer = w.take();
  Status last;
  for (uint64_t k = 1; k <= 6; ++k) {
    last = writer.Append(wal::WalRecordType::kInsert, &k, 8).status();
  }
  EXPECT_FALSE(last.ok());
  EXPECT_TRUE(backend.crashed());
  // The file was cut back to the last fdatasync boundary: 4 records
  // (lsn 4 was the last even append), not the 5 acknowledged ones — the
  // OS-crash model where the page cache dies with the machine.
  auto replayed = ReplayAll(path);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value().first.records, 4u);
  EXPECT_EQ(replayed.value().first.last_lsn, 4u);
}

TEST(CrashBackendTest, TornWritePersistsAPrefixOfTheRecord) {
  const std::string path = TmpPath("tornwrite.wal");
  wal::CrashFileBackend::Plan plan;
  plan.mode = wal::CrashFileBackend::Mode::kTornWrite;
  plan.trigger_at = 4;
  plan.torn_bytes = 7;  // half the header survives
  plan.kill_process = false;
  wal::CrashFileBackend backend(plan);
  wal::DurabilityConfig cfg;
  cfg.path = path;
  cfg.backend = &backend;
  auto w = wal::WalWriter::Create(path, 0, sizeof(uint64_t), cfg);
  ASSERT_TRUE(w.ok());
  wal::WalWriter writer = w.take();
  Status last;
  for (uint64_t k = 1; k <= 4; ++k) {
    last = writer.Append(wal::WalRecordType::kInsert, &k, 8).status();
  }
  EXPECT_FALSE(last.ok());
  // Replay sees 3 valid records and a torn tail — never UB, never a
  // phantom 4th record.
  auto replayed = ReplayAll(path);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value().first.records, 3u);
  EXPECT_TRUE(replayed.value().first.torn_tail);
  // An Open on the torn file truncates and resumes at lsn 4.
  wal::DurabilityConfig clean;
  clean.path = path;
  wal::WalReplayResult scan;
  auto reopened = wal::WalWriter::Open(path, clean, &scan);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(scan.torn_tail);
  wal::WalWriter writer2 = reopened.take();
  const uint64_t k = 40;
  auto lsn = writer2.Append(wal::WalRecordType::kInsert, &k, 8);
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(lsn.value(), 4u);
}

// ---- Durable index classes ----

TEST(DurableDeltaTest, SnapshotPlusReplayMatchesOracle) {
  const std::string snap = TmpPath("delta.snap");
  const std::string log = TmpPath("delta.wal");
  auto keys = data::GenLognormal(20'000, 41);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::set<uint64_t> oracle(keys.begin(), keys.end());

  DeltaRmi idx;
  DeltaRmi::Config cfg;
  cfg.base.num_leaf_models = 64;
  ASSERT_TRUE(idx.Build(keys, cfg).ok());
  ASSERT_FALSE(idx.durable());
  // Baseline snapshot, then attach the log: every later write must be
  // recoverable from snapshot + replay.
  ASSERT_TRUE(idx.WriteSnapshot(snap).ok());
  wal::DurabilityConfig dcfg;
  dcfg.path = log;
  ASSERT_TRUE(idx.EnableDurability(dcfg).ok());
  ASSERT_TRUE(idx.durable());

  Xorshift128Plus rng(4242);
  for (int i = 0; i < 5'000; ++i) {
    const uint64_t k = rng.NextBounded(2'000'000'000);
    if (rng.NextBounded(3) == 0) {
      ASSERT_EQ(idx.Erase(k), oracle.erase(k) > 0);
    } else {
      ASSERT_EQ(idx.Insert(k), oracle.insert(k).second);
    }
  }
  ASSERT_TRUE(idx.wal_status().ok());
  EXPECT_EQ(idx.DurabilityStats().appends, 5'000u);

  // Recover: snapshot (covered lsn 0) + full replay.
  auto re = DeltaRmi::OpenSnapshot(snap);
  ASSERT_TRUE(re.ok()) << re.status().message();
  DeltaRmi rec = re.take();
  ASSERT_TRUE(rec.RecoverFromWal(dcfg).ok());
  ASSERT_TRUE(rec.durable());
  const std::vector<uint64_t> ref(oracle.begin(), oracle.end());
  ASSERT_EQ(rec.size(), ref.size());
  ASSERT_EQ(rec.Scan(0, ref.size() + 1), ref);
  for (int p = 0; p < 2'000; ++p) {
    const uint64_t q = rng.NextBounded(2'000'000'100);
    ASSERT_EQ(rec.Lookup(q),
              static_cast<size_t>(std::lower_bound(ref.begin(), ref.end(),
                                                   q) -
                                  ref.begin()));
  }
}

TEST(DurableDeltaTest, SnapshotTruncatesTheLogBehindIt) {
  const std::string snap = TmpPath("deltatrunc.snap");
  const std::string log = TmpPath("deltatrunc.wal");
  auto keys = data::GenLognormal(5'000, 43);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  DeltaRmi idx;
  DeltaRmi::Config cfg;
  cfg.base.num_leaf_models = 32;
  ASSERT_TRUE(idx.Build(keys, cfg).ok());
  wal::DurabilityConfig dcfg;
  dcfg.path = log;
  ASSERT_TRUE(idx.EnableDurability(dcfg).ok());
  std::set<uint64_t> oracle(keys.begin(), keys.end());
  Xorshift128Plus rng(77);
  for (int i = 0; i < 1'000; ++i) {
    const uint64_t k = rng.NextBounded(1u << 30);
    idx.Insert(k);
    oracle.insert(k);
  }
  // Publish: the snapshot carries covered_lsn = 1000 and the log
  // rotates to an empty file behind it.
  ASSERT_TRUE(idx.WriteSnapshot(snap).ok());
  EXPECT_EQ(idx.DurabilityStats().resets, 1u);
  EXPECT_EQ(idx.DurabilityStats().base_lsn, 1'000u);
  auto replayed = ReplayAll(log);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value().first.records, 0u);

  // Tail writes after the publish...
  for (int i = 0; i < 500; ++i) {
    const uint64_t k = rng.NextBounded(1u << 30);
    idx.Insert(k);
    oracle.insert(k);
  }
  // ...are replayed on top of the covered snapshot; LSNs 1..1000 are
  // filtered (they're inside the snapshot already).
  auto re = DeltaRmi::OpenSnapshot(snap);
  ASSERT_TRUE(re.ok());
  DeltaRmi rec = re.take();
  ASSERT_TRUE(rec.RecoverFromWal(dcfg).ok());
  const std::vector<uint64_t> ref(oracle.begin(), oracle.end());
  ASSERT_EQ(rec.size(), ref.size());
  ASSERT_EQ(rec.Scan(0, ref.size() + 1), ref);
}

TEST(DurableDeltaTest, RecoveryToleratesTornTail) {
  const std::string snap = TmpPath("deltatorn.snap");
  const std::string log = TmpPath("deltatorn.wal");
  auto keys = data::GenLognormal(2'000, 47);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  DeltaRmi idx;
  DeltaRmi::Config cfg;
  cfg.base.num_leaf_models = 32;
  ASSERT_TRUE(idx.Build(keys, cfg).ok());
  ASSERT_TRUE(idx.WriteSnapshot(snap).ok());
  wal::DurabilityConfig dcfg;
  dcfg.path = log;
  ASSERT_TRUE(idx.EnableDurability(dcfg).ok());
  std::set<uint64_t> oracle(keys.begin(), keys.end());
  Xorshift128Plus rng(78);
  std::vector<uint64_t> inserted;
  for (int i = 0; i < 100; ++i) {
    const uint64_t k = rng.NextBounded(1u << 30);
    idx.Insert(k);
    inserted.push_back(k);
  }
  // Tear the last record in half — the crash landed mid-write.
  Truncate(log, FileSize(log) - 12);
  auto re = DeltaRmi::OpenSnapshot(snap);
  ASSERT_TRUE(re.ok());
  DeltaRmi rec = re.take();
  ASSERT_TRUE(rec.RecoverFromWal(dcfg).ok());
  // All but the torn 100th insert recovered.
  for (int i = 0; i < 99; ++i) oracle.insert(inserted[static_cast<size_t>(i)]);
  ASSERT_EQ(rec.size(), oracle.size());
  // And the recovered index resumes logging on the truncated file.
  ASSERT_TRUE(rec.durable());
  const uint64_t extra = 123456;
  rec.Insert(extra);
  ASSERT_TRUE(rec.wal_status().ok());
}

TEST(DurableConcurrentTest, SnapshotPlusReplayMatchesOracle) {
  const std::string snap = TmpPath("conc.snap");
  const std::string log = TmpPath("conc.wal");
  auto keys = data::GenLognormal(20'000, 51);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::set<uint64_t> oracle(keys.begin(), keys.end());

  ConcRmi idx;
  ConcRmi::Config cfg;
  cfg.base.num_leaf_models = 64;
  ASSERT_TRUE(idx.Build(keys, cfg).ok());
  wal::DurabilityConfig dcfg;
  dcfg.path = log;
  dcfg.fsync_every_n = 8;  // exercise group commit under the writer lock
  ASSERT_TRUE(idx.EnableDurability(dcfg).ok());

  Xorshift128Plus rng(5151);
  for (int i = 0; i < 4'000; ++i) {
    const uint64_t k = rng.NextBounded(2'000'000'000);
    if (rng.NextBounded(3) == 0) {
      ASSERT_EQ(idx.Erase(k), oracle.erase(k) > 0);
    } else {
      ASSERT_EQ(idx.Insert(k), oracle.insert(k).second);
    }
  }
  ASSERT_TRUE(idx.wal_status().ok());
  // Quiesce merges, snapshot (truncates), keep writing, recover.
  idx.WaitForMerges();
  ASSERT_TRUE(idx.WriteSnapshot(snap).ok());
  EXPECT_EQ(idx.DurabilityStats().resets, 1u);
  for (int i = 0; i < 1'000; ++i) {
    const uint64_t k = rng.NextBounded(2'000'000'000);
    if (rng.NextBounded(3) == 0) {
      ASSERT_EQ(idx.Erase(k), oracle.erase(k) > 0);
    } else {
      ASSERT_EQ(idx.Insert(k), oracle.insert(k).second);
    }
  }
  ASSERT_TRUE(idx.SyncWal().ok());

  auto re = ConcRmi::OpenSnapshot(snap);
  ASSERT_TRUE(re.ok()) << re.status().message();
  ConcRmi rec = re.take();
  ASSERT_TRUE(rec.RecoverFromWal(dcfg).ok());
  const std::vector<uint64_t> ref(oracle.begin(), oracle.end());
  ASSERT_EQ(rec.size(), ref.size());
  ASSERT_EQ(rec.Scan(0, ref.size() + 1), ref);
  for (int p = 0; p < 2'000; ++p) {
    const uint64_t q = rng.NextBounded(2'000'000'100);
    ASSERT_EQ(rec.Lookup(q),
              static_cast<size_t>(std::lower_bound(ref.begin(), ref.end(),
                                                   q) -
                                  ref.begin()));
  }
}

TEST(DurableShardedTest, CheckpointRecoverMatchesOracle) {
  const std::string dir = TmpPath("sharded_dir");
  auto keys = data::GenLognormal(30'000, 61);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::set<uint64_t> oracle(keys.begin(), keys.end());

  ShardedRmi idx;
  ShardedRmi::Config cfg;
  cfg.num_shards = 4;
  cfg.inner.base.num_leaf_models = 64;
  ASSERT_TRUE(idx.Build(keys, cfg).ok());
  wal::DurabilityConfig dcfg;
  dcfg.path = dir;
  ASSERT_TRUE(idx.EnableDurability(dcfg).ok());
  ASSERT_TRUE(idx.durable());
  EXPECT_FALSE(idx.EnableDurability(dcfg).ok());  // second attach rejected

  Xorshift128Plus rng(6161);
  for (int i = 0; i < 4'000; ++i) {
    const uint64_t k = rng.NextBounded(2'000'000'000);
    if (rng.NextBounded(3) == 0) {
      ASSERT_EQ(idx.Erase(k), oracle.erase(k) > 0);
    } else {
      ASSERT_EQ(idx.Insert(k), oracle.insert(k).second);
    }
  }
  ASSERT_TRUE(idx.wal_status().ok());
  EXPECT_EQ(idx.DurabilityStats().appends, 4'000u);
  ASSERT_TRUE(idx.Checkpoint().ok());
  // Checkpoint truncated every shard's log.
  EXPECT_EQ(idx.DurabilityStats().appends, 4'000u);
  for (int i = 0; i < 2'000; ++i) {
    const uint64_t k = rng.NextBounded(2'000'000'000);
    if (rng.NextBounded(3) == 0) {
      ASSERT_EQ(idx.Erase(k), oracle.erase(k) > 0);
    } else {
      ASSERT_EQ(idx.Insert(k), oracle.insert(k).second);
    }
  }
  ASSERT_TRUE(idx.SyncWal().ok());

  auto re = ShardedRmi::RecoverDurable(dcfg);
  ASSERT_TRUE(re.ok()) << re.status().message();
  ShardedRmi rec = re.take();
  ASSERT_TRUE(rec.durable());
  EXPECT_EQ(rec.num_shards(), 4u);
  const std::vector<uint64_t> ref(oracle.begin(), oracle.end());
  ASSERT_EQ(rec.size(), ref.size());
  ASSERT_EQ(rec.Scan(0, ref.size() + 1), ref);
  for (int p = 0; p < 2'000; ++p) {
    const uint64_t q = rng.NextBounded(2'000'000'100);
    ASSERT_EQ(rec.Lookup(q),
              static_cast<size_t>(std::lower_bound(ref.begin(), ref.end(),
                                                   q) -
                                  ref.begin()));
  }
  // The recovered index keeps logging: one more cycle of write + crash-
  // free recovery.
  rec.Insert(424242);
  oracle.insert(424242);
  ASSERT_TRUE(rec.SyncWal().ok());
  auto re2 = ShardedRmi::RecoverDurable(dcfg);
  ASSERT_TRUE(re2.ok());
  ASSERT_EQ(re2.value().size(), oracle.size());
}

TEST(DurableShardedTest, RebalanceCutoverCommitsThroughManifest) {
  const std::string dir = TmpPath("sharded_reb_dir");
  auto keys = data::GenLognormal(20'000, 71);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::set<uint64_t> oracle(keys.begin(), keys.end());

  ShardedRmi idx;
  ShardedRmi::Config cfg;
  cfg.num_shards = 2;
  cfg.inner.base.num_leaf_models = 32;
  cfg.rebalance.enabled = true;
  cfg.rebalance.max_imbalance = 1.2;
  cfg.rebalance.min_split_keys = 1024;
  cfg.rebalance.check_stride = 64;
  ASSERT_TRUE(idx.Build(keys, cfg).ok());
  wal::DurabilityConfig dcfg;
  dcfg.path = dir;
  ASSERT_TRUE(idx.EnableDurability(dcfg).ok());

  // Hammer one end of the key space until the rebalancer splits: the
  // cutover must route the catch-up records into the new shards' logs
  // and flip MANIFEST before publishing.
  Xorshift128Plus rng(7171);
  const uint64_t hot_base = 3'000'000'000'000'000'000ULL;
  for (int i = 0; i < 12'000; ++i) {
    const uint64_t k = hot_base + rng.NextBounded(1u << 24);
    if (idx.Insert(k)) oracle.insert(k);
  }
  idx.WaitForRebalances();
  ASSERT_TRUE(idx.last_rebalance_status().ok())
      << idx.last_rebalance_status().message();
  EXPECT_GT(idx.ConcurrentStats().shard_splits, 0u);
  ASSERT_TRUE(idx.SyncWal().ok());
  const size_t shards_after = idx.num_shards();

  auto re = ShardedRmi::RecoverDurable(dcfg);
  ASSERT_TRUE(re.ok()) << re.status().message();
  ShardedRmi rec = re.take();
  // The recovered routing table is the post-split one.
  EXPECT_EQ(rec.num_shards(), shards_after);
  const std::vector<uint64_t> ref(oracle.begin(), oracle.end());
  ASSERT_EQ(rec.size(), ref.size());
  ASSERT_EQ(rec.Scan(0, ref.size() + 1), ref);
  for (int p = 0; p < 2'000; ++p) {
    const uint64_t q = hot_base + rng.NextBounded(1u << 25);
    ASSERT_EQ(rec.Lookup(q),
              static_cast<size_t>(std::lower_bound(ref.begin(), ref.end(),
                                                   q) -
                                  ref.begin()));
  }
}

}  // namespace
}  // namespace li
