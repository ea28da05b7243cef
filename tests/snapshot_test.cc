// Snapshot-layer unit tests: CRC-32C vectors, arena offset stability and
// alignment, FlatVec storage modes, writer/reader round trips, and the
// corruption matrix — a truncated or bit-flipped file must come back as
// a clean Status from the envelope checks (or from payload verification
// when opted in), never as UB. The index-level round trips live in
// snapshot_roundtrip_test.cc; the RMI routing-stage section's own
// corruption cases are at the end of this file.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <utility>
#include <string>
#include <vector>

#include "concurrent/concurrent_writable_index.h"
#include "concurrent/sharded_index.h"
#include "data/datasets.h"
#include "dynamic/delta_range_index.h"
#include "hash/chained_hash_map.h"
#include "rmi/rmi.h"
#include "snapshot/arena.h"
#include "snapshot/crc32c.h"
#include "snapshot/format.h"
#include "snapshot/snapshot.h"

namespace li::snapshot {
namespace {

std::string TmpPath(const std::string& name) {
  return ::testing::TempDir() + "li_snapshot_test_" + name;
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// ---- CRC-32C ----

TEST(Crc32cTest, StandardVector) {
  // The RFC 3720 check value for "123456789".
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32cTest, EmptyIsZero) { EXPECT_EQ(Crc32c("", 0), 0u); }

TEST(Crc32cTest, SeedChains) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32c(msg.data(), msg.size());
  for (const size_t cut : {size_t{1}, size_t{7}, size_t{20}, msg.size()}) {
    const uint32_t part = Crc32c(msg.data(), cut);
    EXPECT_EQ(Crc32c(msg.data() + cut, msg.size() - cut, part), whole);
  }
}

TEST(Crc32cTest, DetectsSingleBitFlip) {
  std::vector<uint8_t> buf(1024, 0xAB);
  const uint32_t clean = Crc32c(buf.data(), buf.size());
  buf[517] ^= 0x04;
  EXPECT_NE(Crc32c(buf.data(), buf.size()), clean);
}

// ---- Arena ----

TEST(ArenaTest, OffsetsAlignedAndStableAcrossGrowth) {
  Arena arena;
  const uint64_t a = arena.AllocBytes(10);
  EXPECT_EQ(a % kArenaAlign, 0u);
  std::memcpy(arena.at(a), "0123456789", 10);
  // Force several growth cycles; `a` must keep resolving to the same
  // bytes even though the backing block moved.
  std::vector<uint8_t> big(1 << 16, 0x5A);
  const uint64_t b = arena.Append(big.data(), big.size());
  EXPECT_EQ(b % kArenaAlign, 0u);
  for (int i = 0; i < 8; ++i) arena.Append(big.data(), big.size());
  EXPECT_EQ(std::memcmp(arena.at(a), "0123456789", 10), 0);
  EXPECT_EQ(std::memcmp(arena.at(b), big.data(), big.size()), 0);
}

TEST(ArenaTest, AllocZeroFills) {
  Arena arena;
  const uint64_t off = arena.AllocBytes(4096);
  for (size_t i = 0; i < 4096; ++i) ASSERT_EQ(arena.at(off)[i], 0);
}

// ---- FlatVec ----

TEST(FlatVecTest, OwnedAssignAndMutate) {
  FlatVec<uint64_t> v;
  v.assign(100, 7);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_FALSE(v.mapped());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(v.data()) % kArenaAlign, 0u);
  v[3] = 42;
  EXPECT_EQ(v[3], 42u);
  EXPECT_EQ(v[4], 7u);
}

TEST(FlatVecTest, AdoptTakesOverVector) {
  std::vector<uint32_t> src = {1, 2, 3, 4};
  const uint32_t* raw = src.data();
  FlatVec<uint32_t> v = FlatVec<uint32_t>::Adopt(std::move(src));
  EXPECT_EQ(v.data(), raw);  // no copy
  EXPECT_EQ(v.size(), 4u);
  EXPECT_FALSE(v.mapped());
}

TEST(FlatVecTest, ViewSharesAndPinsKeepalive) {
  auto backing = std::make_shared<std::vector<uint16_t>>(16, 9);
  FlatVec<uint16_t> v = FlatVec<uint16_t>::View(
      std::span<const uint16_t>(*backing), backing);
  EXPECT_TRUE(v.mapped());
  EXPECT_EQ(backing.use_count(), 2);
  FlatVec<uint16_t> copy = v;  // views share, not deep-copy
  EXPECT_EQ(copy.data(), v.data());
  EXPECT_EQ(backing.use_count(), 3);
  backing.reset();
  EXPECT_EQ(std::as_const(copy)[0], 9u);  // keepalive pins the backing store
}

TEST(FlatVecTest, CopyOfOwnedIsDeep) {
  FlatVec<uint8_t> v;
  v.assign(8, 1);
  FlatVec<uint8_t> copy = v;
  copy[0] = 2;
  EXPECT_EQ(v[0], 1u);
}

// ---- Writer / Reader round trip ----

class SnapshotFileTest : public ::testing::Test {
 protected:
  // One snapshot with a POD section and a large array section, written
  // to a fresh temp path per test.
  struct Meta {
    uint64_t count = 0;
    double scale = 0.0;
  };

  void SetUp() override {
    path_ = TmpPath(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    payload_.resize(10'000);
    for (size_t i = 0; i < payload_.size(); ++i) {
      payload_[i] = i * 2654435761u;
    }
    SnapshotWriter writer;
    const Meta meta{payload_.size(), 1.5};
    ASSERT_TRUE(writer.AddPod("meta", meta).ok());
    ASSERT_TRUE(writer
                    .AddArray("vals", std::span<const uint64_t>(payload_),
                              SectionKind::kKeys)
                    .ok());
    ASSERT_TRUE(writer.WriteFile(path_).ok());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  std::vector<uint64_t> payload_;
};

TEST_F(SnapshotFileTest, RoundTripsSectionsZeroCopy) {
  auto reader = SnapshotReader::Open(path_);
  ASSERT_TRUE(reader.ok()) << reader.status().message();
  EXPECT_EQ(reader.value().sections().size(), 2u);

  Meta meta;
  ASSERT_TRUE(reader.value().GetPod("meta", &meta).ok());
  EXPECT_EQ(meta.count, payload_.size());
  EXPECT_EQ(meta.scale, 1.5);

  auto vals = reader.value().GetArray<uint64_t>("vals");
  ASSERT_TRUE(vals.ok());
  ASSERT_EQ(vals.value().size(), payload_.size());
  EXPECT_EQ(std::memcmp(vals.value().data(), payload_.data(),
                        payload_.size() * sizeof(uint64_t)),
            0);
  // Zero-copy: the span points into the mapping, 64-byte aligned.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(vals.value().data()) % kSectionAlign,
            0u);
  const SectionEntry* e = reader.value().Find("vals");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind, static_cast<uint32_t>(SectionKind::kKeys));
  EXPECT_TRUE(reader.value().VerifyAllPayloads().ok());
}

TEST_F(SnapshotFileTest, MissingSectionIsStatusNotUb) {
  auto reader = SnapshotReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value().Find("nope"), nullptr);
  EXPECT_FALSE(reader.value().Get("nope").ok());
  Meta meta;
  EXPECT_FALSE(reader.value().GetPod("vals", &meta).ok());  // wrong size
}

TEST_F(SnapshotFileTest, TruncationRejectedAtEveryLayer) {
  const std::vector<uint8_t> whole = ReadAll(path_);
  ASSERT_GT(whole.size(), sizeof(FileHeader));
  // Sub-header, mid-payload, and mid-table truncations must all yield a
  // clean failure from Open.
  for (const size_t keep :
       {size_t{0}, size_t{13}, sizeof(FileHeader) - 1, sizeof(FileHeader),
        whole.size() / 2, whole.size() - 1}) {
    std::vector<uint8_t> cut(whole.begin(),
                             whole.begin() + static_cast<ptrdiff_t>(keep));
    WriteAll(path_, cut);
    auto reader = SnapshotReader::Open(path_);
    EXPECT_FALSE(reader.ok()) << "accepted a file truncated to " << keep;
  }
}

TEST_F(SnapshotFileTest, HeaderCorruptionRejected) {
  std::vector<uint8_t> bytes = ReadAll(path_);
  bytes[3] ^= 0xFF;  // inside the magic
  WriteAll(path_, bytes);
  EXPECT_FALSE(SnapshotReader::Open(path_).ok());

  // A flip past the magic but inside the crc-protected header fields.
  bytes[3] ^= 0xFF;   // restore the magic
  bytes[20] ^= 0x01;  // file_size
  WriteAll(path_, bytes);
  EXPECT_FALSE(SnapshotReader::Open(path_).ok());
}

TEST_F(SnapshotFileTest, TableCorruptionRejected) {
  std::vector<uint8_t> bytes = ReadAll(path_);
  FileHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  ASSERT_LT(h.table_offset, bytes.size());
  bytes[h.table_offset + 2] ^= 0x10;  // a section-table name byte
  WriteAll(path_, bytes);
  EXPECT_FALSE(SnapshotReader::Open(path_).ok());
}

TEST_F(SnapshotFileTest, PayloadFlipCaughtByChecksumOptIn) {
  std::vector<uint8_t> bytes = ReadAll(path_);
  // Flip one byte in the middle of the "vals" payload (after the 64-byte
  // header, before the table).
  FileHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  const size_t flip = sizeof(FileHeader) + (h.table_offset / 2);
  ASSERT_LT(flip, h.table_offset);
  bytes[flip] ^= 0x01;
  WriteAll(path_, bytes);

  // The envelope stays valid: default Open succeeds (restart-path mode)…
  auto lazy = SnapshotReader::Open(path_);
  ASSERT_TRUE(lazy.ok());
  // …but payload verification pinpoints the damage.
  EXPECT_FALSE(lazy.value().VerifyAllPayloads().ok());

  // And the opt-in verifying Open refuses the file outright.
  OpenOptions verify;
  verify.verify_payloads = true;
  EXPECT_FALSE(SnapshotReader::Open(path_, verify).ok());
}

TEST(SnapshotWriterTest, RejectsDuplicateAndOverlongNames) {
  SnapshotWriter writer;
  const uint64_t x = 1;
  ASSERT_TRUE(writer.AddPod("dup", x).ok());
  EXPECT_FALSE(writer.AddPod("dup", x).ok());
  EXPECT_FALSE(writer.AddPod("", x).ok());
  EXPECT_FALSE(writer.AddPod(std::string(kMaxSectionName + 1, 'a'), x).ok());
  EXPECT_TRUE(writer.AddPod(std::string(kMaxSectionName, 'a'), x).ok());
}

TEST(SnapshotWriterTest, PublishIsAtomic) {
  const std::string path = TmpPath("atomic");
  // Seed the target with a valid snapshot.
  {
    SnapshotWriter writer;
    const uint64_t v = 1;
    ASSERT_TRUE(writer.AddPod("v", v).ok());
    ASSERT_TRUE(writer.WriteFile(path).ok());
  }
  // Overwrite through the same path; the new content replaces the old
  // in one rename — there is never a moment with a half-written file
  // under the target name.
  {
    SnapshotWriter writer;
    const uint64_t v = 2;
    ASSERT_TRUE(writer.AddPod("v", v).ok());
    ASSERT_TRUE(writer.WriteFile(path).ok());
  }
  auto reader = SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok());
  uint64_t v = 0;
  ASSERT_TRUE(reader.value().GetPod("v", &v).ok());
  EXPECT_EQ(v, 2u);
  std::remove(path.c_str());
}

TEST(SnapshotReaderTest, NonexistentPathIsStatus) {
  EXPECT_FALSE(SnapshotReader::Open(TmpPath("does_not_exist")).ok());
}

// ---- RMI routing stage (<prefix>route) ----

/// Rewrites `from` into `to` with the section `name` replaced by `payload`
/// (or dropped when `payload` is null); every other section is copied.
void RewriteSection(const std::string& from, const std::string& to,
                    const std::string& name,
                    const std::vector<uint8_t>* payload) {
  auto reader = SnapshotReader::Open(from);
  ASSERT_TRUE(reader.ok()) << reader.status().message();
  SnapshotWriter writer;
  for (const SectionEntry& e : reader.value().sections()) {
    const auto kind = static_cast<SectionKind>(e.kind);
    if (e.name != name) {
      auto bytes = reader.value().Get(e.name);
      ASSERT_TRUE(bytes.ok());
      ASSERT_TRUE(writer.AddArray(e.name, bytes.value(), kind).ok());
    } else if (payload != nullptr) {
      ASSERT_TRUE(writer
                      .AddArray(e.name, std::span<const uint8_t>(*payload),
                                kind)
                      .ok());
    }
  }
  ASSERT_TRUE(writer.WriteFile(to).ok());
}

class RmiRouteSectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    keys_ = data::GenLognormal(20'000, 47);
    rmi::RmiConfig config;
    config.num_leaf_models = 640;  // K = 10
    ASSERT_TRUE(built_.Build(keys_, config).ok());
    ASSERT_EQ(built_.num_route_models(), 10u);
    ASSERT_TRUE(built_.WriteSnapshot(path_).ok());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(bad_.c_str());
  }

  /// Route section bytes of the first `models` routing models, plus
  /// `extra` stray bytes.
  std::vector<uint8_t> RouteBytes(size_t models, size_t extra = 0) const {
    const auto* p = reinterpret_cast<const uint8_t*>(built_.route().data());
    std::vector<uint8_t> bytes(p, p + models * sizeof(models::LinearModel));
    bytes.resize(bytes.size() + extra, 0x5a);
    return bytes;
  }

  std::vector<uint64_t> keys_;
  rmi::LinearRmi built_;
  const std::string path_ = TmpPath("rmi_route.snap");
  const std::string bad_ = TmpPath("rmi_route_bad.snap");
};

TEST_F(RmiRouteSectionTest, LoadsAsZeroCopyView) {
  auto reader = SnapshotReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  const SectionEntry* e = reader.value().Find("route");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(static_cast<SectionKind>(e->kind), SectionKind::kRoute);
  rmi::LinearRmi opened;
  ASSERT_TRUE(opened.LoadSections(reader.value(), "").ok());
  auto mapped = reader.value().GetArray<models::LinearModel>("route");
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(opened.route().data(), mapped.value().data());
  EXPECT_EQ(opened.num_route_models(), built_.num_route_models());
  EXPECT_EQ(opened.SizeBytes(), built_.SizeBytes());
}

TEST_F(RmiRouteSectionTest, FileWithoutRouteOpensAsTwoStage) {
  // A K = 1 index writes no route section: the same bytes as before the
  // stage existed.
  rmi::RmiConfig config;
  config.num_leaf_models = 640;
  config.num_route_models = 1;
  rmi::LinearRmi two_stage;
  ASSERT_TRUE(two_stage.Build(keys_, config).ok());
  ASSERT_TRUE(two_stage.WriteSnapshot(bad_).ok());
  {
    auto reader = SnapshotReader::Open(bad_);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.value().Find("route"), nullptr);
  }
  auto reopened = rmi::LinearRmi::OpenSnapshot(bad_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(reopened.value().num_route_models(), 1u);
  for (size_t i = 0; i < keys_.size(); i += 7) {
    ASSERT_EQ(reopened.value().Lookup(keys_[i]), two_stage.Lookup(keys_[i]));
    ASSERT_EQ(reopened.value().Lookup(keys_[i] + 1),
              two_stage.Lookup(keys_[i] + 1));
  }

  // Dropping the section from a routed file falls back to the top alone;
  // the leaves were fitted under other routing, but answers stay exact.
  RewriteSection(path_, bad_, "route", nullptr);
  auto fallback = rmi::LinearRmi::OpenSnapshot(bad_);
  ASSERT_TRUE(fallback.ok()) << fallback.status().message();
  EXPECT_EQ(fallback.value().num_route_models(), 1u);
  for (size_t i = 0; i < keys_.size(); i += 7) {
    ASSERT_EQ(fallback.value().Lookup(keys_[i]), i);
  }
}

TEST_F(RmiRouteSectionTest, CorruptRouteSectionIsStatus) {
  const std::vector<std::pair<const char*, std::vector<uint8_t>>> cases = {
      {"partial model", RouteBytes(3, sizeof(double))},
      {"K = 0", RouteBytes(0)},
      {"K > num_leaf_models", RouteBytes(0, 641 * sizeof(models::LinearModel))},
  };
  for (const auto& [what, payload] : cases) {
    RewriteSection(path_, bad_, "route", &payload);
    auto opened = rmi::LinearRmi::OpenSnapshot(bad_);
    EXPECT_FALSE(opened.ok()) << what;
  }
  // The untouched file still opens.
  EXPECT_TRUE(rmi::LinearRmi::OpenSnapshot(path_).ok());
}

TEST(LearnedHashSnapshotTest, WritesNoRouteSection) {
  // The learned CDF hash keeps K = 1, so its snapshots keep their layout.
  const auto keys = data::GenLognormal(20'000, 49);
  std::vector<hash::Record> records(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    records[i] = {keys[i], keys[i] ^ 0x5a5a, static_cast<uint32_t>(i)};
  }
  hash::ChainedHashMapConfig config;
  config.hash.kind = hash::HashKind::kLearnedCdf;
  config.hash.cdf_leaf_models = 4096;
  hash::ChainedHashMap map;
  ASSERT_TRUE(map.Build(records, config).ok());
  const std::string path = TmpPath("learned_hash.snap");
  ASSERT_TRUE(map.WriteSnapshot(path).ok());
  auto reader = SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok());
  for (const SectionEntry& e : reader.value().sections()) {
    EXPECT_NE(static_cast<SectionKind>(e.kind), SectionKind::kRoute)
        << e.name;
  }
  std::remove(path.c_str());
}

// ---- Deterministic bytes ----

/// The byte DirtyStack writes: 0 during a harness's first run, 0xAB
/// during its second.
uint8_t stack_fill = 0;

/// Fills 64 KiB of stack below the caller with `stack_fill`, so any byte
/// a later call at the same depth leaves uninitialized reads as that
/// byte. A write function whose build runs deep calls again right
/// before it writes: the build's own stack traffic would wash the fill
/// out.
[[gnu::noinline]] void DirtyStack() {
  volatile uint8_t buf[64 * 1024];
  for (size_t i = 0; i < sizeof(buf); ++i) buf[i] = stack_fill;
}

/// Runs `write(path)` twice, the second time on a dirtied stack, and
/// expects byte-identical files: padding bytes copied from the stack into
/// a persisted struct would show up as a difference. `write` may also
/// leave files at `path + suffix` for each of `suffixes`; those are
/// compared the same way.
template <typename WriteFn>
void ExpectIdenticalOnDirtyStack(const std::string& name, WriteFn&& write,
                                 const std::vector<std::string>& suffixes =
                                     {}) {
  const std::string clean = TmpPath(name + "_clean.snap");
  const std::string dirty = TmpPath(name + "_dirty.snap");
  stack_fill = 0;
  write(clean);
  stack_fill = 0xAB;
  DirtyStack();
  write(dirty);
  std::vector<std::string> all = {""};
  all.insert(all.end(), suffixes.begin(), suffixes.end());
  for (const std::string& suffix : all) {
    const std::vector<uint8_t> a = ReadAll(clean + suffix);
    const std::vector<uint8_t> b = ReadAll(dirty + suffix);
    ASSERT_FALSE(a.empty()) << suffix;
    ASSERT_EQ(a.size(), b.size()) << suffix;
    size_t differing = 0;
    for (size_t i = 0; i < a.size(); ++i) differing += a[i] != b[i];
    EXPECT_EQ(differing, 0u) << "of " << a.size() << " bytes" << suffix;
    std::remove((clean + suffix).c_str());
    std::remove((dirty + suffix).c_str());
  }
}

TEST(DeterministicSnapshotTest, ChainedHashMapBuiltTwiceIsByteIdentical) {
  // Half as many slots as records, so most records land in overflow.
  const auto keys = data::GenUniform(4'096, 71);
  std::vector<hash::Record> records;
  for (size_t i = 0; i < keys.size(); ++i) {
    records.push_back({keys[i], i, static_cast<uint32_t>(i)});
  }
  hash::ChainedHashMapConfig config;
  config.num_slots = records.size() / 2;
  config.hash.seed = 73;
  ExpectIdenticalOnDirtyStack("det_chained", [&](const std::string& path) {
    hash::ChainedHashMap map;
    ASSERT_TRUE(map.Build(records, config).ok());
    ASSERT_TRUE(map.WriteSnapshot(path).ok());
  });
}

TEST(DeterministicSnapshotTest, RmiBuiltTwiceIsByteIdentical) {
  const auto keys = data::GenLognormal(20'000, 79);
  rmi::RmiConfig config;
  config.num_leaf_models = 256;
  ExpectIdenticalOnDirtyStack("det_rmi", [&](const std::string& path) {
    rmi::LinearRmi rmi;
    ASSERT_TRUE(rmi.Build(keys, config).ok());
    ASSERT_TRUE(rmi.WriteSnapshot(path).ok());
  });
}

using DeltaRmi = dynamic::DeltaRangeIndex<rmi::LinearRmi>;
using ConcRmi = concurrent::ConcurrentWritableIndex<rmi::LinearRmi>;
using ShardedRmi = concurrent::ShardedIndex<ConcRmi>;

/// Inserts `writes` keys past the build set and erases as many base keys
/// (every 7th), so the snapshot carries a delta.
template <typename Idx>
void WriteSome(Idx& idx, const std::vector<uint64_t>& keys, size_t writes) {
  for (size_t i = 0; i < writes; ++i) {
    idx.Insert(keys.back() + 2 * (i + 1));
    idx.Erase(keys[(7 * i) % keys.size()]);
  }
}

std::vector<uint64_t> DistinctKeys(size_t n, uint64_t seed) {
  auto keys = data::GenLognormal(n, seed);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

// The snapshot path's own calls rewrite the stack slot the cfg record
// is encoded in, so the dirty-stack cases below cannot see its pad:
// encode straight into storage filled with 0xAB instead.
TEST(DeterministicSnapshotTest, DeltaCfgRecordPadIsZero) {
  using Record = dynamic::DeltaCfgRecord;
  alignas(Record) uint8_t buf[sizeof(Record)];
  std::memset(buf, 0xAB, sizeof(buf));
  const auto* r = new (buf) Record(dynamic::EncodeCfg({}));
  for (const uint8_t b : r->pad) EXPECT_EQ(b, 0);
}

// The delta cfg section is a 48-byte record of which 4 bytes were
// padding behind the merge trigger.
TEST(DeterministicSnapshotTest, DeltaIndexBuiltTwiceIsByteIdentical) {
  const auto keys = DistinctKeys(20'000, 83);
  ExpectIdenticalOnDirtyStack("det_delta", [&](const std::string& path) {
    DeltaRmi::Config config;
    config.base.num_leaf_models = 256;
    config.policy.trigger = dynamic::MergeTrigger::kManual;
    DeltaRmi idx;
    ASSERT_TRUE(idx.Build(keys, config).ok());
    WriteSome(idx, keys, 300);
    DirtyStack();
    ASSERT_TRUE(idx.WriteSnapshot(path).ok());
  });
}

TEST(DeterministicSnapshotTest, ConcurrentIndexBuiltTwiceIsByteIdentical) {
  const auto keys = DistinctKeys(20'000, 89);
  ExpectIdenticalOnDirtyStack("det_conc", [&](const std::string& path) {
    ConcRmi::Config config;
    config.base.num_leaf_models = 256;
    config.policy.trigger = dynamic::MergeTrigger::kManual;
    config.log_cap = 128;  // the writes below freeze the log twice
    ConcRmi idx;
    ASSERT_TRUE(idx.Build(keys, config).ok());
    WriteSome(idx, keys, 150);
    DirtyStack();
    ASSERT_TRUE(idx.WriteSnapshot(path).ok());
  });
}

// A durable sharded index: its snapshot file carries the 88-byte
// manifest record (7 bytes of it were padding behind the rebalance
// switch) and every shard's cfg record; its durability directory's
// MANIFEST carries the manifest record again.
TEST(DeterministicSnapshotTest, DurableShardedIndexBuiltTwiceIsByteIdentical) {
  const auto keys = DistinctKeys(20'000, 97);
  ExpectIdenticalOnDirtyStack(
      "det_sharded",
      [&](const std::string& path) {
        ShardedRmi::Config config;
        config.num_shards = 4;
        config.inner.base.num_leaf_models = 64;
        config.inner.policy.trigger = dynamic::MergeTrigger::kManual;
        config.rebalance.enabled = true;
        ShardedRmi idx;
        ASSERT_TRUE(idx.Build(keys, config).ok());
        const std::string dir = path + ".dir";
        std::filesystem::remove_all(dir);
        wal::DurabilityConfig dcfg;
        dcfg.path = dir;
        DirtyStack();
        ASSERT_TRUE(idx.EnableDurability(dcfg).ok());
        WriteSome(idx, keys, 200);
        idx.WaitForRebalances();
        DirtyStack();
        ASSERT_TRUE(idx.WriteSnapshot(path).ok());
        std::filesystem::copy_file(
            dir + "/MANIFEST", path + ".MANIFEST",
            std::filesystem::copy_options::overwrite_existing);
        std::filesystem::remove_all(dir);
      },
      {".MANIFEST"});
}

}  // namespace
}  // namespace li::snapshot
