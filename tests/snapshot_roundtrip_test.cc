// Snapshot round-trip conformance: every index class with a
// WriteSnapshot/OpenSnapshot pair is built, persisted, reopened
// zero-copy, and driven through the same query stream as the original —
// results must be bit-identical, not merely plausible (the reopened
// structure serves from the mmapped file, so any layout drift shows up
// as a divergent answer). Writable classes additionally accept writes
// and merges *after* reopening, proving a mapped base composes with
// fresh mutable deltas. Datasets cover uniform-random, skewed
// (zipf-like power-law with heavy duplication), and the paper's
// maps/weblog/lognormal shapes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <string>
#include <unistd.h>
#include <vector>

#include "bloom/bloom_filter.h"
#include "bloom/learned_bloom.h"
#include "classifier/ngram_logistic.h"
#include "common/random.h"
#include "concurrent/concurrent_writable_index.h"
#include "concurrent/sharded_index.h"
#include "data/datasets.h"
#include "data/strings.h"
#include "dynamic/delta_range_index.h"
#include "dynamic/delta_snapshot.h"
#include "dynamic/merge_policy.h"
#include "hash/chained_hash_map.h"
#include "lif/synthesizer.h"
#include "rmi/rmi.h"
#include "snapshot/snapshot.h"

namespace li {
namespace {

using rmi::LinearRmi;
using DeltaRmi = dynamic::DeltaRangeIndex<LinearRmi>;
using ConcRmi = concurrent::ConcurrentWritableIndex<LinearRmi>;
using ShardedRmi = concurrent::ShardedIndex<ConcRmi>;

std::string TmpSnap(const std::string& name) {
  return ::testing::TempDir() + "li_roundtrip_" + name + ".snap";
}

size_t StdLowerBound(const std::vector<uint64_t>& v, uint64_t key) {
  return static_cast<size_t>(
      std::lower_bound(v.begin(), v.end(), key) - v.begin());
}

/// Present keys, near-misses, and uniform probes — the standard mixed
/// query stream used by the RMI conformance tests.
std::vector<uint64_t> MixedQueries(const std::vector<uint64_t>& keys,
                                   size_t count, uint64_t seed) {
  std::vector<uint64_t> qs;
  qs.reserve(count + 4);
  Xorshift128Plus rng(seed);
  for (size_t i = 0; i < count; ++i) {
    const uint64_t k = keys[rng.NextBounded(keys.size())];
    switch (rng.NextBounded(4)) {
      case 0: qs.push_back(k); break;
      case 1: qs.push_back(k + 1); break;
      case 2: qs.push_back(k == 0 ? 0 : k - 1); break;
      default: qs.push_back(rng.Next()); break;
    }
  }
  qs.push_back(0);
  qs.push_back(keys.front());
  qs.push_back(keys.back());
  qs.push_back(~uint64_t{0});
  return qs;
}

/// Zipf-like skew: key = floor(space / rank^~1) over random ranks, which
/// yields a heavily duplicated head and a long sparse tail.
std::vector<uint64_t> GenZipfish(size_t n, uint64_t seed) {
  Xorshift128Plus rng(seed);
  std::vector<uint64_t> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t rank = rng.NextBounded(1'000'000) + 1;
    keys.push_back(uint64_t{1'000'000'000'000} / rank);
  }
  std::sort(keys.begin(), keys.end());
  return keys;  // duplicates intentionally kept
}

// ---- RMI ----

class RmiRoundTripTest : public ::testing::TestWithParam<data::DatasetKind> {};

TEST_P(RmiRoundTripTest, ReopenedLookupsBitIdentical) {
  const auto keys = data::Generate(GetParam(), 60'000, 17);
  rmi::RmiConfig config;
  config.num_leaf_models = 600;
  LinearRmi built;
  ASSERT_TRUE(built.Build(keys, config).ok());
  EXPECT_FALSE(built.FromSnapshot());

  const std::string path = TmpSnap(data::DatasetName(GetParam()));
  ASSERT_TRUE(built.WriteSnapshot(path).ok());
  auto reopened = LinearRmi::OpenSnapshot(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_TRUE(reopened.value().FromSnapshot());
  EXPECT_EQ(reopened.value().SizeBytes(), built.SizeBytes());

  for (const uint64_t q : MixedQueries(keys, 20'000, 3)) {
    ASSERT_EQ(reopened.value().LowerBound(q), built.LowerBound(q)) << q;
    ASSERT_EQ(reopened.value().LowerBound(q), StdLowerBound(keys, q)) << q;
  }
  // Batch path serves from the mapping too.
  const auto qs = MixedQueries(keys, 4'096, 5);
  std::vector<size_t> got(qs.size()), want(qs.size());
  reopened.value().LookupBatch(qs, got);
  built.LookupBatch(qs, want);
  EXPECT_EQ(got, want);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Datasets, RmiRoundTripTest,
                         ::testing::Values(data::DatasetKind::kMaps,
                                           data::DatasetKind::kWeblog,
                                           data::DatasetKind::kLognormal));

TEST(RmiRoundTripTest, DuplicateHeavyZipfKeys) {
  const auto keys = GenZipfish(50'000, 23);
  rmi::RmiConfig config;
  config.num_leaf_models = 500;
  LinearRmi built;
  ASSERT_TRUE(built.Build(keys, config).ok());
  const std::string path = TmpSnap("zipf");
  ASSERT_TRUE(built.WriteSnapshot(path).ok());
  auto reopened = LinearRmi::OpenSnapshot(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  for (const uint64_t q : MixedQueries(keys, 20'000, 29)) {
    ASSERT_EQ(reopened.value().LowerBound(q), StdLowerBound(keys, q)) << q;
  }
  std::remove(path.c_str());
}

TEST(RmiRoundTripTest, CorruptSnapshotRejectedCleanly) {
  const auto keys = data::GenLognormal(10'000, 41);
  rmi::RmiConfig config;
  config.num_leaf_models = 100;
  LinearRmi built;
  ASSERT_TRUE(built.Build(keys, config).ok());
  const std::string path = TmpSnap("corrupt");
  ASSERT_TRUE(built.WriteSnapshot(path).ok());

  // Truncate to half: the envelope check fires, Open returns a Status.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long half = std::ftell(f) / 2;
    std::fclose(f);
    ASSERT_EQ(::truncate(path.c_str(), half), 0);
  }
  EXPECT_FALSE(LinearRmi::OpenSnapshot(path).ok());
  std::remove(path.c_str());
}

// ---- Bloom ----

TEST(BloomRoundTripTest, BitmapIdenticalAfterReopen) {
  bloom::BloomFilter built;
  ASSERT_TRUE(built.Init(20'000, 0.01).ok());
  Xorshift128Plus rng(47);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 20'000; ++i) keys.push_back(rng.Next());
  for (const uint64_t k : keys) built.Add(k);

  const std::string path = TmpSnap("bloom");
  ASSERT_TRUE(built.WriteSnapshot(path).ok());
  auto reopened = bloom::BloomFilter::OpenSnapshot(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();

  for (const uint64_t k : keys) {
    ASSERT_TRUE(reopened.value().MightContain(k));
  }
  // Any probe — positive or negative — answers identically: same bits,
  // same hashes.
  for (int i = 0; i < 50'000; ++i) {
    const uint64_t probe = rng.Next();
    ASSERT_EQ(reopened.value().MightContain(probe), built.MightContain(probe));
  }
  std::remove(path.c_str());
}

class LearnedBloomRoundTripTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = data::GenUrls(20'000, 30'000, 41);
    const size_t third = corpus_.random_negatives.size() / 3;
    train_neg_.assign(corpus_.random_negatives.begin(),
                      corpus_.random_negatives.begin() + third);
    valid_neg_.assign(corpus_.random_negatives.begin() + third,
                      corpus_.random_negatives.begin() + 2 * third);
    test_neg_.assign(corpus_.random_negatives.begin() + 2 * third,
                     corpus_.random_negatives.end());
    classifier::NgramConfig config;
    config.num_buckets = 2048;
    ASSERT_TRUE(model_.Train(corpus_.keys, train_neg_, config).ok());
  }

  data::UrlCorpus corpus_;
  std::vector<std::string> train_neg_, valid_neg_, test_neg_;
  classifier::NgramLogistic model_;
};

TEST_F(LearnedBloomRoundTripTest, ReopenWithResuppliedClassifier) {
  bloom::LearnedBloomFilter<classifier::NgramLogistic> built;
  ASSERT_TRUE(built.Build(&model_, corpus_.keys, valid_neg_, 0.01).ok());

  const std::string path = TmpSnap("learned_bloom");
  ASSERT_TRUE(built.WriteSnapshot(path).ok());
  // The classifier is not serialized (it is shared, caller-owned state);
  // the caller re-supplies it at open.
  auto reopened = bloom::LearnedBloomFilter<classifier::NgramLogistic>::
      OpenSnapshot(path, &model_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();

  for (const auto& k : corpus_.keys) {
    ASSERT_TRUE(reopened.value().MightContain(k)) << k;
  }
  for (const auto& n : test_neg_) {
    ASSERT_EQ(reopened.value().MightContain(n), built.MightContain(n)) << n;
  }
  std::remove(path.c_str());
}

// ---- Hash ----

std::vector<hash::Record> MakeRecords(const std::vector<uint64_t>& keys) {
  std::vector<hash::Record> records;
  records.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    records.push_back(
        hash::Record{keys[i], i, static_cast<uint32_t>(i & 0xFFFF)});
  }
  return records;
}

class HashRoundTripTest : public ::testing::TestWithParam<hash::HashKind> {};

TEST_P(HashRoundTripTest, FindIdenticalAfterReopen) {
  auto keys = data::GenUniform(30'000, 53);
  // Inject duplicates: Build keeps the first record per key, and the
  // reopened table must preserve exactly that choice.
  keys.resize(29'000);
  for (int i = 0; i < 1'000; ++i) keys.push_back(keys[i]);
  const auto records = MakeRecords(keys);

  hash::ChainedHashMapConfig config;
  config.num_slots = 24'000;
  config.hash.kind = GetParam();
  config.hash.seed = 59;
  hash::ChainedHashMap built;
  ASSERT_TRUE(built.Build(records, config).ok());

  const std::string path = TmpSnap(
      GetParam() == hash::HashKind::kRandom ? "hash_rand" : "hash_cdf");
  ASSERT_TRUE(built.WriteSnapshot(path).ok());
  auto reopened = hash::ChainedHashMap::OpenSnapshot(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(reopened.value().num_records(), built.num_records());

  Xorshift128Plus rng(61);
  for (const auto& r : records) {
    const hash::Record* a = built.Find(r.key);
    const hash::Record* b = reopened.value().Find(r.key);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(a->payload, b->payload) << r.key;  // keep-first preserved
  }
  for (int i = 0; i < 20'000; ++i) {
    const uint64_t probe = rng.Next();
    const hash::Record* a = built.Find(probe);
    const hash::Record* b = reopened.value().Find(probe);
    ASSERT_EQ(a == nullptr, b == nullptr) << probe;
    if (a != nullptr) ASSERT_EQ(a->payload, b->payload) << probe;
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Kinds, HashRoundTripTest,
                         ::testing::Values(hash::HashKind::kRandom,
                                           hash::HashKind::kLearnedCdf));

// ---- Delta / concurrent / sharded writable wrappers ----

std::vector<uint64_t> SeedKeys(size_t n, uint64_t seed) {
  auto keys = data::GenLognormal(n, seed);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

/// Compares idx against the oracle set on ranks, membership, and a full
/// scan, then proves the reopened index still *writes*: inserts, erases
/// and an explicit merge against a mapped base.
template <typename Idx>
void CheckAndMutate(Idx& idx, std::set<uint64_t>& oracle, uint64_t seed) {
  std::vector<uint64_t> ref(oracle.begin(), oracle.end());
  ASSERT_EQ(idx.size(), ref.size());
  ASSERT_EQ(idx.Scan(0, ref.size() + 1), ref);
  Xorshift128Plus rng(seed);
  for (int i = 0; i < 2'000; ++i) {
    const uint64_t q = rng.NextBounded(2'000'000'100);
    ASSERT_EQ(idx.Lookup(q), StdLowerBound(ref, q)) << q;
    ASSERT_EQ(idx.Contains(q), oracle.count(q) > 0) << q;
  }
  // Post-reopen writes: the mapped base composes with a fresh delta.
  for (int i = 0; i < 3'000; ++i) {
    const uint64_t k = rng.NextBounded(2'000'000'000);
    if (rng.NextBounded(3) == 0) {
      ASSERT_EQ(idx.Erase(k), oracle.erase(k) > 0) << "op " << i;
    } else {
      ASSERT_EQ(idx.Insert(k), oracle.insert(k).second) << "op " << i;
    }
  }
  ASSERT_TRUE(idx.Merge().ok());  // consolidates into an owned base
  ref.assign(oracle.begin(), oracle.end());
  ASSERT_EQ(idx.size(), ref.size());
  for (int i = 0; i < 2'000; ++i) {
    const uint64_t q = rng.NextBounded(2'000'000'100);
    ASSERT_EQ(idx.Lookup(q), StdLowerBound(ref, q)) << q;
  }
}

TEST(DeltaRoundTripTest, SnapshotMidStreamThenKeepWriting) {
  const auto keys = SeedKeys(20'000, 67);
  dynamic::MergePolicy policy;
  policy.trigger = dynamic::MergeTrigger::kManual;
  DeltaRmi::Config config;
  config.base.num_leaf_models = 256;
  config.policy = policy;
  DeltaRmi built;
  ASSERT_TRUE(built.Build(keys, config).ok());
  std::set<uint64_t> oracle(keys.begin(), keys.end());

  // Mutate before snapshotting so the delta buffer has live content —
  // inserts, erases of base keys, and tombstones all serialize.
  Xorshift128Plus rng(71);
  for (int i = 0; i < 4'000; ++i) {
    const uint64_t k = rng.NextBounded(2'000'000'000);
    if (rng.NextBounded(3) == 0) {
      ASSERT_EQ(built.Erase(k), oracle.erase(k) > 0);
    } else {
      ASSERT_EQ(built.Insert(k), oracle.insert(k).second);
    }
  }

  const std::string path = TmpSnap("delta");
  ASSERT_TRUE(built.WriteSnapshot(path).ok());
  auto reopened = DeltaRmi::OpenSnapshot(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  CheckAndMutate(reopened.value(), oracle, 73);
  std::remove(path.c_str());
}

TEST(ConcurrentRoundTripTest, QuiesceSnapshotReopenAndWrite) {
  const auto keys = SeedKeys(20'000, 79);
  ConcRmi::Config config;
  config.base.num_leaf_models = 256;
  config.policy.trigger = dynamic::MergeTrigger::kManual;
  config.log_cap = 64;  // force freeze folds before the snapshot
  ConcRmi built;
  ASSERT_TRUE(built.Build(keys, config).ok());
  std::set<uint64_t> oracle(keys.begin(), keys.end());
  Xorshift128Plus rng(83);
  for (int i = 0; i < 4'000; ++i) {
    const uint64_t k = rng.NextBounded(2'000'000'000);
    if (rng.NextBounded(3) == 0) {
      ASSERT_EQ(built.Erase(k), oracle.erase(k) > 0);
    } else {
      ASSERT_EQ(built.Insert(k), oracle.insert(k).second);
    }
  }

  const std::string path = TmpSnap("concurrent");
  ASSERT_TRUE(built.WriteSnapshot(path).ok());
  // The snapshot is a point-in-time capture: the original keeps serving
  // and writing after the quiesce window closes.
  ASSERT_TRUE(built.Insert(3'000'000'001ull));

  auto reopened = ConcRmi::OpenSnapshot(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  CheckAndMutate(reopened.value(), oracle, 89);
  std::remove(path.c_str());
}

TEST(ShardedRoundTripTest, ManifestComposesPerShardSnapshots) {
  const auto keys = SeedKeys(30'000, 97);
  ShardedRmi::Config config;
  config.inner.base.num_leaf_models = 128;
  config.inner.policy.trigger = dynamic::MergeTrigger::kManual;
  config.num_shards = 4;
  ShardedRmi built;
  ASSERT_TRUE(built.Build(keys, config).ok());
  std::set<uint64_t> oracle(keys.begin(), keys.end());
  Xorshift128Plus rng(101);
  for (int i = 0; i < 4'000; ++i) {
    const uint64_t k = rng.NextBounded(2'000'000'000);
    if (rng.NextBounded(3) == 0) {
      ASSERT_EQ(built.Erase(k), oracle.erase(k) > 0);
    } else {
      ASSERT_EQ(built.Insert(k), oracle.insert(k).second);
    }
  }

  const std::string path = TmpSnap("sharded");
  ASSERT_TRUE(built.WriteSnapshot(path).ok());
  auto reopened = ShardedRmi::OpenSnapshot(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(reopened.value().num_shards(), built.num_shards());
  CheckAndMutate(reopened.value(), oracle, 103);
  std::remove(path.c_str());
}

// ---- Delta sections checked against their base keys ----

/// Copies the snapshot at `src` to `dst` section by section, swapping in
/// the payloads named in `replace`. The file envelope and table CRCs are
/// recomputed, so only the loaders' own checks see the change.
void CopySnapshot(const std::string& src, const std::string& dst,
                  const std::map<std::string, std::vector<uint8_t>>& replace) {
  auto reader = snapshot::SnapshotReader::Open(src);
  ASSERT_TRUE(reader.ok()) << reader.status().message();
  snapshot::SnapshotWriter writer;
  for (const snapshot::SectionEntry& e : reader.value().sections()) {
    auto bytes = reader.value().Get(e.name);
    ASSERT_TRUE(bytes.ok());
    const auto it = replace.find(e.name);
    const std::span<const uint8_t> payload =
        it != replace.end() ? std::span<const uint8_t>(it->second)
                            : bytes.value();
    ASSERT_TRUE(writer
                    .AddSection(e.name,
                                static_cast<snapshot::SectionKind>(e.kind),
                                payload.data(), payload.size())
                    .ok());
  }
  ASSERT_TRUE(writer.WriteFile(dst).ok());
}

std::vector<uint8_t> Bytes(const std::vector<uint64_t>& v) {
  std::vector<uint8_t> out(v.size() * sizeof(uint64_t));
  std::memcpy(out.data(), v.data(), out.size());
  return out;
}

/// A cfg no open accepts, as two edits of a valid one: `slot` edits the
/// persisted record (the crafted-file path) and `knob`, when a Config can
/// express the same fault, edits the (policy, buffer capacity) pair a
/// Build takes. The write_ratio rows edit the retired slot, which no
/// Config reaches.
struct BadDeltaCfg {
  const char* what;
  std::function<void(dynamic::DeltaCfgRecord&)> slot;
  std::function<void(dynamic::MergePolicy&, uint64_t&)> knob;
};

std::vector<BadDeltaCfg> BadDeltaCfgs() {
  return {
      {"NaN max_delta_fraction",
       [](auto& r) { r.max_delta_fraction = std::nan(""); },
       [](auto& p, auto&) { p.max_delta_fraction = std::nan(""); }},
      {"max_delta_fraction above 1",
       [](auto& r) { r.max_delta_fraction = 1.5; },
       [](auto& p, auto&) { p.max_delta_fraction = 1.5; }},
      {"negative write_ratio", [](auto& r) { r.write_ratio = -0.1; }, nullptr},
      {"infinite write_ratio", [](auto& r) { r.write_ratio = HUGE_VAL; },
       nullptr},
      {"unknown trigger", [](auto& r) { r.trigger = 7; },
       [](auto& p, auto&) {
         p.trigger = static_cast<dynamic::MergeTrigger>(7);
       }},
      {"cap 2^40", [](auto& r) { r.cap = uint64_t{1} << 40; },
       [](auto&, auto& cap) { cap = uint64_t{1} << 40; }},
      {"cap 2^20 + 1", [](auto& r) { r.cap = (uint64_t{1} << 20) + 1; },
       [](auto&, auto& cap) { cap = (uint64_t{1} << 20) + 1; }},
  };
}

// DeltaRangeIndex and ConcurrentWritableIndex share one delta layout, so
// one file drives both. Over base keys {10, 20, ..., 10000} the delta is
// Erase(5) of an absent key (flags 1), Insert(15) (flags 0) and
// Erase(20) of a base key (flags 3). Every crafted variant below
// disagrees with the base keys or with itself, has base keys out of
// order, or carries a cfg knob no Build accepts, and both classes must
// refuse it at open. Unchecked,
// flipping the first entry's in_base bit (1 -> 3) opens cleanly and
// answers size() 999 and Lookup(6) == SIZE_MAX; a NaN max_delta_fraction
// opens and makes the first Insert a float-cast UB; a 2^40 cap makes
// ConcurrentWritableIndex's open throw bad_alloc. Payload CRCs are not
// verified by the default Open.
TEST(DeltaSectionsTest, DeltaDisagreeingWithBaseKeysIsRejected) {
  std::vector<uint64_t> keys;
  for (uint64_t k = 10; k <= 10'000; k += 10) keys.push_back(k);
  DeltaRmi::Config config;
  config.base.num_leaf_models = 16;
  config.policy.trigger = dynamic::MergeTrigger::kManual;
  DeltaRmi built;
  ASSERT_TRUE(built.Build(keys, config).ok());
  ASSERT_FALSE(built.Erase(5));
  ASSERT_TRUE(built.Insert(15));
  ASSERT_TRUE(built.Erase(20));
  const std::string path = TmpSnap("delta_check");
  ASSERT_TRUE(built.WriteSnapshot(path).ok());

  std::vector<uint64_t> dkeys;
  std::vector<uint8_t> dmeta;
  dynamic::DeltaCfgRecord cfg{};
  {
    auto reader = snapshot::SnapshotReader::Open(path);
    ASSERT_TRUE(reader.ok());
    ASSERT_TRUE(reader.value().GetPod("cfg", &cfg).ok());
    auto dk = reader.value().GetArray<uint64_t>("dkeys");
    auto dm = reader.value().GetArray<uint8_t>("dmeta");
    ASSERT_TRUE(dk.ok() && dm.ok());
    dkeys.assign(dk.value().begin(), dk.value().end());
    dmeta.assign(dm.value().begin(), dm.value().end());
  }
  ASSERT_EQ(dkeys, (std::vector<uint64_t>{5, 15, 20}));
  ASSERT_EQ(dmeta, (std::vector<uint8_t>{1, 0, 3}));

  // The consistent file opens in both classes and answers exactly.
  const std::string crafted = TmpSnap("delta_check_crafted");
  CopySnapshot(path, crafted, {});
  {
    auto delta = DeltaRmi::OpenSnapshot(crafted);
    ASSERT_TRUE(delta.ok()) << delta.status().message();
    EXPECT_EQ(delta.value().size(), 1'000u);
    EXPECT_EQ(delta.value().Lookup(6), 0u);
    EXPECT_EQ(delta.value().Lookup(21), 2u);
    auto conc = ConcRmi::OpenSnapshot(crafted);
    ASSERT_TRUE(conc.ok()) << conc.status().message();
    EXPECT_EQ(conc.value().size(), 1'000u);
    EXPECT_EQ(conc.value().Lookup(15), 1u);
    EXPECT_FALSE(conc.value().Contains(20));
  }

  struct Variant {
    const char* what;
    std::vector<uint64_t> keys;
    std::vector<uint64_t> dkeys;
    std::vector<uint8_t> dmeta;
    dynamic::DeltaCfgRecord cfg;
  };
  std::vector<Variant> variants;
  auto add = [&](const char* what, auto&& mutate) {
    Variant v{what, keys, dkeys, dmeta, cfg};
    mutate(v.dkeys, v.dmeta);
    variants.push_back(std::move(v));
  };
  auto add_keys = [&](const char* what, auto&& mutate) {
    Variant v{what, keys, dkeys, dmeta, cfg};
    mutate(v.keys);
    variants.push_back(std::move(v));
  };
  auto add_cfg = [&](const char* what, auto&& mutate) {
    Variant v{what, keys, dkeys, dmeta, cfg};
    mutate(v.cfg);
    variants.push_back(std::move(v));
  };
  add("in_base set on a key the base lacks",
      [](auto&, auto& m) { m[0] = 3; });
  add("in_base cleared on a base key", [](auto&, auto& m) { m[2] = 1; });
  add("dkeys out of order", [](auto& k, auto& m) {
    std::swap(k[1], k[2]);
    std::swap(m[1], m[2]);
  });
  add("duplicate dkey", [](auto& k, auto& m) {
    k[1] = k[0];
    m[1] = m[0];
  });
  add("unknown flag bit", [](auto&, auto& m) { m[1] |= 4; });
  add("dmeta shorter than dkeys", [](auto&, auto& m) { m.pop_back(); });
  // Past every delta key, so only the base-key order check can see them.
  add_keys("base keys out of order",
           [](auto& k) { std::swap(k[500], k[501]); });
  add_keys("duplicate base key", [](auto& k) { k[501] = k[500]; });
  for (const BadDeltaCfg& bad : BadDeltaCfgs()) add_cfg(bad.what, bad.slot);

  for (const Variant& v : variants) {
    std::vector<uint8_t> cfg_bytes(sizeof(v.cfg));
    std::memcpy(cfg_bytes.data(), &v.cfg, sizeof(v.cfg));
    CopySnapshot(path, crafted,
                 {{"keys", Bytes(v.keys)},
                  {"dkeys", Bytes(v.dkeys)},
                  {"dmeta", v.dmeta},
                  {"cfg", cfg_bytes}});
    auto delta = DeltaRmi::OpenSnapshot(crafted);
    ASSERT_FALSE(delta.ok()) << v.what;
    EXPECT_EQ(delta.status().code(), StatusCode::kInvalidArgument) << v.what;
    auto conc = ConcRmi::OpenSnapshot(crafted);
    ASSERT_FALSE(conc.ok()) << v.what;
    EXPECT_EQ(conc.status().code(), StatusCode::kInvalidArgument) << v.what;
  }
  std::remove(path.c_str());
  std::remove(crafted.c_str());
}

// Both Builds refuse exactly the knobs the open path refuses, so every
// file a Build writes reopens; a capacity below 2 is raised to 2 (and
// persisted as 2) rather than refused.
TEST(DeltaSectionsTest, BuildsRejectWhatOpenRejects) {
  std::vector<uint64_t> keys;
  for (uint64_t k = 10; k <= 10'000; k += 10) keys.push_back(k);
  for (const BadDeltaCfg& bad : BadDeltaCfgs()) {
    if (!bad.knob) continue;  // a retired slot: no Config reaches it
    DeltaRmi::Config dc;
    dc.base.num_leaf_models = 16;
    uint64_t cap = dc.active_cap;
    bad.knob(dc.policy, cap);
    dc.active_cap = cap;
    DeltaRmi delta;
    const Status ds = delta.Build(keys, dc);
    EXPECT_EQ(ds.code(), StatusCode::kInvalidArgument) << bad.what;
    ConcRmi::Config cc;
    cc.base.num_leaf_models = 16;
    cap = cc.log_cap;
    bad.knob(cc.policy, cap);
    cc.log_cap = cap;
    ConcRmi conc;
    const Status cs = conc.Build(keys, cc);
    EXPECT_EQ(cs.code(), StatusCode::kInvalidArgument) << bad.what;
  }
  const std::string path = TmpSnap("delta_cfg_edges");
  for (const uint64_t cap : {uint64_t{0}, uint64_t{1} << 20}) {
    DeltaRmi::Config dc;
    dc.base.num_leaf_models = 16;
    dc.active_cap = cap;
    DeltaRmi delta;
    ASSERT_TRUE(delta.Build(keys, dc).ok()) << cap;
    ASSERT_TRUE(delta.WriteSnapshot(path).ok()) << cap;
    EXPECT_TRUE(DeltaRmi::OpenSnapshot(path).ok()) << cap;
    ConcRmi::Config cc;
    cc.base.num_leaf_models = 16;
    cc.log_cap = cap;
    ConcRmi conc;
    ASSERT_TRUE(conc.Build(keys, cc).ok()) << cap;
    ASSERT_TRUE(conc.WriteSnapshot(path).ok()) << cap;
    EXPECT_TRUE(ConcRmi::OpenSnapshot(path).ok()) << cap;
  }
  std::remove(path.c_str());
}

/// size, Lookup and Scan of `idx` against the live set `oracle`.
template <typename Idx>
void ExpectMatchesSet(const Idx& idx, const std::set<uint64_t>& oracle) {
  const std::vector<uint64_t> ref(oracle.begin(), oracle.end());
  ASSERT_EQ(idx.size(), ref.size());
  for (uint64_t q = 0; q <= ref.back() + 20; q += 3) {
    ASSERT_EQ(idx.Lookup(q), StdLowerBound(ref, q)) << q;
  }
  EXPECT_EQ(idx.Scan(0, SIZE_MAX), ref);
  const auto it = oracle.lower_bound(4'321);
  EXPECT_EQ(idx.Scan(4'321, 7),
            std::vector<uint64_t>(it, std::next(it, 7)));
}

// Trigger value 1 in a cfg record names a retired trigger (it merged in
// read-mostly lulls). Such a file opens in both classes as the size
// threshold over the record's own thresholds: it reads exactly, and the
// next writes past the threshold merge.
TEST(DeltaSectionsTest, RetiredTriggerOpensAsSizeThreshold) {
  std::vector<uint64_t> keys;
  for (uint64_t k = 10; k <= 10'000; k += 10) keys.push_back(k);
  DeltaRmi::Config config;
  config.base.num_leaf_models = 16;
  config.policy.trigger = dynamic::MergeTrigger::kManual;
  DeltaRmi built;
  ASSERT_TRUE(built.Build(keys, config).ok());
  std::set<uint64_t> written(keys.begin(), keys.end());
  for (const uint64_t k : {5, 15, 25}) {
    ASSERT_TRUE(built.Insert(k));
    written.insert(k);
  }
  ASSERT_TRUE(built.Erase(20));
  written.erase(20);
  const std::string path = TmpSnap("retired_trigger");
  ASSERT_TRUE(built.WriteSnapshot(path).ok());

  dynamic::DeltaCfgRecord r{};
  {
    auto reader = snapshot::SnapshotReader::Open(path);
    ASSERT_TRUE(reader.ok());
    ASSERT_TRUE(reader.value().GetPod("cfg", &r).ok());
  }
  r.trigger = 1;
  r.write_ratio = 0.9;
  r.min_delta_entries = 64;
  r.max_delta_entries = 64;
  r.max_delta_fraction = 1.0;
  std::vector<uint8_t> bytes(sizeof(r));
  std::memcpy(bytes.data(), &r, sizeof(r));
  const std::string crafted = TmpSnap("retired_trigger_crafted");
  CopySnapshot(path, crafted, {{"cfg", bytes}});

  auto exercise = [&](auto& idx) {
    EXPECT_EQ(idx.config().policy.trigger,
              dynamic::MergeTrigger::kSizeThreshold);
    EXPECT_EQ(idx.config().policy.max_delta_entries, 64u);
    std::set<uint64_t> oracle = written;
    ExpectMatchesSet(idx, oracle);
    for (uint64_t k = 10'001; k < 10'001 + 2 * 100; k += 2) {
      ASSERT_TRUE(idx.Insert(k));
      oracle.insert(k);
    }
    if constexpr (requires { idx.WaitForMerges(); }) idx.WaitForMerges();
    EXPECT_GT(idx.Stats().merges, 0u);
    ExpectMatchesSet(idx, oracle);
  };
  auto delta = DeltaRmi::OpenSnapshot(crafted);
  ASSERT_TRUE(delta.ok()) << delta.status().message();
  exercise(delta.value());
  auto conc = ConcRmi::OpenSnapshot(crafted);
  ASSERT_TRUE(conc.ok()) << conc.status().message();
  exercise(conc.value());
  std::remove(path.c_str());
  std::remove(crafted.c_str());
}

// ---- LIF winner ----

TEST(LifRoundTripTest, LinearWinnerReopensViaKindTag) {
  const auto keys = data::GenLognormal(40'000, 107);
  lif::SynthesisSpec spec;
  spec.stage2_sizes = {1'000};
  spec.try_multivariate_top = false;  // constrain the grid to the one
  spec.nn_hidden = {};                // family with a flat snapshot form
  spec.eval_queries = 1'000;
  lif::Synthesis<index::AnyRangeIndex> built;
  ASSERT_TRUE(lif::SynthesizeRange(keys, spec, &built).ok());

  const std::string path = TmpSnap("lif");
  ASSERT_TRUE(lif::WriteRangeSynthesis(built, path).ok());
  auto reopened = lif::OpenRangeSynthesis(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(reopened.value().description, built.description);

  for (const uint64_t q : MixedQueries(keys, 20'000, 109)) {
    ASSERT_EQ(reopened.value().winner.Lookup(q), built.winner.Lookup(q))
        << q;
  }
  std::remove(path.c_str());
}

// ---- RMI metas this build does not open ----

/// Byte offsets of the `meta` words the cases below patch (rmi.h
/// RmiIndex::SnapshotMeta, 64 bytes).
constexpr size_t kMetaKeyKind = 0;
constexpr size_t kMetaTopKind = 4;
constexpr size_t kMetaHasKeys = 28;

class RmiMetaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    keys_ = data::GenLognormal(200'000, 113);
    rmi::RmiConfig config;
    config.num_leaf_models = 2'000;
    ASSERT_TRUE(built_.Build(keys_, config).ok());
    ASSERT_TRUE(built_.WriteSnapshot(path_).ok());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(bad_.c_str());
  }

  /// Copies the snapshot to bad_ with the meta's 32-bit word at `offset`
  /// set to `value`; the copy's CRCs are recomputed, so only the RMI
  /// loader's own checks see the change.
  void PatchMeta(size_t offset, uint32_t value) {
    auto reader = snapshot::SnapshotReader::Open(path_);
    ASSERT_TRUE(reader.ok());
    auto meta = reader.value().Get("meta");
    ASSERT_TRUE(meta.ok());
    ASSERT_EQ(meta.value().size(), 64u);
    std::vector<uint8_t> bytes(meta.value().begin(), meta.value().end());
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
    CopySnapshot(path_, bad_, {{"meta", bytes}});
  }

  /// Opens bad_ both ways a standalone RMI opens and expects `code`.
  void ExpectRefused(StatusCode code, const char* what) {
    auto opened = LinearRmi::OpenSnapshot(bad_);
    ASSERT_FALSE(opened.ok()) << what;
    EXPECT_EQ(opened.status().code(), code) << what;
    auto reader = snapshot::SnapshotReader::Open(bad_);
    ASSERT_TRUE(reader.ok());
    LinearRmi loaded;
    EXPECT_EQ(loaded.LoadSections(reader.value(), "").code(), code) << what;
  }

  std::vector<uint64_t> keys_;
  LinearRmi built_;
  const std::string path_ = TmpSnap("rmi_meta");
  const std::string bad_ = TmpSnap("rmi_meta_bad");
};

TEST_F(RmiMetaTest, StandaloneOpenRefusesMetaWithoutKeys) {
  // With has_keys cleared the key section is still in the file, but a
  // loader that trusted the word would serve Lookup from a span laid over
  // the leaf table. Payload CRCs are off by default, so only the loader
  // can catch it.
  PatchMeta(kMetaHasKeys, 0);
  ExpectRefused(StatusCode::kInvalidArgument, "has_keys = 0");
  EXPECT_TRUE(LinearRmi::OpenSnapshot(path_).ok());
}

TEST_F(RmiMetaTest, ModelOnlyLoadTakesMetaWithoutKeys) {
  // What a learned hash writes: the CDF model alone. Its loader keeps
  // the key count and predicts exactly like the built model.
  PatchMeta(kMetaHasKeys, 0);
  auto reader = snapshot::SnapshotReader::Open(bad_);
  ASSERT_TRUE(reader.ok());
  LinearRmi model;
  ASSERT_TRUE(model.LoadModelSections(reader.value(), "").ok());
  EXPECT_EQ(model.data().size(), keys_.size());
  for (const uint64_t q : MixedQueries(keys_, 5'000, 127)) {
    ASSERT_EQ(model.Predict(q).pos, built_.Predict(q).pos) << q;
  }
}

TEST_F(RmiMetaTest, ForeignKeyAndTopKindsAreRefused) {
  // key_kind 2 is what double-keyed RMIs of earlier builds wrote.
  PatchMeta(kMetaKeyKind, 2);
  ExpectRefused(StatusCode::kInvalidArgument, "key_kind = 2");
  PatchMeta(kMetaKeyKind, 0);
  ExpectRefused(StatusCode::kInvalidArgument, "key_kind = 0");
  PatchMeta(kMetaTopKind, 2);
  ExpectRefused(StatusCode::kInvalidArgument, "top_kind = 2");
  PatchMeta(kMetaTopKind, 0);
  ExpectRefused(StatusCode::kInvalidArgument, "top_kind = 0");
}

TEST_F(RmiMetaTest, LifWinnerOfDoubleKindIsUnimplemented) {
  // A LIF file whose kind tag names the double-keyed RMI of earlier
  // builds, around this RMI's own sections: the tag alone refuses it.
  auto write_lif = [&](const std::string& kind) {
    auto reader = snapshot::SnapshotReader::Open(path_);
    ASSERT_TRUE(reader.ok());
    snapshot::SnapshotWriter writer;
    const std::string desc = "rmi";
    ASSERT_TRUE(writer
                    .AddSection("lif/kind", snapshot::SectionKind::kMeta,
                                kind.data(), kind.size())
                    .ok());
    ASSERT_TRUE(writer
                    .AddSection("lif/desc", snapshot::SectionKind::kMeta,
                                desc.data(), desc.size())
                    .ok());
    for (const snapshot::SectionEntry& e : reader.value().sections()) {
      auto bytes = reader.value().Get(e.name);
      ASSERT_TRUE(bytes.ok());
      ASSERT_TRUE(writer
                      .AddSection("w/" + std::string(e.name),
                                  static_cast<snapshot::SectionKind>(e.kind),
                                  bytes.value().data(), bytes.value().size())
                      .ok());
    }
    ASSERT_TRUE(writer.WriteFile(bad_).ok());
  };
  write_lif("rmi.linear.f64");
  auto opened = lif::OpenRangeSynthesis(bad_);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kUnimplemented);
  // The same file under the u64 tag opens and answers.
  write_lif("rmi.linear.u64");
  auto reopened = lif::OpenRangeSynthesis(bad_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  for (size_t i = 0; i < keys_.size(); i += 101) {
    ASSERT_EQ(reopened.value().winner.Lookup(keys_[i]), i);
  }
}

}  // namespace
}  // namespace li
