// Conformance suite for the library-wide PointIndex contract: every map
// family — separate-chaining, in-place chained, bucketized cuckoo (both
// careful modes) — is (a) statically asserted to satisfy the
// index::PointIndex concept and (b) driven over the same dataset (with
// duplicate keys) through identical dynamic checks: Find must agree with
// an unordered_map oracle under first-record-wins semantics for present,
// absent, and extreme keys; FindBatch must match Find; a never-built map
// answers nullptr; Stats must be internally consistent. The chained
// family additionally sweeps the Figure-11 slot budgets (75/100/125%)
// under both hash families.
//
// The same oracle matrix is templatized over the Find calling convention
// (pointer for the static families, value-copy-out for the concurrent
// wrappers), so concurrent::ConcurrentPointIndex<Base> runs the full
// single-threaded suite — duplicate keys, erase-then-reinsert churn
// across log freezes and background rebuilds, and the slot sweep —
// proving it degenerates to exact map semantics when one thread drives
// it.

#include <gtest/gtest.h>

#include <optional>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "concurrent/concurrent_point_index.h"
#include "data/datasets.h"
#include "hash/chained_hash_map.h"
#include "hash/cuckoo_map.h"
#include "hash/hash_fn.h"
#include "hash/inplace_chained_map.h"
#include "index/concurrent_point_index.h"
#include "index/point_index.h"

namespace li {
namespace {

// ---- Static acceptance gate: the contract holds for every map ----
static_assert(index::PointIndex<hash::ChainedHashMap>);
static_assert(index::PointIndex<hash::InplaceChainedMap>);
static_assert(index::PointIndex<hash::CuckooMap<hash::Record>>);
// Every family ships the software-pipelined batch probe.
static_assert(index::HasNativeFindBatch<hash::ChainedHashMap>);
static_assert(index::HasNativeFindBatch<hash::InplaceChainedMap>);
static_assert(index::HasNativeFindBatch<hash::CuckooMap<hash::Record>>);
// Every family's concurrent wrapper satisfies the concurrent contract.
static_assert(index::ConcurrentWritablePointIndex<
              concurrent::ConcurrentPointIndex<hash::ChainedHashMap>>);
static_assert(index::ConcurrentWritablePointIndex<
              concurrent::ConcurrentPointIndex<hash::InplaceChainedMap>>);
static_assert(index::ConcurrentWritablePointIndex<
              concurrent::ConcurrentPointIndex<hash::CuckooMap<hash::Record>>>);

/// Calling-convention bridge: the static families return a stable
/// pointer; the concurrent wrappers copy the record out (a pointer would
/// dangle once a rebuild retires its version). Normalizing both to an
/// optional payload lets one oracle matrix drive every implementation.
template <typename I>
std::optional<uint64_t> FindPayload(const I& map, uint64_t q) {
  if constexpr (requires(const I& m) {
                  { m.Find(q) } -> std::same_as<const hash::Record*>;
                }) {
    const hash::Record* r = map.Find(q);
    if (r == nullptr) return std::nullopt;
    return r->payload;
  } else {
    hash::Record rec{};
    if (!map.Find(q, &rec)) return std::nullopt;
    return rec.payload;
  }
}

// ---- Shared dataset: 30k records with ~10% duplicate keys ----
const std::vector<hash::Record>& SharedRecords() {
  static const std::vector<hash::Record> records = [] {
    const auto keys = data::GenUniform(30'000, 51, uint64_t{1} << 44);
    std::vector<hash::Record> r;
    r.reserve(keys.size() + keys.size() / 10);
    for (size_t i = 0; i < keys.size(); ++i) {
      r.push_back({keys[i], i, 0});
    }
    // Duplicates carry a poisoned payload: first record must win.
    for (size_t i = 0; i < keys.size(); i += 10) {
      r.push_back({keys[i], 0xDEAD0000 + i, 0});
    }
    return r;
  }();
  return records;
}

const std::unordered_map<uint64_t, uint64_t>& Oracle() {
  static const std::unordered_map<uint64_t, uint64_t> oracle = [] {
    std::unordered_map<uint64_t, uint64_t> o;
    for (const hash::Record& r : SharedRecords()) {
      o.emplace(r.key, r.payload);  // emplace keeps the first record
    }
    return o;
  }();
  return oracle;
}

std::vector<uint64_t> SharedProbes() {
  std::vector<uint64_t> probes;
  Xorshift128Plus rng(52);
  const auto& records = SharedRecords();
  for (int i = 0; i < 20'000; ++i) {
    probes.push_back(rng.NextBounded(2)
                         ? records[rng.NextBounded(records.size())].key
                         : rng.Next());
  }
  probes.push_back(0);
  probes.push_back(~uint64_t{0});
  return probes;
}

/// The shared dynamic core: Find agrees with `oracle` (first-record-wins)
/// for present, absent, and extreme keys — one definition for the static
/// families and the concurrent wrappers.
template <typename I>
void CheckOracleAgreement(
    const I& map, const std::unordered_map<uint64_t, uint64_t>& oracle,
    const std::string& name) {
  for (const uint64_t q : SharedProbes()) {
    const std::optional<uint64_t> got = FindPayload(map, q);
    const auto it = oracle.find(q);
    if (it == oracle.end()) {
      ASSERT_FALSE(got.has_value()) << name << " q=" << q;
    } else {
      ASSERT_TRUE(got.has_value()) << name << " q=" << q;
      ASSERT_EQ(*got, it->second) << name << " q=" << q;
    }
  }
}

// ---- Per-implementation build configs (both hash/careful variants) ----
template <typename I>
std::vector<std::pair<std::string, typename I::config_type>> Configs();

template <>
std::vector<std::pair<std::string, hash::ChainedHashMapConfig>>
Configs<hash::ChainedHashMap>() {
  hash::ChainedHashMapConfig random_cfg;
  random_cfg.hash.seed = 7;
  hash::ChainedHashMapConfig learned_cfg;
  learned_cfg.hash.kind = hash::HashKind::kLearnedCdf;
  learned_cfg.hash.cdf_leaf_models = 2000;
  return {{"random", random_cfg}, {"learned-cdf", learned_cfg}};
}

template <>
std::vector<std::pair<std::string, hash::InplaceChainedMapConfig>>
Configs<hash::InplaceChainedMap>() {
  hash::InplaceChainedMapConfig random_cfg;
  random_cfg.hash.seed = 8;
  hash::InplaceChainedMapConfig learned_cfg;
  learned_cfg.hash.kind = hash::HashKind::kLearnedCdf;
  learned_cfg.hash.cdf_leaf_models = 2000;
  return {{"random", random_cfg}, {"learned-cdf", learned_cfg}};
}

template <>
std::vector<std::pair<std::string, hash::CuckooMapConfig>>
Configs<hash::CuckooMap<hash::Record>>() {
  hash::CuckooMapConfig fast;
  fast.load_factor = 0.99;
  hash::CuckooMapConfig careful;
  careful.load_factor = 0.95;
  careful.careful = true;
  return {{"avx-style", fast}, {"careful", careful}};
}

/// Concurrent wrappers inherit the base families' config matrix. A tiny
/// log forces freezes mid-matrix; automatic rebuilds stay off so the
/// churn tests trigger them at deterministic points.
template <typename Base>
std::vector<std::pair<
    std::string, typename concurrent::ConcurrentPointIndex<Base>::Config>>
WrapConfigs() {
  std::vector<std::pair<
      std::string, typename concurrent::ConcurrentPointIndex<Base>::Config>>
      out;
  for (const auto& [name, base_cfg] : Configs<Base>()) {
    typename concurrent::ConcurrentPointIndex<Base>::Config cfg;
    cfg.base = base_cfg;
    cfg.log_cap = 64;
    cfg.rebuild_entries = 0;
    out.push_back({name, cfg});
  }
  return out;
}

template <>
std::vector<std::pair<
    std::string,
    concurrent::ConcurrentPointIndex<hash::ChainedHashMap>::Config>>
Configs<concurrent::ConcurrentPointIndex<hash::ChainedHashMap>>() {
  return WrapConfigs<hash::ChainedHashMap>();
}

template <>
std::vector<std::pair<
    std::string,
    concurrent::ConcurrentPointIndex<hash::InplaceChainedMap>::Config>>
Configs<concurrent::ConcurrentPointIndex<hash::InplaceChainedMap>>() {
  return WrapConfigs<hash::InplaceChainedMap>();
}

template <>
std::vector<std::pair<
    std::string,
    concurrent::ConcurrentPointIndex<hash::CuckooMap<hash::Record>>::Config>>
Configs<concurrent::ConcurrentPointIndex<hash::CuckooMap<hash::Record>>>() {
  return WrapConfigs<hash::CuckooMap<hash::Record>>();
}

template <typename I>
class PointConformanceTest : public ::testing::Test {};

using PointImpls =
    ::testing::Types<hash::ChainedHashMap, hash::InplaceChainedMap,
                     hash::CuckooMap<hash::Record>>;
TYPED_TEST_SUITE(PointConformanceTest, PointImpls);

TYPED_TEST(PointConformanceTest, FindMatchesOracleFirstRecordWins) {
  for (const auto& [name, config] : Configs<TypeParam>()) {
    TypeParam map;
    ASSERT_TRUE(map.Build(SharedRecords(), config).ok()) << name;
    EXPECT_EQ(map.num_records(), Oracle().size()) << name;
    CheckOracleAgreement(map, Oracle(), name);
  }
}

TYPED_TEST(PointConformanceTest, FindBatchMatchesFind) {
  for (const auto& [name, config] : Configs<TypeParam>()) {
    TypeParam map;
    ASSERT_TRUE(map.Build(SharedRecords(), config).ok()) << name;
    const auto probes = SharedProbes();
    std::vector<const hash::Record*> out(probes.size());
    index::FindBatch(map, probes, out);
    for (size_t i = 0; i < probes.size(); ++i) {
      ASSERT_EQ(out[i], map.Find(probes[i])) << name << " q=" << probes[i];
    }
  }
}

TYPED_TEST(PointConformanceTest, NeverBuiltMapAnswersNull) {
  TypeParam map;
  EXPECT_EQ(map.Find(0), nullptr);
  EXPECT_EQ(map.Find(42), nullptr);
  EXPECT_EQ(map.num_records(), 0u);
  std::vector<uint64_t> probes = {1, 2, 3};
  std::vector<const hash::Record*> out(3, reinterpret_cast<const hash::Record*>(1));
  index::FindBatch(map, probes, out);
  for (const hash::Record* r : out) EXPECT_EQ(r, nullptr);
}

TYPED_TEST(PointConformanceTest, StatsAreConsistent) {
  for (const auto& [name, config] : Configs<TypeParam>()) {
    TypeParam map;
    ASSERT_TRUE(map.Build(SharedRecords(), config).ok()) << name;
    const index::PointIndexStats stats = map.Stats();
    EXPECT_GT(stats.num_slots, 0u) << name;
    EXPECT_LE(stats.empty_slots, stats.num_slots) << name;
    // Non-empty primary slots plus overflow must cover every record (the
    // cuckoo stash and chained overflow live outside primary slots).
    EXPECT_GE(stats.num_slots - stats.empty_slots + stats.overflow,
              map.num_records())
        << name;
    EXPECT_GE(stats.mean_probe, 1.0) << name;
    EXPECT_GE(stats.utilization(), 0.0) << name;
    EXPECT_LE(stats.utilization(), 1.0) << name;
    EXPECT_GT(map.SizeBytes(), 0u) << name;
  }
}

// ---- The Figure-11 slot sweep under both hash families ----

TEST(ChainedSlotSweepTest, CorrectAcrossSlotBudgetsAndHashKinds) {
  const auto& records = SharedRecords();
  for (const auto& [name, base_cfg] : Configs<hash::ChainedHashMap>()) {
    for (const int pct : {75, 100, 125}) {
      hash::ChainedHashMapConfig config = base_cfg;
      config.num_slots = records.size() * pct / 100;
      hash::ChainedHashMap map;
      ASSERT_TRUE(map.Build(records, config).ok()) << name << " " << pct;
      EXPECT_EQ(map.num_slots(), config.num_slots);
      EXPECT_EQ(map.num_records(), Oracle().size());
      for (const uint64_t q : SharedProbes()) {
        const hash::Record* r = map.Find(q);
        const auto it = Oracle().find(q);
        ASSERT_EQ(r != nullptr, it != Oracle().end())
            << name << " " << pct << "% q=" << q;
        if (r != nullptr) ASSERT_EQ(r->payload, it->second);
      }
      // Undersized tables must chain; oversized learned tables waste less
      // than their random counterpart (checked in hash_test) — here we
      // only require the stats to reflect the geometry.
      if (pct < 100) EXPECT_GT(map.Stats().overflow, 0u) << name;
    }
  }
}

// ---- Type erasure: heterogeneous map families behind one handle ----

TEST(AnyPointIndexTest, ErasesHeterogeneousFamilies) {
  const auto& records = SharedRecords();
  std::vector<index::AnyPointIndex> erased;
  {
    hash::ChainedHashMap chained;
    ASSERT_TRUE(
        chained.Build(records, Configs<hash::ChainedHashMap>()[1].second)
            .ok());
    erased.emplace_back(std::move(chained));
  }
  {
    hash::InplaceChainedMap inplace;
    ASSERT_TRUE(
        inplace.Build(records, Configs<hash::InplaceChainedMap>()[0].second)
            .ok());
    erased.emplace_back(std::move(inplace));
  }
  {
    hash::CuckooMap<hash::Record> cuckoo;
    ASSERT_TRUE(
        cuckoo
            .Build(records, Configs<hash::CuckooMap<hash::Record>>()[0].second)
            .ok());
    erased.emplace_back(std::move(cuckoo));
  }

  const auto probes = SharedProbes();
  std::vector<const hash::Record*> out(probes.size());
  for (const auto& e : erased) {
    EXPECT_FALSE(e.empty());
    EXPECT_EQ(e.num_records(), Oracle().size());
    EXPECT_GT(e.SizeBytes(), 0u);
    e.FindBatch(probes, out);
    for (size_t i = 0; i < probes.size(); ++i) {
      const auto it = Oracle().find(probes[i]);
      const hash::Record* r = e.Find(probes[i]);
      ASSERT_EQ(r != nullptr, it != Oracle().end()) << probes[i];
      ASSERT_EQ(out[i], r) << probes[i];
      if (r != nullptr) ASSERT_EQ(r->payload, it->second);
    }
  }
}

TEST(AnyPointIndexTest, EmptyHandleAnswersLikeNeverBuiltMap) {
  index::AnyPointIndex empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.Find(7), nullptr);
  EXPECT_EQ(empty.SizeBytes(), 0u);
  EXPECT_EQ(empty.num_records(), 0u);
  std::vector<uint64_t> probes = {1, 2, 3};
  std::vector<const hash::Record*> out(3,
                                       reinterpret_cast<const hash::Record*>(1));
  empty.FindBatch(probes, out);
  for (const hash::Record* r : out) EXPECT_EQ(r, nullptr);
}

// ---- The same matrix over the concurrent wrappers (single-threaded:
// the wrapper must degenerate to exact map semantics) ----

template <typename I>
class ConcurrentPointConformanceTest : public ::testing::Test {};

using ConcurrentPointImpls = ::testing::Types<
    concurrent::ConcurrentPointIndex<hash::ChainedHashMap>,
    concurrent::ConcurrentPointIndex<hash::InplaceChainedMap>,
    concurrent::ConcurrentPointIndex<hash::CuckooMap<hash::Record>>>;
TYPED_TEST_SUITE(ConcurrentPointConformanceTest, ConcurrentPointImpls);

TYPED_TEST(ConcurrentPointConformanceTest, FindMatchesOracleFirstRecordWins) {
  for (const auto& [name, config] : Configs<TypeParam>()) {
    TypeParam map;
    ASSERT_TRUE(map.Build(SharedRecords(), config).ok()) << name;
    EXPECT_EQ(map.num_records(), Oracle().size()) << name;
    CheckOracleAgreement(map, Oracle(), name);
    // A rebuild folds nothing here (no writes) but must not perturb
    // answers — the published version swap is invisible to readers.
    ASSERT_TRUE(map.Rebuild().ok()) << name;
    CheckOracleAgreement(map, Oracle(), name);
  }
}

TYPED_TEST(ConcurrentPointConformanceTest, FindBatchMatchesFind) {
  for (const auto& [name, config] : Configs<TypeParam>()) {
    TypeParam map;
    ASSERT_TRUE(map.Build(SharedRecords(), config).ok()) << name;
    const auto probes = SharedProbes();
    std::vector<hash::Record> recs(probes.size());
    std::vector<uint8_t> found(probes.size(), 2);
    map.FindBatch(probes, recs, found);
    for (size_t i = 0; i < probes.size(); ++i) {
      const std::optional<uint64_t> got = FindPayload(map, probes[i]);
      ASSERT_EQ(found[i] != 0, got.has_value())
          << name << " q=" << probes[i];
      if (found[i] != 0) {
        ASSERT_EQ(recs[i].payload, *got) << name << " q=" << probes[i];
      }
    }
  }
}

// Duplicate-key / erase-then-reinsert churn: every 10th oracle key is
// erased, probed absent, reinserted with a fresh payload (insert-after-
// erase must land: first-wins applies to *live* keys only), then
// shadow-upserted. The 64-entry log forces freezes throughout, and a
// mid-churn plus an end-of-churn rebuild force the overlay through the
// fold-and-rebase path; the full probe matrix must agree with the
// updated oracle after every phase.
TYPED_TEST(ConcurrentPointConformanceTest, EraseThenReinsertAcrossRebuilds) {
  for (const auto& [name, config] : Configs<TypeParam>()) {
    TypeParam map;
    ASSERT_TRUE(map.Build(SharedRecords(), config).ok()) << name;
    std::unordered_map<uint64_t, uint64_t> oracle = Oracle();

    std::vector<uint64_t> victims;
    for (size_t i = 0; i < SharedRecords().size(); i += 10) {
      victims.push_back(SharedRecords()[i].key);
    }
    std::sort(victims.begin(), victims.end());
    victims.erase(std::unique(victims.begin(), victims.end()),
                  victims.end());

    size_t step = 0;
    for (const uint64_t k : victims) {
      ASSERT_TRUE(map.Erase(k)) << name << " k=" << k;
      ASSERT_FALSE(map.Erase(k)) << name << " double erase k=" << k;
      ASSERT_FALSE(FindPayload(map, k).has_value()) << name << " k=" << k;
      const uint64_t fresh = k ^ 0xBEEF;
      ASSERT_TRUE(map.Insert({k, fresh, 0})) << name << " k=" << k;
      // First-wins: a second insert of a live key must not overwrite.
      ASSERT_FALSE(map.Insert({k, 0xDEAD, 0})) << name << " k=" << k;
      ASSERT_EQ(FindPayload(map, k), std::optional<uint64_t>(fresh))
          << name << " k=" << k;
      // Upsert overwrites and reports the key was present.
      ASSERT_FALSE(map.Upsert({k, fresh + 1, 0})) << name << " k=" << k;
      oracle[k] = fresh + 1;
      if (++step == victims.size() / 2) {
        ASSERT_TRUE(map.Rebuild().ok()) << name;
      }
    }
    EXPECT_EQ(map.num_records(), oracle.size()) << name;
    CheckOracleAgreement(map, oracle, name + "/pre-rebuild");
    ASSERT_TRUE(map.Rebuild().ok()) << name;
    EXPECT_EQ(map.num_records(), oracle.size()) << name;
    CheckOracleAgreement(map, oracle, name + "/post-rebuild");
    // After a full fold the overlay is empty: everything lives in the
    // rebuilt base table.
    EXPECT_EQ(map.ConcurrentStats().delta_entries, 0u) << name;
  }
}

// The Figure-11 slot sweep through the concurrent wrapper: an explicit
// slot budget becomes a slots-per-record ratio, so a rebuild after
// insert churn resizes the table instead of pinning the build-time
// count. Only the chained family exposes a slot budget.
TYPED_TEST(ConcurrentPointConformanceTest, SlotSweepResizesAcrossRebuilds) {
  typename TypeParam::Config probe_cfg{};
  if constexpr (requires { probe_cfg.base.num_slots; }) {
    const auto& records = SharedRecords();
    for (const auto& [name, base_config] : Configs<TypeParam>()) {
      for (const int pct : {75, 100, 125}) {
        auto config = base_config;
        config.base.num_slots = records.size() * pct / 100;
        TypeParam map;
        ASSERT_TRUE(map.Build(records, config).ok()) << name << " " << pct;
        CheckOracleAgreement(map, Oracle(), name);
        std::unordered_map<uint64_t, uint64_t> oracle = Oracle();
        // Grow by 10% fresh keys, then rebuild: the slot count must
        // track the record count at the configured ratio.
        Xorshift128Plus rng(53);
        for (size_t i = 0; i < records.size() / 10; ++i) {
          const uint64_t k = (uint64_t{1} << 45) + rng.NextBounded(1u << 30);
          if (oracle.emplace(k, k + 1).second) {
            ASSERT_TRUE(map.Insert({k, k + 1, 0})) << name;
          }
        }
        ASSERT_TRUE(map.Rebuild().ok()) << name << " " << pct;
        EXPECT_EQ(map.num_records(), oracle.size()) << name;
        const size_t want_slots = static_cast<size_t>(
            static_cast<double>(config.base.num_slots) /
                static_cast<double>(Oracle().size()) *
                static_cast<double>(oracle.size()) +
            0.5);
        EXPECT_NEAR(static_cast<double>(map.Stats().num_slots),
                    static_cast<double>(want_slots), 2.0)
            << name << " " << pct;
        CheckOracleAgreement(map, oracle, name + "/resized");
      }
    }
  } else {
    GTEST_SKIP() << "family has no explicit slot budget";
  }
}

TYPED_TEST(ConcurrentPointConformanceTest, NeverBuiltAnswersAbsent) {
  TypeParam map;
  EXPECT_FALSE(FindPayload(map, 0).has_value());
  EXPECT_FALSE(FindPayload(map, 42).has_value());
  EXPECT_EQ(map.num_records(), 0u);
  EXPECT_EQ(map.SizeBytes(), 0u);
  EXPECT_FALSE(map.Insert({1, 2, 0}));
  EXPECT_FALSE(map.Upsert({1, 2, 0}));
  EXPECT_FALSE(map.Erase(1));
  std::vector<uint64_t> probes = {1, 2, 3};
  std::vector<hash::Record> recs(3);
  std::vector<uint8_t> found(3, 2);
  map.FindBatch(probes, recs, found);
  for (const uint8_t f : found) EXPECT_EQ(f, 0);
  map.RequestRebuild();  // no worker to wake: both are no-ops
  map.WaitForRebuilds();
}

// An insert acknowledged before an asynchronous rebuild stays visible
// through it (the worker folds the log into the new base table), and
// the insert counter records it.
TYPED_TEST(ConcurrentPointConformanceTest, InsertVisibleAcrossRequestRebuild) {
  for (const auto& [name, config] : Configs<TypeParam>()) {
    TypeParam map;
    ASSERT_TRUE(map.Build(SharedRecords(), config).ok()) << name;
    const uint64_t fresh_key = ~uint64_t{1};
    ASSERT_TRUE(map.Insert({fresh_key, 7, 0})) << name;
    EXPECT_EQ(FindPayload(map, fresh_key), std::optional<uint64_t>(7))
        << name;
    map.RequestRebuild();
    map.WaitForRebuilds();
    ASSERT_TRUE(map.last_rebuild_status().ok()) << name;
    EXPECT_EQ(FindPayload(map, fresh_key), std::optional<uint64_t>(7))
        << name;
    CheckOracleAgreement(map, Oracle(), name + "/post-rebuild");
    EXPECT_EQ(map.ConcurrentStats().inserts, 1u) << name;
    EXPECT_TRUE(map.Erase(fresh_key)) << name;
    EXPECT_FALSE(FindPayload(map, fresh_key).has_value()) << name;
  }
}

}  // namespace
}  // namespace li
