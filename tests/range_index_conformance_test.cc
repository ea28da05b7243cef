// Conformance suite for the library-wide RangeIndex contract: every
// implementation — the RMI family and every B-Tree variant — is (a)
// statically asserted to satisfy the index::RangeIndex concept and (b)
// driven over the same sorted dataset through identical dynamic checks:
// Lookup must match std::lower_bound for present/absent/extreme keys, and
// ApproxPos must return a valid window (lo <= pos <= hi <= n, with the
// true position of every stored key inside [lo, hi)) — the §3.4
// guarantee that makes any model with error bounds a B-Tree-grade index.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "btree/dynamic_btree.h"
#include "btree/fast_tree.h"
#include "btree/interpolation_btree.h"
#include "btree/lookup_table.h"
#include "btree/readonly_btree.h"
#include "btree/string_btree.h"
#include "common/random.h"
#include "data/datasets.h"
#include "data/strings.h"
#include "dynamic/delta_range_index.h"
#include "index/any_range_index.h"
#include "index/range_index.h"
#include "rmi/hybrid.h"
#include "rmi/quantized_rmi.h"
#include "rmi/rmi.h"
#include "rmi/string_rmi.h"

namespace li {
namespace {

// ---- Static acceptance gate: the contract holds for every index ----
static_assert(index::RangeIndex<rmi::LinearRmi>);
static_assert(index::RangeIndex<rmi::MultivariateRmi>);
static_assert(index::RangeIndex<rmi::NeuralRmi>);
static_assert(index::RangeIndex<rmi::HybridRmi<models::LinearModel>>);
static_assert(index::RangeIndex<rmi::QuantizedRmi>);
static_assert(index::RangeIndex<rmi::StringRmi>);
static_assert(index::RangeIndex<btree::ReadOnlyBTree>);
static_assert(index::RangeIndex<btree::BTreeMap>);
static_assert(index::RangeIndex<btree::InterpolationBTree>);
static_assert(index::RangeIndex<btree::FastTree>);
static_assert(index::RangeIndex<btree::StringBTree>);
static_assert(index::RangeIndex<btree::LookupTable>);
// The writable wrapper is a full RangeIndex too (with an empty delta it
// must behave exactly like its base), over any base.
static_assert(index::RangeIndex<dynamic::DeltaRangeIndex<rmi::LinearRmi>>);
static_assert(
    index::RangeIndex<dynamic::DeltaRangeIndex<btree::ReadOnlyBTree>>);
// The RMI core carries the native batched hot path.
static_assert(index::HasNativeLookupBatch<rmi::LinearRmi>);
static_assert(!index::HasNativeLookupBatch<btree::ReadOnlyBTree>);
static_assert(
    index::HasNativeLookupBatch<dynamic::DeltaRangeIndex<rmi::LinearRmi>>);

// ---- Per-implementation default configs for a ~40k-key dataset ----
template <typename I>
typename I::config_type DefaultConfig() {
  return typename I::config_type{};
}

template <>
rmi::RmiConfig DefaultConfig<rmi::LinearRmi>() {
  rmi::RmiConfig c;
  c.num_leaf_models = 500;
  return c;
}
template <>
rmi::HybridConfig DefaultConfig<rmi::HybridRmi<models::LinearModel>>() {
  rmi::HybridConfig c;
  c.rmi.num_leaf_models = 200;
  c.threshold = 64;
  return c;
}
template <>
rmi::QuantizedRmiConfig DefaultConfig<rmi::QuantizedRmi>() {
  rmi::QuantizedRmiConfig c;
  c.rmi.num_leaf_models = 500;
  c.level = models::QuantLevel::kFloat32;
  return c;
}
template <>
btree::ReadOnlyBTreeConfig DefaultConfig<btree::ReadOnlyBTree>() {
  return btree::ReadOnlyBTreeConfig{128};
}
template <>
btree::InterpolationBTreeConfig DefaultConfig<btree::InterpolationBTree>() {
  return btree::InterpolationBTreeConfig{64 * 1024};
}
template <>
dynamic::DeltaRangeIndex<rmi::LinearRmi>::Config
DefaultConfig<dynamic::DeltaRangeIndex<rmi::LinearRmi>>() {
  dynamic::DeltaRangeIndex<rmi::LinearRmi>::Config c;
  c.base.num_leaf_models = 500;
  return c;
}

const std::vector<uint64_t>& SharedDataset() {
  static const std::vector<uint64_t> keys = [] {
    std::vector<uint64_t> k = data::GenWeblog(40'000, 71);
    k.erase(std::unique(k.begin(), k.end()), k.end());
    return k;
  }();
  return keys;
}

std::vector<uint64_t> SharedQueries() {
  const auto& keys = SharedDataset();
  Xorshift128Plus rng(72);
  std::vector<uint64_t> qs;
  for (size_t i = 0; i < 20'000; ++i) {
    const uint64_t k = keys[rng.NextBounded(keys.size())];
    switch (rng.NextBounded(4)) {
      case 0: qs.push_back(k); break;
      case 1: qs.push_back(k + 1); break;
      case 2: qs.push_back(k == 0 ? 0 : k - 1); break;
      default: qs.push_back(rng.NextBounded(keys.back() + 1000)); break;
    }
  }
  qs.push_back(0);
  qs.push_back(keys.front());
  qs.push_back(keys.back());
  qs.push_back(keys.back() + 999);
  return qs;
}

size_t StdLowerBound(const std::vector<uint64_t>& v, uint64_t key) {
  return static_cast<size_t>(
      std::lower_bound(v.begin(), v.end(), key) - v.begin());
}

template <typename I>
class Uint64ConformanceTest : public ::testing::Test {};

using Uint64Impls =
    ::testing::Types<rmi::LinearRmi, rmi::HybridRmi<models::LinearModel>,
                     rmi::QuantizedRmi,
                     btree::ReadOnlyBTree, btree::BTreeMap,
                     btree::InterpolationBTree, btree::FastTree,
                     btree::LookupTable,
                     dynamic::DeltaRangeIndex<rmi::LinearRmi>>;
TYPED_TEST_SUITE(Uint64ConformanceTest, Uint64Impls);

TYPED_TEST(Uint64ConformanceTest, LookupMatchesStdLowerBound) {
  const auto& keys = SharedDataset();
  TypeParam idx;
  ASSERT_TRUE(
      idx.Build(std::span<const uint64_t>(keys), DefaultConfig<TypeParam>())
          .ok());
  for (const uint64_t q : SharedQueries()) {
    ASSERT_EQ(idx.Lookup(q), StdLowerBound(keys, q)) << "q=" << q;
  }
}

TYPED_TEST(Uint64ConformanceTest, ApproxWindowsAreValidForStoredKeys) {
  const auto& keys = SharedDataset();
  TypeParam idx;
  ASSERT_TRUE(
      idx.Build(std::span<const uint64_t>(keys), DefaultConfig<TypeParam>())
          .ok());
  for (size_t i = 0; i < keys.size(); i += 13) {
    const index::Approx a = idx.ApproxPos(keys[i]);
    ASSERT_LE(a.lo, a.pos) << "i=" << i;
    ASSERT_LE(a.pos, a.hi) << "i=" << i;
    ASSERT_LE(a.hi, keys.size()) << "i=" << i;
    ASSERT_TRUE(a.Contains(i))
        << "i=" << i << " window=[" << a.lo << "," << a.hi << ")";
  }
}

TYPED_TEST(Uint64ConformanceTest, BatchedLookupMatchesSingleKey) {
  const auto& keys = SharedDataset();
  TypeParam idx;
  ASSERT_TRUE(
      idx.Build(std::span<const uint64_t>(keys), DefaultConfig<TypeParam>())
          .ok());
  const auto qs = SharedQueries();
  std::vector<size_t> out(qs.size());
  index::LookupBatch(idx, std::span<const uint64_t>(qs),
                     std::span<size_t>(out));
  for (size_t i = 0; i < qs.size(); ++i) {
    ASSERT_EQ(out[i], idx.Lookup(qs[i])) << "q=" << qs[i];
  }
}

TYPED_TEST(Uint64ConformanceTest, EmptyBuildAnswersZero) {
  TypeParam idx;
  ASSERT_TRUE(idx.Build(std::span<const uint64_t>{}, DefaultConfig<TypeParam>())
                  .ok());
  EXPECT_EQ(idx.Lookup(42), 0u);
  const index::Approx a = idx.ApproxPos(42);
  EXPECT_EQ(a.lo, 0u);
  EXPECT_EQ(a.hi, 0u);
}

// ---- String-keyed implementations share the same contract ----

TEST(StringConformanceTest, AllStringIndexesMatchStd) {
  const auto ids = data::GenDocIds(12'000, 81);
  const std::span<const std::string> span(ids);

  rmi::StringRmiConfig nn_cfg;
  nn_cfg.num_leaf_models = 200;
  nn_cfg.top_nn.epochs = 4;
  rmi::StringRmi nn_rmi;
  ASSERT_TRUE(nn_rmi.Build(span, nn_cfg).ok());

  btree::StringBTree tree;
  ASSERT_TRUE(tree.Build(span, btree::StringBTreeConfig{32}).ok());

  Xorshift128Plus rng(82);
  for (int i = 0; i < 4000; ++i) {
    std::string q = ids[rng.NextBounded(ids.size())];
    if (rng.NextBounded(2)) q += "x";  // absent variant
    const size_t expect = static_cast<size_t>(
        std::lower_bound(ids.begin(), ids.end(), q) - ids.begin());
    ASSERT_EQ(nn_rmi.Lookup(q), expect) << q;
    ASSERT_EQ(tree.Lookup(q), expect) << q;
  }
}

// ---- Type erasure: heterogeneous backends behind one handle ----

TEST(AnyRangeIndexTest, ErasesHeterogeneousBackends) {
  const auto& keys = SharedDataset();

  rmi::LinearRmi rmi_idx;
  ASSERT_TRUE(rmi_idx.Build(std::span<const uint64_t>(keys),
                            DefaultConfig<rmi::LinearRmi>())
                  .ok());
  btree::ReadOnlyBTree tree;
  ASSERT_TRUE(tree.Build(keys, btree::ReadOnlyBTreeConfig{64}).ok());

  std::vector<index::AnyRangeIndex> erased;
  erased.emplace_back(std::move(rmi_idx));
  erased.emplace_back(std::move(tree));

  Xorshift128Plus rng(101);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t q = rng.NextBounded(keys.back() + 500);
    const size_t expect = StdLowerBound(keys, q);
    for (const auto& e : erased) {
      ASSERT_EQ(e.Lookup(q), expect) << "q=" << q;
      ASSERT_EQ(e.LowerBound(q), expect) << "q=" << q;
    }
  }
  for (const auto& e : erased) EXPECT_GT(e.SizeBytes(), 0u);

  // Batched lookups dispatch through the erased handle too.
  const auto qs = SharedQueries();
  std::vector<size_t> out(qs.size());
  for (const auto& e : erased) {
    e.LookupBatch(qs, out);
    for (size_t i = 0; i < qs.size(); ++i) {
      ASSERT_EQ(out[i], StdLowerBound(keys, qs[i]));
    }
  }
}

TEST(AnyRangeIndexTest, EmptyHandleAnswersLikeEmptyIndex) {
  index::AnyRangeIndex empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.Lookup(7), 0u);
  EXPECT_EQ(empty.SizeBytes(), 0u);
  std::vector<uint64_t> qs = {1, 2, 3};
  std::vector<size_t> out(3, 99);
  empty.LookupBatch(qs, out);
  EXPECT_EQ(out, (std::vector<size_t>{0, 0, 0}));
}

TEST(ApproxTest, HelpersAndExactWindow) {
  const index::Approx a{10, 8, 15};
  EXPECT_EQ(a.Width(), 7u);
  EXPECT_TRUE(a.Contains(8));
  EXPECT_TRUE(a.Contains(14));
  EXPECT_FALSE(a.Contains(15));
  const index::Approx exact = index::Approx::Exact(4, 10);
  EXPECT_EQ(exact.pos, 4u);
  EXPECT_EQ(exact.lo, 4u);
  EXPECT_EQ(exact.hi, 5u);
  // Past-the-end estimates clamp the window to n.
  const index::Approx end = index::Approx::Exact(10, 10);
  EXPECT_EQ(end.hi, 10u);
}

}  // namespace
}  // namespace li
