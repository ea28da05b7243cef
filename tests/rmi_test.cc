// Tests for the RMI core, hybrid RMI and string RMI: the central
// correctness property is that LowerBound matches std::lower_bound for
// present keys, absent keys, and extremes, across datasets, top models,
// leaf counts and search strategies; plus the error-bound guarantee of
// §3.4 ("the key can be found in that region if it exists").

#include <gtest/gtest.h>

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "data/datasets.h"
#include "data/strings.h"
#include "hash/hash_fn.h"
#include "rmi/hybrid.h"
#include "rmi/quantized_rmi.h"
#include "rmi/rmi.h"
#include "rmi/string_rmi.h"
#include "simd/dispatch.h"

namespace li::rmi {
namespace {

size_t StdLowerBound(const std::vector<uint64_t>& v, uint64_t key) {
  return static_cast<size_t>(
      std::lower_bound(v.begin(), v.end(), key) - v.begin());
}

std::vector<uint64_t> MixedQueries(const std::vector<uint64_t>& keys,
                                   size_t count, uint64_t seed) {
  Xorshift128Plus rng(seed);
  std::vector<uint64_t> qs;
  for (size_t i = 0; i < count; ++i) {
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

struct RmiCase {
  data::DatasetKind kind;
  size_t leaves;
  search::Strategy strategy;
};

class LinearRmiTest : public ::testing::TestWithParam<RmiCase> {};

TEST_P(LinearRmiTest, LowerBoundMatchesStd) {
  const auto keys = data::Generate(GetParam().kind, 50'000, 101);
  RmiConfig config;
  config.num_leaf_models = GetParam().leaves;
  config.strategy = GetParam().strategy;
  LinearRmi rmi;
  ASSERT_TRUE(rmi.Build(keys, config).ok());
  for (const uint64_t q : MixedQueries(keys, 30'000, 9)) {
    ASSERT_EQ(rmi.LowerBound(q), StdLowerBound(keys, q)) << "q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LinearRmiTest,
    ::testing::Values(
        RmiCase{data::DatasetKind::kMaps, 100, search::Strategy::kBiasedBinary},
        RmiCase{data::DatasetKind::kMaps, 5000,
                search::Strategy::kBiasedQuaternary},
        RmiCase{data::DatasetKind::kWeblog, 1000,
                search::Strategy::kBiasedBinary},
        RmiCase{data::DatasetKind::kWeblog, 1000,
                search::Strategy::kExponential},
        RmiCase{data::DatasetKind::kLognormal, 1000,
                search::Strategy::kBinary},
        RmiCase{data::DatasetKind::kLognormal, 10'000,
                search::Strategy::kBiasedBinary}));

TEST(RmiTest, ErrorBoundsHoldForAllStoredKeys) {
  // §3.4: executing the model for every key and keeping worst over/under
  // prediction guarantees every stored key lies inside its window.
  const auto keys = data::GenWeblog(40'000, 5);
  RmiConfig config;
  config.num_leaf_models = 500;
  LinearRmi rmi;
  ASSERT_TRUE(rmi.Build(keys, config).ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    const auto w = rmi.Predict(keys[i]).window;
    ASSERT_GE(i, w.lo) << "key idx " << i;
    ASSERT_LT(i, w.hi) << "key idx " << i;
  }
}

TEST(RmiTest, MoreLeavesShrinkError) {
  const auto keys = data::GenLognormal(100'000, 6);
  RmiConfig small_cfg, large_cfg;
  small_cfg.num_leaf_models = 100;
  large_cfg.num_leaf_models = 10'000;
  LinearRmi small, large;
  ASSERT_TRUE(small.Build(keys, small_cfg).ok());
  ASSERT_TRUE(large.Build(keys, large_cfg).ok());
  EXPECT_LT(large.MeanStdError(), small.MeanStdError());
}

TEST(RmiTest, SizeAccounting) {
  // Top + routing stage (K = 1000 / 64 models) + leaves.
  const auto keys = data::GenUniform(10'000, 2);
  RmiConfig config;
  config.num_leaf_models = 1000;
  LinearRmi rmi;
  ASSERT_TRUE(rmi.Build(keys, config).ok());
  ASSERT_EQ(rmi.num_route_models(), 15u);
  EXPECT_EQ(rmi.SizeBytes(), rmi.top().SizeBytes() +
                                 15 * sizeof(models::LinearModel) +
                                 1000 * sizeof(Leaf));
  QuantizedRmi quantized;
  ASSERT_TRUE(quantized.Build(keys, config, models::QuantLevel::kInt16).ok());
  EXPECT_EQ(quantized.SizeBytes(), rmi.top().SizeBytes() +
                                       15 * sizeof(models::LinearModel) +
                                       quantized.table().SizeBytes());
}

TEST(RmiTest, DenseSequentialKeysArePerfectlyLearned) {
  // The introduction's motivating case: offsets become exact.
  const auto keys = data::GenSequential(100'000, 1'000'000);
  RmiConfig config;
  config.num_leaf_models = 64;
  LinearRmi rmi;
  ASSERT_TRUE(rmi.Build(keys, config).ok());
  EXPECT_EQ(rmi.MaxAbsError(), 0);
  for (uint64_t k = 1'000'000; k < 1'100'000; k += 9973) {
    const auto p = rmi.Predict(k);
    EXPECT_EQ(p.pos, k - 1'000'000);
  }
}

TEST(RmiTest, NeuralTopOnLognormal) {
  const auto keys = data::GenLognormal(50'000, 7);
  RmiConfig config;
  config.num_leaf_models = 1000;
  config.train.nn.hidden = {16};
  config.train.nn.epochs = 20;
  NeuralRmi rmi;
  ASSERT_TRUE(rmi.Build(keys, config).ok());
  for (const uint64_t q : MixedQueries(keys, 20'000, 10)) {
    ASSERT_EQ(rmi.LowerBound(q), StdLowerBound(keys, q)) << "q=" << q;
  }
}

TEST(RmiTest, MultivariateTopOnLognormal) {
  const auto keys = data::GenLognormal(50'000, 8);
  RmiConfig config;
  config.num_leaf_models = 1000;
  MultivariateRmi rmi;
  ASSERT_TRUE(rmi.Build(keys, config).ok());
  for (const uint64_t q : MixedQueries(keys, 20'000, 11)) {
    ASSERT_EQ(rmi.LowerBound(q), StdLowerBound(keys, q)) << "q=" << q;
  }
}

TEST(RmiTest, ContainsSemantics) {
  const auto keys = data::GenUniform(10'000, 3, 1u << 30);
  RmiConfig config;
  config.num_leaf_models = 100;
  LinearRmi rmi;
  ASSERT_TRUE(rmi.Build(keys, config).ok());
  Xorshift128Plus rng(4);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t k = keys[rng.NextBounded(keys.size())];
    EXPECT_TRUE(rmi.Contains(k));
  }
  // Absent probes: value between two adjacent keys.
  for (int i = 0; i < 5000; ++i) {
    const size_t idx = rng.NextBounded(keys.size() - 1);
    if (keys[idx] + 1 < keys[idx + 1]) {
      EXPECT_FALSE(rmi.Contains(keys[idx] + 1));
    }
  }
}

TEST(RmiTest, EmptyAndDegenerateBuilds) {
  LinearRmi rmi;
  RmiConfig config;
  config.num_leaf_models = 10;
  ASSERT_TRUE(rmi.Build({}, config).ok());
  EXPECT_EQ(rmi.LowerBound(5), 0u);
  config.num_leaf_models = 0;
  EXPECT_FALSE(rmi.Build({}, config).ok());
  std::vector<uint64_t> one = {42};
  config.num_leaf_models = 4;
  ASSERT_TRUE(rmi.Build(one, config).ok());
  EXPECT_EQ(rmi.LowerBound(41), 0u);
  EXPECT_EQ(rmi.LowerBound(42), 0u);
  EXPECT_EQ(rmi.LowerBound(43), 1u);
}

TEST(RmiTest, ManyMoreLeavesThanKeys) {
  // Sparse routing: most leaves empty; correctness must not depend on
  // leaf occupancy.
  const auto keys = data::GenUniform(500, 5);
  RmiConfig config;
  config.num_leaf_models = 10'000;
  LinearRmi rmi;
  ASSERT_TRUE(rmi.Build(keys, config).ok());
  for (const uint64_t q : MixedQueries(keys, 5000, 13)) {
    ASSERT_EQ(rmi.LowerBound(q), StdLowerBound(keys, q)) << "q=" << q;
  }
}

TEST(HybridRmiTest, MatchesStdAndBoundsWorstCase) {
  const auto keys = data::GenWeblog(50'000, 17);
  HybridConfig config;
  config.rmi.num_leaf_models = 200;
  config.threshold = 64;
  HybridRmi<models::LinearModel> hybrid;
  ASSERT_TRUE(hybrid.Build(keys, config).ok());
  for (const uint64_t q : MixedQueries(keys, 30'000, 14)) {
    ASSERT_EQ(hybrid.LowerBound(q), StdLowerBound(keys, q)) << "q=" << q;
  }
}

TEST(HybridRmiTest, LowThresholdSwapsManyLeaves) {
  const auto keys = data::GenWeblog(50'000, 18);
  HybridConfig strict, loose;
  strict.rmi.num_leaf_models = loose.rmi.num_leaf_models = 100;
  strict.threshold = 4;
  loose.threshold = 100'000;
  HybridRmi<models::LinearModel> a, b;
  ASSERT_TRUE(a.Build(keys, strict).ok());
  ASSERT_TRUE(b.Build(keys, loose).ok());
  EXPECT_GT(a.num_btree_leaves(), b.num_btree_leaves());
  EXPECT_EQ(b.num_btree_leaves(), 0u);
  EXPECT_GT(a.SizeBytes(), b.SizeBytes());
}

TEST(StringRmiTest, LowerBoundMatchesStd) {
  const auto ids = data::GenDocIds(30'000, 21);
  StringRmiConfig config;
  config.num_leaf_models = 500;
  config.top_nn.hidden = {16};
  config.top_nn.epochs = 8;
  StringRmi rmi;
  ASSERT_TRUE(rmi.Build(ids, config).ok());
  Xorshift128Plus rng(22);
  for (int i = 0; i < 10'000; ++i) {
    std::string q = ids[rng.NextBounded(ids.size())];
    if (rng.NextBounded(2)) q += "x";  // absent variant
    const size_t expect = static_cast<size_t>(
        std::lower_bound(ids.begin(), ids.end(), q) - ids.begin());
    ASSERT_EQ(rmi.LowerBound(q), expect) << q;
  }
  EXPECT_EQ(rmi.LowerBound(""), 0u);
  EXPECT_EQ(rmi.LowerBound("~~~~"), ids.size());
}

TEST(StringRmiTest, HybridThresholdAddsBTrees) {
  const auto ids = data::GenDocIds(30'000, 23);
  StringRmiConfig config;
  config.num_leaf_models = 100;
  config.top_nn.epochs = 6;
  config.hybrid_threshold = 32;
  StringRmi rmi;
  ASSERT_TRUE(rmi.Build(ids, config).ok());
  EXPECT_GT(rmi.num_btree_leaves(), 0u);
  Xorshift128Plus rng(24);
  for (int i = 0; i < 10'000; ++i) {
    const std::string& q = ids[rng.NextBounded(ids.size())];
    const size_t expect = static_cast<size_t>(
        std::lower_bound(ids.begin(), ids.end(), q) - ids.begin());
    ASSERT_EQ(rmi.LowerBound(q), expect) << q;
  }
}

TEST(StringRmiTest, QuaternaryStrategyCorrect) {
  const auto ids = data::GenDocIds(20'000, 25);
  StringRmiConfig config;
  config.num_leaf_models = 500;
  config.top_nn.epochs = 6;
  config.strategy = search::Strategy::kBiasedQuaternary;
  StringRmi rmi;
  ASSERT_TRUE(rmi.Build(ids, config).ok());
  Xorshift128Plus rng(26);
  for (int i = 0; i < 10'000; ++i) {
    const std::string& q = ids[rng.NextBounded(ids.size())];
    const size_t expect = static_cast<size_t>(
        std::lower_bound(ids.begin(), ids.end(), q) - ids.begin());
    ASSERT_EQ(rmi.LowerBound(q), expect) << q;
  }
}

TEST(StringRmiTest, ErrorBoundsHoldForStoredStrings) {
  const auto ids = data::GenDocIds(20'000, 27);
  StringRmiConfig config;
  config.num_leaf_models = 200;
  config.top_nn.epochs = 6;
  StringRmi rmi;
  ASSERT_TRUE(rmi.Build(ids, config).ok());
  for (size_t i = 0; i < ids.size(); i += 7) {
    const auto w = rmi.Predict(ids[i]).window;
    ASSERT_GE(i, w.lo) << ids[i];
    ASSERT_LT(i, w.hi) << ids[i];
  }
}

// ---- Rebuild (Appendix D.1 merge cycles) ----
// One RMI retrained over new keys with its own last config. The config
// passes as a copy: Build overwrites the one config() refers to.

TEST(RebuildTest, RebuildsMatchStdLowerBound) {
  const auto keys = data::Generate(data::DatasetKind::kLognormal, 50'000, 31);
  RmiConfig config;
  config.num_leaf_models = 500;
  LinearRmi rmi;
  ASSERT_TRUE(rmi.Build(keys, config).ok());

  // Same keys twice: the rewritten leaf table answers exactly.
  for (int cycle = 0; cycle < 2; ++cycle) {
    ASSERT_TRUE(rmi.Build(keys, RmiConfig(rmi.config())).ok());
    for (const uint64_t q : MixedQueries(keys, 20'000, 33)) {
      ASSERT_EQ(rmi.LowerBound(q), StdLowerBound(keys, q)) << q;
    }
  }

  // A merge-cycle-sized change to the keys.
  auto grown = keys;
  Xorshift128Plus rng(35);
  for (int i = 0; i < 500; ++i) grown.push_back(rng.Next());
  std::sort(grown.begin(), grown.end());
  grown.erase(std::unique(grown.begin(), grown.end()), grown.end());
  ASSERT_TRUE(rmi.Build(grown, RmiConfig(rmi.config())).ok());
  for (const uint64_t q : MixedQueries(grown, 20'000, 37)) {
    ASSERT_EQ(rmi.LowerBound(q), StdLowerBound(grown, q)) << q;
  }

  // A different distribution.
  const auto other = data::Generate(data::DatasetKind::kMaps, 50'000, 39);
  ASSERT_TRUE(rmi.Build(other, RmiConfig(rmi.config())).ok());
  for (const uint64_t q : MixedQueries(other, 20'000, 41)) {
    ASSERT_EQ(rmi.LowerBound(q), StdLowerBound(other, q)) << q;
  }
}

// ---- The routing stage (top -> K routing models -> leaves) ----

std::vector<simd::Level> SupportedLevels() {
  std::vector<simd::Level> levels;
  for (const simd::Level level :
       {simd::Level::kScalar, simd::Level::kAvx2, simd::Level::kAvx512}) {
    if (simd::LevelSupported(level)) levels.push_back(level);
  }
  return levels;
}

/// Absent probes around every gap edge plus the extremes.
std::vector<uint64_t> AbsentQueries(const std::vector<uint64_t>& keys) {
  std::vector<uint64_t> qs = {0, UINT64_MAX};
  if (keys.front() > 0) qs.push_back(keys.front() - 1);
  if (keys.back() < UINT64_MAX) qs.push_back(keys.back() + 1);
  const size_t step = std::max<size_t>(1, keys.size() / 5'000);
  for (size_t i = 0; i + 1 < keys.size(); i += step) {
    if (keys[i] + 1 < keys[i + 1]) {
      qs.push_back(keys[i] + 1);
      qs.push_back(keys[i] + (keys[i + 1] - keys[i]) / 2);
      qs.push_back(keys[i + 1] - 1);
    }
  }
  return qs;
}

/// Every stored key's Lookup is its rank and every absent probe's is
/// std::lower_bound, at every SIMD level; the batch paths agree with the
/// single-key ones bit for bit.
void ExpectExactAtEveryLevel(const LinearRmi& rmi,
                             const std::vector<uint64_t>& keys) {
  std::vector<uint64_t> qs = AbsentQueries(keys);
  const size_t num_absent = qs.size();
  qs.insert(qs.end(), keys.begin(), keys.end());
  std::vector<size_t> want(qs.size());
  std::vector<uint64_t> want_pos(qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    want[i] = StdLowerBound(keys, qs[i]);
    want_pos[i] = rmi.Predict(qs[i]).pos;
  }
  for (const simd::Level level : SupportedLevels()) {
    simd::ScopedLevel pin(level);
    ASSERT_TRUE(pin.status().ok());
    for (size_t i = 0; i < qs.size(); ++i) {
      ASSERT_EQ(rmi.Lookup(qs[i]), want[i])
          << simd::LevelName(level) << " q=" << qs[i]
          << (i < num_absent ? " (absent)" : " (stored)");
    }
    std::vector<size_t> got(qs.size());
    rmi.LookupBatch(qs, got);
    ASSERT_EQ(got, want) << simd::LevelName(level);
    std::vector<uint64_t> pos(qs.size());
    rmi.PredictPosBatch(qs, pos);
    ASSERT_EQ(pos, want_pos) << simd::LevelName(level);
  }
}

struct RoutingCase {
  data::DatasetKind kind;
  size_t n;
  size_t leaves;
};

class RoutingStageTest : public ::testing::TestWithParam<RoutingCase> {};

TEST_P(RoutingStageTest, ExactAtEveryLevel) {
  const auto keys = data::Generate(GetParam().kind, GetParam().n, 43);
  RmiConfig config;
  config.num_leaf_models = GetParam().leaves;
  LinearRmi rmi;
  ASSERT_TRUE(rmi.Build(keys, config).ok());
  EXPECT_EQ(rmi.num_route_models(),
            std::clamp<size_t>(GetParam().leaves / 64, 1, 4096));
  ExpectExactAtEveryLevel(rmi, keys);
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, RoutingStageTest,
    ::testing::Values(
        RoutingCase{data::DatasetKind::kLognormal, 200'000, 200'000 / 64},
        RoutingCase{data::DatasetKind::kMaps, 200'000, 200'000 / 64},
        RoutingCase{data::DatasetKind::kWeblog, 200'000, 200'000 / 64},
        // More leaves than keys: most leaves and segments stay empty.
        RoutingCase{data::DatasetKind::kLognormal, 5'000, 20'000}));

TEST(RoutingStageTest, TinyKeySets) {
  RmiConfig config;
  config.num_leaf_models = 256;  // K = 4
  for (const std::vector<uint64_t>& keys :
       {std::vector<uint64_t>{42}, std::vector<uint64_t>{42, 1'000'000},
        std::vector<uint64_t>{0, UINT64_MAX - 1}}) {
    LinearRmi rmi;
    ASSERT_TRUE(rmi.Build(keys, config).ok());
    ExpectExactAtEveryLevel(rmi, keys);
  }
}

TEST(RoutingStageTest, OneRouteModelIsTheTwoStageRmi) {
  const auto keys = data::GenLognormal(100'000, 45);
  RmiConfig config;
  config.num_leaf_models = 100'000 / 64;
  config.num_route_models = 1;
  LinearRmi rmi;
  ASSERT_TRUE(rmi.Build(keys, config).ok());
  EXPECT_TRUE(rmi.route().empty());
  EXPECT_EQ(rmi.num_route_models(), 1u);
  const double factor = static_cast<double>(config.num_leaf_models) /
                        static_cast<double>(keys.size());
  const auto max_leaf = static_cast<uint32_t>(config.num_leaf_models - 1);
  for (const uint64_t k : keys) {
    ASSERT_EQ(rmi.Predict(k).leaf,
              simd::ScalarRoute1(static_cast<double>(k), rmi.top().slope(),
                                 rmi.top().intercept(), factor, max_leaf))
        << k;
  }
  ExpectExactAtEveryLevel(rmi, keys);
}

TEST(RoutingStageTest, EqualizesLeafMassOnLognormal) {
  // The regression guard for the routing stage: at n/64 leaves a linear
  // top alone leaves ~60-70% of the leaves empty and a mean window of
  // ~300 keys on 1M lognormal keys.
  const auto keys = data::GenLognormal(1'000'000, 1);
  RmiConfig config;
  config.num_leaf_models = keys.size() / 64;
  LinearRmi rmi;
  ASSERT_TRUE(rmi.Build(keys, config).ok());
  std::vector<bool> occupied(config.num_leaf_models, false);
  double width = 0.0;
  for (const uint64_t k : keys) {
    width += static_cast<double>(rmi.ApproxPos(k).Width());
    occupied[rmi.Predict(k).leaf] = true;
  }
  const double mean_width = width / static_cast<double>(keys.size());
  const double empty_share =
      static_cast<double>(std::count(occupied.begin(), occupied.end(), false)) /
      static_cast<double>(occupied.size());
  EXPECT_LE(mean_width, 16.0);
  EXPECT_LE(empty_share, 0.20);
}


// ---- Threaded builds (RmiIndex::BuildOnWorkers) ----

std::string SnapshotBytes(const LinearRmi& rmi, const std::string& name) {
  const std::string path = ::testing::TempDir() + "li_rmi_" + name + ".snap";
  EXPECT_TRUE(rmi.WriteSnapshot(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

template <typename R>
bool SameLeafBytes(const R& a, const R& b) {
  return a.leaves().size() == b.leaves().size() &&
         std::memcmp(a.leaves().data(), b.leaves().data(),
                     a.leaves().size_bytes()) == 0;
}

// Every worker count must give the one-thread build's leaves and snapshot
// byte for byte.
void ExpectThreadedBuildsIdentical(const std::vector<uint64_t>& keys,
                                   const RmiConfig& config) {
  LinearRmi one;
  ASSERT_TRUE(one.BuildOnWorkers(keys, config, 1).ok());
  for (size_t i = 0; i < keys.size(); ++i) {  // §3.4: every key was fitted
    ASSERT_TRUE(one.ApproxPos(keys[i]).Contains(i)) << "key idx " << i;
  }
  const std::string want = SnapshotBytes(one, "one");
  ASSERT_FALSE(want.empty());
  for (const size_t workers : {2, 3, 4}) {
    LinearRmi many;
    ASSERT_TRUE(many.BuildOnWorkers(keys, config, workers).ok());
    EXPECT_TRUE(SameLeafBytes(one, many)) << workers << " workers";
    EXPECT_EQ(SnapshotBytes(many, "many"), want) << workers << " workers";
  }
}

TEST(ThreadedBuildTest, KeyCountOffBlockAndWorkerMultiples) {
  // A multiple of neither 64 nor any worker count: the last chunk takes
  // the 37-key tail.
  const auto keys = data::GenLognormal(3 * (size_t{1} << 18) + 37, 51);
  RmiConfig config;
  config.num_leaf_models = keys.size() / 64;
  ExpectThreadedBuildsIdentical(keys, config);
  config.num_leaf_models = 1000;
  ExpectThreadedBuildsIdentical(keys, config);
}

TEST(ThreadedBuildTest, EmptyLeavesAtChunkEdgesAndTail) {
  // More leaves than keys per worker: most leaves are empty, including
  // the first leaves of later workers and the last leaves overall, so
  // their fill positions come from keys another worker fitted.
  const auto keys = data::GenLognormal(10'037, 52);
  RmiConfig config;
  config.num_leaf_models = 40'000;
  ExpectThreadedBuildsIdentical(keys, config);
  config.num_route_models = 1;  // the top alone leaves a long empty tail
  ExpectThreadedBuildsIdentical(keys, config);
}

TEST(ThreadedBuildTest, NeuralTopGroupsKeysInOneThreadOrder) {
  const auto keys = data::GenLognormal(50'037, 53);
  RmiConfig config;
  config.num_leaf_models = 2000;
  config.train.nn.hidden = {16};
  config.train.nn.epochs = 20;
  NeuralRmi one;
  ASSERT_TRUE(one.BuildOnWorkers(keys, config, 1).ok());
  // The case is only worth having if routing is not monotone, so the
  // build takes the pass that groups key positions by leaf.
  bool monotone = true;
  for (size_t i = 1; i < keys.size(); ++i) {
    monotone &= one.Predict(keys[i]).leaf >= one.Predict(keys[i - 1]).leaf;
  }
  ASSERT_FALSE(monotone);
  for (const size_t workers : {2, 3, 4}) {
    NeuralRmi many;
    ASSERT_TRUE(many.BuildOnWorkers(keys, config, workers).ok());
    EXPECT_TRUE(SameLeafBytes(one, many)) << workers << " workers";
  }
}

// A linear top whose prediction drops by a quarter of the keys at the
// median sample key: routing is monotone on either side but not across,
// so with two workers each chunk is monotone on its own and only the
// chunk edge shows that keys must be grouped by leaf.
struct SteppedTop {
  models::LinearModel line;
  double cut = 0.0, drop = 0.0;
  double Predict(double x) const {
    return line.Predict(x) - (x >= cut ? drop : 0.0);
  }
};

Status TrainModel(SteppedTop* m, std::span<const double> xs,
                  std::span<const double> ys, const TrainOptions&) {
  m->cut = xs[xs.size() / 2];
  m->drop = static_cast<double>(xs.size()) / 4;
  return m->line.Fit(xs, ys);
}

TEST(ThreadedBuildTest, SteppedTopGroupsAcrossTheChunkEdge) {
  // 2^14 keys (a multiple of 128, under the top's training sample): the
  // two-worker chunk edge is key n/2, the cut. Gaps up to 2^40 keep the
  // leaf sums inexact, so the fit depends on the order of a leaf's keys.
  Xorshift128Plus rng(55);
  std::vector<uint64_t> keys(size_t{1} << 14);
  uint64_t key = uint64_t{1} << 60;
  for (uint64_t& k : keys) k = key += 1 + rng.NextBounded(uint64_t{1} << 40);
  RmiConfig config;
  config.num_leaf_models = keys.size() / 16;
  RmiIndex<SteppedTop> one, two;
  ASSERT_TRUE(one.BuildOnWorkers(keys, config, 1).ok());
  ASSERT_TRUE(two.BuildOnWorkers(keys, config, 2).ok());
  EXPECT_TRUE(SameLeafBytes(one, two));
}

TEST(ThreadedBuildTest, LearnedHashSlotsMatchOneThreadModel) {
  // Past 2^19 keys Build itself uses more than one worker on a multi-core
  // host; every slot must be what a one-thread model gives.
  const size_t n = 3 * (size_t{1} << 18) + 37;
  const auto keys = data::GenLognormal(n, 54);
  RmiConfig config;
  config.num_leaf_models = n / 10;
  config.num_route_models = 1;
  const uint64_t num_slots = n;
  hash::LearnedHash<> hash;
  ASSERT_TRUE(hash.Build(keys, num_slots, config).ok());
  LinearRmi one;
  ASSERT_TRUE(one.BuildOnWorkers(keys, config, 1).ok());
  // LearnedHash's rescale: floor(M * 2^64 / N), then (pos * scale) >> 64.
  const unsigned __int128 scale =
      (static_cast<unsigned __int128>(num_slots) << 64) / n;
  std::vector<uint64_t> slots(n);
  hash.SlotBatch(keys.data(), n, slots.data());
  for (size_t i = 0; i < n; ++i) {
    const auto want =
        static_cast<uint64_t>((scale * one.Predict(keys[i]).pos) >> 64);
    ASSERT_EQ(hash(keys[i]), want) << i;
    ASSERT_EQ(slots[i], want) << i;
  }
}

TEST(ThreadedBuildTest, WorkerCountFollowsKeyCount) {
  EXPECT_EQ(LinearRmi::BuildWorkers(0), 1u);
  EXPECT_EQ(LinearRmi::BuildWorkers((size_t{1} << 19) - 1), 1u);
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(LinearRmi::BuildWorkers(size_t{1} << 19),
            std::min<size_t>(2, cores));
  EXPECT_EQ(LinearRmi::BuildWorkers(size_t{1} << 30), cores);
}

TEST(RmiTest, RefusesMoreThanUint32MaxKeys) {
  // 2^32 keys over a read-only mapping that is never touched: leaf
  // offsets and routed positions are 32-bit, so Build must refuse before
  // reading a key.
  const size_t n = size_t{1} << 32;
  const size_t bytes = n * sizeof(uint64_t);
  void* p = mmap(nullptr, bytes, PROT_READ,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) GTEST_SKIP() << "cannot map 32 GiB of address space";
  RmiConfig config;
  LinearRmi rmi;
  const Status s = rmi.Build({static_cast<const uint64_t*>(p), n}, config);
  munmap(p, bytes);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
}

}  // namespace
}  // namespace li::rmi
