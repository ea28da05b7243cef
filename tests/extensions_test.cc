// Tests for the extension modules: isotonic (monotonic) models, histogram
// CDF baselines, and quantized leaf tables / quantized RMI.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.h"
#include "data/datasets.h"
#include "models/histogram.h"
#include "models/isotonic.h"
#include "models/model.h"
#include "models/quantized.h"
#include "rmi/quantized_rmi.h"

namespace li {
namespace {

size_t StdLowerBound(const std::vector<uint64_t>& v, uint64_t key) {
  return static_cast<size_t>(
      std::lower_bound(v.begin(), v.end(), key) - v.begin());
}

TEST(IsotonicTest, FitsMonotoneDataExactly) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 100; ++i) {
    xs.push_back(i);
    ys.push_back(2.0 * i);
  }
  models::IsotonicModel m;
  ASSERT_TRUE(m.Fit(xs, ys).ok());
  for (int i = 0; i < 100; i += 7) {
    EXPECT_NEAR(m.Predict(i), 2.0 * i, 1e-9);
  }
}

TEST(IsotonicTest, PoolsViolations) {
  // A dip in otherwise increasing data gets pooled to the block mean.
  std::vector<double> xs = {0, 1, 2, 3, 4};
  std::vector<double> ys = {0, 10, 4, 12, 20};  // 10 > 4 violates
  models::IsotonicModel m;
  ASSERT_TRUE(m.Fit(xs, ys).ok());
  // Prediction must be non-decreasing everywhere.
  double prev = -1e300;
  for (double x = -1.0; x <= 5.0; x += 0.1) {
    const double p = m.Predict(x);
    EXPECT_GE(p, prev - 1e-12);
    prev = p;
  }
  // Pooled block (10, 4) -> mean 7 at both points.
  EXPECT_NEAR(m.Predict(2.0), 7.0, 1e-9);
}

TEST(IsotonicTest, AlwaysMonotoneOnNoisyCdf) {
  const auto keys = data::GenWeblog(20'000, 5);
  std::vector<double> xs, ys;
  Xorshift128Plus rng(6);
  for (size_t i = 0; i < keys.size(); ++i) {
    xs.push_back(static_cast<double>(keys[i]));
    // Noisy targets: the raw positions plus noise that breaks sortedness.
    ys.push_back(static_cast<double>(i) + 40.0 * rng.NextGaussian());
  }
  models::IsotonicModel m;
  ASSERT_TRUE(m.Fit(xs, ys, 512).ok());
  EXPECT_LE(m.num_knots(), 512u);
  std::vector<double> probe(xs.begin(), xs.end());
  EXPECT_TRUE(models::IsMonotonicOn(m, probe));
}

TEST(IsotonicTest, Validation) {
  models::IsotonicModel m;
  std::vector<double> bad_x = {3, 1, 2};
  std::vector<double> y = {1, 2, 3};
  EXPECT_FALSE(m.Fit(bad_x, y).ok());
  std::vector<double> x = {1, 2};
  EXPECT_FALSE(m.Fit(x, y).ok());  // size mismatch
  EXPECT_FALSE(m.Fit(x, x, 1).ok());  // too few knots
}

TEST(HistogramTest, EquiWidthOnUniformIsAccurate) {
  const auto keys = data::GenUniform(50'000, 3);
  std::vector<double> xs, ys;
  for (size_t i = 0; i < keys.size(); ++i) {
    xs.push_back(static_cast<double>(keys[i]));
    ys.push_back(static_cast<double>(i));
  }
  models::EquiWidthHistogram h;
  ASSERT_TRUE(h.Fit(xs, ys, 1024).ok());
  double worst = 0.0;
  for (size_t i = 0; i < xs.size(); i += 37) {
    worst = std::max(worst, std::fabs(h.Predict(xs[i]) - ys[i]));
  }
  // Uniform data: error bounded by ~ n / buckets.
  EXPECT_LT(worst, 50'000.0 / 1024 * 2);
}

TEST(HistogramTest, EquiWidthCollapsesUnderSkew) {
  // The paper's §3.7.1 point: equal-width buckets fail under skew.
  const auto keys = data::GenLognormal(50'000, 4);
  std::vector<double> xs, ys;
  for (size_t i = 0; i < keys.size(); ++i) {
    xs.push_back(static_cast<double>(keys[i]));
    ys.push_back(static_cast<double>(i));
  }
  models::EquiWidthHistogram ew;
  models::EquiDepthHistogram ed;
  ASSERT_TRUE(ew.Fit(xs, ys, 1024).ok());
  ASSERT_TRUE(ed.Fit(xs, ys, 1024).ok());
  EXPECT_GT(models::MeanSquaredError(ew, xs, ys),
            10.0 * models::MeanSquaredError(ed, xs, ys));
}

TEST(HistogramTest, EquiDepthBoundedError) {
  const auto keys = data::GenLognormal(50'000, 5);
  std::vector<double> xs, ys;
  for (size_t i = 0; i < keys.size(); ++i) {
    xs.push_back(static_cast<double>(keys[i]));
    ys.push_back(static_cast<double>(i));
  }
  models::EquiDepthHistogram h;
  ASSERT_TRUE(h.Fit(xs, ys, 512).ok());
  double worst = 0.0;
  for (size_t i = 0; i < xs.size(); i += 11) {
    worst = std::max(worst, std::fabs(h.Predict(xs[i]) - ys[i]));
  }
  EXPECT_LT(worst, 50'000.0 / 512 * 2);  // ~bucket depth
}

TEST(QuantizedTableTest, PredictionsCloseAndBoundsWiden) {
  // One leaf per 100 keys over lognormal data.
  const auto keys = data::GenLognormal(10'000, 7);
  std::vector<models::QuantizedLeafTable::LeafRef> refs;
  std::vector<double> xs, ys;
  for (size_t leaf = 0; leaf < 100; ++leaf) {
    xs.clear();
    ys.clear();
    for (size_t i = leaf * 100; i < (leaf + 1) * 100; ++i) {
      xs.push_back(static_cast<double>(keys[i]));
      ys.push_back(static_cast<double>(i));
    }
    models::LinearModel m;
    ASSERT_TRUE(m.Fit(xs, ys).ok());
    const auto b = models::ComputeErrorBounds(
        ys, [&](size_t i) { return m.Predict(xs[i]); });
    refs.push_back({m.slope(), m.intercept(),
                    static_cast<int32_t>(std::floor(b.min_err)),
                    static_cast<int32_t>(std::ceil(b.max_err)), xs.front(),
                    xs.back() - xs.front()});
  }
  for (const auto level :
       {models::QuantLevel::kFloat32, models::QuantLevel::kInt16}) {
    models::QuantizedLeafTable table;
    ASSERT_TRUE(table.Encode(refs, level).ok());
    for (size_t leaf = 0; leaf < 100; ++leaf) {
      for (size_t i = leaf * 100; i < (leaf + 1) * 100; i += 17) {
        const double x = static_cast<double>(keys[i]);
        const double exact = refs[leaf].slope * x + refs[leaf].intercept;
        const double quant = table.Predict(leaf, x);
        // The bounds widening is a worst-case budget: it must cover the
        // observed drift at every probed key.
        const double drift = std::fabs(quant - exact);
        EXPECT_LE(drift,
                  static_cast<double>(refs[leaf].min_err -
                                      table.min_err(leaf)))
            << QuantLevelName(level);
        // And the true position stays inside the quantized window.
        const double pos = static_cast<double>(i);
        EXPECT_GE(pos, quant + table.min_err(leaf) - 1e-6);
        EXPECT_LE(pos, quant + table.max_err(leaf) + 1e-6);
      }
    }
    // Compression actually compresses.
    models::QuantizedLeafTable ref64;
    ASSERT_TRUE(ref64.Encode(refs, models::QuantLevel::kFloat64).ok());
    EXPECT_LT(table.SizeBytes(), ref64.SizeBytes());
  }
}

class QuantizedRmiTest
    : public ::testing::TestWithParam<models::QuantLevel> {};

TEST_P(QuantizedRmiTest, LowerBoundMatchesStd) {
  const auto keys = data::GenLognormal(50'000, 8);
  rmi::RmiConfig config;
  config.num_leaf_models = 1000;
  rmi::QuantizedRmi index;
  ASSERT_TRUE(index.Build(keys, config, GetParam()).ok());
  Xorshift128Plus rng(9);
  for (int i = 0; i < 20'000; ++i) {
    const uint64_t k = keys[rng.NextBounded(keys.size())];
    const uint64_t q = rng.NextBounded(3) == 0 ? k + 1 : k;
    ASSERT_EQ(index.LowerBound(q), StdLowerBound(keys, q)) << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, QuantizedRmiTest,
                         ::testing::Values(models::QuantLevel::kFloat64,
                                           models::QuantLevel::kFloat32,
                                           models::QuantLevel::kInt16));

TEST(QuantizedRmiTest, SizeShrinksWithPrecision) {
  const auto keys = data::GenUniform(50'000, 10);
  rmi::RmiConfig config;
  config.num_leaf_models = 2000;
  rmi::QuantizedRmi f64, f32, i16;
  ASSERT_TRUE(f64.Build(keys, config, models::QuantLevel::kFloat64).ok());
  ASSERT_TRUE(f32.Build(keys, config, models::QuantLevel::kFloat32).ok());
  ASSERT_TRUE(i16.Build(keys, config, models::QuantLevel::kInt16).ok());
  EXPECT_GT(f64.SizeBytes(), f32.SizeBytes());
  EXPECT_GT(f32.SizeBytes(), i16.SizeBytes());
}

// Keys past the last stored key drive the quantized leaf's prediction far
// beyond the data; it must saturate into the window, not overflow the
// float-to-integer conversion, and the lookup must land on n.
TEST(QuantizedRmiTest, ExtremeKeysOverDenseKeys) {
  constexpr size_t kN = 10'000;
  std::vector<uint64_t> keys(kN);
  for (size_t i = 0; i < kN; ++i) keys[i] = i;
  for (const auto level :
       {models::QuantLevel::kFloat32, models::QuantLevel::kInt16}) {
    rmi::RmiConfig config;
    config.num_leaf_models = 100;
    rmi::QuantizedRmi index;
    ASSERT_TRUE(index.Build(keys, config, level).ok());
    for (const uint64_t q : {uint64_t{0}, uint64_t{kN - 1}, uint64_t{kN},
                             uint64_t{1} << 63, UINT64_MAX}) {
      const index::Approx a = index.ApproxPos(q);
      EXPECT_LE(a.lo, a.pos) << QuantLevelName(level) << " q=" << q;
      EXPECT_LE(a.pos, a.hi) << QuantLevelName(level) << " q=" << q;
      EXPECT_LE(a.hi, kN) << QuantLevelName(level) << " q=" << q;
      EXPECT_EQ(index.Lookup(q), StdLowerBound(keys, q))
          << QuantLevelName(level) << " q=" << q;
    }
    EXPECT_EQ(index.Lookup(UINT64_MAX), kN) << QuantLevelName(level);
  }
}

}  // namespace
}  // namespace li
