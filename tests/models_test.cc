// Tests for the model zoo: closed-form fits, NN training convergence,
// error-bound machinery, tokenizer, and the naive-executor equivalence.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/random.h"
#include "data/datasets.h"
#include "models/linear.h"
#include "models/model.h"
#include "models/multivariate.h"
#include "models/naive_executor.h"
#include "models/nn.h"
#include "models/tokenizer.h"
#include "models/vec_linear.h"

namespace li::models {
namespace {

TEST(LinearModelTest, ExactLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 100; ++i) {
    xs.push_back(i);
    ys.push_back(2.0 * i + 5.0);
  }
  LinearModel m;
  ASSERT_TRUE(m.Fit(xs, ys).ok());
  EXPECT_NEAR(m.slope(), 2.0, 1e-9);
  EXPECT_NEAR(m.intercept(), 5.0, 1e-9);
  EXPECT_NEAR(m.Predict(50.5), 106.0, 1e-6);
  EXPECT_TRUE(m.IsMonotonic());
}

TEST(LinearModelTest, HugeKeysStayConditioned) {
  // Keys near 1e18 (the Maps fixed-point scale) must not destroy the fit.
  std::vector<double> xs, ys;
  for (int i = 0; i < 1000; ++i) {
    xs.push_back(1e18 + i * 1e10);
    ys.push_back(i);
  }
  LinearModel m;
  ASSERT_TRUE(m.Fit(xs, ys).ok());
  for (int i = 0; i < 1000; i += 97) {
    EXPECT_NEAR(m.Predict(xs[i]), ys[i], 1e-3) << i;
  }
}

TEST(LinearModelTest, DegenerateInputsFallBackToConstant) {
  LinearModel m;
  ASSERT_TRUE(m.Fit({}, {}).ok());
  EXPECT_DOUBLE_EQ(m.Predict(123.0), 0.0);
  std::vector<double> same_x = {5, 5, 5};
  std::vector<double> ys = {1, 2, 3};
  ASSERT_TRUE(m.Fit(same_x, ys).ok());
  EXPECT_NEAR(m.Predict(5.0), 2.0, 1e-9);  // mean of ys
}

TEST(LinearModelTest, SizeMismatchRejected) {
  LinearModel m;
  std::vector<double> xs = {1, 2};
  std::vector<double> ys = {1};
  EXPECT_FALSE(m.Fit(xs, ys).ok());
}

TEST(MultivariateTest, FitsQuadratic) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 500; ++i) {
    const double x = i / 500.0;
    xs.push_back(x);
    ys.push_back(3.0 * x * x + 2.0 * x + 1.0);
  }
  MultivariateModel m;
  ASSERT_TRUE(m.Fit(xs, ys, kFeatX | kFeatSq).ok());
  for (int i = 0; i < 500; i += 61) {
    EXPECT_NEAR(m.Predict(xs[i]), ys[i], 1e-6);
  }
}

TEST(MultivariateTest, AutoSelectBeatsPlainLinearOnLogCurve) {
  std::vector<double> xs, ys;
  for (int i = 1; i <= 2000; ++i) {
    xs.push_back(i);
    ys.push_back(std::log(static_cast<double>(i)) * 100.0);
  }
  MultivariateModel mv;
  ASSERT_TRUE(mv.FitAutoSelect(xs, ys).ok());
  LinearModel lin;
  ASSERT_TRUE(lin.Fit(xs, ys).ok());
  EXPECT_LT(MeanSquaredError(mv, xs, ys), MeanSquaredError(lin, xs, ys));
}

TEST(MultivariateTest, UnderdeterminedFallsBackToMean) {
  MultivariateModel m;
  std::vector<double> xs = {1, 2};
  std::vector<double> ys = {10, 20};
  ASSERT_TRUE(m.Fit(xs, ys).ok());  // 2 points < 5 params
  EXPECT_NEAR(m.Predict(1.5), 15.0, 1e-9);
}

TEST(ErrorBoundsTest, BoundsContainAllResiduals) {
  const auto keys = data::GenLognormal(5000, 2);
  std::vector<double> xs, ys;
  for (size_t i = 0; i < keys.size(); ++i) {
    xs.push_back(static_cast<double>(keys[i]));
    ys.push_back(static_cast<double>(i));
  }
  LinearModel m;
  ASSERT_TRUE(m.Fit(xs, ys).ok());
  const ErrorBounds b =
      ComputeErrorBounds(ys, [&](size_t i) { return m.Predict(xs[i]); });
  EXPECT_LE(b.min_err, 0.0);
  EXPECT_GE(b.max_err, 0.0);
  for (size_t i = 0; i < xs.size(); ++i) {
    const double e = ys[i] - m.Predict(xs[i]);
    EXPECT_GE(e, b.min_err - 1e-9);
    EXPECT_LE(e, b.max_err + 1e-9);
  }
  EXPECT_GT(b.std_err, 0.0);
  EXPECT_LE(b.std_err, b.MaxAbs());
}

TEST(MonotonicTest, LinearMonotoneDetected) {
  LinearModel up(2.0, 0.0), down(-1.0, 0.0);
  std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_TRUE(IsMonotonicOn(up, xs));
  EXPECT_FALSE(IsMonotonicOn(down, xs));
}

TEST(NeuralNetTest, ZeroHiddenLayersIsLinearRegression) {
  // §3.3: "a zero hidden-layer NN is equivalent to linear regression."
  std::vector<double> xs, ys;
  for (int i = 0; i < 4000; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i + 10.0);
  }
  NNConfig c;
  c.epochs = 60;
  c.learning_rate = 3e-2;
  NeuralNet net;
  ASSERT_TRUE(net.Fit(xs, ys, c).ok());
  double max_rel = 0.0;
  for (int i = 0; i < 4000; i += 101) {
    max_rel = std::max(max_rel,
                       std::fabs(net.Predict(xs[i]) - ys[i]) / (ys[i] + 1.0));
  }
  EXPECT_LT(max_rel, 0.05);
}

TEST(NeuralNetTest, HiddenLayersFitNonlinearCdf) {
  // A lognormal CDF is far from linear; one hidden layer must cut the error
  // dramatically vs the best straight line.
  const auto keys = data::GenLognormal(20'000, 5);
  std::vector<double> xs, ys;
  for (size_t i = 0; i < keys.size(); ++i) {
    xs.push_back(static_cast<double>(keys[i]));
    ys.push_back(static_cast<double>(i));
  }
  LinearModel lin;
  ASSERT_TRUE(lin.Fit(xs, ys).ok());
  NNConfig c;
  c.hidden = {16};
  c.epochs = 30;
  NeuralNet net;
  ASSERT_TRUE(net.Fit(xs, ys, c).ok());
  EXPECT_LT(MeanSquaredError(net, xs, ys), MeanSquaredError(lin, xs, ys) / 2);
}

TEST(NeuralNetTest, ConfigValidation) {
  NeuralNet net;
  NNConfig c;
  c.hidden = {8, 8, 8};  // 3 hidden layers not allowed
  EXPECT_FALSE(net.Fit({}, {}, c).ok());
  c.hidden = {0};
  EXPECT_FALSE(net.Fit({}, {}, c).ok());
  c.hidden = {NeuralNet::kMaxWidth + 1};
  EXPECT_FALSE(net.Fit({}, {}, c).ok());
}

TEST(NeuralNetTest, SizeAndOpsAccounting) {
  std::vector<double> xs = {1, 2, 3, 4}, ys = {1, 2, 3, 4};
  NNConfig c;
  c.hidden = {32, 32};
  c.epochs = 1;
  NeuralNet net;
  ASSERT_TRUE(net.Fit(xs, ys, c).ok());
  // Layers: 1->32, 32->32, 32->1 weights + biases.
  const size_t weights = 32 + 32 * 32 + 32;
  const size_t biases = 32 + 32 + 1;
  EXPECT_EQ(net.SizeBytes(),
            (weights + biases + 2 + 2) * sizeof(double));
  EXPECT_EQ(net.OpsPerInference(), 2 * weights + biases);
}

TEST(VecLinearTest, FitsPlaneExactly) {
  // y = 2 a + 3 b - 1 over a small grid.
  std::vector<double> feats;
  std::vector<double> ys;
  for (int a = 0; a < 10; ++a) {
    for (int b = 0; b < 10; ++b) {
      feats.push_back(a);
      feats.push_back(b);
      ys.push_back(2.0 * a + 3.0 * b - 1.0);
    }
  }
  VecLinearModel m;
  ASSERT_TRUE(m.Fit(feats, 100, 2, ys).ok());
  const std::vector<double> probe = {4.0, 7.0};
  // Ridge regularization introduces a tiny bias; exactness up to ~1e-3.
  EXPECT_NEAR(m.PredictVec(probe), 2 * 4 + 3 * 7 - 1, 1e-3);
}

TEST(VecLinearTest, UnderdeterminedConstant) {
  VecLinearModel m;
  std::vector<double> feats = {1, 2, 3};
  std::vector<double> ys = {6};
  ASSERT_TRUE(m.Fit(feats, 1, 3, ys).ok());
  const std::vector<double> probe = {9, 9, 9};
  EXPECT_NEAR(m.PredictVec(probe), 6.0, 1e-9);
}

TEST(TokenizerTest, AsciiTruncationAndPadding) {
  StringTokenizer tok(6);
  const auto v = tok.Tokenize("AB");
  ASSERT_EQ(v.size(), 6u);
  EXPECT_DOUBLE_EQ(v[0], 65);
  EXPECT_DOUBLE_EQ(v[1], 66);
  EXPECT_DOUBLE_EQ(v[2], 0);
  const auto w = tok.Tokenize("abcdefghij");
  EXPECT_DOUBLE_EQ(w[5], 'f');  // truncated at 6
}

TEST(TokenizerTest, PreservesLexicographicOrderOnPrefixDistinct) {
  StringTokenizer tok(8);
  const auto a = tok.Tokenize("apple");
  const auto b = tok.Tokenize("banana");
  EXPECT_LT(a, b);  // vector comparison mirrors lexicographic order
}

TEST(NaiveExecutorTest, MatchesCompiledInference) {
  const auto keys = data::GenLognormal(5000, 4);
  std::vector<double> xs, ys;
  for (size_t i = 0; i < keys.size(); ++i) {
    xs.push_back(static_cast<double>(keys[i]));
    ys.push_back(static_cast<double>(i));
  }
  NNConfig c;
  c.hidden = {32, 32};
  c.epochs = 3;
  NeuralNet net;
  ASSERT_TRUE(net.Fit(xs, ys, c).ok());
  NaiveGraphExecutor slow(net);
  for (size_t i = 0; i < xs.size(); i += 503) {
    EXPECT_NEAR(slow.Predict(xs[i]), net.Predict(xs[i]), 1e-9);
  }
  EXPECT_EQ(slow.num_ops(), 3u * 2 + 2u);  // 2x(MatMul,Add,Relu) + MatMul,Add
}

}  // namespace
}  // namespace li::models
