// Model concepts and error-bound machinery shared by all learned indexes.
//
// The paper's key observation (§2): a range index is a model of the CDF,
// p = F(key) * N, and any regression model qualifies as long as we can
// compute min/max error bounds over the stored keys (§3.4). Models in this
// library are concrete structs with inlined Predict() — mirroring LIF's
// code-generated inference kernels ("we are able to execute simple models
// on the order of 30 nano-seconds", §3.1) — plus a type-erased wrapper for
// the synthesis framework, which deliberately pays virtual-call overhead
// exactly as the paper describes for LIF.

#ifndef LI_MODELS_MODEL_H_
#define LI_MODELS_MODEL_H_

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>

namespace li::models {

/// A scalar position model: key (as double) -> predicted position.
template <typename M>
concept PositionModel = requires(const M m, double x) {
  { m.Predict(x) } -> std::convertible_to<double>;
  { m.SizeBytes() } -> std::convertible_to<size_t>;
};

/// Worst-case over/under-prediction of a model over the stored keys,
/// plus the standard error used by biased quaternary search.
///
/// For every stored (key, pos): pos is guaranteed to lie in
/// [pred + min_err, pred + max_err].
struct ErrorBounds {
  double min_err = 0.0;  // most negative (actual - predicted)
  double max_err = 0.0;  // most positive (actual - predicted)
  double std_err = 0.0;  // stddev of (actual - predicted)

  double MaxAbs() const { return std::max(std::fabs(min_err), max_err); }
};

/// Records the worst over- and under-prediction of a model over the
/// stored keys — the procedure §2 describes for obtaining B-Tree-like
/// guarantees from an arbitrary model. ys[i] is the true position of
/// stored key i and predict(i) the model's estimate for it: the estimate
/// the lookup path actually searches from (an RMI leaf passes its rounded,
/// clamped position), so the bounds cover exactly that path.
template <typename PredictFn>
ErrorBounds ComputeErrorBounds(std::span<const double> ys,
                               PredictFn&& predict) {
  ErrorBounds b;
  if (ys.empty()) return b;
  b.min_err = std::numeric_limits<double>::infinity();
  b.max_err = -std::numeric_limits<double>::infinity();
  double sum = 0.0, sum_sq = 0.0;
  for (size_t i = 0; i < ys.size(); ++i) {
    const double e = ys[i] - static_cast<double>(predict(i));
    b.min_err = std::min(b.min_err, e);
    b.max_err = std::max(b.max_err, e);
    sum += e;
    sum_sq += e * e;
  }
  const double n = static_cast<double>(ys.size());
  const double mean = sum / n;
  b.std_err = std::sqrt(std::max(0.0, sum_sq / n - mean * mean));
  return b;
}

/// Checks whether the model is non-decreasing over the given sorted inputs
/// (monotonic models guarantee error bounds even for absent keys, §3.4).
template <PositionModel M>
bool IsMonotonicOn(const M& model, std::span<const double> sorted_xs) {
  double prev = -std::numeric_limits<double>::infinity();
  for (const double x : sorted_xs) {
    const double p = model.Predict(x);
    if (p < prev) return false;
    prev = p;
  }
  return true;
}

/// Mean squared error of a model over a sample.
template <PositionModel M>
double MeanSquaredError(const M& model, std::span<const double> xs,
                        std::span<const double> ys) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const double e = ys[i] - model.Predict(xs[i]);
    s += e * e;
  }
  return s / static_cast<double>(xs.size());
}

}  // namespace li::models

#endif  // LI_MODELS_MODEL_H_
