// Closed-form simple linear regression — the workhorse second-stage model.
// "For the second stage, simple, linear models had the best performance...
// linear models can be learned optimally [in] a single pass" (§3.6/§3.7.1).
//
// Prediction is a single fused multiply-add; a zero-hidden-layer NN is
// exactly this model (§3.3).

#ifndef LI_MODELS_LINEAR_H_
#define LI_MODELS_LINEAR_H_

#include <cstddef>
#include <span>

#include "common/status.h"

namespace li::models {

class LinearModel {
 public:
  LinearModel() = default;
  LinearModel(double slope, double intercept)
      : slope_(slope), intercept_(intercept) {}

  /// Least-squares fit in one pass over (xs, ys). Degenerate inputs
  /// (constant x, or fewer than 2 points) fall back to a constant model.
  Status Fit(std::span<const double> xs, std::span<const double> ys) {
    if (xs.size() != ys.size()) {
      return Status::InvalidArgument("LinearModel::Fit: size mismatch");
    }
    const size_t n = xs.size();
    if (n == 0) {
      slope_ = 0.0;
      intercept_ = 0.0;
      return Status::OK();
    }
    // Shifted accumulation keeps the sums well-conditioned for huge keys.
    const double x0 = xs[0];
    const double y0 = ys[0];
    double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double dx = xs[i] - x0;
      const double dy = ys[i] - y0;
      sx += dx;
      sy += dy;
      sxx += dx * dx;
      sxy += dx * dy;
    }
    const double dn = static_cast<double>(n);
    const double denom = dn * sxx - sx * sx;
    if (denom <= 0.0) {
      slope_ = 0.0;
      intercept_ = y0 + sy / dn;
      return Status::OK();
    }
    slope_ = (dn * sxy - sx * sy) / denom;
    intercept_ = (y0 + sy / dn) - slope_ * (x0 + sx / dn);
    return Status::OK();
  }

  double Predict(double x) const { return slope_ * x + intercept_; }

  size_t SizeBytes() const { return 2 * sizeof(double); }

  double slope() const { return slope_; }
  double intercept() const { return intercept_; }

  /// Linear models are monotonic iff the slope is non-negative.
  bool IsMonotonic() const { return slope_ >= 0.0; }

  static const char* Name() { return "linear"; }

 private:
  double slope_ = 0.0;
  double intercept_ = 0.0;
};

}  // namespace li::models

#endif  // LI_MODELS_LINEAR_H_
