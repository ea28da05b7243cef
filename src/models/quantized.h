// Quantized second-stage model tables — the §3.7.1 compression note:
// "neural nets can be compressed by using 4- or 8-bit integers instead of
// 32- or 64-bit floating point values to represent the model parameters
// (a process referred to as quantization). This level of compression can
// unlock additional gains for learned indexes."
//
// QuantizedLeafTable re-encodes an array of linear leaf models in anchored
// form pred(x) = slope * (x - x0) + y0, where x0 is the leaf's first key
// (reconstructible from the data, hence not charged to the index size) and
// y0 its predicted position there. Three precision levels:
//   kFloat64 — reference (8B slope, 8B intercept)
//   kFloat32 — 4B slope + 4B anchor position
//   kInt16   — 2B slope on a shared scale + 4B anchor position
// Quantization drift is folded into each leaf's error bounds at encode
// time, so lookups stay exactly correct — the windows just widen slightly.

#ifndef LI_MODELS_QUANTIZED_H_
#define LI_MODELS_QUANTIZED_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "simd/dispatch.h"

namespace li::models {

enum class QuantLevel { kFloat64, kFloat32, kInt16 };

inline const char* QuantLevelName(QuantLevel q) {
  switch (q) {
    case QuantLevel::kFloat64: return "float64";
    case QuantLevel::kFloat32: return "float32";
    case QuantLevel::kInt16: return "int16";
  }
  return "?";
}

class QuantizedLeafTable {
 public:
  /// Exact leaf description to be encoded.
  struct LeafRef {
    double slope = 0.0;
    double intercept = 0.0;
    int32_t min_err = 0;
    int32_t max_err = 0;
    double anchor_x = 0.0;   // leaf's first key
    double key_span = 0.0;   // last key - first key (drift horizon)
  };

  QuantizedLeafTable() = default;

  Status Encode(std::span<const LeafRef> leaves, QuantLevel level) {
    level_ = level;
    n_ = leaves.size();
    anchors_x_.resize(n_);
    anchors_y_.resize(n_);
    bounds_.resize(n_);
    slopes64_.clear();
    slopes32_.clear();
    slopes16_.clear();

    double max_slope = 0.0;
    for (const LeafRef& l : leaves) {
      max_slope = std::max(max_slope, std::fabs(l.slope));
    }
    slope_scale_ = max_slope > 0 ? max_slope / 32767.0 : 1.0;

    for (size_t i = 0; i < n_; ++i) {
      const LeafRef& l = leaves[i];
      anchors_x_[i] = l.anchor_x;
      const double exact_y0 = l.slope * l.anchor_x + l.intercept;
      anchors_y_[i] = static_cast<float>(exact_y0);

      double q_slope = l.slope;
      switch (level) {
        case QuantLevel::kFloat64:
          slopes64_.push_back(l.slope);
          break;
        case QuantLevel::kFloat32:
          slopes32_.push_back(static_cast<float>(l.slope));
          q_slope = static_cast<double>(slopes32_.back());
          break;
        case QuantLevel::kInt16:
          slopes16_.push_back(
              static_cast<int16_t>(std::lround(l.slope / slope_scale_)));
          q_slope = static_cast<double>(slopes16_.back()) * slope_scale_;
          break;
      }
      // Worst-case drift over the leaf's key span: slope error accumulates
      // linearly in (x - x0); anchor rounding adds at most half a ulp of
      // float, bounded by 1 position here.
      const double drift =
          std::fabs(q_slope - l.slope) * l.key_span +
          std::fabs(static_cast<double>(anchors_y_[i]) - exact_y0) + 1.0;
      // Widened in doubles and saturated: a band near the int32 limits
      // must not wrap.
      const double widen = std::ceil(drift);
      bounds_[i] = {simd::SaturateInt32(l.min_err - widen),
                    simd::SaturateInt32(l.max_err + widen)};
    }
    return Status::OK();
  }

  double Predict(size_t i, double x) const {
    const double dx = x - anchors_x_[i];
    switch (level_) {
      case QuantLevel::kFloat64:
        return slopes64_[i] * dx + static_cast<double>(anchors_y_[i]);
      case QuantLevel::kFloat32:
        return static_cast<double>(slopes32_[i]) * dx +
               static_cast<double>(anchors_y_[i]);
      case QuantLevel::kInt16:
        return static_cast<double>(slopes16_[i]) * slope_scale_ * dx +
               static_cast<double>(anchors_y_[i]);
    }
    return 0.0;
  }

  int32_t min_err(size_t i) const { return bounds_[i].min_err; }
  int32_t max_err(size_t i) const { return bounds_[i].max_err; }
  size_t size() const { return n_; }
  QuantLevel level() const { return level_; }

  /// Portable bytes: slope storage + 4B anchor position + packed 2x2B
  /// error half-widths per leaf (anchor keys come from the data array).
  size_t SizeBytes() const {
    size_t per_leaf = sizeof(float) + 2 * sizeof(uint16_t);
    switch (level_) {
      case QuantLevel::kFloat64: per_leaf += sizeof(double); break;
      case QuantLevel::kFloat32: per_leaf += sizeof(float); break;
      case QuantLevel::kInt16: per_leaf += sizeof(int16_t); break;
    }
    return n_ * per_leaf + sizeof(double);
  }

 private:
  struct Bounds {
    int32_t min_err = 0;
    int32_t max_err = 0;
  };

  QuantLevel level_ = QuantLevel::kFloat64;
  size_t n_ = 0;
  double slope_scale_ = 1.0;
  std::vector<double> slopes64_;
  std::vector<float> slopes32_;
  std::vector<int16_t> slopes16_;
  std::vector<double> anchors_x_;
  std::vector<float> anchors_y_;
  std::vector<Bounds> bounds_;
};

}  // namespace li::models

#endif  // LI_MODELS_QUANTIZED_H_
