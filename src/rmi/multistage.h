// K-stage Recursive Model Index — the general form of §3.2's architecture
// ("at stage l there are M_l models ... we iteratively train each stage
// with loss L_l"). Rmi<> (two stages, plus a fixed-size routing stage for
// linear tops) covers the paper's evaluation and the serving path; this
// generalization exercises the full Algorithm-1 recursion with linear
// models at every stage and is used by the stage-count ablation.
//
// Stage 0 is one model over all keys; each inner stage routes by
// leaf = clamp(M_next * f(x) / N); the final stage carries the error
// bounds, exactly like the 2-stage index.

#ifndef LI_RMI_MULTISTAGE_H_
#define LI_RMI_MULTISTAGE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "index/approx.h"
#include "models/linear.h"
#include "search/search.h"

namespace li::rmi {

struct MultiStageConfig {
  /// Models per stage, excluding the implicit single stage-0 model.
  /// E.g. {100, 10'000} is a 3-stage index.
  std::vector<size_t> stage_sizes = {10'000};
  search::Strategy strategy = search::Strategy::kBiasedBinary;
};

class MultiStageRmi {
 public:
  using key_type = uint64_t;
  using config_type = MultiStageConfig;

  MultiStageRmi() = default;

  Status Build(std::span<const uint64_t> keys, const MultiStageConfig& config) {
    if (config.stage_sizes.empty()) {
      return Status::InvalidArgument("MultiStageRmi: need >= 1 stage");
    }
    for (const size_t m : config.stage_sizes) {
      if (m == 0) {
        return Status::InvalidArgument("MultiStageRmi: empty stage");
      }
    }
    data_ = keys;
    config_ = config;
    const size_t num_stages = config.stage_sizes.size();
    stages_.assign(num_stages, {});
    errors_.clear();
    if (keys.empty()) {
      top_ = models::LinearModel();
      errors_.assign(config.stage_sizes.back(), ErrorBand{});
      return Status::OK();
    }
    const size_t n = keys.size();

    // Stage 0: a single model over everything.
    std::vector<double> xs(n), ys(n);
    for (size_t i = 0; i < n; ++i) {
      xs[i] = static_cast<double>(keys[i]);
      ys[i] = static_cast<double>(i);
    }
    LI_RETURN_IF_ERROR(top_.Fit(xs, ys));

    // `assignment[i]` = model index of key i at the stage being built.
    std::vector<uint32_t> assignment(n);
    for (size_t i = 0; i < n; ++i) {
      assignment[i] = Route(top_.Predict(xs[i]), config.stage_sizes[0]);
    }

    std::vector<double> lx, ly;
    for (size_t s = 0; s < num_stages; ++s) {
      const size_t m = config.stage_sizes[s];
      stages_[s].assign(m, models::LinearModel());
      // Group keys by assigned model (counting sort).
      std::vector<uint32_t> counts(m + 1, 0);
      for (size_t i = 0; i < n; ++i) ++counts[assignment[i] + 1];
      for (size_t j = 0; j < m; ++j) counts[j + 1] += counts[j];
      std::vector<uint32_t> order(n);
      {
        std::vector<uint32_t> cursor(counts.begin(), counts.end() - 1);
        for (size_t i = 0; i < n; ++i) order[cursor[assignment[i]]++] = i;
      }
      const bool last = s + 1 == num_stages;
      if (last) errors_.assign(m, ErrorBand{});
      double fill = 0.0;
      for (size_t j = 0; j < m; ++j) {
        const uint32_t begin = counts[j], end = counts[j + 1];
        if (begin == end) {
          stages_[s][j] = models::LinearModel(0.0, fill);
          continue;
        }
        lx.clear();
        ly.clear();
        for (uint32_t r = begin; r < end; ++r) {
          lx.push_back(xs[order[r]]);
          ly.push_back(ys[order[r]]);
        }
        LI_RETURN_IF_ERROR(stages_[s][j].Fit(lx, ly));
        if (last) {
          ErrorBand& band = errors_[j];
          double min_e = 0, max_e = 0;
          bool first = true;
          for (size_t i = 0; i < lx.size(); ++i) {
            const double pred =
                static_cast<double>(ClampPos(stages_[s][j].Predict(lx[i])));
            const double e = ly[i] - pred;
            if (first) {
              min_e = max_e = e;
              first = false;
            } else {
              min_e = std::min(min_e, e);
              max_e = std::max(max_e, e);
            }
          }
          band.min_err = static_cast<int32_t>(std::floor(min_e));
          band.max_err = static_cast<int32_t>(std::ceil(max_e));
        }
        fill = ly.back();
      }
      if (!last) {
        const size_t next_m = config.stage_sizes[s + 1];
        for (size_t i = 0; i < n; ++i) {
          assignment[i] =
              Route(stages_[s][assignment[i]].Predict(xs[i]), next_m);
        }
      }
    }
    return Status::OK();
  }

  /// Descends all stages and returns the final-stage window.
  index::Approx ApproxPos(uint64_t key) const {
    if (data_.empty()) return index::Approx{};
    const double x = static_cast<double>(key);
    uint32_t j = Route(top_.Predict(x), config_.stage_sizes[0]);
    for (size_t s = 0; s + 1 < stages_.size(); ++s) {
      j = Route(stages_[s][j].Predict(x), config_.stage_sizes[s + 1]);
    }
    const size_t pos = ClampPos(stages_.back()[j].Predict(x));
    const ErrorBand& band = errors_[j];
    const size_t lo =
        band.min_err < 0 && pos < static_cast<size_t>(-band.min_err)
            ? 0
            : pos + band.min_err;
    const size_t hi = std::min(
        data_.size(),
        pos + static_cast<size_t>(std::max(band.max_err, int32_t{0})) + 1);
    const size_t lo_c = std::min(lo, data_.size());
    // One-sided error bands can put the raw estimate outside its window.
    return index::Approx{std::clamp(pos, lo_c, hi), lo_c, hi};
  }

  size_t Lookup(uint64_t key) const {
    if (data_.empty()) return 0;
    return search::FindInWindow(config_.strategy, data_.data(), data_.size(),
                                key, ApproxPos(key));
  }

  size_t LowerBound(uint64_t key) const { return Lookup(key); }

  size_t SizeBytes() const {
    size_t bytes = top_.SizeBytes();
    for (const auto& stage : stages_) {
      bytes += stage.size() * sizeof(models::LinearModel);
    }
    bytes += errors_.size() * sizeof(ErrorBand);
    return bytes;
  }

  size_t num_stages() const { return stages_.size() + 1; }
  int64_t MaxAbsError() const {
    int64_t worst = 0;
    for (const ErrorBand& b : errors_) {
      worst = std::max<int64_t>(worst, -int64_t{b.min_err});
      worst = std::max<int64_t>(worst, int64_t{b.max_err});
    }
    return worst;
  }

 private:
  struct ErrorBand {
    int32_t min_err = 0;
    int32_t max_err = 0;
  };

  uint32_t Route(double pred, size_t m) const {
    const double scaled =
        pred * static_cast<double>(m) / static_cast<double>(data_.size());
    if (!(scaled > 0.0)) return 0;
    return static_cast<uint32_t>(
        std::min(static_cast<size_t>(scaled), m - 1));
  }

  size_t ClampPos(double pred) const {
    if (!(pred > 0.0)) return 0;
    return std::min(static_cast<size_t>(pred + 0.5), data_.size() - 1);
  }

  std::span<const uint64_t> data_;
  MultiStageConfig config_;
  models::LinearModel top_;
  std::vector<std::vector<models::LinearModel>> stages_;
  std::vector<ErrorBand> errors_;
};

}  // namespace li::rmi

#endif  // LI_RMI_MULTISTAGE_H_
