#include "rmi/string_rmi.h"

#include <algorithm>

#include "simd/dispatch.h"

namespace li::rmi {

uint32_t StringRmi::Route(const double* features) const {
  const double scaled =
      top_.PredictVec({features, config_.max_len}) *
      static_cast<double>(leaves_.size()) / static_cast<double>(data_.size());
  if (!(scaled > 0.0)) return 0;
  const size_t j = static_cast<size_t>(scaled);
  return static_cast<uint32_t>(std::min(j, leaves_.size() - 1));
}

Status StringRmi::Build(std::span<const std::string> keys,
                        const StringRmiConfig& config) {
  if (config.num_leaf_models == 0) {
    return Status::InvalidArgument("StringRmi: need at least one leaf model");
  }
  if (config.max_len < 1 ||
      config.max_len > models::NeuralNet::kMaxWidth) {
    return Status::InvalidArgument("StringRmi: bad max_len");
  }
  data_ = keys;
  config_ = config;
  tokenizer_ = models::StringTokenizer(config.max_len);
  leaves_.assign(config.num_leaf_models, Leaf{});
  trees_ = {};
  if (keys.empty()) return Status::OK();
  const size_t n = keys.size();
  const size_t d = config.max_len;

  // ---- Train the top net on a strided sample ----
  const size_t top_n = std::min(n, kStringTopTrainSample);
  std::vector<double> feats(top_n * d);
  std::vector<double> ys(top_n);
  const double stride = static_cast<double>(n) / static_cast<double>(top_n);
  for (size_t i = 0; i < top_n; ++i) {
    const size_t idx = static_cast<size_t>(i * stride);
    tokenizer_.Tokenize(keys[idx], &feats[i * d]);
    ys[i] = static_cast<double>(idx);
  }
  models::NNConfig nn = config.top_nn;
  nn.input_dim = static_cast<int>(d);
  LI_RETURN_IF_ERROR(top_.FitVec(feats, top_n, ys, nn));

  // ---- Route all keys ----
  const size_t m = config.num_leaf_models;
  std::vector<uint32_t> leaf_of(n);
  std::vector<uint32_t> counts(m, 0);
  std::vector<double> buf(d);
  for (size_t i = 0; i < n; ++i) {
    tokenizer_.Tokenize(keys[i], buf.data());
    const uint32_t j = Route(buf.data());
    leaf_of[i] = j;
    ++counts[j];
  }
  std::vector<uint32_t> offsets(m + 1, 0);
  for (size_t j = 0; j < m; ++j) offsets[j + 1] = offsets[j] + counts[j];
  std::vector<uint32_t> routed(n);
  {
    std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (size_t i = 0; i < n; ++i) routed[cursor[leaf_of[i]]++] = i;
  }

  // ---- Fit leaves + error bounds; optionally swap in B-Trees ----
  std::vector<double> lf, ly;
  for (size_t j = 0; j < m; ++j) {
    Leaf& leaf = leaves_[j];
    const uint32_t begin = offsets[j], end = offsets[j + 1];
    const size_t cnt = end - begin;
    lf.assign(cnt * d, 0.0);
    ly.resize(cnt);
    for (uint32_t r = begin; r < end; ++r) {
      tokenizer_.Tokenize(keys[routed[r]], &lf[(r - begin) * d]);
      ly[r - begin] = static_cast<double>(routed[r]);
    }
    // An empty leaf fits the zero model; absent keys routed there recover
    // through the lookup fix-up.
    LI_RETURN_IF_ERROR(leaf.model.Fit(lf, cnt, d, ly));
    FitErrorBand(
        ly,
        [&](size_t i) {
          return simd::ClampPos(leaf.model.PredictVec({&lf[i * d], d}), n - 1);
        },
        &leaf);
  }

  if (config.hybrid_threshold > 0) {
    LI_RETURN_IF_ERROR(trees_.Build(
        keys, std::span<const Leaf>(leaves_),
        [&](size_t i) { return leaf_of[i]; }, config.hybrid_threshold,
        config.btree_keys_per_page));
  }
  return Status::OK();
}

StringRmi::Prediction StringRmi::Predict(const std::string& key) const {
  if (data_.empty()) return Prediction{};
  double buf[models::NeuralNet::kMaxWidth];
  tokenizer_.Tokenize(key, buf);
  const uint32_t j = Route(buf);
  const Leaf& leaf = leaves_[j];
  const size_t pos = simd::ClampPos(
      leaf.model.PredictVec({buf, config_.max_len}), data_.size() - 1);
  return Prediction{pos,
                    index::Approx::FromErrorBand(pos, leaf.min_err,
                                                 leaf.max_err, data_.size()),
                    j, leaf.std_err};
}

size_t StringRmi::Lookup(const std::string& key) const {
  if (data_.empty()) return 0;
  const Prediction p = Predict(key);
  if (trees_.Swapped(p.leaf)) return trees_.LowerBound(p.leaf, data_, key);
  return search::FindInWindow(config_.strategy, data_.data(), data_.size(),
                              key, p.window,
                              static_cast<size_t>(p.std_err) + 1);
}

size_t StringRmi::SizeBytes() const {
  size_t bytes = top_.SizeBytes();
  // Leaf table: weights + bias + error metadata per leaf.
  bytes += leaves_.size() *
           ((config_.max_len + 1) * sizeof(double) + 2 * sizeof(int32_t) +
            sizeof(float));
  return bytes + trees_.SizeBytes();
}

}  // namespace li::rmi
