// RMI with a quantized second stage (§3.7.1's quantization discussion):
// builds a standard linear RMI, then re-encodes the leaf table at
// float32 or int16 precision, folding quantization drift into the error
// bounds so lower_bound semantics are preserved bit-for-bit.

#ifndef LI_RMI_QUANTIZED_RMI_H_
#define LI_RMI_QUANTIZED_RMI_H_

#include <algorithm>
#include <span>
#include <vector>

#include "index/approx.h"
#include "models/quantized.h"
#include "rmi/rmi.h"
#include "simd/dispatch.h"

namespace li::rmi {

struct QuantizedRmiConfig {
  RmiConfig rmi;
  models::QuantLevel level = models::QuantLevel::kFloat32;
};

class QuantizedRmi {
 public:
  using key_type = uint64_t;
  using config_type = QuantizedRmiConfig;

  QuantizedRmi() = default;

  Status Build(std::span<const uint64_t> keys,
               const QuantizedRmiConfig& config) {
    return Build(keys, config.rmi, config.level);
  }

  Status Build(std::span<const uint64_t> keys, const RmiConfig& config,
               models::QuantLevel level) {
    data_ = keys;
    LI_RETURN_IF_ERROR(rmi_.Build(keys, config));
    if (keys.empty()) {
      return table_.Encode({}, level);
    }
    // Recover each leaf's anchor key and span by routing every key once.
    const auto leaves = rmi_.leaves();
    const size_t m = leaves.size();
    std::vector<double> first_x(m, 0.0), last_x(m, 0.0);
    std::vector<bool> seen(m, false);
    for (const uint64_t key : keys) {
      const uint32_t j = rmi_.Predict(key).leaf;
      const double x = static_cast<double>(key);
      if (!seen[j]) {
        seen[j] = true;
        first_x[j] = x;
      }
      last_x[j] = x;
    }
    std::vector<models::QuantizedLeafTable::LeafRef> refs(m);
    for (size_t j = 0; j < m; ++j) {
      refs[j].slope = leaves[j].model.slope();
      refs[j].intercept = leaves[j].model.intercept();
      refs[j].min_err = leaves[j].min_err;
      refs[j].max_err = leaves[j].max_err;
      refs[j].anchor_x = first_x[j];
      refs[j].key_span = std::max(0.0, last_x[j] - first_x[j]);
    }
    return table_.Encode(refs, level);
  }

  /// Prediction through the quantized leaf table, with the drift-widened
  /// error window (top and routing models stay unquantized).
  index::Approx ApproxPos(uint64_t key) const {
    if (data_.empty()) return index::Approx{};
    const double x = static_cast<double>(key);
    const uint32_t j = rmi_.Predict(key).leaf;
    const size_t pos = simd::ClampPos(table_.Predict(j, x), data_.size() - 1);
    return index::Approx::FromErrorBand(pos, table_.min_err(j),
                                        table_.max_err(j), data_.size());
  }

  size_t Lookup(uint64_t key) const {
    if (data_.empty()) return 0;
    return search::FindInWindow(rmi_.config().strategy, data_.data(),
                                data_.size(), key, ApproxPos(key));
  }

  size_t LowerBound(uint64_t key) const { return Lookup(key); }

  /// Routing stages (top + routing models, both unquantized) + quantized
  /// leaf table bytes.
  size_t SizeBytes() const { return rmi_.RoutingBytes() + table_.SizeBytes(); }
  const models::QuantizedLeafTable& table() const { return table_; }

 private:
  std::span<const uint64_t> data_;
  Rmi<models::LinearModel> rmi_;
  models::QuantizedLeafTable table_;
};

}  // namespace li::rmi

#endif  // LI_RMI_QUANTIZED_RMI_H_
