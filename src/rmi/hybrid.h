// Hybrid RMI (§3.3, Algorithm 1 lines 11-14): after stage-wise training,
// any leaf model whose absolute min/max-error exceeds `threshold` is
// replaced with a B-Tree over the key range routed to it (the shared
// BTreeLeaves swap, rmi/leaf_layer.h).

#ifndef LI_RMI_HYBRID_H_
#define LI_RMI_HYBRID_H_

#include <cstdint>
#include <span>

#include "btree/readonly_btree.h"
#include "index/approx.h"
#include "rmi/leaf_layer.h"
#include "rmi/rmi.h"

namespace li::rmi {

struct HybridConfig {
  RmiConfig rmi;
  int64_t threshold = 128;         // max tolerated |error| before B-Tree swap
  size_t btree_keys_per_page = 64; // page size of replacement B-Trees
};

template <typename TopModel>
class HybridRmi {
 public:
  using key_type = uint64_t;
  using config_type = HybridConfig;

  Status Build(std::span<const uint64_t> keys, const HybridConfig& config) {
    config_ = config;
    data_ = keys;
    LI_RETURN_IF_ERROR(rmi_.Build(keys, config.rmi));
    return trees_.Build(
        keys, rmi_.leaves(),
        [&](size_t i) { return rmi_.Predict(keys[i]).leaf; },
        config.threshold, config.btree_keys_per_page);
  }

  /// Model-only window: the underlying RMI's error-bound window, which is
  /// valid for stored keys whether or not the routed leaf was replaced by
  /// a B-Tree (bounds are computed before the swap).
  index::Approx ApproxPos(uint64_t key) const { return rmi_.ApproxPos(key); }

  size_t Lookup(uint64_t key) const {
    if (data_.empty()) return 0;
    const auto p = rmi_.Predict(key);
    if (trees_.Swapped(p.leaf)) return trees_.LowerBound(p.leaf, data_, key);
    return search::FindInWindow(config_.rmi.strategy, data_.data(),
                                data_.size(), key, p.window,
                                static_cast<size_t>(p.std_err) + 1);
  }

  size_t LowerBound(uint64_t key) const { return Lookup(key); }

  bool Contains(uint64_t key) const {
    const size_t pos = Lookup(key);
    return pos < data_.size() && data_[pos] == key;
  }

  size_t SizeBytes() const { return rmi_.SizeBytes() + trees_.SizeBytes(); }

  size_t num_btree_leaves() const { return trees_.size(); }
  const Rmi<TopModel>& rmi() const { return rmi_; }

 private:
  std::span<const uint64_t> data_;
  HybridConfig config_;
  Rmi<TopModel> rmi_;
  BTreeLeaves<btree::ReadOnlyBTree> trees_;
};

}  // namespace li::rmi

#endif  // LI_RMI_HYBRID_H_
