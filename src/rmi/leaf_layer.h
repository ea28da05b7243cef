// The leaf layer every RMI variant shares: the §3.4 error band a leaf
// records at Build, and the §3.3 swap of badly learned leaves for
// B-Trees. The position clamp (simd::ClampPos) and the search window
// (index::Approx::FromErrorBand) live beside the kernels and the lookup
// contract; this header holds the Build-side pieces.

#ifndef LI_RMI_LEAF_LAYER_H_
#define LI_RMI_LEAF_LAYER_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/bits.h"
#include "common/status.h"
#include "models/model.h"
#include "search/search.h"
#include "simd/dispatch.h"

namespace li::rmi {

/// Fits a leaf's error band (Algorithm 1 line 12): the worst errors of
/// `predict` over the leaf's routed positions `ys`, floored/ceiled and
/// saturated into the int32 min_err/max_err the window is built from,
/// plus σ. `predict(i)` must be the clamped integer position the lookup
/// searches from, so the band covers that path exactly (a saturated band
/// does not; the lookup's §3.4 edge fix-up finds those keys). The
/// integer-key RMI fits through simd::Kernels::fit_leaf instead.
template <typename LeafT, typename PredictFn>
void FitErrorBand(std::span<const double> ys, PredictFn&& predict,
                  LeafT* leaf) {
  const models::ErrorBounds b = models::ComputeErrorBounds(ys, predict);
  leaf->min_err = simd::SaturateInt32(std::floor(b.min_err));
  leaf->max_err = simd::SaturateInt32(std::ceil(b.max_err));
  leaf->std_err = static_cast<float>(b.std_err);
}

/// Hybrid leaves (§3.3, Algorithm 1 lines 11-14): after stage-wise
/// training, every leaf whose worst |error| exceeds a threshold is served
/// by a `Tree` (btree::ReadOnlyBTree, btree::StringBTree) over the key
/// positions routed to it. This bounds the worst case at B-Tree
/// performance: "in the case of an extremely difficult to learn data
/// distribution, all models would be automatically replaced by B-Trees".
template <typename Tree>
class BTreeLeaves {
 public:
  /// Swaps every over-threshold leaf of `leaves` (anything with
  /// min_err/max_err) for a Tree of `keys_per_page`; `leaf_of(i)` is the
  /// leaf keys[i] routes to. Leaves whose routed keys scatter across a
  /// large slice of the data signal a non-monotonic routing artifact
  /// rather than a hard-to-learn region; a tree over such a span would
  /// duplicate separators massively, so those leaves keep their model (the
  /// lookup fix-up stays correct).
  template <typename Key, typename LeafT, typename LeafOf>
  Status Build(std::span<const Key> keys, std::span<const LeafT> leaves,
               LeafOf&& leaf_of, int64_t threshold, size_t keys_per_page) {
    const size_t n = keys.size(), m = leaves.size();
    leaf_to_tree_.assign(m, kNone);
    trees_.clear();
    if (n == 0) return Status::OK();
    // The contiguous position span of the keys routed to each leaf.
    std::vector<uint32_t> span_begin(m, UINT32_MAX), span_end(m, 0);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t j = leaf_of(i);
      span_begin[j] = std::min(span_begin[j], static_cast<uint32_t>(i));
      span_end[j] = std::max(span_end[j], static_cast<uint32_t>(i + 1));
    }
    const uint32_t span_cap =
        static_cast<uint32_t>(std::min<size_t>(n, 16 * (n / m + 1)));
    for (size_t j = 0; j < m; ++j) {
      if (span_begin[j] == UINT32_MAX) continue;  // empty leaf
      if (span_end[j] - span_begin[j] > span_cap) continue;
      const int64_t abs_err = std::max<int64_t>(-int64_t{leaves[j].min_err},
                                                int64_t{leaves[j].max_err});
      if (abs_err <= threshold) continue;
      Entry e;
      e.begin = span_begin[j];
      e.end = span_end[j];
      e.tree = std::make_unique<Tree>();
      LI_RETURN_IF_ERROR(e.tree->Build(keys.subspan(e.begin, e.end - e.begin),
                                       keys_per_page));
      leaf_to_tree_[j] = static_cast<uint32_t>(trees_.size());
      trees_.push_back(std::move(e));
    }
    return Status::OK();
  }

  /// True iff `leaf` is served by a tree (never before a Build).
  bool Swapped(uint32_t leaf) const {
    return leaf < leaf_to_tree_.size() && leaf_to_tree_[leaf] != kNone;
  }

  /// lower_bound of `key` in `data` through a Swapped leaf's tree, with
  /// the RMI's boundary fix-up at the span edges.
  template <typename Key>
  size_t LowerBound(uint32_t leaf, std::span<const Key> data,
                    const Key& key) const {
    const Entry& e = trees_[leaf_to_tree_[leaf]];
    size_t pos = e.begin + e.tree->LowerBound(key);
    if (LI_UNLIKELY((pos == e.begin && e.begin > 0) ||
                    (pos == e.end && e.end < data.size()))) {
      pos = search::ExponentialSearch(data.data(), data.size(), key, pos);
    }
    return pos;
  }

  /// The leaf -> tree table plus every tree.
  size_t SizeBytes() const {
    size_t bytes = leaf_to_tree_.size() * sizeof(uint32_t);
    for (const Entry& e : trees_) bytes += e.tree->SizeBytes();
    return bytes;
  }

  /// Number of swapped leaves.
  size_t size() const { return trees_.size(); }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  struct Entry {
    uint32_t begin = 0, end = 0;  // the leaf's key positions [begin, end)
    std::unique_ptr<Tree> tree;
  };

  std::vector<uint32_t> leaf_to_tree_;
  std::vector<Entry> trees_;
};

}  // namespace li::rmi

#endif  // LI_RMI_LEAF_LAYER_H_
