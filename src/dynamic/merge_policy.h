// When to fold the delta into the base (Appendix D.1: "from time to time
// merged with a potential retraining of the model"). Merge timing is a
// classic LSM/Bigtable knob, so it is pluggable rather than hard-coded:
//
//  * kSizeThreshold — merge when the delta holds more than a bounded
//    number of entries (absolute cap, or a fraction of the base, whichever
//    bound is tighter). Keeps lookup overhead proportional to the bound.
//  * kWriteRatio    — merge during read-mostly lulls: once the delta has
//    accumulated at least `min_delta_entries`, trigger when the write
//    fraction of the ops since the last merge drops below `write_ratio`
//    (a merge in the middle of a write burst would be redone immediately;
//    deferring it to a read-heavy phase amortizes the retrain where the
//    delta penalty is actually being paid).
//  * kManual        — never auto-merge; the caller invokes Merge().

#ifndef LI_DYNAMIC_MERGE_POLICY_H_
#define LI_DYNAMIC_MERGE_POLICY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace li::dynamic {

enum class MergeTrigger { kSizeThreshold, kWriteRatio, kManual };

struct MergePolicy {
  MergeTrigger trigger = MergeTrigger::kSizeThreshold;

  /// kSizeThreshold: absolute cap on buffered delta entries.
  size_t max_delta_entries = 64 * 1024;
  /// kSizeThreshold: cap as a fraction of the base key count (the tighter
  /// of the two bounds wins, floored at `min_delta_entries` so tiny bases
  /// don't merge on every write). In [0, 1], like write_ratio: the
  /// writable wrappers' Builds reject anything else (CheckCfg).
  double max_delta_fraction = 0.10;

  /// kWriteRatio: write-fraction threshold below which a pending merge
  /// fires, and the minimum delta size that arms it.
  double write_ratio = 0.5;
  size_t min_delta_entries = 4096;
};

/// Pure decision function (exposed for unit tests): should the index merge
/// now, given the delta pressure and the ops observed since the last merge?
inline bool ShouldMerge(const MergePolicy& policy, size_t delta_entries,
                        size_t base_keys, uint64_t writes_since_merge,
                        uint64_t reads_since_merge) {
  switch (policy.trigger) {
    case MergeTrigger::kManual:
      return false;
    case MergeTrigger::kSizeThreshold: {
      const size_t frac_cap = static_cast<size_t>(
          policy.max_delta_fraction * static_cast<double>(base_keys));
      const size_t threshold =
          std::max(policy.min_delta_entries,
                   std::min(policy.max_delta_entries, frac_cap));
      return delta_entries >= threshold;
    }
    case MergeTrigger::kWriteRatio: {
      if (delta_entries < policy.min_delta_entries) return false;
      const uint64_t ops = writes_since_merge + reads_since_merge;
      if (ops == 0) return false;
      const double write_frac = static_cast<double>(writes_since_merge) /
                                static_cast<double>(ops);
      return write_frac < policy.write_ratio;
    }
  }
  return false;
}

}  // namespace li::dynamic

#endif  // LI_DYNAMIC_MERGE_POLICY_H_
