// When to fold the delta into the base (Appendix D.1: "from time to time
// merged with a potential retraining of the model"):
//
//  * kSizeThreshold — merge when the delta holds more than a bounded
//    number of entries (absolute cap, or a fraction of the base, whichever
//    bound is tighter). Keeps lookup overhead proportional to the bound.
//  * kManual        — never auto-merge; the caller invokes Merge().

#ifndef LI_DYNAMIC_MERGE_POLICY_H_
#define LI_DYNAMIC_MERGE_POLICY_H_

#include <algorithm>
#include <cstddef>

namespace li::dynamic {

enum class MergeTrigger { kSizeThreshold, kManual };

struct MergePolicy {
  MergeTrigger trigger = MergeTrigger::kSizeThreshold;

  /// kSizeThreshold: absolute cap on buffered delta entries.
  size_t max_delta_entries = 64 * 1024;
  /// kSizeThreshold: cap as a fraction of the base key count (the tighter
  /// of the two bounds wins, floored at `min_delta_entries` so tiny bases
  /// don't merge on every write). In [0, 1]: the writable wrappers' Builds
  /// reject anything else (CheckCfg).
  double max_delta_fraction = 0.10;
  /// kSizeThreshold: the floor on the threshold above.
  size_t min_delta_entries = 4096;
};

/// Pure decision function (exposed for unit tests): should the index merge
/// now, given the delta pressure?
inline bool ShouldMerge(const MergePolicy& policy, size_t delta_entries,
                        size_t base_keys) {
  if (policy.trigger != MergeTrigger::kSizeThreshold) return false;
  const size_t frac_cap = static_cast<size_t>(
      policy.max_delta_fraction * static_cast<double>(base_keys));
  const size_t threshold = std::max(
      policy.min_delta_entries, std::min(policy.max_delta_entries, frac_cap));
  return delta_entries >= threshold;
}

}  // namespace li::dynamic

#endif  // LI_DYNAMIC_MERGE_POLICY_H_
