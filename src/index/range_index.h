// The library-wide lookup contract, part 2: the `RangeIndex` concept.
//
// Everything that answers range lookups over a sorted key array — the RMI
// family, the four B-Tree variants, the lookup table, and (by refinement)
// every writable index — satisfies one interface. This is what lets the
// LIF synthesizer (§3.1) enumerate candidates uniformly (via
// AnyRangeIndex), the benches compare backends, and the conformance suite
// (tests/range_index_conformance_test.cc) drive every implementation
// through the same checks.
//
// Contract requirements — semantics, complexity, thread-safety:
//
//   typename I::key_type
//     The key type. uint64_t (the RMI core, the B-Trees, the lookup
//     table, every writable index and the erased handles) and std::string
//     (StringRmi and StringBTree, §3.5) are the supported families.
//   typename I::config_type
//     Default-constructible build configuration.
//
//   Build(span<const key_type> keys, const config_type&) -> Status
//     Trains/builds over `keys`, which must be sorted ascending and
//     strictly increasing (no duplicates). Unless documented otherwise
//     (DeltaRangeIndex, ConcurrentWritableIndex copy), the index may keep
//     a span into `keys` — the caller owns the array and must keep it
//     alive and unmoved. Cost: one or two passes over the data plus model
//     training. Not thread-safe; build-then-share.
//
//   ApproxPos(key) -> Approx
//     Model/traversal execution only, no final search: a position
//     estimate plus its worst-case window {pos, lo, hi} (index/approx.h).
//     For any *stored* key the true lower_bound position lies in
//     [lo, hi); for absent keys under a non-monotonic model the window
//     may miss (Lookup recovers with the §3.4 boundary fix-up). Cost:
//     O(model) — constant for the RMI (two model evaluations), O(log n)
//     for trees. Const, safe for concurrent readers.
//
//   Lookup(key) -> size_t
//     Exact lower_bound rank over the data array for *any* probe key:
//     the number of stored keys < `key`. Cost: ApproxPos + a bounded
//     last-mile search over the window (search/search.h). Const, safe
//     for concurrent readers.
//
//   SizeBytes() -> size_t
//     Index overhead in bytes — models, node tables, delta structures —
//     *excluding* the key array itself (the paper's Figure-4 size
//     accounting). O(1). Const, safe for concurrent readers.
//
// Thread-safety baseline for the whole contract: const member functions
// are safe to call from many threads after Build completes; mutating
// members (Build) require external exclusion. Implementations may
// strengthen this (see index/concurrent_writable_index.h) but must not
// weaken it.
//
// `LookupBatch` amortizes per-key overhead on the hot path: indexes with a
// native batched implementation (the RMI core software-pipelines routing,
// prediction and search so cache misses overlap) are dispatched to it;
// everything else falls back to a per-key loop.

#ifndef LI_INDEX_RANGE_INDEX_H_
#define LI_INDEX_RANGE_INDEX_H_

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <span>

#include "common/status.h"
#include "index/approx.h"

namespace li::index {

/// A structure answering lower_bound rank queries over a sorted key
/// array, with an error-bounded position estimate (`ApproxPos`) as the
/// §3.4 common currency. See the header comment for the per-requirement
/// semantics, complexity and thread-safety guarantees.
template <typename I>
concept RangeIndex =
    std::movable<I> &&
    requires(I& mut, const I& idx,
             std::span<const typename I::key_type> keys,
             const typename I::config_type& config,
             const typename I::key_type& key) {
      typename I::key_type;
      typename I::config_type;
      { mut.Build(keys, config) } -> std::same_as<Status>;
      { idx.ApproxPos(key) } -> std::same_as<Approx>;
      { idx.Lookup(key) } -> std::same_as<size_t>;
      { idx.SizeBytes() } -> std::same_as<size_t>;
    };

/// True when the index ships its own batched lookup (e.g. the RMI core).
template <typename I>
concept HasNativeLookupBatch =
    requires(const I& idx, std::span<const typename I::key_type> keys,
             std::span<size_t> out) {
      { idx.LookupBatch(keys, out) };
    };

/// Batched lookup entry point: `out[i] = idx.Lookup(keys[i])` for all i,
/// routed through the index's native batch path when it has one.
/// Mismatched span lengths clamp to the shorter one (the same convention
/// native implementations follow), so no out-of-bounds write is possible.
template <RangeIndex I>
void LookupBatch(const I& idx, std::span<const typename I::key_type> keys,
                 std::span<size_t> out) {
  if constexpr (HasNativeLookupBatch<I>) {
    idx.LookupBatch(keys, out);
  } else {
    const size_t n = std::min(keys.size(), out.size());
    for (size_t i = 0; i < n; ++i) out[i] = idx.Lookup(keys[i]);
  }
}

}  // namespace li::index

#endif  // LI_INDEX_RANGE_INDEX_H_
