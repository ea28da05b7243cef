// The library-wide lookup contract, part 1: the `Approx` bound.
//
// The paper's central observation (§2, §3.4) is that *any* model — learned
// or classic — plus worst-case error bounds yields a B-Tree-grade range
// index: a B-Tree "predicts" the page holding a key with error = page
// size; an RMI predicts a position with per-leaf min/max error. `Approx`
// is that common currency. Every RangeIndex implementation returns one
// from ApproxPos(key), and every last-mile search strategy consumes one
// (search::FindInWindow), so indexes and search strategies compose freely
// — the seam the LIF synthesizer (§3.1) enumerates over.

#ifndef LI_INDEX_APPROX_H_
#define LI_INDEX_APPROX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace li::index {

/// A position estimate with its worst-case search window.
///
/// Invariant, for an index built over n keys: lo <= pos <= hi <= n.
/// Exact structures answering a key above every stored key return
/// pos == n, so consumers that dereference data[pos] must clamp first.
/// For any *stored* key, the true lower_bound position lies in [lo, hi).
/// For absent keys under a non-monotonic model the window may miss; full
/// lookups recover with the §3.4 boundary fix-up (exponential search).
struct Approx {
  size_t pos = 0;  // clamped best position estimate
  size_t lo = 0;   // inclusive window start
  size_t hi = 0;   // exclusive window end

  /// Window width — the paper's "error" a lookup must search through.
  size_t Width() const { return hi - lo; }

  /// True iff position `p` falls inside the window.
  bool Contains(size_t p) const { return lo <= p && p < hi; }

  /// The zero-error window of an exact structure (B-Tree leaf hit,
  /// hash-resolved slot): pos is the answer, the window is one slot.
  static Approx Exact(size_t pos, size_t n) {
    return Approx{pos, pos, std::min(pos + 1, n)};
  }

  /// The §3.4 window of a learned prediction: `pos` (already in [0, n))
  /// widened by the model's recorded error band, [pos + min_err,
  /// pos + max_err], clipped to [0, n) with hi exclusive. A one-sided
  /// band (e.g. min_err > 0) can exclude the prediction itself, so pos is
  /// clamped into the window.
  static Approx FromErrorBand(size_t pos, int32_t min_err, int32_t max_err,
                              size_t n) {
    const size_t lo = min_err < 0 && pos < static_cast<size_t>(
                                             -int64_t{min_err})
                          ? 0
                          : std::min(pos + min_err, n);
    const size_t hi = std::min(
        n, pos + static_cast<size_t>(std::max(max_err, int32_t{0})) + 1);
    return Approx{std::min(std::max(pos, lo), hi), lo, hi};
  }
};

}  // namespace li::index

#endif  // LI_INDEX_APPROX_H_
