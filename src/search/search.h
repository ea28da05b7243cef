// Last-mile search strategies (§3.4). Every learned range lookup ends with
// a bounded search for lower_bound(key) inside [lo, hi); these routines
// provide the paper's strategies:
//
//  * BinarySearch         — plain lower_bound (baseline)
//  * BiasedBinarySearch   — "Model Biased Search": binary search whose first
//                           midpoint is the model's predicted position.
//  * BiasedQuaternary     — three initial split points pos-sigma, pos,
//                           pos+sigma (all prefetched), then quaternary.
//  * ExponentialSearch    — galloping outwards from the prediction; needs no
//                           stored error bounds (the non-monotonic escape
//                           hatch discussed in §3.4).
//  * InterpolationSearch  — arithmetic interpolation (Figure-5 baseline).
//  * BranchFreeScan       — branch-free linear scan (the AVX lookup-table
//                           building block [14]).
//
// All functions return the index of the first element >= key within
// [lo, hi) relative to `data`, i.e. lower_bound semantics; `hi` is returned
// when every element in the window is < key.

#ifndef LI_SEARCH_SEARCH_H_
#define LI_SEARCH_SEARCH_H_

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "common/bits.h"
#include "index/approx.h"
#include "simd/dispatch.h"

namespace li::search {

/// Plain binary search (lower_bound) over data[lo, hi).
template <typename T>
size_t BinarySearch(const T* data, size_t lo, size_t hi, const T& key) {
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (data[mid] < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Plain upper_bound over data[lo, hi): first index with data[i] > key.
template <typename T>
size_t UpperBound(const T* data, size_t lo, size_t hi, const T& key) {
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (key < data[mid]) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

/// Model Biased Search: binary search with the first midpoint set to the
/// predicted position (clamped into the window).
template <typename T>
size_t BiasedBinarySearch(const T* data, size_t lo, size_t hi, const T& key,
                          size_t predicted) {
  if (lo >= hi) return lo;
  size_t mid = std::clamp(predicted, lo, hi - 1);
  while (lo < hi) {
    if (data[mid] < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
    mid = lo + (hi - lo) / 2;
  }
  return lo;
}

/// Biased Quaternary Search: initial split points {pos-sigma, pos,
/// pos+sigma}, prefetched together so the memory system overlaps the three
/// potential cache misses; afterwards classic quaternary splitting.
template <typename T>
size_t BiasedQuaternarySearch(const T* data, size_t lo, size_t hi,
                              const T& key, size_t predicted, size_t sigma) {
  if (lo >= hi) return lo;
  sigma = std::max<size_t>(sigma, 1);
  bool first = true;
  while (hi - lo > 8) {
    size_t q1, q2, q3;
    if (first) {
      q2 = std::clamp(predicted, lo, hi - 1);
      q1 = q2 > lo + sigma ? q2 - sigma : lo;
      q3 = q2 + sigma < hi - 1 ? q2 + sigma : hi - 1;
      first = false;
    } else {
      const size_t quarter = (hi - lo) / 4;
      q1 = lo + quarter;
      q2 = lo + 2 * quarter;
      q3 = lo + 3 * quarter;
    }
    PrefetchRead(&data[q1]);
    PrefetchRead(&data[q2]);
    PrefetchRead(&data[q3]);
    if (data[q2] < key) {
      if (data[q3] < key) {
        lo = q3 + 1;
      } else {
        lo = q2 + 1;
        hi = q3 + 1;
      }
    } else {
      if (data[q1] < key) {
        lo = q1 + 1;
        hi = q2 + 1;
      } else {
        hi = q1 + 1;
      }
    }
  }
  return BinarySearch(data, lo, hi, key);
}

/// Exponential (galloping) search outward from the predicted position; the
/// final bracket is resolved with binary search. Window-free: only needs
/// the array size, not stored min/max errors.
template <typename T>
size_t ExponentialSearch(const T* data, size_t n, const T& key,
                         size_t predicted) {
  if (n == 0) return 0;
  size_t pos = std::min(predicted, n - 1);
  if (data[pos] < key) {
    // Gallop right: key is above pos.
    size_t step = 1;
    size_t lo = pos + 1;
    size_t hi = lo;
    while (hi < n && data[hi] < key) {
      lo = hi + 1;
      step <<= 1;
      hi = pos + step;
      if (hi >= n) {
        hi = n;
        break;
      }
    }
    return BinarySearch(data, lo, std::min(hi, n), key);
  }
  // Gallop left: key is at or below pos.
  size_t step = 1;
  size_t hi = pos;
  size_t lo = pos;
  while (lo > 0 && !(data[lo - 1] < key)) {
    hi = lo;
    if (step >= pos) {
      lo = 0;
      break;
    }
    lo = pos - step;
    step <<= 1;
    if (data[lo] < key) {
      ++lo;  // bracket found: data[lo-1] < key <= data[hi]
      break;
    }
  }
  return BinarySearch(data, lo, hi, key);
}

/// Interpolation search for arithmetic key types. Falls back to binary
/// when the window degenerates (duplicate-heavy or extreme skew).
template <typename T>
size_t InterpolationSearch(const T* data, size_t lo, size_t hi, const T& key) {
  static_assert(std::is_arithmetic_v<T>,
                "interpolation search needs arithmetic keys");
  // Interpolation converges in O(log log n) on near-uniform data but can
  // degrade to O(n) single-sided steps under heavy skew; cap the number of
  // probes at ~2 log2(window) and fall back to binary search.
  int probes_left = 2 * (64 - std::countl_zero(static_cast<uint64_t>(
                                  hi - lo + 1)));
  while (hi - lo > 16) {
    if (probes_left-- <= 0) return BinarySearch(data, lo, hi, key);
    const T a = data[lo];
    const T b = data[hi - 1];
    if (!(a < key)) return lo;  // key <= data[lo]: lower_bound is lo
    if (b < key) return hi;     // whole window below key
    // Here a < key <= b, so b > a and the interpolation is well defined.
    const double frac =
        static_cast<double>(key - a) / static_cast<double>(b - a);
    size_t mid =
        lo + static_cast<size_t>(frac * static_cast<double>(hi - 1 - lo));
    // Clamp to [lo, hi-2] so both branches strictly shrink the window
    // (mid == hi-1 would leave `hi` unchanged and loop forever on skew).
    mid = std::clamp(mid, lo, hi - 2);
    if (data[mid] < key) {
      lo = mid + 1;
    } else {
      hi = mid + 1;  // keep data[hi-1] >= key as upper sentinel
    }
  }
  return BinarySearch(data, lo, hi, key);
}

/// Branch-free linear scan: counts elements < key. Vectorizes to SIMD
/// compares under -O2 -march=native; used by the lookup-table baseline.
inline size_t BranchFreeScan(const uint64_t* data, size_t n, uint64_t key) {
  // A single counted loop; GCC/Clang lower it to packed 64-bit compares
  // under -O2 -march=native (the "AVX optimized branch-free scan" [14]).
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    count += static_cast<size_t>(data[i] < key);
  }
  return count;
}

/// Strategy selector used by index configs and the LIF synthesizer.
enum class Strategy {
  kBinary,
  kBiasedBinary,
  kBiasedQuaternary,
  kExponential,
  kInterpolation,
};

inline const char* StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kBinary: return "binary";
    case Strategy::kBiasedBinary: return "biased-binary";
    case Strategy::kBiasedQuaternary: return "biased-quaternary";
    case Strategy::kExponential: return "exponential";
    case Strategy::kInterpolation: return "interpolation";
  }
  return "?";
}

/// Strategy dispatch over an `Approx` window — the shared last mile of
/// every learned lookup. Runs the selected bounded search inside
/// [a.lo, a.hi) and applies the §3.4 boundary fix-up: a result pinned to a
/// window edge (with data beyond it) means the true answer may lie outside
/// the bound (absent key + non-monotonic model), so gallop from there.
/// `n` is the full data size; `sigma` seeds the quaternary split width.
/// Interpolation needs arithmetic keys and degrades to binary otherwise.
/// Width-1 windows hit the fix-up even on exact predictions; that costs
/// only O(1) compares (the gallop brackets immediately from a correct
/// position) and is what keeps degenerate windows — empty-leaf constant
/// models with zero recorded error — correct for absent keys.
template <typename T>
size_t FindInWindow(Strategy strategy, const T* data, size_t n, const T& key,
                    const index::Approx& a, size_t sigma = 1) {
  size_t pos;
  switch (strategy) {
    case Strategy::kBiasedBinary:
      pos = BiasedBinarySearch(data, a.lo, a.hi, key, a.pos);
      break;
    case Strategy::kBiasedQuaternary:
      pos = BiasedQuaternarySearch(data, a.lo, a.hi, key, a.pos, sigma);
      break;
    case Strategy::kExponential:
      // Window-free: gallops from the prediction, no fix-up needed.
      return ExponentialSearch(data, n, key, a.pos);
    case Strategy::kInterpolation:
      if constexpr (std::is_arithmetic_v<T>) {
        pos = InterpolationSearch(data, a.lo, a.hi, key);
      } else {
        pos = BinarySearch(data, a.lo, a.hi, key);
      }
      break;
    case Strategy::kBinary:
    default:
      pos = BinarySearch(data, a.lo, a.hi, key);
      break;
  }
  if (LI_UNLIKELY((pos == a.lo && a.lo > 0) || (pos == a.hi && a.hi < n))) {
    return ExponentialSearch(data, n, key, pos);
  }
  return pos;
}

/// Branchless bounded search through the SIMD kernel table: compare-and-
/// popcount lower_bound over [a.lo, a.hi) with the same §3.4 boundary
/// fix-up as FindInWindow. Replaces the per-key strategy dispatch on the
/// vectorized batch path — data-dependent branch mispredicts, not compare
/// count, dominate the last mile at batch sizes, so one branch-free shape
/// beats the tuned scalar strategies there.
inline size_t FindInWindowBranchless(const simd::Kernels& kern,
                                     const uint64_t* data, size_t n,
                                     uint64_t key, const index::Approx& a) {
  const size_t pos = kern.lower_bound_u64(data, a.lo, a.hi, key);
  if (LI_UNLIKELY((pos == a.lo && a.lo > 0) || (pos == a.hi && a.hi < n))) {
    return ExponentialSearch(data, n, key, pos);
  }
  return pos;
}

}  // namespace li::search

#endif  // LI_SEARCH_SEARCH_H_
