// Scalar kernel table — the reference semantics, always compiled.
//
// Every loop body is a direct call into the scalar spec functions in
// dispatch.h, so this TU *is* the bit-exactness oracle the vector levels
// are tested against. The bounded searches use branch-free bisection plus
// a counted sweep — the same structure as the vector levels — so the
// scalar fallback keeps the branchless behavior (no data-dependent
// mispredicts) even without SIMD.

#include <cstddef>
#include <cstdint>

#include "simd/dispatch.h"

namespace li::simd {
namespace {

void RouteScalar(const double* xs, size_t n, double slope, double intercept,
                 double factor, uint32_t max_leaf, uint32_t* leaves) {
  for (size_t i = 0; i < n; ++i) {
    leaves[i] = ScalarRoute1(xs[i], slope, intercept, factor, max_leaf);
  }
}

void PredictRunScalar(const double* xs, size_t n, double slope,
                      double intercept, uint64_t max_pos, uint64_t* pos) {
  for (size_t i = 0; i < n; ++i) {
    pos[i] = ScalarPredict1(xs[i], slope, intercept, max_pos);
  }
}

// Window width below which bisection hands off to the counted sweep. The
// same constant at every level so all levels do identical work shapes;
// results are exact regardless (integer counting, no FP).
constexpr size_t kScanWidth = 64;

size_t LowerBoundU64Scalar(const uint64_t* data, size_t lo, size_t hi,
                           uint64_t key) {
  while (hi - lo > kScanWidth) {
    const size_t mid = lo + (hi - lo) / 2;
    const bool lt = data[mid] < key;  // compiles to cmov, not a branch
    lo = lt ? mid + 1 : lo;
    hi = lt ? hi : mid;
  }
  size_t count = 0;
  for (size_t i = lo; i < hi; ++i) {
    count += static_cast<size_t>(data[i] < key);
  }
  return lo + count;
}

size_t UpperBoundU64Scalar(const uint64_t* data, size_t lo, size_t hi,
                           uint64_t key) {
  while (hi - lo > kScanWidth) {
    const size_t mid = lo + (hi - lo) / 2;
    const bool le = data[mid] <= key;
    lo = le ? mid + 1 : lo;
    hi = le ? hi : mid;
  }
  size_t count = 0;
  for (size_t i = lo; i < hi; ++i) {
    count += static_cast<size_t>(data[i] <= key);
  }
  return lo + count;
}

void LowerBoundU64MultiScalar(const uint64_t* data, const size_t* lo,
                             const size_t* hi, const uint64_t* keys, size_t n,
                             size_t* out) {
  for (size_t k = 0; k < n; ++k) {
    out[k] = LowerBoundU64Scalar(data, lo[k], hi[k], keys[k]);
  }
}

void U64ToF64Scalar(const uint64_t* keys, size_t n, double* xs) {
  for (size_t i = 0; i < n; ++i) {
    xs[i] = static_cast<double>(keys[i]);
  }
}

void HashSlotsScalar(const uint64_t* keys, size_t n, uint64_t seed,
                     uint64_t num_slots, uint64_t* slots) {
  for (size_t i = 0; i < n; ++i) {
    slots[i] = ScalarHashSlot(keys[i], seed, num_slots);
  }
}

void CuckooSlotsScalar(const uint64_t* keys, size_t n, uint64_t seed,
                       uint64_t num_buckets, uint64_t* b1, uint64_t* b2) {
  for (size_t i = 0; i < n; ++i) {
    ScalarCuckooSlots(keys[i], seed, num_buckets, &b1[i], &b2[i]);
  }
}

// The log-scan pair combines its comparisons with `&`, not `&&`, so the
// random keys of a write log never feed a data-dependent branch.
size_t CountAtLeastFlaggedU64Scalar(const uint64_t* keys,
                                    const uint8_t* flags, size_t n,
                                    uint64_t lo, uint8_t mask) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    count += static_cast<size_t>(keys[i] >= lo) &
             static_cast<size_t>((flags[i] & mask) != 0);
  }
  return count;
}

size_t NextInRangeU64Scalar(const uint64_t* keys, size_t begin, size_t n,
                            uint64_t lo, uint64_t hi) {
  for (size_t i = begin; i < n; ++i) {
    if ((keys[i] >= lo) & (keys[i] <= hi)) return i;
  }
  return n;
}

}  // namespace

const Kernels& ScalarKernels() {
  static const Kernels kTable = {
      "scalar",        RouteScalar,        PredictRunScalar,
      LowerBoundU64Scalar, UpperBoundU64Scalar, LowerBoundU64MultiScalar,
      U64ToF64Scalar,  HashSlotsScalar,    CuckooSlotsScalar,
      CountAtLeastFlaggedU64Scalar, NextInRangeU64Scalar, ScalarFitLeaf,
  };
  return kTable;
}

}  // namespace li::simd
