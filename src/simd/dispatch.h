// Runtime SIMD dispatch for the model-execution hot paths.
//
// The paper's "model is the index" claim lives on predict throughput, so
// the batched inner loops (top-model routing, leaf linear predict, the
// bounded last-mile search, and learned/random hash slot computation) are
// implemented as data-parallel kernels at three ISA levels:
//
//   * scalar   — always compiled; the reference semantics.
//   * avx2     — 4 x 64-bit lanes (requires AVX2 + FMA).
//   * avx512   — 8 x 64-bit lanes (requires AVX-512 F + DQ).
//
// One `Kernels` table of function pointers per level; `GetKernels()`
// returns the table for the active level, chosen at first use from CPUID
// (plus the optional `LI_SIMD_LEVEL` environment override) and overridable
// programmatically via `ForceLevel` for conformance tests and per-level
// benchmarks. Kernel translation units are compiled with explicit
// per-file `-mavx2` / `-mavx512f` flags (see CMakeLists), so dispatch
// works even in portable `LI_NATIVE_ARCH=OFF` builds.
//
// Bit-exactness contract: every kernel implements the scalar reference
// spec below (`ScalarRoute1` / `ScalarPredict1` / `ScalarHashSlot` / ...)
// with the same IEEE-754 operation sequence — explicit fma, floor, min —
// so all levels produce identical outputs for identical inputs. This is
// load-bearing: hash maps compute home slots during Build with the scalar
// spec and must find the same slots from the vectorized FindBatch, and the
// kernel conformance suite (tests/simd_kernel_test.cc) asserts agreement
// across levels on edge inputs. See docs/SIMD.md.

#ifndef LI_SIMD_DISPATCH_H_
#define LI_SIMD_DISPATCH_H_

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/random.h"
#include "common/status.h"

namespace li::simd {

enum class Level : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};
inline constexpr int kNumLevels = 3;

const char* LevelName(Level level);

/// A leaf's least-squares line and its error band: see Kernels::fit_leaf.
struct LeafFit {
  double slope = 0.0;
  double intercept = 0.0;
  int32_t min_err = 0;  // most negative (position - prediction), saturated
  int32_t max_err = 0;  // most positive (position - prediction), saturated
  float std_err = 0.0f;
};

/// The kernel table: one entry per vectorizable hot-path primitive. All
/// pointers are always non-null (a level's table falls back to the scalar
/// implementation for any kernel it does not specialize).
struct Kernels {
  const char* name;

  /// Top-model routing over a feature batch:
  ///   leaves[i] = min((uint32)max(fma(slope, xs[i], intercept) * factor,
  ///                   0), max_leaf)
  /// with NaN / non-positive products routed to leaf 0 (the scalar
  /// `!(x > 0)` escape). `factor` is the precomputed M/N rescale.
  void (*route)(const double* xs, size_t n, double slope, double intercept,
                double factor, uint32_t max_leaf, uint32_t* leaves);

  /// Leaf linear predict over a run of keys sharing one model:
  ///   pos[i] = min((uint64)floor(max(fma(slope, xs[i], intercept), 0)
  ///                 + 0.5), max_pos)
  /// — round-to-nearest with the paper's +0.5 bias (§4.2), clamped.
  void (*predict_run)(const double* xs, size_t n, double slope,
                      double intercept, uint64_t max_pos, uint64_t* pos);

  /// Branchless bounded lower_bound: index of the first element >= key in
  /// sorted data[lo, hi) (== lo + count of elements < key). Wide windows
  /// are first narrowed with branch-free bisection, then swept with
  /// compare-and-popcount.
  size_t (*lower_bound_u64)(const uint64_t* data, size_t lo, size_t hi,
                            uint64_t key);

  /// Branchless bounded upper_bound over uint64 (first element > key) —
  /// the shard-boundary routing primitive.
  size_t (*upper_bound_u64)(const uint64_t* data, size_t lo, size_t hi,
                            uint64_t key);

  /// Batched bounded lower_bound: out[k] = lower bound of keys[k] within
  /// [lo[k], hi[k]), same contract as the single-key kernel. One call per
  /// block keeps the sweep inlined in the kernel TU and lets the core
  /// overlap adjacent keys' probe loads instead of serializing them behind
  /// per-key indirect calls.
  void (*lower_bound_u64_multi)(const uint64_t* data, const size_t* lo,
                                const size_t* hi, const uint64_t* keys,
                                size_t n, size_t* out);

  /// Exactly-rounded uint64 -> double conversion (the RMI's feature
  /// extraction for its keys), bit-identical to a scalar
  /// static_cast<double> over the full 64-bit range.
  void (*u64_to_f64)(const uint64_t* keys, size_t n, double* xs);

  /// Random-hash slot batch: slots[i] = mulhi64(fmix64(keys[i] ^ seed),
  /// num_slots) — the RandomHash operator() over a batch.
  void (*hash_slots)(const uint64_t* keys, size_t n, uint64_t seed,
                     uint64_t num_slots, uint64_t* slots);

  /// Cuckoo candidate-bucket batch: b1/b2 per CuckooMap::Buckets minus the
  /// distinct-bucket fix-up (callers patch b2 == b1 scalarly).
  void (*cuckoo_slots)(const uint64_t* keys, size_t n, uint64_t seed,
                       uint64_t num_buckets, uint64_t* b1, uint64_t* b2);

  /// Flagged tail count over an unsorted key column with a parallel
  /// one-byte flags column: the number of i < n with keys[i] >= lo and
  /// (flags[i] & mask) != 0 — the concurrent Scan's count of log
  /// tombstones at or above its start key.
  size_t (*count_at_least_flagged_u64)(const uint64_t* keys,
                                       const uint8_t* flags, size_t n,
                                       uint64_t lo, uint8_t mask);

  /// First i in [begin, n) with lo <= keys[i] <= hi over an unsorted key
  /// column, or n when there is none (always n when lo > hi; begin <= n).
  /// The concurrent Scan loops on it to collect the few log writes that
  /// land inside its window.
  size_t (*next_in_range_u64)(const uint64_t* keys, size_t begin, size_t n,
                              uint64_t lo, uint64_t hi);

  /// Leaf fit (Algorithm 1, lines 11-12) over one leaf's run of n >= 1
  /// keys: the least-squares line from key to position, then the line's
  /// error band against predict_run's spec at `max_pos`. Key i sits at
  /// positions[i], or at first_pos + i when `positions` is null (a leaf
  /// whose keys are one stretch of the key array); positions stay below
  /// 2^53, so every error is an exact integer. Sums run in ScalarFitLeaf's
  /// eight-lane order, so every level returns the same bits.
  void (*fit_leaf)(const uint64_t* keys, const uint32_t* positions, size_t n,
                   uint64_t first_pos, uint64_t max_pos, LeafFit* out);
};

/// The table for the active level (detected, env-overridden, or forced).
/// One relaxed atomic load per call — callers amortize it per batch.
const Kernels& GetKernels();

/// The table for a specific level; scalar fallback if that level is not
/// compiled in or the CPU lacks it.
const Kernels& KernelsFor(Level level);

/// The level `GetKernels()` currently resolves to.
Level ActiveLevel();

/// The best level this CPU supports among the compiled-in ones (ignores
/// overrides).
Level DetectedLevel();

/// True iff the level's kernel TU was compiled with its ISA enabled.
bool LevelCompiled(Level level);

/// True iff the level is compiled in AND the CPU supports it at runtime.
bool LevelSupported(Level level);

/// Testing/bench override: pin dispatch to `level`. Fails with
/// InvalidArgument if the level is unsupported on this machine/build.
Status ForceLevel(Level level);

/// Drops the `ForceLevel` pin (the LI_SIMD_LEVEL env override, if any,
/// still applies).
void ClearForcedLevel();

/// True iff a ForceLevel pin is active.
bool IsForced();

/// RAII forced-level scope for tests and per-level benchmarks.
class ScopedLevel {
 public:
  explicit ScopedLevel(Level level) : status_(ForceLevel(level)) {}
  ~ScopedLevel() {
    if (status_.ok()) ClearForcedLevel();
  }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;
  const Status& status() const { return status_; }

 private:
  Status status_;
};

/// Raw CPUID feature bits (for bench attribution — every BENCH_*.json
/// carries these so results are attributable to the level that ran).
struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
  bool avx512f = false;
  bool avx512dq = false;
};
CpuFeatures DetectCpu();

// ---- scalar reference spec ----------------------------------------------
// The single-key forms of every FP kernel. These are THE semantics: vector
// kernels replicate this exact operation sequence lane-wise, and the RMI
// single-key path calls them so Build, Lookup, and every batch level agree
// bit-for-bit.

/// Top-model route: see Kernels::route.
inline uint32_t ScalarRoute1(double x, double slope, double intercept,
                             double factor, uint32_t max_leaf) {
  const double s = std::fma(slope, x, intercept) * factor;
  if (!(s > 0.0)) return 0;  // also catches NaN
  const double cap = static_cast<double>(max_leaf);
  return static_cast<uint32_t>(s < cap ? s : cap);
}

/// A position estimate rounded to nearest (truncation would bias half of
/// all predictions one position low, ~25% extra hash conflicts, §4.2) and
/// clamped to [0, max_pos]; NaN and non-positive estimates give 0.
inline uint64_t ClampPos(double p, uint64_t max_pos) {
  if (!(p > 0.0)) return 0;  // also catches NaN
  const double r = std::floor(p + 0.5);
  const double cap = static_cast<double>(max_pos);
  const double m = r < cap ? r : cap;
  // `cap` rounds *up* to 2^64 when max_pos is at the top of the uint64
  // range, and casting that back down is UB. The AVX-512 level's
  // cvttpd_epu64 saturates out-of-range values to UINT64_MAX; match it
  // explicitly so the spec is defined (and identical) everywhere.
  if (m >= 0x1.0p64) return UINT64_MAX;
  return static_cast<uint64_t>(m);
}

/// Leaf predict: see Kernels::predict_run.
inline uint64_t ScalarPredict1(double x, double slope, double intercept,
                               uint64_t max_pos) {
  return ClampPos(std::fma(slope, x, intercept), max_pos);
}

/// High 64 bits of a 64x64 product — the multiply-shift slot reduction.
inline uint64_t MulHi64(uint64_t a, uint64_t b) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(a) * b) >> 64);
}

/// Random-hash slot: see Kernels::hash_slots.
inline uint64_t ScalarHashSlot(uint64_t key, uint64_t seed,
                               uint64_t num_slots) {
  return MulHi64(Murmur3Fmix64(key ^ seed), num_slots);
}

/// Cuckoo candidate buckets: see Kernels::cuckoo_slots.
inline void ScalarCuckooSlots(uint64_t key, uint64_t seed,
                              uint64_t num_buckets, uint64_t* b1,
                              uint64_t* b2) {
  *b1 = MulHi64(Murmur3Fmix64(key ^ seed), num_buckets);
  *b2 = MulHi64(Murmur3Fmix64(key + 0x9e3779b97f4a7c15ULL + seed),
                num_buckets);
}

// ---- leaf fit spec (Kernels::fit_leaf) ----
// Lane l of every sum takes elements l, l + 8, l + 16, ... in order, and
// the eight lanes meet in one tree, halving 8 -> 4 -> 2 -> 1 as the vector
// kernels do. Each product-add is an explicit fma, so no compiler
// contraction can give one level other bits.

inline constexpr size_t kFitLanes = 8;

/// The reduction tree: ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7)).
inline double SumFitLanes(const double* v) {
  return ((v[0] + v[4]) + (v[2] + v[6])) + ((v[1] + v[5]) + (v[3] + v[7]));
}

/// An integer-valued error clamped to the int32 band fields: Build takes
/// up to 2^32 - 1 keys, so a leaf's error can pass +-2^31.
inline int32_t SaturateInt32(double v) {
  if (v <= -0x1.0p31) return INT32_MIN;
  if (v >= 0x1.0p31 - 1) return INT32_MAX;
  return static_cast<int32_t>(v);
}

/// The least-squares line of n points from their shifted sums (dx = x - x0,
/// dy = y - y0); constant x or a single point gives the mean position.
inline void FitLineFromSums(size_t n, double x0, double y0, double sx,
                            double sy, double sxx, double sxy, LeafFit* out) {
  const double dn = static_cast<double>(n);
  const double denom = std::fma(dn, sxx, -(sx * sx));
  if (!(denom > 0.0)) {
    out->slope = 0.0;
    out->intercept = y0 + sy / dn;
    return;
  }
  out->slope = std::fma(dn, sxy, -(sx * sy)) / denom;
  out->intercept = std::fma(-out->slope, x0 + sx / dn, y0 + sy / dn);
}

/// The band from the extreme errors and the error sums (s = sum e,
/// q = sum e^2): saturated min/max and sigma.
inline void FitBandFromSums(size_t n, double lo, double hi, double s,
                            double q, LeafFit* out) {
  const double dn = static_cast<double>(n);
  const double mean = s / dn;
  const double var = std::fma(-mean, mean, q / dn);
  out->min_err = SaturateInt32(lo);
  out->max_err = SaturateInt32(hi);
  out->std_err = static_cast<float>(std::sqrt(var > 0.0 ? var : 0.0));
}

/// Leaf fit: see Kernels::fit_leaf. Pass one sums the shifted points into
/// the lanes and fits the line; pass two takes each key's error against
/// ScalarPredict1 (an exact integer: both sides are integers below 2^53).
inline void ScalarFitLeaf(const uint64_t* keys, const uint32_t* positions,
                          size_t n, uint64_t first_pos, uint64_t max_pos,
                          LeafFit* out) {
  auto y = [&](size_t i) {
    return static_cast<double>(positions != nullptr ? uint64_t{positions[i]}
                                                    : first_pos + i);
  };
  const double x0 = static_cast<double>(keys[0]), y0 = y(0);
  double sx[kFitLanes] = {}, sy[kFitLanes] = {};
  double sxx[kFitLanes] = {}, sxy[kFitLanes] = {};
  for (size_t i = 0; i < n; ++i) {
    const size_t l = i % kFitLanes;
    const double dx = static_cast<double>(keys[i]) - x0;
    const double dy = y(i) - y0;
    sx[l] += dx;
    sy[l] += dy;
    sxx[l] = std::fma(dx, dx, sxx[l]);
    sxy[l] = std::fma(dx, dy, sxy[l]);
  }
  FitLineFromSums(n, x0, y0, SumFitLanes(sx), SumFitLanes(sy),
                  SumFitLanes(sxx), SumFitLanes(sxy), out);
  double lo = INFINITY, hi = -INFINITY;
  double s[kFitLanes] = {}, q[kFitLanes] = {};
  for (size_t i = 0; i < n; ++i) {
    const size_t l = i % kFitLanes;
    const double e =
        y(i) - static_cast<double>(ScalarPredict1(static_cast<double>(keys[i]),
                                                  out->slope, out->intercept,
                                                  max_pos));
    lo = e < lo ? e : lo;
    hi = e > hi ? e : hi;
    s[l] += e;
    q[l] = std::fma(e, e, q[l]);
  }
  FitBandFromSums(n, lo, hi, SumFitLanes(s), SumFitLanes(q), out);
}

}  // namespace li::simd

#endif  // LI_SIMD_DISPATCH_H_
