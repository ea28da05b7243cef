// AVX-512 kernel table: 8 x 64-bit lanes. Compiled with -mavx512f
// -mavx512dq via per-file CMake flags; dispatch gates this level on both
// CPUID bits (F for the 512-bit lanes and masks, DQ for the native
// uint64<->double conversions and 64-bit multiplies).
//
// Same bit-exactness contract as kernels_avx2.cc: the scalar spec's IEEE
// operation sequence, lane-wise. AVX-512DQ has native pd<->epu64
// conversions, so no mantissa-aliasing tricks or range guards are needed.

#include <cstddef>
#include <cstdint>

#include "common/bits.h"
#include "simd/dispatch.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

namespace li::simd {
namespace {

// 64x64 -> high 64 multiply from 32-bit partial products (no native
// vpmulhuq exists at any ISA level).
inline __m512i MulHi64v(__m512i a, __m512i m) {
  const __m512i mask32 = _mm512_set1_epi64(0xFFFFFFFFll);
  const __m512i ah = _mm512_srli_epi64(a, 32);
  const __m512i mh = _mm512_srli_epi64(m, 32);
  const __m512i t = _mm512_srli_epi64(_mm512_mul_epu32(a, m), 32);
  const __m512i u = _mm512_add_epi64(_mm512_mul_epu32(ah, m), t);
  const __m512i v = _mm512_add_epi64(_mm512_mul_epu32(a, mh),
                                     _mm512_and_si512(u, mask32));
  return _mm512_add_epi64(
      _mm512_add_epi64(_mm512_mul_epu32(ah, mh), _mm512_srli_epi64(u, 32)),
      _mm512_srli_epi64(v, 32));
}

inline __m512i Fmix64v(__m512i k) {
  k = _mm512_xor_si512(k, _mm512_srli_epi64(k, 33));
  k = _mm512_mullo_epi64(k, _mm512_set1_epi64(static_cast<long long>(
                                0xff51afd7ed558ccdULL)));
  k = _mm512_xor_si512(k, _mm512_srli_epi64(k, 33));
  k = _mm512_mullo_epi64(k, _mm512_set1_epi64(static_cast<long long>(
                                0xc4ceb9fe1a85ec53ULL)));
  return _mm512_xor_si512(k, _mm512_srli_epi64(k, 33));
}

void RouteAvx512(const double* xs, size_t n, double slope, double intercept,
                 double factor, uint32_t max_leaf, uint32_t* leaves) {
  const __m512d vs = _mm512_set1_pd(slope);
  const __m512d vi = _mm512_set1_pd(intercept);
  const __m512d vf = _mm512_set1_pd(factor);
  const __m512d zero = _mm512_setzero_pd();
  const __m512d cap = _mm512_set1_pd(static_cast<double>(max_leaf));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d x = _mm512_loadu_pd(xs + i);
    __m512d s = _mm512_mul_pd(_mm512_fmadd_pd(vs, x, vi), vf);
    s = _mm512_max_pd(s, zero);  // NaN and non-positive -> 0
    s = _mm512_min_pd(s, cap);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(leaves + i),
                        _mm512_cvttpd_epu32(s));
  }
  for (; i < n; ++i) {
    leaves[i] = ScalarRoute1(xs[i], slope, intercept, factor, max_leaf);
  }
}

void PredictRunAvx512(const double* xs, size_t n, double slope,
                      double intercept, uint64_t max_pos, uint64_t* pos) {
  const __m512d vs = _mm512_set1_pd(slope);
  const __m512d vi = _mm512_set1_pd(intercept);
  const __m512d zero = _mm512_setzero_pd();
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d cap = _mm512_set1_pd(static_cast<double>(max_pos));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d x = _mm512_loadu_pd(xs + i);
    __m512d p = _mm512_fmadd_pd(vs, x, vi);
    p = _mm512_max_pd(p, zero);
    __m512d r = _mm512_floor_pd(_mm512_add_pd(p, half));
    r = _mm512_min_pd(r, cap);
    _mm512_storeu_si512(pos + i, _mm512_cvttpd_epu64(r));
  }
  for (; i < n; ++i) {
    pos[i] = ScalarPredict1(xs[i], slope, intercept, max_pos);
  }
}

constexpr size_t kScanWidth = 64;  // same handoff width as every level

// Horizontal sum of eight 64-bit lanes (the compare-accumulator reduction).
inline size_t HSum8(__m512i acc) {
  return static_cast<size_t>(_mm512_reduce_add_epi64(acc));
}

size_t LowerBoundU64Avx512(const uint64_t* data, size_t lo, size_t hi,
                           uint64_t key) {
  while (hi - lo > kScanWidth) {
    const size_t mid = lo + (hi - lo) / 2;
    const bool lt = data[mid] < key;
    lo = lt ? mid + 1 : lo;
    hi = lt ? hi : mid;
  }
  const __m512i vkey = _mm512_set1_epi64(static_cast<long long>(key));
  __m512i acc = _mm512_setzero_si512();
  const __m512i vone = _mm512_set1_epi64(1);
  size_t i = lo;
  for (; i + 8 <= hi; i += 8) {
    const __m512i v = _mm512_loadu_si512(data + i);
    const __mmask8 lt = _mm512_cmplt_epu64_mask(v, vkey);
    // Masked add accumulates per-lane counts with no kmov/popcnt in the
    // loop.
    acc = _mm512_mask_add_epi64(acc, lt, acc, vone);
  }
  size_t count = HSum8(acc);
  for (; i < hi; ++i) count += static_cast<size_t>(data[i] < key);
  return lo + count;
}

size_t UpperBoundU64Avx512(const uint64_t* data, size_t lo, size_t hi,
                           uint64_t key) {
  while (hi - lo > kScanWidth) {
    const size_t mid = lo + (hi - lo) / 2;
    const bool le = data[mid] <= key;
    lo = le ? mid + 1 : lo;
    hi = le ? hi : mid;
  }
  const __m512i vkey = _mm512_set1_epi64(static_cast<long long>(key));
  __m512i acc = _mm512_setzero_si512();
  const __m512i vone = _mm512_set1_epi64(1);
  size_t i = lo;
  for (; i + 8 <= hi; i += 8) {
    const __m512i v = _mm512_loadu_si512(data + i);
    const __mmask8 le = _mm512_cmple_epu64_mask(v, vkey);
    acc = _mm512_mask_add_epi64(acc, le, acc, vone);
  }
  size_t count = HSum8(acc);
  for (; i < hi; ++i) count += static_cast<size_t>(data[i] <= key);
  return lo + count;
}

void LowerBoundU64MultiAvx512(const uint64_t* data, const size_t* lo,
                             const size_t* hi, const uint64_t* keys, size_t n,
                             size_t* out) {
  const __m512i vone = _mm512_set1_epi64(1);
  size_t k = 0;
  // Two keys in flight: their sweep loads are independent, so pairing the
  // accumulator loops lets outstanding misses overlap instead of
  // serializing behind each key's horizontal reduction.
  for (; k + 2 <= n; k += 2) {
    size_t lo0 = lo[k], hi0 = hi[k], lo1 = lo[k + 1], hi1 = hi[k + 1];
    const uint64_t k0 = keys[k], k1 = keys[k + 1];
    while (hi0 - lo0 > kScanWidth) {
      const size_t mid = lo0 + (hi0 - lo0) / 2;
      const bool lt = data[mid] < k0;
      lo0 = lt ? mid + 1 : lo0;
      hi0 = lt ? hi0 : mid;
    }
    while (hi1 - lo1 > kScanWidth) {
      const size_t mid = lo1 + (hi1 - lo1) / 2;
      const bool lt = data[mid] < k1;
      lo1 = lt ? mid + 1 : lo1;
      hi1 = lt ? hi1 : mid;
    }
    const __m512i vk0 = _mm512_set1_epi64(static_cast<long long>(k0));
    const __m512i vk1 = _mm512_set1_epi64(static_cast<long long>(k1));
    __m512i acc0 = _mm512_setzero_si512();
    __m512i acc1 = _mm512_setzero_si512();
    size_t i0 = lo0, i1 = lo1;
    while (i0 + 8 <= hi0 && i1 + 8 <= hi1) {
      const __m512i v0 = _mm512_loadu_si512(data + i0);
      const __m512i v1 = _mm512_loadu_si512(data + i1);
      acc0 = _mm512_mask_add_epi64(acc0, _mm512_cmplt_epu64_mask(v0, vk0),
                                   acc0, vone);
      acc1 = _mm512_mask_add_epi64(acc1, _mm512_cmplt_epu64_mask(v1, vk1),
                                   acc1, vone);
      i0 += 8;
      i1 += 8;
    }
    for (; i0 + 8 <= hi0; i0 += 8) {
      const __m512i v0 = _mm512_loadu_si512(data + i0);
      acc0 = _mm512_mask_add_epi64(acc0, _mm512_cmplt_epu64_mask(v0, vk0),
                                   acc0, vone);
    }
    for (; i1 + 8 <= hi1; i1 += 8) {
      const __m512i v1 = _mm512_loadu_si512(data + i1);
      acc1 = _mm512_mask_add_epi64(acc1, _mm512_cmplt_epu64_mask(v1, vk1),
                                   acc1, vone);
    }
    size_t c0 = HSum8(acc0);
    size_t c1 = HSum8(acc1);
    for (; i0 < hi0; ++i0) c0 += static_cast<size_t>(data[i0] < k0);
    for (; i1 < hi1; ++i1) c1 += static_cast<size_t>(data[i1] < k1);
    out[k] = lo0 + c0;
    out[k + 1] = lo1 + c1;
  }
  for (; k < n; ++k) {
    out[k] = LowerBoundU64Avx512(data, lo[k], hi[k], keys[k]);
  }
}

void U64ToF64Avx512(const uint64_t* keys, size_t n, double* xs) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(xs + i,
                     _mm512_cvtepu64_pd(_mm512_loadu_si512(keys + i)));
  }
  for (; i < n; ++i) xs[i] = static_cast<double>(keys[i]);
}

void HashSlotsAvx512(const uint64_t* keys, size_t n, uint64_t seed,
                     uint64_t num_slots, uint64_t* slots) {
  const __m512i vseed = _mm512_set1_epi64(static_cast<long long>(seed));
  const __m512i vm = _mm512_set1_epi64(static_cast<long long>(num_slots));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i k =
        _mm512_xor_si512(_mm512_loadu_si512(keys + i), vseed);
    _mm512_storeu_si512(slots + i, MulHi64v(Fmix64v(k), vm));
  }
  for (; i < n; ++i) slots[i] = ScalarHashSlot(keys[i], seed, num_slots);
}

void CuckooSlotsAvx512(const uint64_t* keys, size_t n, uint64_t seed,
                       uint64_t num_buckets, uint64_t* b1, uint64_t* b2) {
  const __m512i vseed = _mm512_set1_epi64(static_cast<long long>(seed));
  const __m512i vadd = _mm512_set1_epi64(
      static_cast<long long>(0x9e3779b97f4a7c15ULL + seed));
  const __m512i vm = _mm512_set1_epi64(static_cast<long long>(num_buckets));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i k = _mm512_loadu_si512(keys + i);
    _mm512_storeu_si512(b1 + i,
                        MulHi64v(Fmix64v(_mm512_xor_si512(k, vseed)), vm));
    _mm512_storeu_si512(b2 + i,
                        MulHi64v(Fmix64v(_mm512_add_epi64(k, vadd)), vm));
  }
  for (; i < n; ++i) {
    ScalarCuckooSlots(keys[i], seed, num_buckets, &b1[i], &b2[i]);
  }
}

size_t CountAtLeastFlaggedU64Avx512(const uint64_t* keys,
                                    const uint8_t* flags, size_t n,
                                    uint64_t lo, uint8_t mask) {
  const __m512i vlo = _mm512_set1_epi64(static_cast<long long>(lo));
  const __m512i vmask = _mm512_set1_epi64(mask);
  const __m512i vone = _mm512_set1_epi64(1);
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __mmask8 ge =
        _mm512_cmpge_epu64_mask(_mm512_loadu_si512(keys + i), vlo);
    // Eight flag bytes widened to 64-bit lanes (vpmovzxbq, AVX-512F).
    const __m512i f = _mm512_cvtepu8_epi64(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(flags + i)));
    acc = _mm512_mask_add_epi64(acc, _mm512_mask_test_epi64_mask(ge, f, vmask),
                                acc, vone);
  }
  size_t count = HSum8(acc);
  for (; i < n; ++i) {
    count += static_cast<size_t>(keys[i] >= lo) &
             static_cast<size_t>((flags[i] & mask) != 0);
  }
  return count;
}

size_t NextInRangeU64Avx512(const uint64_t* keys, size_t begin, size_t n,
                            uint64_t lo, uint64_t hi) {
  const __m512i vlo = _mm512_set1_epi64(static_cast<long long>(lo));
  const __m512i vhi = _mm512_set1_epi64(static_cast<long long>(hi));
  auto inside = [&](size_t at) {
    const __m512i v = _mm512_loadu_si512(keys + at);
    return static_cast<unsigned>(_mm512_mask_cmple_epu64_mask(
        _mm512_cmpge_epu64_mask(v, vlo), v, vhi));
  };
  size_t i = begin;
  // Sixteen keys per step: the one exit branch is taken only on a match.
  for (; i + 16 <= n; i += 16) {
    const unsigned in = inside(i) | (inside(i + 8) << 8);
    if (in != 0) return i + static_cast<size_t>(__builtin_ctz(in));
  }
  for (; i + 8 <= n; i += 8) {
    if (const unsigned in = inside(i); in != 0) {
      return i + static_cast<size_t>(__builtin_ctz(in));
    }
  }
  for (; i < n; ++i) {
    if ((keys[i] >= lo) & (keys[i] <= hi)) return i;
  }
  return n;
}

// The eight lanes of one fit sum, reduced in the spec's tree
// (SumFitLanes): 8 -> 4 -> 2 -> 1.
inline double SumFitLanes8(__m512d v) {
  const __m256d t = _mm256_add_pd(_mm512_castpd512_pd256(v),
                                  _mm512_extractf64x4_pd(v, 1));
  const __m128d u =
      _mm_add_pd(_mm256_castpd256_pd128(t), _mm256_extractf128_pd(t, 1));
  return _mm_cvtsd_f64(_mm_add_sd(u, _mm_unpackhi_pd(u, u)));
}

// ScalarFitLeaf with lane l of a register taking element i + l; the last
// block's lanes past n are masked off every accumulation.
void FitLeafAvx512(const uint64_t* keys, const uint32_t* positions, size_t n,
                   uint64_t first_pos, uint64_t max_pos, LeafFit* out) {
  const __m512d iota = _mm512_setr_pd(0, 1, 2, 3, 4, 5, 6, 7);
  auto mask_at = [&](size_t i) {
    return n - i >= kFitLanes ? __mmask8{0xFF}
                              : static_cast<__mmask8>((1u << (n - i)) - 1);
  };
  // The block's keys and positions as doubles (masked-off lanes read 0).
  auto load = [&](size_t i, __mmask8 m, __m512d* x, __m512d* y) {
    *x = _mm512_cvtepu64_pd(_mm512_maskz_loadu_epi64(m, keys + i));
    *y = positions != nullptr
             ? _mm512_cvtepu32_pd(_mm512_castsi512_si256(
                   _mm512_maskz_loadu_epi32(m, positions + i)))
             : _mm512_add_pd(
                   _mm512_set1_pd(static_cast<double>(first_pos + i)), iota);
  };
  const double x0 = static_cast<double>(keys[0]);
  const double y0 = static_cast<double>(
      positions != nullptr ? uint64_t{positions[0]} : first_pos);
  const __m512d vx0 = _mm512_set1_pd(x0), vy0 = _mm512_set1_pd(y0);
  const __m512d zero = _mm512_setzero_pd();
  __m512d sx = zero, sy = zero, sxx = zero, sxy = zero;
  __m512d x, y;
  for (size_t i = 0; i < n; i += kFitLanes) {
    const __mmask8 m = mask_at(i);
    load(i, m, &x, &y);
    const __m512d dx = _mm512_sub_pd(x, vx0);
    const __m512d dy = _mm512_sub_pd(y, vy0);
    sx = _mm512_mask_add_pd(sx, m, sx, dx);
    sy = _mm512_mask_add_pd(sy, m, sy, dy);
    sxx = _mm512_mask3_fmadd_pd(dx, dx, sxx, m);
    sxy = _mm512_mask3_fmadd_pd(dx, dy, sxy, m);
  }
  FitLineFromSums(n, x0, y0, SumFitLanes8(sx), SumFitLanes8(sy),
                  SumFitLanes8(sxx), SumFitLanes8(sxy), out);
  const __m512d vs = _mm512_set1_pd(out->slope);
  const __m512d vi = _mm512_set1_pd(out->intercept);
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d cap = _mm512_set1_pd(static_cast<double>(max_pos));
  __m512d lo = _mm512_set1_pd(INFINITY), hi = _mm512_set1_pd(-INFINITY);
  __m512d s = zero, q = zero;
  for (size_t i = 0; i < n; i += kFitLanes) {
    const __mmask8 m = mask_at(i);
    load(i, m, &x, &y);
    // predict_run's clamp, kept in the double domain.
    const __m512d p = _mm512_max_pd(_mm512_fmadd_pd(vs, x, vi), zero);
    const __m512d r =
        _mm512_min_pd(_mm512_floor_pd(_mm512_add_pd(p, half)), cap);
    const __m512d e = _mm512_sub_pd(y, r);
    lo = _mm512_mask_min_pd(lo, m, lo, e);
    hi = _mm512_mask_max_pd(hi, m, hi, e);
    s = _mm512_mask_add_pd(s, m, s, e);
    q = _mm512_mask3_fmadd_pd(e, e, q, m);
  }
  FitBandFromSums(n, _mm512_reduce_min_pd(lo), _mm512_reduce_max_pd(hi),
                  SumFitLanes8(s), SumFitLanes8(q), out);
}

}  // namespace

const Kernels* Avx512Kernels() {
  static const Kernels kTable = {
      "avx512",          RouteAvx512,        PredictRunAvx512,
      LowerBoundU64Avx512, UpperBoundU64Avx512, LowerBoundU64MultiAvx512,
      U64ToF64Avx512,    HashSlotsAvx512,    CuckooSlotsAvx512,
      CountAtLeastFlaggedU64Avx512, NextInRangeU64Avx512, FitLeafAvx512,
  };
  return &kTable;
}

}  // namespace li::simd

#else  // !(__AVX512F__ && __AVX512DQ__)

namespace li::simd {
const Kernels* Avx512Kernels() { return nullptr; }
}  // namespace li::simd

#endif
