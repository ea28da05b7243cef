// AVX2 kernel table: 4 x 64-bit lanes. Compiled with -mavx2 -mfma via
// per-file CMake flags; the whole TU degrades to a nullptr registration if
// those ISAs are unavailable at compile time (non-x86 or flag-check
// failure), and dispatch.cc then never selects this level.
//
// Bit-exactness: each kernel replays the scalar spec's IEEE operation
// sequence lane-wise — vfmadd ≡ std::fma, vroundpd(floor) ≡ std::floor,
// max/min in the same order — so outputs are identical to kernels_scalar.
// AVX2 has no pd→epu64 conversion; predictions are clamped in the double
// domain first and converted with the 2^52 mantissa-aliasing trick, which
// is exact for the clamped range (max_pos >= 2^52 falls back to the scalar
// loop — no real array is that large). The uint64→double conversion uses
// the two-halves magic-constant method, which is exactly rounded over the
// full 64-bit range.

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/bits.h"
#include "simd/dispatch.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace li::simd {
namespace {

constexpr double kTwo52 = 0x1.0p52;
constexpr double kTwo84 = 0x1.0p84;
constexpr double kTwo84Plus52 = 0x1.0p84 + 0x1.0p52;

// Exactly-rounded uint64 -> double over the full range (two-halves
// method: hi*2^32 and lo recombined with one rounding addition).
inline __m256d U64ToF64(__m256i v) {
  const __m256i magic_lo = _mm256_castpd_si256(_mm256_set1_pd(kTwo52));
  const __m256i magic_hi = _mm256_castpd_si256(_mm256_set1_pd(kTwo84));
  const __m256i lo = _mm256_blend_epi32(magic_lo, v, 0b01010101);
  const __m256i hi =
      _mm256_xor_si256(_mm256_srli_epi64(v, 32), magic_hi);
  const __m256d hi_d =
      _mm256_sub_pd(_mm256_castsi256_pd(hi), _mm256_set1_pd(kTwo84Plus52));
  return _mm256_add_pd(hi_d, _mm256_castsi256_pd(lo));
}

// Integer-valued doubles in [0, 2^52) -> uint64 via mantissa aliasing.
inline __m256i F64ToU64Small(__m256d r) {
  const __m256d magic = _mm256_set1_pd(kTwo52);
  return _mm256_sub_epi64(_mm256_castpd_si256(_mm256_add_pd(r, magic)),
                          _mm256_castpd_si256(magic));
}

// 64x64 -> low 64 multiply from 32-bit partial products.
inline __m256i MulLo64(__m256i a, __m256i b) {
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a_hi, b),
                                         _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

// 64x64 -> high 64 multiply (the multiply-shift slot reduction). Partial
// products with an explicit carry chain; no intermediate overflows.
inline __m256i MulHi64v(__m256i a, __m256i m) {
  const __m256i mask32 = _mm256_set1_epi64x(0xFFFFFFFFll);
  const __m256i ah = _mm256_srli_epi64(a, 32);
  const __m256i mh = _mm256_srli_epi64(m, 32);
  const __m256i t = _mm256_srli_epi64(_mm256_mul_epu32(a, m), 32);
  const __m256i u = _mm256_add_epi64(_mm256_mul_epu32(ah, m), t);
  const __m256i v = _mm256_add_epi64(_mm256_mul_epu32(a, mh),
                                     _mm256_and_si256(u, mask32));
  return _mm256_add_epi64(
      _mm256_add_epi64(_mm256_mul_epu32(ah, mh), _mm256_srli_epi64(u, 32)),
      _mm256_srli_epi64(v, 32));
}

inline __m256i Fmix64v(__m256i k) {
  k = _mm256_xor_si256(k, _mm256_srli_epi64(k, 33));
  k = MulLo64(k, _mm256_set1_epi64x(
                     static_cast<long long>(0xff51afd7ed558ccdULL)));
  k = _mm256_xor_si256(k, _mm256_srli_epi64(k, 33));
  k = MulLo64(k, _mm256_set1_epi64x(
                     static_cast<long long>(0xc4ceb9fe1a85ec53ULL)));
  return _mm256_xor_si256(k, _mm256_srli_epi64(k, 33));
}

void RouteAvx2(const double* xs, size_t n, double slope, double intercept,
               double factor, uint32_t max_leaf, uint32_t* leaves) {
  if (max_leaf >= 0x7FFFFFFFu) {  // cvttpd_epi32 is signed; never in practice
    for (size_t i = 0; i < n; ++i) {
      leaves[i] = ScalarRoute1(xs[i], slope, intercept, factor, max_leaf);
    }
    return;
  }
  const __m256d vs = _mm256_set1_pd(slope);
  const __m256d vi = _mm256_set1_pd(intercept);
  const __m256d vf = _mm256_set1_pd(factor);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d cap = _mm256_set1_pd(static_cast<double>(max_leaf));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(xs + i);
    __m256d s = _mm256_mul_pd(_mm256_fmadd_pd(vs, x, vi), vf);
    s = _mm256_max_pd(s, zero);  // NaN and non-positive -> 0 (maxpd: src2)
    s = _mm256_min_pd(s, cap);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(leaves + i),
                     _mm256_cvttpd_epi32(s));
  }
  for (; i < n; ++i) {
    leaves[i] = ScalarRoute1(xs[i], slope, intercept, factor, max_leaf);
  }
}

void PredictRunAvx2(const double* xs, size_t n, double slope,
                    double intercept, uint64_t max_pos, uint64_t* pos) {
  if (max_pos >= (uint64_t{1} << 52)) {  // mantissa-alias range guard
    for (size_t i = 0; i < n; ++i) {
      pos[i] = ScalarPredict1(xs[i], slope, intercept, max_pos);
    }
    return;
  }
  const __m256d vs = _mm256_set1_pd(slope);
  const __m256d vi = _mm256_set1_pd(intercept);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d cap = _mm256_set1_pd(static_cast<double>(max_pos));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(xs + i);
    __m256d p = _mm256_fmadd_pd(vs, x, vi);
    p = _mm256_max_pd(p, zero);  // NaN and non-positive -> 0
    __m256d r = _mm256_floor_pd(_mm256_add_pd(p, half));
    r = _mm256_min_pd(r, cap);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(pos + i),
                        F64ToU64Small(r));
  }
  for (; i < n; ++i) {
    pos[i] = ScalarPredict1(xs[i], slope, intercept, max_pos);
  }
}

constexpr size_t kScanWidth = 64;  // same handoff width as every level

// Horizontal sum of four 64-bit lanes (the compare-accumulator reduction).
inline size_t HSum4(__m256i acc) {
  const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(acc),
                                  _mm256_extracti128_si256(acc, 1));
  return static_cast<size_t>(_mm_cvtsi128_si64(s)) +
         static_cast<size_t>(_mm_extract_epi64(s, 1));
}

size_t LowerBoundU64Avx2(const uint64_t* data, size_t lo, size_t hi,
                         uint64_t key) {
  while (hi - lo > kScanWidth) {
    const size_t mid = lo + (hi - lo) / 2;
    const bool lt = data[mid] < key;
    lo = lt ? mid + 1 : lo;
    hi = lt ? hi : mid;
  }
  // Compare-and-popcount sweep: count elements < key (signed compare
  // after a sign flip).
  const __m256i off = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ULL));
  const __m256i vkey = _mm256_xor_si256(_mm256_set1_epi64x(
                                            static_cast<long long>(key)),
                                        off);
  __m256i acc = _mm256_setzero_si256();
  size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    const __m256i v = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i)), off);
    // A true lane is all-ones (-1); subtracting accumulates per-lane
    // counts with no movemask/popcount in the loop.
    acc = _mm256_sub_epi64(acc, _mm256_cmpgt_epi64(vkey, v));
  }
  size_t count = HSum4(acc);
  for (; i < hi; ++i) count += static_cast<size_t>(data[i] < key);
  return lo + count;
}

size_t UpperBoundU64Avx2(const uint64_t* data, size_t lo, size_t hi,
                         uint64_t key) {
  while (hi - lo > kScanWidth) {
    const size_t mid = lo + (hi - lo) / 2;
    const bool le = data[mid] <= key;
    lo = le ? mid + 1 : lo;
    hi = le ? hi : mid;
  }
  const __m256i off = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ULL));
  const __m256i vkey = _mm256_xor_si256(_mm256_set1_epi64x(
                                            static_cast<long long>(key)),
                                        off);
  __m256i acc = _mm256_setzero_si256();
  size_t i = lo;
  size_t blocks = 0;
  for (; i + 4 <= hi; i += 4, ++blocks) {
    const __m256i v = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i)), off);
    acc = _mm256_sub_epi64(acc, _mm256_cmpgt_epi64(v, vkey));  // data > key
  }
  size_t count = 4 * blocks - HSum4(acc);
  for (; i < hi; ++i) count += static_cast<size_t>(data[i] <= key);
  return lo + count;
}

void LowerBoundU64MultiAvx2(const uint64_t* data, const size_t* lo,
                             const size_t* hi, const uint64_t* keys, size_t n,
                             size_t* out) {
  for (size_t k = 0; k < n; ++k) {
    out[k] = LowerBoundU64Avx2(data, lo[k], hi[k], keys[k]);
  }
}

void U64ToF64Avx2(const uint64_t* keys, size_t n, double* xs) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    _mm256_storeu_pd(xs + i, U64ToF64(v));
  }
  for (; i < n; ++i) xs[i] = static_cast<double>(keys[i]);
}

void HashSlotsAvx2(const uint64_t* keys, size_t n, uint64_t seed,
                   uint64_t num_slots, uint64_t* slots) {
  const __m256i vseed = _mm256_set1_epi64x(static_cast<long long>(seed));
  const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(num_slots));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i k = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i)),
        vseed);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(slots + i),
                        MulHi64v(Fmix64v(k), vm));
  }
  for (; i < n; ++i) slots[i] = ScalarHashSlot(keys[i], seed, num_slots);
}

void CuckooSlotsAvx2(const uint64_t* keys, size_t n, uint64_t seed,
                     uint64_t num_buckets, uint64_t* b1, uint64_t* b2) {
  const __m256i vseed = _mm256_set1_epi64x(static_cast<long long>(seed));
  const __m256i vadd = _mm256_set1_epi64x(
      static_cast<long long>(0x9e3779b97f4a7c15ULL + seed));
  const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(num_buckets));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i k =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(b1 + i),
        MulHi64v(Fmix64v(_mm256_xor_si256(k, vseed)), vm));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(b2 + i),
        MulHi64v(Fmix64v(_mm256_add_epi64(k, vadd)), vm));
  }
  for (; i < n; ++i) {
    ScalarCuckooSlots(keys[i], seed, num_buckets, &b1[i], &b2[i]);
  }
}

size_t CountAtLeastFlaggedU64Avx2(const uint64_t* keys, const uint8_t* flags,
                                  size_t n, uint64_t lo, uint8_t mask) {
  const __m256i off = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ULL));
  const __m256i vlo =
      _mm256_xor_si256(_mm256_set1_epi64x(static_cast<long long>(lo)), off);
  const __m256i vmask = _mm256_set1_epi64x(mask);
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;  // per-lane count of misses (key < lo or unflagged)
  size_t i = 0;
  size_t blocks = 0;
  for (; i + 4 <= n; i += 4, ++blocks) {
    const __m256i v = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i)), off);
    int32_t f4;
    std::memcpy(&f4, flags + i, sizeof(f4));
    const __m256i f = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(f4));
    const __m256i miss =
        _mm256_or_si256(_mm256_cmpgt_epi64(vlo, v),
                        _mm256_cmpeq_epi64(_mm256_and_si256(f, vmask), zero));
    acc = _mm256_sub_epi64(acc, miss);
  }
  size_t count = 4 * blocks - HSum4(acc);
  for (; i < n; ++i) {
    count += static_cast<size_t>(keys[i] >= lo) &
             static_cast<size_t>((flags[i] & mask) != 0);
  }
  return count;
}

size_t NextInRangeU64Avx2(const uint64_t* keys, size_t begin, size_t n,
                          uint64_t lo, uint64_t hi) {
  const __m256i off = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ULL));
  const __m256i vlo =
      _mm256_xor_si256(_mm256_set1_epi64x(static_cast<long long>(lo)), off);
  const __m256i vhi =
      _mm256_xor_si256(_mm256_set1_epi64x(static_cast<long long>(hi)), off);
  // Lanes outside [lo, hi] as a 4-bit movemask.
  auto outside = [&](size_t at) {
    const __m256i v = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + at)), off);
    const __m256i out = _mm256_or_si256(_mm256_cmpgt_epi64(vlo, v),
                                        _mm256_cmpgt_epi64(v, vhi));
    return static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(out)));
  };
  size_t i = begin;
  // Eight keys per step: the one exit branch is taken only on a match.
  for (; i + 8 <= n; i += 8) {
    const unsigned in = ~(outside(i) | (outside(i + 4) << 4)) & 0xFFu;
    if (in != 0) return i + static_cast<size_t>(__builtin_ctz(in));
  }
  for (; i < n; ++i) {
    if ((keys[i] >= lo) & (keys[i] <= hi)) return i;
  }
  return n;
}

// Four uint32 -> double, exact (values below 2^52 alias the mantissa).
inline __m256d U32ToF64(__m128i v) {
  const __m256d magic = _mm256_set1_pd(kTwo52);
  return _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(_mm256_cvtepu32_epi64(v),
                                          _mm256_castpd_si256(magic))),
      magic);
}

// The spec's eight fit lanes live in two registers, lanes 0-3 and 4-7;
// a sum reduces in the spec's tree (SumFitLanes): 8 -> 4 -> 2 -> 1.
inline double SumFitLanes8(const __m256d v[2]) {
  const __m256d t = _mm256_add_pd(v[0], v[1]);
  const __m128d u =
      _mm_add_pd(_mm256_castpd256_pd128(t), _mm256_extractf128_pd(t, 1));
  return _mm_cvtsd_f64(_mm_add_sd(u, _mm_unpackhi_pd(u, u)));
}

inline double MinLanes8(const __m256d v[2]) {
  const __m256d t = _mm256_min_pd(v[0], v[1]);
  const __m128d u =
      _mm_min_pd(_mm256_castpd256_pd128(t), _mm256_extractf128_pd(t, 1));
  return _mm_cvtsd_f64(_mm_min_sd(u, _mm_unpackhi_pd(u, u)));
}

inline double MaxLanes8(const __m256d v[2]) {
  const __m256d t = _mm256_max_pd(v[0], v[1]);
  const __m128d u =
      _mm_max_pd(_mm256_castpd256_pd128(t), _mm256_extractf128_pd(t, 1));
  return _mm_cvtsd_f64(_mm_max_sd(u, _mm_unpackhi_pd(u, u)));
}

// One block of eight elements of a leaf: keys and positions as doubles,
// and for the last, partial block the lanes below n as all-ones masks.
struct FitBlock {
  __m256d x[2], y[2], live[2];
};

// ScalarFitLeaf with register h's lane l taking element i + 4h + l. Full
// blocks accumulate directly; the partial last block blends its live
// lanes in, so lanes past n keep their sums.
void FitLeafAvx2(const uint64_t* keys, const uint32_t* positions, size_t n,
                 uint64_t first_pos, uint64_t max_pos, LeafFit* out) {
  const __m256d iota[2] = {_mm256_setr_pd(0, 1, 2, 3),
                           _mm256_setr_pd(4, 5, 6, 7)};
  auto load = [&](size_t i, FitBlock* b) {
    const size_t left = n - i;
    __m256i p = _mm256_setzero_si256();
    if (left >= kFitLanes) {
      for (int h = 0; h < 2; ++h) {
        b->x[h] = U64ToF64(_mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(keys + i + 4 * h)));
      }
      if (positions != nullptr) {
        p = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(positions + i));
      }
    } else {
      const __m256i vleft = _mm256_set1_epi64x(static_cast<long long>(left));
      for (int h = 0; h < 2; ++h) {
        const __m256i m = _mm256_cmpgt_epi64(
            vleft, _mm256_setr_epi64x(4 * h, 4 * h + 1, 4 * h + 2, 4 * h + 3));
        b->live[h] = _mm256_castsi256_pd(m);
        b->x[h] = U64ToF64(_mm256_maskload_epi64(
            reinterpret_cast<const long long*>(keys + i + 4 * h), m));
      }
      if (positions != nullptr) {
        p = _mm256_maskload_epi32(
            reinterpret_cast<const int*>(positions + i),
            _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(left)),
                               _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)));
      }
    }
    if (positions != nullptr) {
      b->y[0] = U32ToF64(_mm256_castsi256_si128(p));
      b->y[1] = U32ToF64(_mm256_extracti128_si256(p, 1));
    } else {
      const __m256d base = _mm256_set1_pd(static_cast<double>(first_pos + i));
      for (int h = 0; h < 2; ++h) b->y[h] = _mm256_add_pd(base, iota[h]);
    }
  };
  // Runs step(block, acc) over full blocks, then over the partial one
  // with acc blending live lanes.
  auto for_blocks = [&](auto&& step) {
    FitBlock b;
    size_t i = 0;
    for (; i + kFitLanes <= n; i += kFitLanes) {
      load(i, &b);
      step(b, [](__m256d& sum, __m256d v, int) { sum = v; });
    }
    if (i < n) {
      load(i, &b);
      step(b, [&](__m256d& sum, __m256d v, int h) {
        sum = _mm256_blendv_pd(sum, v, b.live[h]);
      });
    }
  };
  const double x0 = static_cast<double>(keys[0]);
  const double y0 = static_cast<double>(
      positions != nullptr ? uint64_t{positions[0]} : first_pos);
  const __m256d vx0 = _mm256_set1_pd(x0), vy0 = _mm256_set1_pd(y0);
  const __m256d zero = _mm256_setzero_pd();
  __m256d sx[2] = {zero, zero}, sy[2] = {zero, zero};
  __m256d sxx[2] = {zero, zero}, sxy[2] = {zero, zero};
  for_blocks([&](const FitBlock& b, auto&& acc) {
    for (int h = 0; h < 2; ++h) {
      const __m256d dx = _mm256_sub_pd(b.x[h], vx0);
      const __m256d dy = _mm256_sub_pd(b.y[h], vy0);
      acc(sx[h], _mm256_add_pd(sx[h], dx), h);
      acc(sy[h], _mm256_add_pd(sy[h], dy), h);
      acc(sxx[h], _mm256_fmadd_pd(dx, dx, sxx[h]), h);
      acc(sxy[h], _mm256_fmadd_pd(dx, dy, sxy[h]), h);
    }
  });
  FitLineFromSums(n, x0, y0, SumFitLanes8(sx), SumFitLanes8(sy),
                  SumFitLanes8(sxx), SumFitLanes8(sxy), out);
  const __m256d vs = _mm256_set1_pd(out->slope);
  const __m256d vi = _mm256_set1_pd(out->intercept);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d cap = _mm256_set1_pd(static_cast<double>(max_pos));
  const __m256d inf = _mm256_set1_pd(INFINITY);
  const __m256d neg_inf = _mm256_set1_pd(-INFINITY);
  __m256d lo[2] = {inf, inf}, hi[2] = {neg_inf, neg_inf};
  __m256d s[2] = {zero, zero}, q[2] = {zero, zero};
  for_blocks([&](const FitBlock& b, auto&& acc) {
    for (int h = 0; h < 2; ++h) {
      // predict_run's clamp, kept in the double domain.
      const __m256d p = _mm256_max_pd(_mm256_fmadd_pd(vs, b.x[h], vi), zero);
      const __m256d r =
          _mm256_min_pd(_mm256_floor_pd(_mm256_add_pd(p, half)), cap);
      const __m256d e = _mm256_sub_pd(b.y[h], r);
      acc(lo[h], _mm256_min_pd(lo[h], e), h);
      acc(hi[h], _mm256_max_pd(hi[h], e), h);
      acc(s[h], _mm256_add_pd(s[h], e), h);
      acc(q[h], _mm256_fmadd_pd(e, e, q[h]), h);
    }
  });
  FitBandFromSums(n, MinLanes8(lo), MaxLanes8(hi), SumFitLanes8(s),
                  SumFitLanes8(q), out);
}

}  // namespace

const Kernels* Avx2Kernels() {
  static const Kernels kTable = {
      "avx2",          RouteAvx2,        PredictRunAvx2,
      LowerBoundU64Avx2, UpperBoundU64Avx2, LowerBoundU64MultiAvx2,
      U64ToF64Avx2,    HashSlotsAvx2,    CuckooSlotsAvx2,
      CountAtLeastFlaggedU64Avx2, NextInRangeU64Avx2, FitLeafAvx2,
  };
  return &kTable;
}

}  // namespace li::simd

#else  // !(__AVX2__ && __FMA__)

namespace li::simd {
const Kernels* Avx2Kernels() { return nullptr; }
}  // namespace li::simd

#endif
