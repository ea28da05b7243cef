// Bit tricks and memory hints shared across index implementations.

#ifndef LI_COMMON_BITS_H_
#define LI_COMMON_BITS_H_

#include <bit>
#include <cstdint>

namespace li {

/// Smallest power of two >= x (x > 0).
inline uint64_t NextPow2(uint64_t x) { return std::bit_ceil(x); }

/// floor(log2(x)) for x > 0.
inline unsigned Log2Floor(uint64_t x) {
  return 63u - static_cast<unsigned>(std::countl_zero(x));
}

/// Software prefetch into all cache levels.
inline void PrefetchRead(const void* p) { __builtin_prefetch(p, 0, 3); }

#define LI_LIKELY(x) __builtin_expect(!!(x), 1)
#define LI_UNLIKELY(x) __builtin_expect(!!(x), 0)

inline constexpr size_t kCacheLineSize = 64;

}  // namespace li

#endif  // LI_COMMON_BITS_H_
