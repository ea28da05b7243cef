// Timing utilities for the measurement harness (ns-resolution wall clock
// plus a serializing cycle counter for per-lookup latencies).

#ifndef LI_COMMON_TIMER_H_
#define LI_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace li {

/// Monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  double ElapsedNanos() const {
    return std::chrono::duration<double, std::nano>(Clock::now() - start_)
        .count();
  }
  double ElapsedSeconds() const { return ElapsedNanos() / 1e9; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Serializing cycle read; falls back to chrono off x86.
inline uint64_t ReadCycles() {
#if defined(__x86_64__)
  unsigned aux;
  return __rdtscp(&aux);
#else
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Prevents the compiler from optimizing away a computed value.
template <typename T>
inline void DoNotOptimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

}  // namespace li

#endif  // LI_COMMON_TIMER_H_
