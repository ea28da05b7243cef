// Shared key-set and query generators for the range-filter layer: the
// conformance/property suites, bench_rangefilter, and the LIF range
// sweep all draw from here so "uniform / zipf / adversarial-gap" and
// "guaranteed-empty query" mean the same thing everywhere.
//
// Key sets (sorted, deduplicated):
//   * uniform        — n draws over a fixed domain; gaps concentrate
//                      around span/n.
//   * zipf           — ZipfGenerator ranks pushed through a triangular
//                      transform, so key *density* is skewed: a dense
//                      head with unit-scale gaps and a sparse tail with
//                      huge ones. Fixed-width blocks must straddle both.
//   * adversarial-gap— tight clusters (spacing 1..4) separated by ~2^40
//                      voids: the worst case for a span-proportioned
//                      block grid, the natural case for a quantile one.
//
// Empty queries mix the two shapes that matter operationally:
//   * correlated     — a range wedged strictly inside the gap between
//                      two adjacent keys (the adversarial near-miss an
//                      LSM probe sees);
//   * uncorrelated   — lo drawn uniformly over the key domain, clipped
//                      to its surrounding gap (the analytics predicate
//                      case), plus a sliver fully outside [min, max].
// Both are empty by construction, so MeasureRangeFprOver needs no oracle.

#ifndef LI_RANGEFILTER_WORKLOAD_H_
#define LI_RANGEFILTER_WORKLOAD_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/random.h"
#include "index/range_filter.h"

namespace li::rangefilter {

inline std::vector<uint64_t> GenUniformKeys(size_t n, uint64_t seed,
                                            uint64_t domain = uint64_t{1}
                                                              << 40) {
  Xorshift128Plus rng(seed);
  std::vector<uint64_t> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) keys.push_back(rng.NextBounded(domain));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

/// Skewed-density keys: zipf ranks (hot = small) mapped through
/// r -> r(r+1)/2, so consecutive ranks are 1 apart near the head and
/// ~8n apart in the tail — a smooth density gradient of ~n^2/2 span.
inline std::vector<uint64_t> GenZipfKeys(size_t n, uint64_t seed,
                                         double s = 0.9) {
  const size_t rank_space = std::max<size_t>(8 * n, 64);
  ZipfGenerator zipf(rank_space, s, seed);
  std::vector<uint64_t> keys;
  keys.reserve(2 * n);
  // Sampling a heavy head revisits hot ranks; cap the draws and fill any
  // shortfall deterministically from the head so the set size is exact.
  for (size_t attempts = 0; attempts < 64 * n && keys.size() < 2 * n;
       ++attempts) {
    const uint64_t r = zipf.Next();
    keys.push_back(r * (r + 1) / 2);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (uint64_t r = 0; keys.size() < n && r < rank_space; ++r) {
    const uint64_t k = r * (r + 1) / 2;
    if (!std::binary_search(keys.begin(), keys.end(), k)) keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end());
  if (keys.size() > n) keys.resize(n);
  return keys;
}

/// Tight clusters separated by huge voids. `n` splits into clusters of
/// ~`cluster_size` keys with spacing 1..4; cluster starts are ~`gap`
/// apart.
inline std::vector<uint64_t> GenAdversarialGapKeys(
    size_t n, uint64_t seed, size_t cluster_size = 512,
    uint64_t gap = uint64_t{1} << 40) {
  Xorshift128Plus rng(seed);
  std::vector<uint64_t> keys;
  keys.reserve(n);
  uint64_t cursor = rng.NextBounded(gap);
  while (keys.size() < n) {
    const size_t take = std::min(cluster_size, n - keys.size());
    for (size_t i = 0; i < take; ++i) {
      cursor += 1 + rng.NextBounded(4);
      keys.push_back(cursor);
    }
    cursor += gap / 2 + rng.NextBounded(gap);
  }
  return keys;  // construction is strictly increasing: sorted and unique
}

/// Duplicate-heavy draw (for the conformance suites): n draws over a
/// small distinct-key pool, unsorted, so Build's collapse path is
/// exercised.
inline std::vector<uint64_t> GenDuplicateHeavyKeys(size_t n, uint64_t seed,
                                                   size_t distinct = 0) {
  if (distinct == 0) distinct = std::max<size_t>(1, n / 8);
  Xorshift128Plus rng(seed);
  std::vector<uint64_t> pool;
  pool.reserve(distinct);
  for (size_t i = 0; i < distinct; ++i) {
    pool.push_back(rng.Next() >> 20);
  }
  std::vector<uint64_t> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(pool[rng.NextBounded(pool.size())]);
  }
  return keys;
}

struct EmptyQueryConfig {
  size_t count = 10'000;
  /// Widest range generated, in key-space units (clipped to the hosting
  /// gap, which is what actually bounds the correlated shape).
  uint64_t max_width = 1024;
  /// Fraction of queries wedged into an adjacent-key gap; the rest are
  /// uniform over the domain (clipped to their gap) with a ~5% sliver
  /// fully outside [min, max].
  double correlated_fraction = 0.5;
};

/// Ranges over `sorted_keys`' gaps that are empty by construction.
/// Requires sorted, deduplicated keys; returns fewer than `count` only
/// when the key set has no usable gap at all.
inline std::vector<index::RangeQuery> GenEmptyRanges(
    std::span<const uint64_t> sorted_keys, uint64_t seed,
    const EmptyQueryConfig& config = {}) {
  std::vector<index::RangeQuery> out;
  if (sorted_keys.size() < 2) return out;
  Xorshift128Plus rng(seed);
  out.reserve(config.count);
  const uint64_t min_key = sorted_keys.front();
  const uint64_t max_key = sorted_keys.back();
  // An empty range inside the gap (keys[i], keys[i+1]): lo in
  // [keys[i]+1, keys[i+1]-1], hi (exclusive) at most keys[i+1].
  auto emit_in_gap = [&](size_t i) -> bool {
    const uint64_t gap = sorted_keys[i + 1] - sorted_keys[i];
    if (gap < 2) return false;
    const uint64_t lo = sorted_keys[i] + 1 + rng.NextBounded(gap - 1);
    const uint64_t avail = sorted_keys[i + 1] - lo;
    const uint64_t width =
        1 + rng.NextBounded(std::min<uint64_t>(config.max_width, avail));
    out.push_back({lo, lo + width});
    return true;
  };
  size_t failures = 0;
  while (out.size() < config.count && failures < 64 * config.count) {
    const double shape = rng.NextDouble();
    if (shape < config.correlated_fraction) {
      if (!emit_in_gap(rng.NextBounded(sorted_keys.size() - 1))) ++failures;
      continue;
    }
    if (shape > 1.0 - 0.05 * (1.0 - config.correlated_fraction) &&
        (min_key > 1 || max_key < ~uint64_t{0} - 1)) {
      // Fully out-of-domain sliver.
      if (min_key > 1 && (rng.Next() & 1)) {
        const uint64_t lo = rng.NextBounded(min_key - 1);
        const uint64_t width =
            1 + rng.NextBounded(std::min<uint64_t>(config.max_width,
                                                   min_key - 1 - lo));
        out.push_back({lo, lo + width});
        continue;
      }
      if (max_key < ~uint64_t{0} - 1) {
        const uint64_t room = ~uint64_t{0} - max_key - 1;
        const uint64_t off = rng.NextBounded(room);
        const uint64_t lo = max_key + 1 + off;
        const uint64_t width =
            1 + rng.NextBounded(std::min<uint64_t>(config.max_width,
                                                   room - off));
        out.push_back({lo, lo + width});
        continue;
      }
    }
    // Uncorrelated: a uniform point in the covered domain, clipped to
    // the gap that hosts it.
    const uint64_t span = max_key - min_key;
    const uint64_t point = min_key + rng.NextBounded(span + 1 == 0
                                                         ? ~uint64_t{0}
                                                         : span + 1);
    const auto it = std::lower_bound(sorted_keys.begin(), sorted_keys.end(),
                                     point);
    if (it == sorted_keys.begin() || it == sorted_keys.end() ||
        *it == point) {
      ++failures;
      continue;
    }
    if (!emit_in_gap(static_cast<size_t>(it - sorted_keys.begin()) - 1)) {
      ++failures;
    }
  }
  return out;
}

/// Ranges guaranteed to contain at least one built key — the witness set
/// the zero-false-negative checks drive (tests, bench oracle gates).
inline std::vector<index::RangeQuery> GenWitnessRanges(
    std::span<const uint64_t> sorted_keys, uint64_t seed, size_t count,
    uint64_t max_width = 1024) {
  std::vector<index::RangeQuery> out;
  if (sorted_keys.empty()) return out;
  Xorshift128Plus rng(seed);
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const uint64_t k = sorted_keys[rng.NextBounded(sorted_keys.size())];
    const uint64_t back = rng.NextBounded(max_width);
    const uint64_t lo = k >= back ? k - back : 0;
    const uint64_t head_room = ~uint64_t{0} - k;
    const uint64_t fwd =
        1 + rng.NextBounded(std::min<uint64_t>(max_width, head_room));
    out.push_back({lo, k + fwd});  // lo <= k < k + fwd
  }
  return out;
}

}  // namespace li::rangefilter

#endif  // LI_RANGEFILTER_WORKLOAD_H_
