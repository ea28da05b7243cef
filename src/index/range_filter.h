// The library-wide lookup contract, part 5: the `RangeFilter` concept.
//
// Everything that answers range-emptiness queries — "might any key lie in
// [lo, hi)?" — satisfies one interface. This extends the ExistenceIndex
// family (§5) from point membership to ranges: the workload that gates
// LSM run probes and analytics block skipping, where a confident "empty"
// lets the engine skip an I/O. Point membership stays available as the
// degenerate one-key range: MightContain(k) == MightContainRange(k, k+1).
//
// Contract requirements — semantics, complexity, thread-safety:
//
//   MightContainRange(uint64_t lo, uint64_t hi) -> bool
//     Probabilistic range emptiness over the half-open interval [lo, hi).
//     MUST return true whenever any built key k satisfies lo <= k < hi
//     (zero false negatives — the §5 safety property lifted to ranges);
//     may return true for an empty interval at the filter's range-FPR.
//     A degenerate interval (hi <= lo) is empty by definition and MUST
//     return false. Cost: O(segments overlapped + bitmap words scanned);
//     for the filters in src/rangefilter/ the query touches at most two
//     boundary segments. Const, safe for concurrent readers.
//
//   MightContain(uint64_t key) -> bool
//     The degenerate point probe, exactly MightContainRange(key, key + 1)
//     (with the key == 2^64-1 edge handled internally, not by wrapping).
//     Const-safe.
//
//   SizeBytes() -> size_t
//     Total memory: bitmap bits plus segment/model metadata — the §5
//     objective (memory at a fixed FPR) is why the range synthesizer
//     picks the *smallest* qualifying candidate. O(1). Const-safe.
//
//   MeasuredRangeFpr(span<const RangeQuery> empty_queries) -> double
//     The false-positive fraction of MightContainRange over query ranges
//     known to contain no built key, delegated to MeasureRangeFprOver
//     below by every implementation so the metric cannot drift.
//     O(|empty_queries|) probes. Const-safe.
//
// Thread-safety baseline: const members are safe from many threads after
// construction; filters are immutable once built.
//
// Build is *not* part of the contract: construction recipes differ (a
// per-segment CDF model grid vs a fixed-width block grid), so candidates
// are built concretely and erased into AnyRangeFilter — the seam the LIF
// range-filter class (lif::SynthesizedRangeFilter) and bench_rangefilter
// enumerate over, mirroring AnyExistenceIndex.

#ifndef LI_INDEX_RANGE_FILTER_H_
#define LI_INDEX_RANGE_FILTER_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>

namespace li::index {

/// One half-open range-emptiness query [lo, hi).
struct RangeQuery {
  uint64_t lo = 0;
  uint64_t hi = 0;
};

/// The one definition of "measured range FPR": the false-positive
/// fraction of MightContainRange over ranges known to be empty of built
/// keys. Every filter's MeasuredRangeFpr member delegates here so the
/// metric cannot drift between implementations.
template <typename F>
double MeasureRangeFprOver(const F& filter,
                           std::span<const RangeQuery> empty_queries) {
  if (empty_queries.empty()) return 0.0;
  size_t fp = 0;
  for (const RangeQuery& q : empty_queries) {
    fp += filter.MightContainRange(q.lo, q.hi);
  }
  return static_cast<double>(fp) /
         static_cast<double>(empty_queries.size());
}

/// A no-false-negative range-emptiness filter over uint64 keys. See the
/// header comment for the per-requirement semantics, complexity and
/// thread-safety guarantees.
template <typename F>
concept RangeFilter =
    std::movable<F> &&
    requires(const F& f, uint64_t lo, uint64_t hi,
             std::span<const RangeQuery> empty_queries) {
      { f.MightContainRange(lo, hi) } -> std::same_as<bool>;
      { f.MightContain(lo) } -> std::same_as<bool>;
      { f.SizeBytes() } -> std::same_as<size_t>;
      { f.MeasuredRangeFpr(empty_queries) } -> std::same_as<double>;
    };

/// Type-erased RangeFilter. An empty handle behaves like a filter over
/// the empty key set: every query answers false, FPR is 0.
class AnyRangeFilter {
 public:
  AnyRangeFilter() = default;

  template <typename F>
    requires RangeFilter<std::remove_cvref_t<F>> &&
             (!std::same_as<std::remove_cvref_t<F>, AnyRangeFilter>)
  explicit AnyRangeFilter(F&& impl)
      : impl_(std::make_unique<Holder<std::remove_cvref_t<F>>>(
            std::forward<F>(impl))) {}

  AnyRangeFilter(AnyRangeFilter&&) noexcept = default;
  AnyRangeFilter& operator=(AnyRangeFilter&&) noexcept = default;

  bool empty() const { return impl_ == nullptr; }

  bool MightContainRange(uint64_t lo, uint64_t hi) const {
    return impl_ != nullptr && impl_->MightContainRange(lo, hi);
  }
  bool MightContain(uint64_t key) const {
    return impl_ != nullptr && impl_->MightContain(key);
  }
  size_t SizeBytes() const { return impl_ ? impl_->SizeBytes() : 0; }
  double MeasuredRangeFpr(std::span<const RangeQuery> empty_queries) const {
    return impl_ ? impl_->MeasuredRangeFpr(empty_queries) : 0.0;
  }

 private:
  struct Iface {
    virtual ~Iface() = default;
    virtual bool MightContainRange(uint64_t lo, uint64_t hi) const = 0;
    virtual bool MightContain(uint64_t key) const = 0;
    virtual size_t SizeBytes() const = 0;
    virtual double MeasuredRangeFpr(
        std::span<const RangeQuery> empty_queries) const = 0;
  };

  template <typename F>
  struct Holder final : Iface {
    template <typename U>
    explicit Holder(U&& v) : impl(std::forward<U>(v)) {}

    bool MightContainRange(uint64_t lo, uint64_t hi) const override {
      return impl.MightContainRange(lo, hi);
    }
    bool MightContain(uint64_t key) const override {
      return impl.MightContain(key);
    }
    size_t SizeBytes() const override { return impl.SizeBytes(); }
    double MeasuredRangeFpr(
        std::span<const RangeQuery> empty_queries) const override {
      return impl.MeasuredRangeFpr(empty_queries);
    }

    F impl;
  };

  std::unique_ptr<const Iface> impl_;
};

}  // namespace li::index

#endif  // LI_INDEX_RANGE_FILTER_H_
