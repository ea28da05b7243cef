// The library-wide lookup contract, part 4: the `ExistenceIndex` concept.
//
// Everything that answers set-membership queries — the standard Bloom
// filter, the learned Bloom filter (classifier + overflow, §5.1.1), the
// model-hash sandwich (§5.1.2 / Appendix E) — satisfies one interface.
//
// Contract requirements — semantics, complexity, thread-safety:
//
//   MightContain(string_view key) -> bool
//     Probabilistic membership: MUST return true for every key inserted
//     at construction (no false negatives, the §5 safety property); may
//     return true for absent keys at the filter's false-positive rate.
//     Cost: k hash probes for a plain Bloom filter; one classifier
//     evaluation (+ overflow-filter probes below the threshold) for the
//     learned variants. Const, safe for concurrent readers.
//
//   SizeBytes() -> size_t
//     Total memory: bitmap bits plus any classifier weights — the §5
//     objective (memory at a fixed FPR), which is why the existence
//     synthesizer picks the *smallest* qualifying candidate rather than
//     the fastest. O(1). Const-safe.
//
// Measured FPR is not a member: MeasureFprOver below is its one
// definition, and every caller (LIF, benches, tests) runs it over a
// filter or a handle, so the metric cannot drift between implementations.
//
// Thread-safety baseline: const members are safe from many threads after
// construction; filters are immutable once built.
//
// Build is *not* part of the contract: construction recipes differ
// fundamentally (geometry from (n, p*) vs a trained classifier plus
// validation non-keys for threshold calibration), so candidates are
// built concretely and erased into AnyExistenceIndex — the seam the LIF
// synthesizer (§3.1) and the §5 benches enumerate over, mirroring
// AnyRangeIndex / AnyPointIndex.

#ifndef LI_INDEX_EXISTENCE_INDEX_H_
#define LI_INDEX_EXISTENCE_INDEX_H_

#include <concepts>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace li::index {

/// The one definition of "measured FPR": the false-positive fraction of
/// `MightContain` over a non-key test set, for any filter with that
/// member (every ExistenceIndex, AnyExistenceIndex included). O(|set|)
/// probes; 0 on an empty set.
template <typename F>
double MeasureFprOver(const F& filter,
                      std::span<const std::string> test_non_keys) {
  if (test_non_keys.empty()) return 0.0;
  size_t fp = 0;
  for (const auto& s : test_non_keys) {
    fp += filter.MightContain(std::string_view(s));
  }
  return static_cast<double>(fp) /
         static_cast<double>(test_non_keys.size());
}

/// A no-false-negative set-membership filter over string keys. See the
/// header comment for the per-requirement semantics, complexity and
/// thread-safety guarantees.
template <typename F>
concept ExistenceIndex =
    std::movable<F> &&
    requires(const F& f, std::string_view key) {
      { f.MightContain(key) } -> std::same_as<bool>;
      { f.SizeBytes() } -> std::same_as<size_t>;
    };

/// Type-erased ExistenceIndex. An empty handle behaves like a filter over
/// the empty set: MightContain is always false, so its measured FPR is 0.
class AnyExistenceIndex {
 public:
  AnyExistenceIndex() = default;

  template <typename F>
    requires ExistenceIndex<std::remove_cvref_t<F>> &&
             (!std::same_as<std::remove_cvref_t<F>, AnyExistenceIndex>)
  explicit AnyExistenceIndex(F&& impl)
      : impl_(std::make_unique<Holder<std::remove_cvref_t<F>>>(
            std::forward<F>(impl))) {}

  AnyExistenceIndex(AnyExistenceIndex&&) noexcept = default;
  AnyExistenceIndex& operator=(AnyExistenceIndex&&) noexcept = default;

  bool empty() const { return impl_ == nullptr; }

  bool MightContain(std::string_view key) const {
    return impl_ != nullptr && impl_->MightContain(key);
  }
  size_t SizeBytes() const { return impl_ ? impl_->SizeBytes() : 0; }

 private:
  struct Iface {
    virtual ~Iface() = default;
    virtual bool MightContain(std::string_view key) const = 0;
    virtual size_t SizeBytes() const = 0;
  };

  template <typename F>
  struct Holder final : Iface {
    template <typename U>
    explicit Holder(U&& v) : impl(std::forward<U>(v)) {}

    bool MightContain(std::string_view key) const override {
      return impl.MightContain(key);
    }
    size_t SizeBytes() const override { return impl.SizeBytes(); }

    F impl;
  };

  std::unique_ptr<const Iface> impl_;
};

}  // namespace li::index

#endif  // LI_INDEX_EXISTENCE_INDEX_H_
