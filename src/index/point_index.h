// The library-wide lookup contract, part 3: the `PointIndex` concept.
//
// Everything that answers single-key lookups over a record set — the
// separate-chaining map, the in-place chained map, the bucketized cuckoo
// map — satisfies one interface, mirroring the RangeIndex contract that
// PR 1 put under the range layer.
//
// Contract requirements — semantics, complexity, thread-safety:
//
//   typename I::config_type
//     Default-constructible build configuration. The hash-function
//     family (MurmurHash-style random vs learned CDF, §4.1) is part of
//     it (hash::HashConfig), not a template parameter callers thread.
//
//   Build(span<const hash::Record> records, const config_type&) -> Status
//     Builds over `records` in any order; duplicate keys keep the FIRST
//     record seen. Records are copied into the map's own storage. Cost:
//     O(n) inserts plus (for the learned family) CDF-model training.
//     Not thread-safe; build-then-share.
//
//   Find(key) -> const hash::Record*
//     The stored record, or nullptr when absent — including on an empty
//     or never-built map (no UB, regression-tested). The pointer is
//     valid until the map is mutated or destroyed. Cost: one hash (or
//     model) evaluation + expected O(1 + load) probes; Stats().
//     mean_probe reports the measured chain length. Const, safe for
//     concurrent readers.
//
//   SizeBytes() -> size_t
//     Total memory: primary slots + overflow storage, *including* the
//     records (the Appendix-B accounting — unlike range indexes, the
//     record payload is part of the structure). O(1). Const-safe.
//
//   num_records() -> size_t
//     Stored record count (first-wins deduplicated). O(1). Const-safe.
//
//   Stats() -> PointIndexStats
//     Conflict/occupancy metrics (slots, empties, overflow, mean probe)
//     — the Figure-8/-11 columns. O(1) (precomputed at Build).
//     Const-safe.
//
// Thread-safety baseline: const members are safe from many threads after
// Build. The contract is build-once: a point index takes no writes.
//
// This is what lets the LIF synthesizer (§3.1) enumerate point-index
// candidates uniformly (via AnyPointIndex), the §4 benches compare map
// families, and the conformance suite drive every implementation through
// identical checks.
//
// `FindBatch` amortizes per-key overhead on the hot path: maps with a
// native batched implementation (block-wise hash -> prefetch -> probe, so
// neighboring cache misses overlap) are dispatched to it; everything else
// falls back to a per-key loop.

#ifndef LI_INDEX_POINT_INDEX_H_
#define LI_INDEX_POINT_INDEX_H_

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>

#include "common/status.h"
#include "hash/record.h"

namespace li::index {

/// Conflict / occupancy statistics shared by every point index — the
/// Figure-8 ("% Conflicts") and Figure-11 ("Empty Slots") metrics plus the
/// cache-miss proxy of Appendix C.
struct PointIndexStats {
  size_t num_slots = 0;      // primary slots (excl. overflow storage)
  size_t empty_slots = 0;    // primary slots never filled (wasted space)
  size_t overflow = 0;       // entries stored beyond their home slot
  double mean_probe = 0.0;   // mean probe-chain length over stored records

  double utilization() const {
    return num_slots == 0
               ? 0.0
               : static_cast<double>(num_slots - empty_slots) /
                     static_cast<double>(num_slots);
  }
};

/// A hashed single-key lookup structure over hash::Record. See the
/// header comment for the per-requirement semantics, complexity and
/// thread-safety guarantees.
template <typename I>
concept PointIndex =
    std::movable<I> &&
    requires(I& mut, const I& idx, std::span<const hash::Record> records,
             const typename I::config_type& config, uint64_t key) {
      typename I::config_type;
      { mut.Build(records, config) } -> std::same_as<Status>;
      { idx.Find(key) } -> std::same_as<const hash::Record*>;
      { idx.SizeBytes() } -> std::same_as<size_t>;
      { idx.num_records() } -> std::same_as<size_t>;
      { idx.Stats() } -> std::same_as<PointIndexStats>;
    };

/// True when the map ships its own batched probe (hash -> prefetch ->
/// probe over blocks, mirroring the RMI LookupBatch pipeline).
template <typename I>
concept HasNativeFindBatch =
    requires(const I& idx, std::span<const uint64_t> keys,
             std::span<const hash::Record*> out) {
      { idx.FindBatch(keys, out) };
    };

/// Batched probe entry point: `out[i] = idx.Find(keys[i])` for all i,
/// routed through the map's native batch path when it has one. Mismatched
/// span lengths clamp to the shorter one.
template <PointIndex I>
void FindBatch(const I& idx, std::span<const uint64_t> keys,
               std::span<const hash::Record*> out) {
  if constexpr (HasNativeFindBatch<I>) {
    idx.FindBatch(keys, out);
  } else {
    const size_t n = std::min(keys.size(), out.size());
    for (size_t i = 0; i < n; ++i) out[i] = idx.Find(keys[i]);
  }
}

/// Type-erased PointIndex — the runtime face of the contract. Build() is
/// *not* erased (config types differ per map family); candidates are
/// built concretely and then moved in, exactly like AnyRangeIndex.
class AnyPointIndex {
 public:
  AnyPointIndex() = default;

  template <typename I>
    requires PointIndex<std::remove_cvref_t<I>> &&
             (!std::same_as<std::remove_cvref_t<I>, AnyPointIndex>)
  explicit AnyPointIndex(I&& impl)
      : impl_(std::make_unique<Holder<std::remove_cvref_t<I>>>(
            std::forward<I>(impl))) {}

  AnyPointIndex(AnyPointIndex&&) noexcept = default;
  AnyPointIndex& operator=(AnyPointIndex&&) noexcept = default;

  /// True when no map has been wrapped yet; Find then answers nullptr like
  /// a never-built map.
  bool empty() const { return impl_ == nullptr; }

  const hash::Record* Find(uint64_t key) const {
    return impl_ ? impl_->Find(key) : nullptr;
  }
  void FindBatch(std::span<const uint64_t> keys,
                 std::span<const hash::Record*> out) const {
    if (impl_ != nullptr) {
      impl_->FindBatch(keys, out);
    } else {
      // Same clamp-to-shorter convention as every built map.
      const size_t n = std::min(keys.size(), out.size());
      for (size_t i = 0; i < n; ++i) out[i] = nullptr;
    }
  }
  size_t SizeBytes() const { return impl_ ? impl_->SizeBytes() : 0; }
  size_t num_records() const { return impl_ ? impl_->num_records() : 0; }
  PointIndexStats Stats() const {
    return impl_ ? impl_->Stats() : PointIndexStats{};
  }

 private:
  struct Iface {
    virtual ~Iface() = default;
    virtual const hash::Record* Find(uint64_t key) const = 0;
    virtual void FindBatch(std::span<const uint64_t> keys,
                           std::span<const hash::Record*> out) const = 0;
    virtual size_t SizeBytes() const = 0;
    virtual size_t num_records() const = 0;
    virtual PointIndexStats Stats() const = 0;
  };

  template <typename I>
  struct Holder final : Iface {
    template <typename U>
    explicit Holder(U&& v) : impl(std::forward<U>(v)) {}

    const hash::Record* Find(uint64_t key) const override {
      return impl.Find(key);
    }
    void FindBatch(std::span<const uint64_t> keys,
                   std::span<const hash::Record*> out) const override {
      index::FindBatch(impl, keys, out);
    }
    size_t SizeBytes() const override { return impl.SizeBytes(); }
    size_t num_records() const override { return impl.num_records(); }
    PointIndexStats Stats() const override { return impl.Stats(); }

    I impl;
  };

  std::unique_ptr<const Iface> impl_;
};

}  // namespace li::index

#endif  // LI_INDEX_POINT_INDEX_H_
