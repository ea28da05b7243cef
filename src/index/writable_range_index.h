// The library-wide lookup contract, part 3: writable range indexes.
//
// The paper's learned structures are built over an immutable sorted array;
// Appendix D.1 sketches the write path: "all inserts are kept in buffer
// and from time to time merged with a potential retraining of the model
// ... already widely used, for example in Bigtable". `WritableRangeIndex`
// is the contract for that shape of index: everything a `RangeIndex` can
// answer — Lookup keeps exact lower_bound semantics over the *live* key
// set (base plus unmerged inserts, minus erases), so read-only call sites
// keep working unmodified — plus the write surface below.
//
// Contract requirements beyond RangeIndex — semantics, complexity,
// thread-safety:
//
//   Insert(key) -> bool
//     Buffers an insert; returns true iff `key` was not live before (the
//     std::set convention). Cost for the delta implementation: one base
//     lookup to freeze the key's base membership + O(active_cap)
//     sorted-buffer insertion, amortized consolidation, and possibly a
//     policy-triggered merge.
//
//   Erase(key) -> bool
//     Buffers a tombstone; returns true iff `key` was live before.
//     Same cost shape as Insert.
//
//   Contains(key) -> bool
//     Membership over the live set; the newest buffered write wins over
//     the base. Cost: O(log delta) + one base lookup on delta miss.
//     Const.
//
//   Scan(from, limit) -> vector<key_type>
//     Up to `limit` live keys >= `from`, ascending, tombstones dropped,
//     buffered writes shadowing equal base keys. Cost: O(log) seek +
//     O(limit) merge; the delta implementation allocates exactly the
//     returned vector (regression-tested). Const.
//
//   size() -> size_t
//     Live key count (base + net delta). O(1). Const.
//
//   Merge() -> Status
//     Folds buffered writes into the base and retrains it (a fresh base
//     built over the merged keys, swapped in on success). Transactional:
//     on failure the previous base and delta remain intact. Cost:
//     O(n + delta) + base training. Also what the automatic merge
//     policies (dynamic/merge_policy.h) invoke.
//
//   Stats() -> WritableIndexStats
//     Write and merge counters plus delta/base sizes (below); reads are
//     not counted. O(1). Const.
//
// Thread-safety baseline: the const members above write no state, so
// they are safe from many threads in the absence of concurrent writers;
// Insert/Erase/Merge require external exclusion. The refinement contract in
// index/concurrent_writable_index.h strengthens this to lock-free reads
// under concurrent writers and background merges.
//
// The canonical implementation is dynamic::DeltaRangeIndex<Base>, which
// wraps any RangeIndex base over uint64_t keys; the concept itself is implementation-
// agnostic so the LIF synthesizer and conformance suite can enumerate
// writable candidates the same way they enumerate read-only ones.

#ifndef LI_INDEX_WRITABLE_RANGE_INDEX_H_
#define LI_INDEX_WRITABLE_RANGE_INDEX_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "index/approx.h"
#include "index/range_index.h"

namespace li::index {

/// Write-side counters every writable index reports: what the merge
/// policies act on (delta pressure) and benches print (merge
/// amortization). Reads count nothing, so const members write nothing.
struct WritableIndexStats {
  uint64_t inserts = 0;
  uint64_t erases = 0;
  uint64_t merges = 0;         // completed merge+retrain cycles
  double last_merge_ns = 0.0;
  double total_merge_ns = 0.0;
  size_t delta_entries = 0;    // buffered writes not yet merged
  size_t base_keys = 0;        // keys in the immutable base
};

/// A RangeIndex that also accepts point writes. Lookup keeps lower_bound
/// semantics over the *live* key set (base plus unmerged inserts, minus
/// erases), so read-only call sites keep working unmodified; Insert/Erase
/// return whether the key's liveness changed; Scan yields up to `limit`
/// live keys >= the probe in ascending order; Merge folds the delta into
/// the base (retraining learned bases) and is also what the automatic
/// merge policies invoke.
template <typename I>
concept WritableRangeIndex =
    RangeIndex<I> &&
    requires(I& mut, const I& idx, const typename I::key_type& key,
             size_t limit) {
      { mut.Insert(key) } -> std::same_as<bool>;
      { mut.Erase(key) } -> std::same_as<bool>;
      { idx.Contains(key) } -> std::same_as<bool>;
      {
        idx.Scan(key, limit)
      } -> std::same_as<std::vector<typename I::key_type>>;
      { idx.size() } -> std::same_as<size_t>;
      { mut.Merge() } -> std::same_as<Status>;
      { idx.Stats() } -> std::same_as<WritableIndexStats>;
    };

/// Type-erased WritableRangeIndex — the runtime face of the write path,
/// mirroring AnyRangeIndex: the LIF synthesizer grid-searches over
/// heterogeneous delta-wrapped candidates and hands back "whichever won"
/// without threading base template parameters everywhere. Build is not
/// erased (config types differ per base); candidates are built concretely
/// and moved in. AnyConcurrentWritableIndex extends this erasure with the
/// concurrent surface.
class AnyWritableRangeIndex {
 public:
  using key_type = uint64_t;

  AnyWritableRangeIndex() = default;

  template <typename I>
    requires WritableRangeIndex<std::remove_cvref_t<I>> &&
             std::same_as<typename std::remove_cvref_t<I>::key_type,
                          uint64_t> &&
             (!std::same_as<std::remove_cvref_t<I>, AnyWritableRangeIndex>)
  explicit AnyWritableRangeIndex(I&& impl)
      : impl_(std::make_unique<Holder<std::remove_cvref_t<I>>>(
            std::forward<I>(impl))) {}

  AnyWritableRangeIndex(AnyWritableRangeIndex&&) noexcept = default;
  AnyWritableRangeIndex& operator=(AnyWritableRangeIndex&&) noexcept =
      default;

  /// True when no index has been wrapped yet; reads then answer like an
  /// empty index and writes are dropped (returning false).
  bool empty() const { return impl_ == nullptr; }

  bool Insert(const key_type& key) {
    return impl_ ? impl_->Insert(key) : false;
  }
  bool Erase(const key_type& key) { return impl_ ? impl_->Erase(key) : false; }
  bool Contains(const key_type& key) const {
    return impl_ ? impl_->Contains(key) : false;
  }
  size_t Lookup(const key_type& key) const {
    return impl_ ? impl_->Lookup(key) : 0;
  }
  size_t LowerBound(const key_type& key) const { return Lookup(key); }
  Approx ApproxPos(const key_type& key) const {
    return impl_ ? impl_->ApproxPos(key) : Approx{};
  }
  void LookupBatch(std::span<const key_type> keys,
                   std::span<size_t> out) const {
    if (impl_ != nullptr) {
      impl_->LookupBatch(keys, out);
    } else {
      for (size_t i = 0; i < out.size(); ++i) out[i] = 0;
    }
  }
  std::vector<key_type> Scan(const key_type& from, size_t limit) const {
    return impl_ ? impl_->Scan(from, limit) : std::vector<key_type>{};
  }
  Status Merge() {
    return impl_ ? impl_->Merge()
                 : Status::FailedPrecondition("writable index handle: empty");
  }
  size_t size() const { return impl_ ? impl_->size() : 0; }
  size_t SizeBytes() const { return impl_ ? impl_->SizeBytes() : 0; }
  WritableIndexStats Stats() const {
    return impl_ ? impl_->Stats() : WritableIndexStats{};
  }

 protected:
  struct Iface {
    virtual ~Iface() = default;
    virtual bool Insert(const key_type& key) = 0;
    virtual bool Erase(const key_type& key) = 0;
    virtual bool Contains(const key_type& key) const = 0;
    virtual size_t Lookup(const key_type& key) const = 0;
    virtual Approx ApproxPos(const key_type& key) const = 0;
    virtual void LookupBatch(std::span<const key_type> keys,
                             std::span<size_t> out) const = 0;
    virtual std::vector<key_type> Scan(const key_type& from,
                                       size_t limit) const = 0;
    virtual Status Merge() = 0;
    virtual size_t size() const = 0;
    virtual size_t SizeBytes() const = 0;
    virtual WritableIndexStats Stats() const = 0;
  };

  /// Iface's methods forwarded to an `I`, over `Interface` = Iface or an
  /// interface derived from it: the one copy of the forwarding that both
  /// writable erasures' final holders share.
  template <typename I, typename Interface>
  struct Forwarder : Interface {
    template <typename U>
    explicit Forwarder(U&& v) : impl(std::forward<U>(v)) {}

    bool Insert(const key_type& key) override { return impl.Insert(key); }
    bool Erase(const key_type& key) override { return impl.Erase(key); }
    bool Contains(const key_type& key) const override {
      return impl.Contains(key);
    }
    size_t Lookup(const key_type& key) const override {
      return impl.Lookup(key);
    }
    Approx ApproxPos(const key_type& key) const override {
      return impl.ApproxPos(key);
    }
    void LookupBatch(std::span<const key_type> keys,
                     std::span<size_t> out) const override {
      index::LookupBatch(impl, keys, out);
    }
    std::vector<key_type> Scan(const key_type& from,
                               size_t limit) const override {
      return impl.Scan(from, limit);
    }
    Status Merge() override { return impl.Merge(); }
    size_t size() const override { return impl.size(); }
    size_t SizeBytes() const override { return impl.SizeBytes(); }
    WritableIndexStats Stats() const override { return impl.Stats(); }

    I impl;
  };

  template <typename I>
  struct Holder final : Forwarder<I, Iface> {
    using Forwarder<I, Iface>::Forwarder;
  };

  explicit AnyWritableRangeIndex(std::unique_ptr<Iface> impl)
      : impl_(std::move(impl)) {}

  std::unique_ptr<Iface> impl_;
};

}  // namespace li::index

#endif  // LI_INDEX_WRITABLE_RANGE_INDEX_H_
