// The library-wide lookup contract, part 5: concurrent writable range
// indexes.
//
// A `ConcurrentWritableRangeIndex` is a `WritableRangeIndex` whose
// operations are safe to call from many threads at once, with the
// read/write separation the paper's serving scenario implies: lookups
// never block on writes or merges, writes never block on reads, and the
// merge+retrain cycle runs on a background worker that publishes the new
// base with an atomic swap (epoch-based reclamation drains the old one).
//
// Thread-safety guarantees every implementation must provide:
//   * Lookup / LookupBatch / ApproxPos / Contains / Scan / size /
//     SizeBytes / Stats / ConcurrentStats: callable concurrently from any
//     number of threads, lock-free on the read path (no mutex, no wait on
//     an in-flight merge or write).
//   * Insert / Erase: callable concurrently from any number of threads;
//     writers may serialize against each other but never against readers.
//   * Merge(): synchronous — requests a merge cycle and blocks the caller
//     until the background worker has folded everything written *before*
//     the call; readers stay lock-free throughout.
//   * RequestMerge(): asynchronous trigger — never blocks; coalesces with
//     an already-pending request.
//   * WaitForMerges(): blocks until no merge is pending or running (the
//     quiesce point tests and snapshot readers use).
//
// Linearizability contract: every op observes some prefix of the write
// history (the write-log publication point is the serialization point).
// When no write is in flight — single-threaded use, or any externally
// quiesced moment — reads are exact: Lookup is lower_bound over the live
// set, size() the exact live count, Scan the sorted live keys. Under
// in-flight writes, reads reflect an instant at most one write behind.
//
// The canonical implementations are concurrent::ConcurrentWritableIndex
// (one writer lock + append-only write log + epoch-swapped base) and
// concurrent::ShardedIndex (range partitioning over N inner indexes for
// write scaling); the concept is implementation-agnostic so the LIF
// synthesizer and the conformance suite enumerate them like any other
// candidate.

#ifndef LI_INDEX_CONCURRENT_WRITABLE_INDEX_H_
#define LI_INDEX_CONCURRENT_WRITABLE_INDEX_H_

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
#include "index/writable_range_index.h"

namespace li::index {

/// Concurrency observability on top of the per-op WritableIndexStats:
/// contention counters (who waited on whom), state-version lifecycle
/// (publish / retire / reclaim), and the background-merge split. These are
/// the gauges the sharding and merge-policy knobs are tuned against.
struct ConcurrentIndexStats : WritableIndexStats {
  uint64_t freezes = 0;            // write-log -> frozen-delta folds
  uint64_t background_merges = 0;  // merge cycles run by the worker
  uint64_t writer_contended = 0;   // write-lock acquisitions that waited
  uint64_t states_published = 0;   // versions swapped in (freezes + merges)
  uint64_t states_retired = 0;     // versions handed to the epoch manager
  uint64_t states_reclaimed = 0;   // versions actually freed so far
  uint64_t epoch_fallback_pins = 0;  // readers beyond the slot table
  size_t log_entries = 0;          // unsorted write-log entries (subset of
                                   // delta_entries)
  size_t shards = 1;               // 1 unless range-sharded
  uint64_t shard_splits = 0;       // online shard splits performed
  uint64_t shard_coalesces = 0;    // online shard coalesces performed
  uint64_t shard_maps_published = 0;  // routing-table (ShardMap) versions
                                      // published, the build map included
  double shard_imbalance = 1.0;    // max/mean live shard mass right now —
                                   // the gauge the rebalancer bounds

  /// Fraction of writes that found the writer lock held — the signal that
  /// a single write front-end is saturated and sharding would pay off.
  double WriterContentionRate() const {
    const uint64_t writes = inserts + erases;
    return writes == 0 ? 0.0
                       : static_cast<double>(writer_contended) /
                             static_cast<double>(writes);
  }
};

/// A WritableRangeIndex that is safe under concurrent readers and
/// writers (see the header comment for the exact guarantees), with an
/// asynchronous merge trigger, a quiesce point, and contention-aware
/// stats. `Merge()` keeps its synchronous WritableRangeIndex semantics —
/// it blocks the *caller*, never the readers.
template <typename I>
concept ConcurrentWritableRangeIndex =
    WritableRangeIndex<I> &&
    requires(I& mut, const I& idx) {
      { idx.ConcurrentStats() } -> std::same_as<ConcurrentIndexStats>;
      { mut.RequestMerge() } -> std::same_as<void>;
      { mut.WaitForMerges() } -> std::same_as<void>;
    };

/// Type-erased ConcurrentWritableRangeIndex, mirroring
/// AnyWritableRangeIndex but keeping the concurrent surface
/// (RequestMerge / WaitForMerges / ConcurrentStats) callable through the
/// erasure — for holders of heterogeneous concurrent indexes (single
/// front-end vs sharded, different bases) that still need to quiesce
/// workers or read contention gauges. Note the LIF writable synthesizer
/// erases its winners into AnyWritableRangeIndex (the class-wide
/// contract that single-threaded candidates also satisfy); use this type
/// when constructing concurrent indexes directly. Build is not erased
/// (config types differ); candidates are built concretely and moved in.
/// The handle itself is as thread-safe as the wrapped index; moving the
/// handle while ops are in flight is undefined, as for any container.
class AnyConcurrentWritableIndex {
 public:
  using key_type = uint64_t;

  AnyConcurrentWritableIndex() = default;

  template <typename I>
    requires ConcurrentWritableRangeIndex<std::remove_cvref_t<I>> &&
             std::same_as<typename std::remove_cvref_t<I>::key_type,
                          uint64_t> &&
             (!std::same_as<std::remove_cvref_t<I>,
                            AnyConcurrentWritableIndex>)
  explicit AnyConcurrentWritableIndex(I&& impl)
      : impl_(std::make_unique<Holder<std::remove_cvref_t<I>>>(
            std::forward<I>(impl))) {}

  AnyConcurrentWritableIndex(AnyConcurrentWritableIndex&&) noexcept =
      default;
  AnyConcurrentWritableIndex& operator=(
      AnyConcurrentWritableIndex&&) noexcept = default;

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
                 : Status::FailedPrecondition(
                       "AnyConcurrentWritableIndex: empty");
  }
  void RequestMerge() {
    if (impl_ != nullptr) impl_->RequestMerge();
  }
  void WaitForMerges() {
    if (impl_ != nullptr) impl_->WaitForMerges();
  }
  size_t size() const { return impl_ ? impl_->size() : 0; }
  size_t SizeBytes() const { return impl_ ? impl_->SizeBytes() : 0; }
  WritableIndexStats Stats() const {
    return impl_ ? impl_->Stats() : WritableIndexStats{};
  }
  ConcurrentIndexStats ConcurrentStats() const {
    return impl_ ? impl_->ConcurrentStats() : ConcurrentIndexStats{};
  }

 private:
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
    virtual void RequestMerge() = 0;
    virtual void WaitForMerges() = 0;
    virtual size_t size() const = 0;
    virtual size_t SizeBytes() const = 0;
    virtual WritableIndexStats Stats() const = 0;
    virtual ConcurrentIndexStats ConcurrentStats() const = 0;
  };

  template <typename I>
  struct Holder final : Iface {
    template <typename U>
    explicit Holder(U&& v) : impl(std::forward<U>(v)) {}

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
    void RequestMerge() override { impl.RequestMerge(); }
    void WaitForMerges() override { impl.WaitForMerges(); }
    size_t size() const override { return impl.size(); }
    size_t SizeBytes() const override { return impl.SizeBytes(); }
    WritableIndexStats Stats() const override { return impl.Stats(); }
    ConcurrentIndexStats ConcurrentStats() const override {
      return impl.ConcurrentStats();
    }

    I impl;
  };

  std::unique_ptr<Iface> impl_;
};


}  // namespace li::index

#endif  // LI_INDEX_CONCURRENT_WRITABLE_INDEX_H_
