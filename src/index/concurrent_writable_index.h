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
#include <type_traits>
#include <utility>

#include "index/writable_range_index.h"

namespace li::index {

/// Concurrency observability on top of the WritableIndexStats counters:
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

/// Type-erased ConcurrentWritableRangeIndex: AnyWritableRangeIndex's
/// erasure (the same interface and forwarding, one virtual call per op)
/// plus the concurrent surface (RequestMerge / WaitForMerges /
/// ConcurrentStats) — for holders of heterogeneous concurrent indexes
/// (single front-end vs sharded, different bases) that still need to
/// quiesce workers or read contention gauges. Note the LIF writable
/// synthesizer erases its winners into AnyWritableRangeIndex (the
/// class-wide contract that single-threaded candidates also satisfy); use
/// this type when constructing concurrent indexes directly. Build is not
/// erased (config types differ); candidates are built concretely and
/// moved in. The handle itself is as thread-safe as the wrapped index;
/// moving the handle while ops are in flight is undefined, as for any
/// container.
class AnyConcurrentWritableIndex : private AnyWritableRangeIndex {
 public:
  using AnyWritableRangeIndex::key_type;

  AnyConcurrentWritableIndex() = default;

  template <typename I>
    requires ConcurrentWritableRangeIndex<std::remove_cvref_t<I>> &&
             std::same_as<typename std::remove_cvref_t<I>::key_type,
                          uint64_t> &&
             (!std::same_as<std::remove_cvref_t<I>,
                            AnyConcurrentWritableIndex>)
  explicit AnyConcurrentWritableIndex(I&& impl)
      : AnyWritableRangeIndex(
            std::make_unique<Holder<std::remove_cvref_t<I>>>(
                std::forward<I>(impl))) {}

  AnyConcurrentWritableIndex(AnyConcurrentWritableIndex&&) noexcept =
      default;
  AnyConcurrentWritableIndex& operator=(
      AnyConcurrentWritableIndex&&) noexcept = default;

  using AnyWritableRangeIndex::empty;
  using AnyWritableRangeIndex::Insert;
  using AnyWritableRangeIndex::Erase;
  using AnyWritableRangeIndex::Contains;
  using AnyWritableRangeIndex::Lookup;
  using AnyWritableRangeIndex::LowerBound;
  using AnyWritableRangeIndex::ApproxPos;
  using AnyWritableRangeIndex::LookupBatch;
  using AnyWritableRangeIndex::Scan;
  using AnyWritableRangeIndex::Merge;
  using AnyWritableRangeIndex::size;
  using AnyWritableRangeIndex::SizeBytes;
  using AnyWritableRangeIndex::Stats;

  void RequestMerge() {
    if (impl_ != nullptr) concurrent().RequestMerge();
  }
  void WaitForMerges() {
    if (impl_ != nullptr) concurrent().WaitForMerges();
  }
  ConcurrentIndexStats ConcurrentStats() const {
    return impl_ ? concurrent().ConcurrentStats() : ConcurrentIndexStats{};
  }

 private:
  struct ConcurrentIface : Iface {
    virtual void RequestMerge() = 0;
    virtual void WaitForMerges() = 0;
    virtual ConcurrentIndexStats ConcurrentStats() const = 0;
  };

  template <typename I>
  struct Holder final : Forwarder<I, ConcurrentIface> {
    using Forwarder<I, ConcurrentIface>::Forwarder;

    void RequestMerge() override { this->impl.RequestMerge(); }
    void WaitForMerges() override { this->impl.WaitForMerges(); }
    ConcurrentIndexStats ConcurrentStats() const override {
      return this->impl.ConcurrentStats();
    }
  };

  // Only the constructor above fills impl_, always with a Holder, and the
  // private base keeps any other Iface out of it.
  ConcurrentIface& concurrent() const {
    return static_cast<ConcurrentIface&>(*impl_);
  }
};

}  // namespace li::index

#endif  // LI_INDEX_CONCURRENT_WRITABLE_INDEX_H_
