// The library-wide lookup contract, part 6: concurrent writable point
// indexes.
//
// A `ConcurrentWritablePointIndex` is the point-class analogue of
// ConcurrentWritableRangeIndex (part 5): a hashed single-key structure
// whose reads are epoch-pinned and lock-free, whose writers serialize on
// one mutex, and whose resize/rehash runs on a background worker that
// builds the replacement table off to the side, publishes it with an
// atomic swap, and retires the old one to the epoch manager.
//
// The read surface deliberately differs from the static PointIndex in one
// way: `Find` copies the record out instead of returning a pointer.
// A `const hash::Record*` into a published version is only valid while
// that version is pinned; handing it across the call boundary would dangle
// as soon as a background rebuild retires the version. Value-semantics
// reads keep the contract race-free by construction.
//
// Thread-safety guarantees every implementation must provide:
//   * Find / FindBatch / num_records / SizeBytes / Stats /
//     ConcurrentStats: callable concurrently from any number of threads,
//     lock-free on the read path (no mutex, no wait on an in-flight write
//     or rebuild).
//   * Insert / Upsert / Erase: callable concurrently from any number of
//     threads; writers may serialize against each other but never against
//     readers.
//   * RequestRebuild(): asynchronous rehash/resize trigger — never
//     blocks; coalesces with an already-pending request.
//   * WaitForRebuilds(): blocks until no rebuild is pending or running
//     (the quiesce point tests and benches use).
//
// Write semantics (first-wins Build + last-write-wins mutation):
//   Insert(rec)  -> true iff rec.key was absent; an existing record is
//                   NOT overwritten (matching Build's first-wins dedup).
//   Upsert(rec)  -> stores rec unconditionally; true iff the key was
//                   absent (i.e. the live count grew).
//   Erase(key)   -> true iff the key was present.
//
// Linearizability contract: identical to the range side — every op
// observes some prefix of the write history (the write-log publication
// point is the serialization point). At any externally quiesced moment
// reads are exact: Find returns the newest stored record per key,
// num_records() the exact live count.
//
// The concept has no type-erased handle: its one implementation,
// concurrent::ConcurrentPointIndex<Base> (over the chained, in-place and
// cuckoo maps), is held concretely wherever it is used, and the
// conformance suite static_asserts the concept on each instantiation.

#ifndef LI_INDEX_CONCURRENT_POINT_INDEX_H_
#define LI_INDEX_CONCURRENT_POINT_INDEX_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/status.h"
#include "hash/record.h"
#include "index/concurrent_writable_index.h"
#include "index/point_index.h"

namespace li::index {

/// A point index safe under concurrent readers and writers (see the
/// header comment for the exact guarantees), with copy-out reads, an
/// asynchronous rehash trigger, a quiesce point, and the same
/// contention/lifecycle gauges as the concurrent range class.
template <typename I>
concept ConcurrentWritablePointIndex =
    std::movable<I> &&
    requires(I& mut, const I& idx, std::span<const hash::Record> records,
             const typename I::config_type& config, uint64_t key,
             const hash::Record& rec, hash::Record* out,
             std::span<const uint64_t> keys, std::span<hash::Record> recs,
             std::span<uint8_t> found) {
      typename I::config_type;
      { mut.Build(records, config) } -> std::same_as<Status>;
      { idx.Find(key, out) } -> std::same_as<bool>;
      { idx.FindBatch(keys, recs, found) } -> std::same_as<void>;
      { mut.Insert(rec) } -> std::same_as<bool>;
      { mut.Upsert(rec) } -> std::same_as<bool>;
      { mut.Erase(key) } -> std::same_as<bool>;
      { idx.num_records() } -> std::same_as<size_t>;
      { idx.SizeBytes() } -> std::same_as<size_t>;
      { idx.Stats() } -> std::same_as<PointIndexStats>;
      { idx.ConcurrentStats() } -> std::same_as<ConcurrentIndexStats>;
      { mut.RequestRebuild() } -> std::same_as<void>;
      { mut.WaitForRebuilds() } -> std::same_as<void>;
    };

}  // namespace li::index

#endif  // LI_INDEX_CONCURRENT_POINT_INDEX_H_
