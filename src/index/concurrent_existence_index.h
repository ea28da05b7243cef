// The library-wide lookup contract, part 7: concurrent insertable
// existence indexes.
//
// A `ConcurrentExistenceIndex` is an ExistenceIndex (part 4) that accepts
// inserts after construction while readers keep probing lock-free: new
// keys land in a side set that is immediately visible to MightContain,
// and a background worker folds the side set into a freshly rebuilt
// filter at a staleness threshold, hot-swapping it through the same epoch
// publish protocol the concurrent range and point classes use.
//
// Thread-safety guarantees every implementation must provide:
//   * MightContain / num_keys / SizeBytes / MeasuredFpr /
//     ConcurrentStats: callable concurrently from any number of threads,
//     lock-free on the read path.
//   * Insert: callable concurrently from any number of threads; writers
//     may serialize against each other but never against readers.
//   * RequestRebuild(): asynchronous fold trigger — never blocks;
//     coalesces with an already-pending request.
//   * WaitForRebuilds(): blocks until no rebuild is pending or running.
//
// Safety property under concurrency: the §5 no-false-negative guarantee
// extends to inserted keys — once Insert(k) returns, every subsequent
// MightContain(k) returns true, on any thread, through any number of
// background rebuilds. Insert returns true iff the key was not already
// an exact member (filter corpus or side set); the side set is exact, so
// num_keys() counts distinct inserted keys, not filter positives.
//
// The concept has no type-erased handle: its one implementation,
// concurrent::RebuildableExistence<Base>, is held concretely wherever it
// is used, and the conformance suite static_asserts the concept on it.

#ifndef LI_INDEX_CONCURRENT_EXISTENCE_INDEX_H_
#define LI_INDEX_CONCURRENT_EXISTENCE_INDEX_H_

#include <concepts>
#include <cstddef>
#include <string_view>

#include "index/concurrent_writable_index.h"
#include "index/existence_index.h"

namespace li::index {

/// An ExistenceIndex safe under concurrent readers and inserters (see
/// the header comment for the exact guarantees), with a staleness-driven
/// background rebuild and the shared concurrency gauges.
template <typename F>
concept ConcurrentExistenceIndex =
    ExistenceIndex<F> &&
    requires(F& mut, const F& idx, std::string_view key) {
      { mut.Insert(key) } -> std::same_as<bool>;
      { idx.num_keys() } -> std::same_as<size_t>;
      { idx.ConcurrentStats() } -> std::same_as<ConcurrentIndexStats>;
      { mut.RequestRebuild() } -> std::same_as<void>;
      { mut.WaitForRebuilds() } -> std::same_as<void>;
    };

}  // namespace li::index

#endif  // LI_INDEX_CONCURRENT_EXISTENCE_INDEX_H_
