// Durability contract for writable index classes, layered on top of the
// snapshot contract (snapshottable.h): a DurableIndex can attach a
// write-ahead log so every acknowledged Insert/Erase survives a crash,
// and can reconstruct itself from snapshot + log replay.
//
// Lifecycle (docs/DURABILITY.md has the full state machine):
//
//   Build(...)                 — in-memory, not durable
//   EnableDurability(cfg)      — fresh log; subsequent writes are
//                                log-then-apply (append acknowledged
//                                before the in-memory mutation is
//                                visible to the caller)
//   WriteSnapshot(path)        — publishes the covered LSN inside the
//                                snapshot and truncates the log behind it
//   OpenSnapshot(path) +
//   RecoverFromWal(cfg)        — replay records past the snapshot's
//                                covered LSN, then resume logging
//
// The concept is satisfied by DeltaRangeIndex and
// ConcurrentWritableIndex. ShardedIndex does not satisfy it; instead it
// requires it of every shard (concurrent::Shardable) and routes
// per-shard logs through it behind a directory-based variant
// (EnableDurability on a directory, RecoverDurable instead of
// OpenSnapshot).

#ifndef LI_INDEX_DURABLE_INDEX_H_
#define LI_INDEX_DURABLE_INDEX_H_

#include <concepts>

#include "common/status.h"
#include "wal/wal.h"

namespace li::index {

template <typename I>
concept DurableIndex = requires(I& idx, const I& cidx,
                                const wal::DurabilityConfig& cfg) {
  { idx.EnableDurability(cfg) } -> std::same_as<Status>;
  { idx.RecoverFromWal(cfg) } -> std::same_as<Status>;
  { cidx.durable() } -> std::convertible_to<bool>;
  { cidx.wal_status() } -> std::convertible_to<Status>;
  { cidx.DurabilityStats() } -> std::convertible_to<wal::WalStats>;
};

}  // namespace li::index

#endif  // LI_INDEX_DURABLE_INDEX_H_
