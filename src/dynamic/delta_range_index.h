// DeltaRangeIndex<Base> — the writable-index subsystem's core (Appendix
// D.1): an immutable learned (or classic) base index over a sorted key
// array, plus a DeltaBuffer of unmerged writes, behind the library-wide
// WritableRangeIndex contract.
//
//  * Reads serve from base + delta: every read takes the base rank first
//    (one model lookup) and seeks the delta from it — the consolidated
//    run through its base fence, the small active run by binary search.
//    Lookup stays exact lower_bound over the live key set (base rank +
//    delta rank adjustment); Contains answers from the delta entry at the
//    key (newest write wins), else from base membership at the rank; Scan
//    merges the two sorted views, applying tombstones.
//  * Writes go to the delta only. Each write resolves the key's base
//    membership once (the same base lookup) and freezes it in the entry,
//    which is what keeps the rank arithmetic exact until the next merge.
//  * Merge() folds the delta into a fresh sorted array, builds a fresh
//    base over it and swaps both in only when that build succeeds — the
//    same build-then-swap ConcurrentWritableIndex's merge runs. Pluggable
//    policies (merge_policy.h) decide when writes trigger this
//    automatically.
//
// Base can be any RangeIndex over uint64_t keys — the same genericity
// seam the rest of the library builds on — so a learned RMI, a read-only
// B-Tree or a lookup table all become writable by wrapping.
//
// Durability (index::DurableIndex; docs/DURABILITY.md): with
// EnableDurability attached, every Insert/Erase appends a CRC-framed
// record to a write-ahead log *before* touching the delta, WriteSnapshot
// publishes the covered LSN and truncates the log behind it, and
// OpenSnapshot + RecoverFromWal replays the tail so a crashed writer
// resumes at its last acknowledged write instead of the last snapshot.

#ifndef LI_DYNAMIC_DELTA_RANGE_INDEX_H_
#define LI_DYNAMIC_DELTA_RANGE_INDEX_H_

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "dynamic/delta_buffer.h"
#include "dynamic/delta_snapshot.h"
#include "dynamic/merge_policy.h"
#include "index/approx.h"
#include "index/range_index.h"
#include "index/snapshottable.h"
#include "index/writable_range_index.h"
#include "snapshot/snapshot.h"
#include "wal/index_wal.h"
#include "wal/wal.h"

namespace li::dynamic {

template <index::RangeIndex Base>
  requires std::same_as<typename Base::key_type, uint64_t>
class DeltaRangeIndex {
 public:
  using key_type = typename Base::key_type;
  using base_config_type = typename Base::config_type;

  struct Config {
    base_config_type base{};
    MergePolicy policy{};
    /// Active-run capacity of the delta buffer: larger absorbs write
    /// bursts cheaper, smaller keeps consolidation latency lower. Raised
    /// to 2; Build rejects more than 2^20 (dynamic::CheckCfg).
    size_t active_cap = 256;
  };
  using config_type = Config;

  DeltaRangeIndex() = default;
  // The base holds a span into base_keys_; copying would alias the source's
  // storage, moving keeps the heap buffer (and the span) stable.
  DeltaRangeIndex(const DeltaRangeIndex&) = delete;
  DeltaRangeIndex& operator=(const DeltaRangeIndex&) = delete;
  DeltaRangeIndex(DeltaRangeIndex&&) noexcept = default;
  DeltaRangeIndex& operator=(DeltaRangeIndex&&) noexcept = default;

  /// Builds the immutable base over `keys` (sorted, strictly increasing;
  /// copied — unlike raw bases, the wrapper owns its data because merges
  /// replace it) and starts with an empty delta.
  Status Build(std::span<const key_type> keys, const Config& config) {
    const size_t active_cap = std::max<size_t>(config.active_cap, 2);
    LI_RETURN_IF_ERROR(CheckCfg(DeltaSnapshotCfg{config.policy, active_cap}));
    config_ = config;
    config_.active_cap = active_cap;
    base_keys_.assign(keys.begin(), keys.end());
    delta_ = DeltaBuffer<key_type>(active_cap);
    stats_ = {};
    wal_ = wal::IndexWal();
    return base_.Build(std::span<const key_type>(base_keys_), config.base);
  }

  // ---- RangeIndex: reads over the live key set ----

  /// lower_bound rank over the live keys: #live keys < `key`.
  size_t Lookup(const key_type& key) const {
    ++stats_.lookups;
    return RawLookup(key);
  }

  size_t LowerBound(const key_type& key) const { return Lookup(key); }

  index::Approx ApproxPos(const key_type& key) const {
    return index::Approx::Exact(RawLookup(key), size());
  }

  /// Batched rank lookups: routes the base part through the base's native
  /// batch path (the RMI software pipeline), then applies the delta rank
  /// adjustment per key — so with an empty delta this runs at base batch
  /// throughput.
  void LookupBatch(std::span<const key_type> keys,
                   std::span<size_t> out) const {
    index::LookupBatch(base_, keys, out);
    const size_t n = std::min(keys.size(), out.size());
    stats_.lookups += n;
    if (delta_.empty()) return;
    for (size_t i = 0; i < n; ++i) {
      out[i] = static_cast<size_t>(
          static_cast<int64_t>(out[i]) +
          delta_.RankAdjustBelow(delta_.Seek(keys[i], out[i])));
    }
  }

  /// Base overhead + delta memory. The delta counts in full: it is the
  /// price of writability, unlike the base data array which stays
  /// excluded per the library's index-overhead accounting.
  size_t SizeBytes() const { return base_.SizeBytes() + delta_.SizeBytes(); }

  // ---- WritableRangeIndex: the write path ----

  /// Buffers an insert; true iff `key` was not live before. With
  /// durability on, the WAL append happens first (log-then-apply).
  bool Insert(const key_type& key) { return !Write(key, false); }

  /// Buffers an erase (tombstone); true iff `key` was live before.
  bool Erase(const key_type& key) { return Write(key, true); }

  /// Membership over the live key set; the delta answers first.
  bool Contains(const key_type& key) const {
    ++stats_.lookups;
    ++stats_.contains;
    const size_t bi = base_.Lookup(key);
    if (const auto e = delta_.Find(key, bi)) {
      ++stats_.delta_hits;
      return !e->tombstone;
    }
    return BaseHolds(base_keys(), bi, key);
  }

  /// Up to `limit` live keys >= `from`, ascending: a three-way merge of
  /// the base array and the two delta runs, tombstones dropped, delta
  /// entries shadowing equal base keys (LiveKeys: one model lookup,
  /// O(limit) merge work, exactly one allocation).
  std::vector<key_type> Scan(const key_type& from, size_t limit) const {
    if (limit == 0) return {};
    return LiveKeys(std::span<const key_type>(base_keys_), delta_,
                    base_.Lookup(from), &from, limit);
  }

  /// Live key count: base keys + net delta contribution.
  size_t size() const {
    return static_cast<size_t>(static_cast<int64_t>(base_keys_.size()) +
                               delta_.LiveAdjustTotal());
  }

  /// The Appendix-D.1 cycle: fold the delta into a fresh sorted base
  /// array, retrain the base, clear the delta. On failure the previous
  /// base and delta are left intact (the index stays consistent).
  Status Merge() {
    if (delta_.empty()) return Status::OK();
    Timer timer;
    std::vector<key_type> merged = MergedLiveKeys();
    Base fresh;
    LI_RETURN_IF_ERROR(
        fresh.Build(std::span<const key_type>(merged), config_.base));
    base_keys_ = std::move(merged);  // heap buffer (and span) unmoved
    base_ = std::move(fresh);
    stats_.merged_keys += base_keys_.size();
    ++stats_.merges;
    stats_.last_merge_ns = timer.ElapsedNanos();
    stats_.total_merge_ns += stats_.last_merge_ns;
    delta_.Clear();
    return Status::OK();
  }

  index::WritableIndexStats Stats() const {
    index::WritableIndexStats s = stats_;
    s.delta_entries = delta_.entry_count();
    s.delta_bytes = delta_.SizeBytes();
    s.base_keys = base_keys_.size();
    return s;
  }

  const Base& base() const { return base_; }
  std::span<const key_type> base_keys() const { return base_keys_; }
  size_t delta_entries() const { return delta_.entry_count(); }
  const Config& config() const { return config_; }

  // ---- Persistence (index::Snapshottable; docs/PERSISTENCE.md) ----
  // The delta snapshot layout (dynamic/delta_snapshot.h): the owned base
  // key array persisted once (the base model loads against the reopened
  // copy — no retraining) plus the delta, checked against those keys on
  // open. The key array is *copied* rather than mapped: merges replace
  // it, so the wrapper stays writable after restart.

  /// Snapshot support needs a base that can persist its model against a
  /// caller-owned key span (the RMI family).
  static constexpr bool kSnapshotCapable = index::DataSpanSnapshottable<Base>;

  Status WriteSections(snapshot::SnapshotWriter& writer,
                       const std::string& prefix) const {
    if constexpr (!kSnapshotCapable) {
      return Status::Unimplemented(
          "DeltaRangeIndex snapshots need a flat key type and a "
          "section-snapshottable base");
    } else {
      std::vector<DeltaEntry<key_type>> delta;
      delta.reserve(delta_.entry_count());
      delta_.VisitAll([&](const DeltaEntry<key_type>& e) {
        delta.push_back(e);
        return true;
      });
      // Publish the durability watermark: this snapshot reflects every
      // WAL record so far, so recovery replays only what comes after, and
      // WriteSnapshot truncates behind it.
      return WriteDeltaSections(
          writer, prefix, DeltaSnapshotCfg{config_.policy, config_.active_cap},
          wal_.CaptureCovered(), std::span<const key_type>(base_keys_), base_,
          std::span<const DeltaEntry<key_type>>(delta));
    }
  }

  Status LoadSections(const snapshot::SnapshotReader& reader,
                      const std::string& prefix) {
    if constexpr (!kSnapshotCapable) {
      return Status::Unimplemented(
          "DeltaRangeIndex snapshots need a flat key type and a "
          "section-snapshottable base");
    } else {
      DeltaSnapshotCfg cfg;
      std::vector<DeltaEntry<key_type>> entries;
      LI_RETURN_IF_ERROR(ReadDeltaSections(reader, prefix, &cfg, &base_keys_,
                                           &base_, &entries, &wal_));
      config_.policy = cfg.policy;
      config_.active_cap = cfg.cap;
      if constexpr (requires {
                      {
                        base_.config()
                      } -> std::convertible_to<base_config_type>;
                    }) {
        config_.base = base_.config();
      }
      delta_ = DeltaBuffer<key_type>::FromSortedEntries(
          std::span<const DeltaEntry<key_type>>(entries), base_keys(),
          config_.active_cap);
      stats_ = {};
      last_auto_merge_status_ = Status::OK();
      return Status::OK();
    }
  }

  Status WriteSnapshot(const std::string& path) const {
    LI_RETURN_IF_ERROR(index::WriteSnapshotViaSections(*this, path));
    // The snapshot file is published (fsync + rename): truncate the log
    // behind the watermark it covers.
    return wal_.TruncateAfterPublish();
  }

  static Result<DeltaRangeIndex> OpenSnapshot(
      const std::string& path, const snapshot::OpenOptions& opts = {}) {
    return index::OpenSnapshotViaSections<DeltaRangeIndex>(path, opts);
  }

  /// Outcome of the most recent policy-triggered merge. Insert/Erase keep
  /// their boolean liveness contract, so a failed auto-merge (possible
  /// only with bases whose Build can fail) surfaces here; the
  /// index itself stays consistent either way (Merge is transactional).
  const Status& last_auto_merge_status() const {
    return last_auto_merge_status_;
  }

  // ---- Durability (index::DurableIndex; docs/DURABILITY.md) ----

  /// Attach a fresh write-ahead log at cfg.path. Every subsequent
  /// Insert/Erase appends before applying. Call right after Build (or
  /// after a snapshot): writes made before enabling are only recoverable
  /// through a snapshot that contains them.
  Status EnableDurability(const wal::DurabilityConfig& cfg) {
    return wal_.Enable(cfg, sizeof(key_type));
  }

  /// Replay the log at cfg.path on top of the current state (fresh Build
  /// or OpenSnapshot), applying records past the snapshot's covered LSN,
  /// then resume logging to the same file. A torn tail is truncated; a
  /// missing file starts a fresh log. Gap detection: a log whose records
  /// begin after the snapshot watermark is rejected.
  Status RecoverFromWal(const wal::DurabilityConfig& cfg) {
    return wal_.Recover(cfg, sizeof(key_type),
                        [&](wal::WalRecordType type, const void* payload) {
                          key_type k;
                          std::memcpy(&k, payload, sizeof(k));
                          if (type == wal::WalRecordType::kInsert) {
                            Insert(k);
                          } else {
                            Erase(k);
                          }
                        });
  }

  bool durable() const { return wal_.attached(); }

  /// Sticky status of the logging path: an append failure poisons the
  /// log (the in-memory index keeps serving, but durability is lost
  /// until re-enabled), and callers that need ack-implies-durable check
  /// this after writes.
  const Status& wal_status() const { return wal_.status(); }

  wal::WalStats DurabilityStats() const { return wal_.stats(); }

  /// Flush the group-commit window now (e.g. before a clean shutdown).
  Status SyncWal() { return wal_.Sync(); }

 private:
  /// Buffers one write; returns whether `key` was live before it.
  bool Write(const key_type& key, bool tombstone) {
    wal_.Append(tombstone ? wal::WalRecordType::kErase
                          : wal::WalRecordType::kInsert,
                &key, sizeof(key));
    ++(tombstone ? stats_.erases : stats_.inserts);
    const size_t bi = base_.Lookup(key);
    const auto at = delta_.Seek(key, bi);
    const auto prev = delta_.At(at, key);
    const bool in_base =
        prev ? prev->in_base : BaseHolds(base_keys(), bi, key);
    const bool was_live = prev ? !prev->tombstone : in_base;
    delta_.Upsert(at, key, tombstone, in_base, base_keys());
    MaybeMerge();
    return was_live;
  }

  size_t RawLookup(const key_type& key) const {
    const size_t bi = base_.Lookup(key);
    const int64_t rank =
        static_cast<int64_t>(bi) +
        (delta_.empty() ? 0 : delta_.RankAdjustBelow(delta_.Seek(key, bi)));
    return static_cast<size_t>(rank);
  }

  void MaybeMerge() {
    if (ShouldMerge(config_.policy, delta_.entry_count(), base_keys_.size())) {
      last_auto_merge_status_ = Merge();
    }
  }

  /// The merged live key set: base keys + delta inserts - tombstones.
  std::vector<key_type> MergedLiveKeys() const {
    return MergeLiveKeys(std::span<const key_type>(base_keys_), delta_);
  }

  Config config_{};
  std::vector<key_type> base_keys_;  // the immutable base's data, owned
  Base base_{};
  DeltaBuffer<key_type> delta_{};
  mutable index::WritableIndexStats stats_{};
  Status last_auto_merge_status_{};
  // mutable: the const snapshot path stashes the covered LSN and
  // truncates the log after publish.
  mutable wal::IndexWal wal_;
};

}  // namespace li::dynamic

#endif  // LI_DYNAMIC_DELTA_RANGE_INDEX_H_
