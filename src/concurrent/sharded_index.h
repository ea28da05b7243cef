// ShardedIndex<Inner> — a range-partitioned front-end over N inner
// writable indexes, the write-scaling layer of the concurrent subsystem.
//
// A single ConcurrentWritableIndex serializes writers on one mutex; its
// WriterContentionRate() is the gauge that says when that front-end is
// saturated. ShardedIndex splits the key space into contiguous ranges
// and gives each its own inner index (own writer lock, own write log, own
// background merge worker), so writers to different shards never touch
// the same lock and write throughput scales with shards until memory
// bandwidth takes over.
//
// Routing goes through an immutable, epoch-versioned *ShardMap* — the
// boundaries plus shared-ownership handles to the shard slots. Readers
// and writers pin an epoch, load the current map with one atomic load,
// and route; nobody ever locks the routing table. Initial boundaries are
// cut from a CDF sample of the build keys (equal-mass quantiles, so a
// skewed build set still yields equal-count shards).
//
// Boundaries are no longer fixed at Build: a background *rebalance
// worker* splits overloaded shards and coalesces undersized neighbors
// online, publishing each change as a new ShardMap version and retiring
// the old one to the epoch manager — readers never block on a rebalance.
// The map cell and the worker are the shared core of every concurrent
// wrapper (concurrent/versioned.h). The shard lifecycle, the
// seal/catch-up/cutover protocol and tuning guidance are documented in
// docs/SHARDING.md.
//
// The inner index must be Shardable (below): a concurrent, durable,
// snapshottable front-end. The contract is the same
// ConcurrentWritableRangeIndex as the inner index: point ops route to
// one shard; Lookup adds the live sizes of the shards left of the
// target; LookupBatch groups the batch by shard and dispatches each
// group to the shard's native batch path (recovering the RMI
// software-pipeline win under sharding); Scan stitches shard scans left
// to right; Merge/RequestMerge fan out (RequestMerge triggers all shard
// workers *in parallel*).

#ifndef LI_CONCURRENT_SHARDED_INDEX_H_
#define LI_CONCURRENT_SHARDED_INDEX_H_

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "concurrent/versioned.h"
#include "index/approx.h"
#include "index/concurrent_writable_index.h"
#include "index/durable_index.h"
#include "index/range_index.h"
#include "index/snapshottable.h"
#include "index/writable_range_index.h"
#include "simd/dispatch.h"
#include "snapshot/snapshot.h"
#include "wal/wal.h"

namespace li::concurrent {

/// What a shard must be. A concurrent front-end: writers to one shard
/// run in parallel under its shared cutover lock, and online
/// rebalancing scans a shard while writers stream into it. Durable and
/// snapshottable, to its own file and into the parent's sections: each
/// shard owns an s<uid>.snap + s<uid>.wal pair beneath the durability
/// directory, and a sharded snapshot nests every shard under "s<i>/".
/// Its config() seeds the shards a split or coalesce builds after a
/// reopen. ConcurrentWritableIndex over an RMI qualifies; the
/// single-threaded DeltaRangeIndex does not.
template <typename I>
concept Shardable =
    index::ConcurrentWritableRangeIndex<I> && index::DurableIndex<I> &&
    index::Snapshottable<I> && index::SectionSnapshottable<I> &&
    I::kSnapshotCapable &&
    requires(const I& idx) {
      { idx.config() } -> std::convertible_to<typename I::config_type>;
    };

/// Knobs for the online shard split/coalesce machinery. All mass terms
/// are live key counts (base + delta + log) as reported by the inner
/// index's size().
struct ShardRebalanceConfig {
  /// Auto-trigger: writers sample shard masses every `check_stride`
  /// writes and request a rebalance when a condition below holds. With
  /// `enabled == false` the worker only acts on explicit
  /// RequestRebalance() calls, and boundaries stay fixed under a purely
  /// read/write workload — the pre-rebalance behavior.
  bool enabled = false;
  /// Split a shard when its mass exceeds `max_imbalance` x the mean
  /// shard mass (and `min_split_keys`). The post-rebalance invariant the
  /// worker converges to: max/mean <= max_imbalance. Values in [1.5, 4]
  /// are the useful range (see docs/SHARDING.md); Build clamps to
  /// >= 1.1 (at or below 1, any non-uniform mass would split — rebuild
  /// churn up to the kMaxShards cap).
  double max_imbalance = 2.0;
  /// Never split a shard below this mass, whatever the imbalance says —
  /// tiny shards cost routing fan-out without relieving any contention.
  size_t min_split_keys = 1024;
  /// Writer-side monitor cadence: one O(#shards) mass scan per this many
  /// writes (across all shards).
  size_t check_stride = 1024;
};

/// Keys sampled from the build set to estimate the CDF the initial shard
/// boundaries are cut from: the sample's equal-mass quantiles balance
/// shards under skew, and a few thousand points pin every boundary to
/// within a fraction of a percent of mass.
inline constexpr size_t kShardCdfSample = 8192;
/// Coalesce an adjacent shard pair when their combined mass is below this
/// fraction of the mean: the merged shard stays under the mean, so a
/// coalesce never creates the next hotspot. Held below 0.45 x
/// max_imbalance, or a freshly split pair would re-coalesce (oscillation).
inline constexpr double kShardCoalesceFraction = 0.5;
/// Hard cap on the shard count (runaway-split backstop).
inline constexpr size_t kMaxShards = 64;
/// Split/coalesce actions per rebalance-worker cycle; the worker re-arms
/// itself when the conditions still fire at the cap.
inline constexpr size_t kMaxRebalanceActionsPerCycle = 8;

template <Shardable Inner>
  requires std::same_as<typename Inner::key_type, uint64_t>
class ShardedIndex {
 public:
  using key_type = typename Inner::key_type;
  using inner_config_type = typename Inner::config_type;

  struct Config {
    inner_config_type inner{};
    /// Initial shard count; boundaries are cut at equal-mass quantiles of
    /// a kShardCdfSample-key sample of the build set.
    size_t num_shards = 8;
    /// Online split/coalesce knobs.
    ShardRebalanceConfig rebalance{};
  };
  using config_type = Config;

  ShardedIndex() = default;
  ShardedIndex(ShardedIndex&&) noexcept = default;
  ShardedIndex& operator=(ShardedIndex&&) noexcept = default;

  /// Builds `num_shards` inner indexes over equal-mass key ranges and
  /// starts the background rebalance worker.
  ///
  /// Semantics: `keys` sorted, strictly increasing; each shard copies
  /// its slice. Complexity: O(n) slicing + num_shards inner builds.
  /// Thread-safety: not safe against any other method — build-then-share,
  /// the library-wide discipline. On failure the handle reverts to the
  /// never-built state (reads answer empty, writes return false).
  Status Build(std::span<const key_type> keys, const Config& config) {
    impl_ = std::make_unique<Impl>();
    const Status st = impl_->Build(keys, config);
    if (!st.ok()) impl_.reset();
    return st;
  }

  // ---- reads: lock-free, safe from any thread ----

  /// lower_bound rank over the whole live key set: live sizes of the
  /// shards left of the route target plus the target's local rank.
  /// Complexity: O(log #shards) route + O(#shards) size loads + one
  /// inner lookup. Exact when quiesced; at most one in-flight write
  /// behind otherwise (the inner index's linearizability contract).
  size_t Lookup(const key_type& key) const {
    return impl_ ? impl_->Lookup(key) : 0;
  }
  size_t LowerBound(const key_type& key) const { return Lookup(key); }
  index::Approx ApproxPos(const key_type& key) const {
    return impl_ ? impl_->ApproxPos(key) : index::Approx{};
  }

  /// Shard-grouped batch lookup: the batch is partitioned by the pinned
  /// ShardMap (one map version serves the whole call), each group is
  /// dispatched to its shard's native LookupBatch — the RMI software
  /// pipeline runs per shard — and results scatter back in caller order
  /// with the left-shard size prefix added. Complexity: O(n log #shards)
  /// routing + grouped inner batch lookups; the size prefix is paid once
  /// per call, not per key. Thread-safety: lock-free, as Lookup.
  void LookupBatch(std::span<const key_type> keys,
                   std::span<size_t> out) const {
    if (impl_ != nullptr) {
      impl_->LookupBatch(keys, out);
    } else {
      for (size_t i = 0; i < out.size(); ++i) out[i] = 0;
    }
  }

  /// Membership over the live set; routes to one shard. Lock-free.
  bool Contains(const key_type& key) const {
    return impl_ != nullptr && impl_->Contains(key);
  }

  /// Live keys >= `from`, stitched across shards left to right under one
  /// pinned ShardMap. Lock-free; O(log) seek + O(limit) merge.
  std::vector<key_type> Scan(const key_type& from, size_t limit) const {
    return impl_ ? impl_->Scan(from, limit) : std::vector<key_type>{};
  }

  /// Live key count: sum of the pinned map's shard sizes. O(#shards)
  /// relaxed loads; exact when quiesced.
  size_t size() const { return impl_ ? impl_->size() : 0; }
  size_t SizeBytes() const { return impl_ ? impl_->SizeBytes() : 0; }

  // ---- writes: safe from any thread ----

  /// Routes to one shard through the pinned map and revalidates the slot
  /// under its cutover lock (a write that raced a split/coalesce publish
  /// retries on the fresh map — see docs/SHARDING.md). Writers to
  /// *different* shards never share a lock; while a shard is sealed for
  /// rebalancing its writers additionally serialize on the catch-up
  /// log. Returns true iff the key's liveness changed.
  bool Insert(const key_type& key) {
    return impl_ != nullptr && impl_->Write(key, /*tombstone=*/false);
  }
  bool Erase(const key_type& key) {
    return impl_ != nullptr && impl_->Write(key, /*tombstone=*/true);
  }

  // ---- merge control ----

  /// Synchronous: all shard merges are requested first so they overlap,
  /// then drained. First failure wins, every shard still runs (each
  /// shard stays individually consistent either way). Blocks the caller
  /// only; readers stay lock-free.
  Status Merge() {
    return impl_ ? impl_->Merge()
                 : Status::FailedPrecondition("ShardedIndex: not built");
  }

  /// Asynchronous merge trigger fanned out to every shard in parallel;
  /// coalesces with pending requests per shard. Never blocks.
  void RequestMerge() {
    if (impl_ != nullptr) impl_->RequestMerge();
  }

  /// Blocks until no shard merge is pending or running. For a full
  /// quiesce under rebalancing, call WaitForRebalances() first (a split
  /// publishes fresh shards whose merges this call then covers).
  void WaitForMerges() {
    if (impl_ != nullptr) impl_->WaitForMerges();
  }

  // ---- rebalance control ----

  /// Asynchronous rebalance trigger: wakes the worker, which splits and
  /// coalesces until the imbalance conditions clear or an action can
  /// make no progress (the worker re-arms itself past the per-cycle
  /// action cap). Never blocks; coalesces with a pending request.
  void RequestRebalance() {
    if (impl_ != nullptr) impl_->RequestRebalance();
  }

  /// Blocks until no rebalance cycle is pending or running — the quiesce
  /// point tests and snapshot readers use (then WaitForMerges()).
  void WaitForRebalances() {
    if (impl_ != nullptr) impl_->WaitForRebalances();
  }

  /// Outcome of the most recent rebalance cycle (OK before the first).
  Status last_rebalance_status() const {
    return impl_ ? impl_->worker_.last_status() : Status::OK();
  }

  // ---- Durability (per-shard WAL routing; docs/DURABILITY.md) ----
  //
  // Durable mode turns DurabilityConfig::path into a directory this
  // index owns:
  //
  //   MANIFEST      routing manifest (boundaries, shard uids) — every
  //                 rebalance cutover commits by atomically rewriting it
  //   s<uid>.snap   per-shard snapshot (the inner WriteSnapshot format)
  //   s<uid>.wal    per-shard write-ahead log
  //
  // A write routes to exactly one shard, so it appends to exactly one
  // log — per-shard group commit, no cross-shard sync ordering. A
  // split/coalesce gives the replacement shards fresh uids, snapshots
  // them, attaches fresh logs, and replays the sealed shard's catch-up
  // records through the durable write path (they land in the new
  // shards' logs like any other write — the same machinery), syncs,
  // and only then flips MANIFEST inside the cutover critical section.
  // The rename is the commit point: a crash on either side recovers a
  // consistent shard set with every acknowledged write.

  /// Attach per-shard logs beneath directory `cfg.path` (created if
  /// missing): checkpoints every shard, starts its log, writes the
  /// MANIFEST. Call quiesced (build-then-share, as Build); earlier
  /// writes are covered by the checkpoints taken here.
  Status EnableDurability(const wal::DurabilityConfig& cfg) {
    return impl_ ? impl_->EnableDurability(cfg)
                 : Status::FailedPrecondition("ShardedIndex: not built");
  }

  /// Durable-mode snapshot: re-checkpoints every shard (each inner
  /// WriteSnapshot truncates its log behind the published LSN) and
  /// rewrites the MANIFEST. Bounds recovery replay time.
  Status Checkpoint() {
    return impl_ ? impl_->Checkpoint()
                 : Status::FailedPrecondition("ShardedIndex: not built");
  }

  /// Rebuild a durable index from its directory: MANIFEST -> per-shard
  /// OpenSnapshot + RecoverFromWal, then resume logging. Orphan shard
  /// files from a crashed rebalance (never committed into MANIFEST) are
  /// removed.
  static Result<ShardedIndex> RecoverDurable(
      const wal::DurabilityConfig& cfg) {
    ShardedIndex out;
    out.impl_ = std::make_unique<Impl>();
    const Status st = out.impl_->RecoverDurable(cfg);
    if (!st.ok()) return st;
    return out;
  }

  bool durable() const { return impl_ != nullptr && impl_->durable(); }

  /// First non-OK sticky log status across shards (an append failure
  /// poisons that shard's log; the in-memory index keeps serving).
  Status wal_status() const {
    return impl_ ? impl_->wal_status() : Status::OK();
  }

  /// Aggregated per-shard log counters (sums; LSN fields are maxima —
  /// LSN streams are per shard).
  wal::WalStats DurabilityStats() const {
    return impl_ ? impl_->DurabilityStats() : wal::WalStats{};
  }

  /// Flush every shard's group-commit window now; first failure wins.
  Status SyncWal() { return impl_ ? impl_->SyncWal() : Status::OK(); }

  // ---- Persistence (index::Snapshottable; docs/PERSISTENCE.md) ----
  // One file holds the routing manifest (shard count, boundaries, knobs)
  // plus every shard's sections under "s<i>/". WriteSnapshot drains any
  // in-flight rebalance first so the captured map version is final, then
  // snapshots each shard through its own quiesce protocol — every shard
  // is individually exact; writes racing the capture on *other* shards
  // land in whichever shard section is written later (quiesce writers
  // for a globally exact cut). OpenSnapshot rebuilds the map and every
  // shard, and restarts the rebalance worker.

  Status WriteSections(snapshot::SnapshotWriter& writer,
                       const std::string& prefix) const {
    if (impl_ == nullptr) {
      return Status::FailedPrecondition("ShardedIndex: not built");
    }
    return impl_->WriteSections(writer, prefix);
  }

  Status LoadSections(const snapshot::SnapshotReader& reader,
                      const std::string& prefix) {
    impl_ = std::make_unique<Impl>();
    const Status st = impl_->LoadSections(reader, prefix);
    if (!st.ok()) impl_.reset();
    return st;
  }

  Status WriteSnapshot(const std::string& path) const {
    return index::WriteSnapshotViaSections(*this, path);
  }

  static Result<ShardedIndex> OpenSnapshot(
      const std::string& path, const snapshot::OpenOptions& opts = {}) {
    return index::OpenSnapshotViaSections<ShardedIndex>(path, opts);
  }

  // ---- stats ----

  index::WritableIndexStats Stats() const {
    return impl_ ? impl_->Stats() : index::WritableIndexStats{};
  }

  /// Aggregated inner gauges plus the sharded-level ones: shard count,
  /// split/coalesce counts, ShardMap versions published and the current
  /// max/mean mass imbalance. Per-op inner counters are per shard
  /// *lifetime*: a split/coalesce retires the old shard's counters with
  /// it (documented in docs/SHARDING.md).
  index::ConcurrentIndexStats ConcurrentStats() const {
    return impl_ ? impl_->ConcurrentStats() : index::ConcurrentIndexStats{};
  }

  size_t num_shards() const { return impl_ ? impl_->NumShards() : 0; }
  /// Copy of the current map's boundaries (num_shards - 1 split points).
  std::vector<key_type> boundaries() const {
    return impl_ ? impl_->Boundaries() : std::vector<key_type>{};
  }
  /// Per-shard live sizes — the balance gauge the rebalancer acts on.
  std::vector<size_t> ShardSizes() const {
    return impl_ ? impl_->ShardSizes() : std::vector<size_t>{};
  }
  /// max/mean live shard mass right now (1.0 when empty or unsharded).
  double CurrentImbalance() const {
    return impl_ ? impl_->CurrentImbalance() : 1.0;
  }

 private:
  /// One shard: the inner index plus the seal/cutover machinery the
  /// rebalancer uses to replace it without losing racing writes.
  /// `sealed`, `retired` and `catchup` are guarded by `cutover_mu`
  /// (writers shared, rebalancer exclusive); `catchup` appends
  /// additionally serialize on `catchup_mu` so the log order equals the
  /// inner index's writer-serialization order per key.
  struct Slot {
    Inner index;
    std::shared_mutex cutover_mu;
    std::mutex catchup_mu;
    bool sealed = false;   // dual-write every write into `catchup`
    bool retired = false;  // no longer routable; writers must retry
    std::vector<std::pair<key_type, bool>> catchup;  // (key, tombstone)
    /// Durable mode: names this shard's s<uid>.snap / s<uid>.wal pair.
    /// Uids are never reused — a rebalance gives replacement shards
    /// fresh ones, so the old and new file sets coexist until the
    /// MANIFEST flip picks the survivor.
    uint64_t uid = 0;
  };

  /// An immutable routing-table version. Slots are shared across map
  /// versions (a split replaces one slot and shares the rest), so a
  /// retired map's death only frees the shards no newer map references.
  struct ShardMap {
    std::vector<key_type> boundaries;  // slots.size() - 1 split points
    std::vector<std::shared_ptr<Slot>> slots;
  };

  /// The record of the snapshot "manifest" section and of MANIFEST's,
  /// 88 bytes with no padding. Five slots are retired: the CDF sample,
  /// the coalesce fraction, the shard cap, a snapshot-scan chunk size and
  /// the per-cycle action cap are constants. They are written as the
  /// values in effect, so older readers adopt the same behaviour, and
  /// ignored on open.
  struct ManifestRecord {
    uint64_t shard_count;
    uint64_t num_shards;
    uint64_t cdf_sample;  // retired
    uint8_t rebalance_enabled;
    uint8_t pad[7];  // zero
    double max_imbalance;
    double coalesce_fraction;  // retired
    uint64_t min_split_keys;
    uint64_t max_shards;  // retired
    uint64_t check_stride;
    uint64_t scan_chunk;             // retired
    uint64_t max_actions_per_cycle;  // retired
  };
  static_assert(sizeof(ManifestRecord) == 8 * sizeof(uint64_t) +
                                              2 * sizeof(double) +
                                              8 * sizeof(uint8_t),
                "no padding bytes: snapshots must be deterministic");
  static_assert(sizeof(ManifestRecord) == 88,
                "the manifest's on-disk size is part of the format");

  using Cell = VersionedCell<ShardMap>;

  /// The documented knob invariants, applied wherever knobs come in
  /// (Build, LoadSections, RecoverDurable — a corrupt or hand-edited
  /// manifest included): a zero stride would be a modulo by zero, and a
  /// factor at or below 1 would split on any non-uniform mass (rebuild
  /// churn to the kMaxShards cap).
  static ShardRebalanceConfig Clamped(ShardRebalanceConfig rc) {
    rc.check_stride = std::max<size_t>(rc.check_stride, 1);
    rc.max_imbalance = std::max(rc.max_imbalance, 1.1);
    return rc;
  }

  /// kShardCoalesceFraction held below 0.45 x the (clamped) factor.
  static double CoalesceFraction(const ShardRebalanceConfig& rc) {
    return std::min(kShardCoalesceFraction, rc.max_imbalance * 0.45);
  }

  struct Impl {
    Status Build(std::span<const key_type> keys, const Config& config) {
      config_ = config;
      config_.rebalance = Clamped(config.rebalance);
      const size_t shards = std::max<size_t>(config.num_shards, 1);
      auto map = std::make_unique<ShardMap>();
      // CDF sample: every stride-th key (the keys are the CDF's inverse).
      // Boundary i = the sample's (i+1)/shards quantile.
      std::vector<key_type> sample;
      if (!keys.empty() && shards > 1) {
        const size_t want =
            std::min(keys.size(), std::max<size_t>(kShardCdfSample, shards));
        sample.reserve(want);
        const double stride = static_cast<double>(keys.size()) /
                              static_cast<double>(want);
        for (size_t i = 0; i < want; ++i) {
          sample.push_back(keys[static_cast<size_t>(i * stride)]);
        }
        for (size_t i = 1; i < shards; ++i) {
          const key_type b = sample[i * sample.size() / shards];
          // Strictly increasing boundaries; duplicates would create an
          // empty shard and an ill-defined route.
          if (map->boundaries.empty() || map->boundaries.back() < b) {
            map->boundaries.push_back(b);
          }
        }
      }
      const size_t actual = map->boundaries.size() + 1;
      size_t begin = 0;
      for (size_t i = 0; i < actual; ++i) {
        const size_t end =
            i < map->boundaries.size()
                ? static_cast<size_t>(
                      std::lower_bound(keys.begin(), keys.end(),
                                       map->boundaries[i]) -
                      keys.begin())
                : keys.size();
        auto slot = std::make_shared<Slot>();
        LI_RETURN_IF_ERROR(slot->index.Build(
            keys.subspan(begin, end - begin), config_.inner));
        map->slots.push_back(std::move(slot));
        begin = end;
      }
      Start(map.release());
      return Status::OK();
    }

    /// Installs the first map and starts the rebalance worker.
    void Start(ShardMap* map) {
      cell_.Init(map);
      worker_.Start(
          [this](bool* work_left) { return DoRebalance(work_left); });
    }

    /// Start for a map read back from disk: split and coalesce build new
    /// shards with the loaded shards' inner config.
    void StartLoaded(std::unique_ptr<ShardMap> map) {
      config_.inner = map->slots[0]->index.config();
      Start(map.release());
    }

    /// Checks a persisted manifest header against its boundaries
    /// (`what` names the source in errors), then adopts its knobs,
    /// clamped.
    Status ApplyManifest(const ManifestRecord& man,
                         std::span<const key_type> bounds,
                         const std::string& what) {
      if (man.shard_count == 0) {
        return Status::InvalidArgument("ShardedIndex " + what +
                                       " has zero shards");
      }
      if (bounds.size() != man.shard_count - 1) {
        return Status::InvalidArgument(
            "ShardedIndex " + what +
            " boundary count disagrees with its shard count");
      }
      for (size_t i = 1; i < bounds.size(); ++i) {
        if (!(bounds[i - 1] < bounds[i])) {
          return Status::InvalidArgument(
              "ShardedIndex " + what +
              " boundaries are not strictly increasing");
        }
      }
      config_.num_shards = man.num_shards;
      config_.rebalance = Clamped({.enabled = man.rebalance_enabled != 0,
                                   .max_imbalance = man.max_imbalance,
                                   .min_split_keys = man.min_split_keys,
                                   .check_stride = man.check_stride});
      return Status::OK();
    }

    // ---- read path ----

    size_t Lookup(const key_type& key) const {
      const auto m = cell_.Pin();
      const size_t s = ShardOf(*m, key);
      size_t rank = 0;
      for (size_t i = 0; i < s; ++i) rank += m->slots[i]->index.size();
      return rank + m->slots[s]->index.Lookup(key);
    }

    index::Approx ApproxPos(const key_type& key) const {
      const auto m = cell_.Pin();
      const size_t s = ShardOf(*m, key);
      size_t rank = 0, total = 0;
      for (size_t i = 0; i < m->slots.size(); ++i) {
        const size_t sz = m->slots[i]->index.size();
        if (i < s) rank += sz;
        total += sz;
      }
      return index::Approx::Exact(rank + m->slots[s]->index.Lookup(key),
                                  total);
    }

    void LookupBatch(std::span<const key_type> keys,
                     std::span<size_t> out) const {
      const size_t n = std::min(keys.size(), out.size());
      const auto m = cell_.Pin();
      const size_t shards = m->slots.size();
      if (shards == 1) {
        index::LookupBatch(m->slots[0]->index, keys.first(n), out.first(n));
        return;
      }
      // Left-shard size prefix, snapshotted once per batch.
      std::vector<size_t> prefix(shards + 1, 0);
      for (size_t s = 0; s < shards; ++s) {
        prefix[s + 1] = prefix[s] + m->slots[s]->index.size();
      }
      // Group by shard (counting sort, stable within a shard), dispatch
      // each group to the shard's native batch path, scatter back. The
      // boundary route runs through the branchless upper_bound kernel —
      // the boundary array is small and cached, so mispredicted compare
      // branches, not memory, would bound a scalar route.
      std::vector<uint32_t> sid(n);
      std::vector<size_t> count(shards, 0);
      const simd::Kernels& kern = simd::GetKernels();
      const uint64_t* bd = m->boundaries.data();
      const size_t nb = m->boundaries.size();
      for (size_t i = 0; i < n; ++i) {
        sid[i] =
            static_cast<uint32_t>(kern.upper_bound_u64(bd, 0, nb, keys[i]));
        ++count[sid[i]];
      }
      std::vector<size_t> start(shards + 1, 0);
      for (size_t s = 0; s < shards; ++s) start[s + 1] = start[s] + count[s];
      std::vector<size_t> pos(n);
      {
        std::vector<size_t> cursor(start.begin(), start.end() - 1);
        std::vector<key_type> grouped(n);
        for (size_t i = 0; i < n; ++i) {
          pos[i] = cursor[sid[i]]++;
          grouped[pos[i]] = keys[i];
        }
        std::vector<size_t> ranks(n);
        for (size_t s = 0; s < shards; ++s) {
          if (count[s] == 0) continue;
          index::LookupBatch(
              m->slots[s]->index,
              std::span<const key_type>(grouped).subspan(start[s], count[s]),
              std::span<size_t>(ranks).subspan(start[s], count[s]));
        }
        for (size_t i = 0; i < n; ++i) out[i] = ranks[pos[i]] + prefix[sid[i]];
      }
    }

    bool Contains(const key_type& key) const {
      const auto m = cell_.Pin();
      return m->slots[ShardOf(*m, key)]->index.Contains(key);
    }

    std::vector<key_type> Scan(const key_type& from, size_t limit) const {
      std::vector<key_type> out;
      if (limit == 0) return out;
      const auto m = cell_.Pin();
      for (size_t s = ShardOf(*m, from); s < m->slots.size(); ++s) {
        std::vector<key_type> part =
            m->slots[s]->index.Scan(from, limit - out.size());
        if (out.empty()) {
          out = std::move(part);
        } else {
          out.insert(out.end(), part.begin(), part.end());
        }
        if (out.size() >= limit) break;
      }
      return out;
    }

    size_t size() const {
      const auto m = cell_.Pin();
      size_t n = 0;
      for (const auto& slot : m->slots) n += slot->index.size();
      return n;
    }

    size_t SizeBytes() const {
      const auto m = cell_.Pin();
      size_t n = m->boundaries.capacity() * sizeof(key_type);
      for (const auto& slot : m->slots) n += slot->index.SizeBytes();
      return n;
    }

    // ---- write path ----

    bool Write(const key_type& key, bool tombstone) {
      for (;;) {
        const auto m = cell_.Pin();
        Slot* slot = m->slots[ShardOf(*m, key)].get();
        bool changed;
        {
          std::shared_lock<std::shared_mutex> lk(slot->cutover_mu);
          // A cutover retired this slot between our map load and the
          // lock: its replacement shards already absorbed the catch-up
          // log, so a write here would be lost. Retry on the new map.
          if (slot->retired) continue;
          if (slot->sealed) {
            // Shard mid-rebalance: serialize on the catch-up mutex so
            // the log order equals the inner writer order, then
            // dual-write.
            std::lock_guard<std::mutex> cl(slot->catchup_mu);
            changed = tombstone ? slot->index.Erase(key)
                                : slot->index.Insert(key);
            slot->catchup.emplace_back(key, tombstone);
          } else {
            changed = tombstone ? slot->index.Erase(key)
                                : slot->index.Insert(key);
          }
        }
        // Load monitor runs after the cutover lock drops (the epoch pin
        // still holds `m`): the O(#shards) mass scan must not lengthen
        // the window the rebalancer's exclusive seal/cutover waits out.
        if (config_.rebalance.enabled) {
          const uint64_t tick =
              write_tick_.fetch_add(1, std::memory_order_relaxed);
          if (tick % config_.rebalance.check_stride == 0 &&
              PickAction(*m).kind != RebalanceAction::Kind::kNone) {
            RequestRebalance();
          }
        }
        return changed;
      }
    }

    // ---- merge control ----

    Status Merge() {
      const std::vector<std::shared_ptr<Slot>> slots = SlotSnapshot();
      for (const auto& slot : slots) slot->index.RequestMerge();
      Status first = Status::OK();
      for (const auto& slot : slots) {
        const Status st = slot->index.Merge();
        if (first.ok() && !st.ok()) first = st;
      }
      return first;
    }

    void RequestMerge() {
      for (const auto& slot : SlotSnapshot()) slot->index.RequestMerge();
    }

    void WaitForMerges() {
      for (const auto& slot : SlotSnapshot()) slot->index.WaitForMerges();
    }

    // ---- rebalance control ----

    void RequestRebalance() { worker_.Request(); }

    void WaitForRebalances() { worker_.WaitIdle(); }

    // ---- durability ----
    // `durable_mu_` serializes everything that touches the durability
    // directory: EnableDurability, Checkpoint, and the durable leg of a
    // rebalance cutover. It is taken *before* any cutover lock (the
    // worker) or inner writer mutex (Checkpoint), never after — writers
    // never take it, so shard writes stay durable_mu_-free.

    Status EnableDurability(const wal::DurabilityConfig& cfg) {
      if (cfg.path.empty()) {
        return Status::InvalidArgument(
            "ShardedIndex durability needs a directory path");
      }
      WaitForRebalances();
      std::lock_guard<std::mutex> dlk(durable_mu_);
      if (durable_.load(std::memory_order_relaxed)) {
        return Status::FailedPrecondition(
            "ShardedIndex: durability already enabled");
      }
      if (::mkdir(cfg.path.c_str(), 0755) != 0 && errno != EEXIST) {
        return Status::Internal("mkdir('" + cfg.path +
                                "'): " + std::strerror(errno));
      }
      dur_cfg_ = cfg;
      const ShardMap map = *cell_.Pin();  // shared_ptrs outlive the pin
      for (const auto& slot : map.slots) {
        LI_RETURN_IF_ERROR(AttachShardDurability(*slot));
      }
      LI_RETURN_IF_ERROR(WriteManifestLocked(map.boundaries, map.slots));
      durable_.store(true, std::memory_order_release);
      return Status::OK();
    }

    Status Checkpoint() {
      WaitForRebalances();
      std::lock_guard<std::mutex> dlk(durable_mu_);
      if (!durable_.load(std::memory_order_relaxed)) {
        return Status::FailedPrecondition(
            "ShardedIndex: durability not enabled");
      }
      const ShardMap map = *cell_.Pin();
      for (const auto& slot : map.slots) {
        // Atomic per-shard publish (tmp + rename inside), then the inner
        // class truncates its own log behind the covered LSN.
        LI_RETURN_IF_ERROR(
            slot->index.WriteSnapshot(ShardSnapPath(slot->uid)));
      }
      return WriteManifestLocked(map.boundaries, map.slots);
    }

    /// Fresh-Impl only (the static RecoverDurable entry point).
    Status RecoverDurable(const wal::DurabilityConfig& cfg) {
      if (cfg.path.empty()) {
        return Status::InvalidArgument(
            "ShardedIndex durability needs a directory path");
      }
      dur_cfg_ = cfg;
      auto reader = snapshot::SnapshotReader::Open(ManifestPath());
      if (!reader.ok()) return reader.status();
      ManifestRecord man{};
      LI_RETURN_IF_ERROR(reader.value().GetPod("manifest", &man));
      auto bounds = reader.value().template GetArray<key_type>("bounds");
      if (!bounds.ok()) return bounds.status();
      auto uids = reader.value().template GetArray<uint64_t>("uids");
      if (!uids.ok()) return uids.status();
      LI_RETURN_IF_ERROR(reader.value().GetPod("nextuid", &next_uid_));
      LI_RETURN_IF_ERROR(ApplyManifest(man, bounds.value(), "MANIFEST"));
      if (uids.value().size() != man.shard_count) {
        return Status::InvalidArgument(
            "ShardedIndex MANIFEST shard count disagrees with its uids "
            "section");
      }
      auto map = std::make_unique<ShardMap>();
      map->boundaries.assign(bounds.value().begin(), bounds.value().end());
      for (size_t i = 0; i < man.shard_count; ++i) {
        const uint64_t uid = uids.value()[i];
        auto inner = Inner::OpenSnapshot(ShardSnapPath(uid));
        if (!inner.ok()) return inner.status();
        auto slot = std::make_shared<Slot>();
        slot->index = inner.take();
        slot->uid = uid;
        // Replays records past the shard snapshot's covered LSN through
        // the inner write path, truncates a torn tail, and resumes
        // logging (a missing log file starts a fresh one).
        LI_RETURN_IF_ERROR(slot->index.RecoverFromWal(ShardCfg(uid)));
        map->slots.push_back(std::move(slot));
      }
      // Shard files MANIFEST never committed (a rebalance that died
      // before its flip) are garbage: remove them.
      RemoveOrphanShardFiles({uids.value().begin(), uids.value().end()});
      durable_.store(true, std::memory_order_release);
      StartLoaded(std::move(map));
      return Status::OK();
    }

    bool durable() const { return durable_.load(std::memory_order_acquire); }

    Status wal_status() const {
      if (!durable()) return Status::OK();
      for (const auto& slot : SlotSnapshot()) {
        const Status st = slot->index.wal_status();
        if (!st.ok()) return st;
      }
      return Status::OK();
    }

    wal::WalStats DurabilityStats() const {
      wal::WalStats agg{};
      for (const auto& slot : SlotSnapshot()) {
        const wal::WalStats s = slot->index.DurabilityStats();
        agg.appends += s.appends;
        agg.syncs += s.syncs;
        agg.resets += s.resets;
        agg.bytes_appended += s.bytes_appended;
        agg.last_lsn = std::max(agg.last_lsn, s.last_lsn);
        agg.last_synced_lsn = std::max(agg.last_synced_lsn,
                                       s.last_synced_lsn);
        agg.base_lsn = std::max(agg.base_lsn, s.base_lsn);
      }
      return agg;
    }

    Status SyncWal() {
      if (!durable()) return Status::OK();
      Status first = Status::OK();
      for (const auto& slot : SlotSnapshot()) {
        const Status st = slot->index.SyncWal();
        if (first.ok() && !st.ok()) first = st;
      }
      return first;
    }

    // ---- persistence ----

    Status WriteSections(snapshot::SnapshotWriter& writer,
                         const std::string& prefix) {
      // Drain the rebalancer so the map version captured below is final —
      // no shard gets retired mid-snapshot. The worker only re-runs on a
      // writer trigger, so the capture that follows sees a stable map
      // unless writes keep racing (documented above).
      WaitForRebalances();
      const ShardMap map = *cell_.Pin();  // shared_ptrs outlive the pin
      LI_RETURN_IF_ERROR(
          writer.AddPod(prefix + "manifest", Manifest(map.slots.size())));
      LI_RETURN_IF_ERROR(writer.AddArray(
          prefix + "bounds", std::span<const key_type>(map.boundaries),
          snapshot::SectionKind::kManifest));
      for (size_t i = 0; i < map.slots.size(); ++i) {
        LI_RETURN_IF_ERROR(map.slots[i]->index.WriteSections(
            writer, prefix + "s" + std::to_string(i) + "/"));
      }
      return Status::OK();
    }

    /// Rebuilds the map and every shard from snapshot sections; fresh
    /// Impl only (build-then-share discipline, same as Build).
    Status LoadSections(const snapshot::SnapshotReader& reader,
                        const std::string& prefix) {
      ManifestRecord man{};
      LI_RETURN_IF_ERROR(reader.GetPod(prefix + "manifest", &man));
      auto bounds = reader.GetArray<key_type>(prefix + "bounds");
      if (!bounds.ok()) return bounds.status();
      LI_RETURN_IF_ERROR(
          ApplyManifest(man, bounds.value(), "snapshot manifest"));
      auto map = std::make_unique<ShardMap>();
      map->boundaries.assign(bounds.value().begin(), bounds.value().end());
      for (size_t i = 0; i < man.shard_count; ++i) {
        auto slot = std::make_shared<Slot>();
        LI_RETURN_IF_ERROR(slot->index.LoadSections(
            reader, prefix + "s" + std::to_string(i) + "/"));
        map->slots.push_back(std::move(slot));
      }
      StartLoaded(std::move(map));
      return Status::OK();
    }

    // ---- stats ----

    index::WritableIndexStats Stats() const {
      index::WritableIndexStats agg{};
      for (const auto& slot : SlotSnapshot()) {
        Accumulate(agg, slot->index.Stats());
      }
      return agg;
    }

    index::ConcurrentIndexStats ConcurrentStats() const {
      index::ConcurrentIndexStats agg{};
      const std::vector<std::shared_ptr<Slot>> slots = SlotSnapshot();
      for (const auto& slot : slots) {
        const index::ConcurrentIndexStats cs = slot->index.ConcurrentStats();
        Accumulate(agg, cs);
        agg.freezes += cs.freezes;
        agg.background_merges += cs.background_merges;
        agg.writer_contended += cs.writer_contended;
        agg.states_published += cs.states_published;
        agg.states_retired += cs.states_retired;
        agg.states_reclaimed += cs.states_reclaimed;
        agg.epoch_fallback_pins += cs.epoch_fallback_pins;
        agg.log_entries += cs.log_entries;
      }
      agg.shards = slots.size();
      agg.shard_splits = splits_.load(std::memory_order_relaxed);
      agg.shard_coalesces = coalesces_.load(std::memory_order_relaxed);
      // The build (or loaded) map counts as the first version.
      agg.shard_maps_published = cell_.published() + 1;
      agg.shard_imbalance = CurrentImbalance();
      return agg;
    }

    size_t NumShards() const { return SlotSnapshot().size(); }

    std::vector<key_type> Boundaries() const {
      return cell_.Pin()->boundaries;
    }

    std::vector<size_t> ShardSizes() const {
      std::vector<size_t> out;
      const std::vector<std::shared_ptr<Slot>> slots = SlotSnapshot();
      out.reserve(slots.size());
      for (const auto& slot : slots) out.push_back(slot->index.size());
      return out;
    }

    double CurrentImbalance() const {
      const std::vector<size_t> sizes = ShardSizes();
      if (sizes.empty()) return 1.0;
      size_t total = 0, max = 0;
      for (const size_t s : sizes) {
        total += s;
        max = std::max(max, s);
      }
      if (total == 0) return 1.0;
      const double mean = static_cast<double>(total) /
                          static_cast<double>(sizes.size());
      return static_cast<double>(max) / mean;
    }

    // ---- internals ----

    /// Shard covering `key` in `m`: shard i serves [b[i-1], b[i]).
    size_t ShardOf(const ShardMap& m, const key_type& key) const {
      return static_cast<size_t>(
          std::upper_bound(m.boundaries.begin(), m.boundaries.end(), key) -
          m.boundaries.begin());
    }

    /// Shared-ownership copy of the current map's slots: safe to use
    /// after the epoch pin drops (shared_ptr keeps slots alive even if
    /// the map version dies). The currency of every fan-out.
    std::vector<std::shared_ptr<Slot>> SlotSnapshot() const {
      return cell_.Pin()->slots;
    }

    /// The rebalancer's decision function — the ONE place the
    /// split/coalesce conditions live, shared by the writer-side monitor
    /// and the worker so the trigger and the action can never drift:
    /// scans shard masses (O(#shards) relaxed loads) and returns what
    /// the current map calls for. Splits take priority: an overloaded
    /// shard is a latency/contention problem, undersized ones are only
    /// routing overhead.
    struct RebalanceAction {
      enum class Kind { kNone, kSplit, kCoalesce };
      Kind kind = Kind::kNone;
      size_t shard = 0;  // split target, or the left of the coalesce pair
    };

    RebalanceAction PickAction(const ShardMap& m) const {
      const ShardRebalanceConfig& rc = config_.rebalance;
      const size_t shards = m.slots.size();
      std::vector<size_t> sizes(shards);
      size_t total = 0;
      for (size_t i = 0; i < shards; ++i) {
        sizes[i] = m.slots[i]->index.size();
        total += sizes[i];
      }
      RebalanceAction act;
      if (total == 0) return act;
      const double mean = static_cast<double>(total) /
                          static_cast<double>(shards);
      const size_t hot = static_cast<size_t>(
          std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
      if (shards < kMaxShards && sizes[hot] >= rc.min_split_keys &&
          static_cast<double>(sizes[hot]) > rc.max_imbalance * mean) {
        act.kind = RebalanceAction::Kind::kSplit;
        act.shard = hot;
        return act;
      }
      const double coalesce_below = CoalesceFraction(rc) * mean;
      size_t cold_mass = 0;
      for (size_t i = 0; i + 1 < shards; ++i) {
        const size_t combined = sizes[i] + sizes[i + 1];
        if (static_cast<double>(combined) < coalesce_below &&
            (act.kind == RebalanceAction::Kind::kNone ||
             combined < cold_mass)) {
          act.kind = RebalanceAction::Kind::kCoalesce;
          act.shard = i;
          cold_mass = combined;
        }
      }
      return act;
    }

    /// The routing-manifest header for a map of `shards` shards.
    ManifestRecord Manifest(size_t shards) const {
      const ShardRebalanceConfig& rc = config_.rebalance;
      ManifestRecord man{};
      man.shard_count = shards;
      man.num_shards = config_.num_shards;
      man.cdf_sample = kShardCdfSample;
      man.rebalance_enabled = rc.enabled ? 1 : 0;
      man.max_imbalance = rc.max_imbalance;
      man.coalesce_fraction = CoalesceFraction(rc);
      man.min_split_keys = rc.min_split_keys;
      man.max_shards = kMaxShards;
      man.check_stride = rc.check_stride;
      man.scan_chunk = 64 * 1024;  // its last default
      man.max_actions_per_cycle = kMaxRebalanceActionsPerCycle;
      return man;
    }

    /// Re-opens a sealed slot after an aborted rebalance action: writes
    /// kept flowing into the inner index the whole time, so state is
    /// intact — only the catch-up log is dropped.
    void Unseal(Slot& slot) {
      std::unique_lock<std::shared_mutex> lk(slot.cutover_mu);
      slot.sealed = false;
      slot.catchup.clear();
    }

    // ---- durability internals (durable_mu_ held throughout) ----

    std::string ShardSnapPath(uint64_t uid) const {
      return dur_cfg_.path + "/s" + std::to_string(uid) + ".snap";
    }
    std::string ShardWalPath(uint64_t uid) const {
      return dur_cfg_.path + "/s" + std::to_string(uid) + ".wal";
    }
    std::string ManifestPath() const { return dur_cfg_.path + "/MANIFEST"; }

    /// The directory-level config specialized to one shard's log file;
    /// group-commit knobs and the (test-injected) backend pass through.
    wal::DurabilityConfig ShardCfg(uint64_t uid) const {
      wal::DurabilityConfig c = dur_cfg_;
      c.path = ShardWalPath(uid);
      return c;
    }

    /// Give `slot` a fresh uid, checkpoint it, start its log. The slot
    /// must not be receiving writes yet (EnableDurability is quiesced;
    /// rebalance replacement shards are attached before cutover).
    Status AttachShardDurability(Slot& slot) {
      slot.uid = next_uid_++;
      LI_RETURN_IF_ERROR(slot.index.WriteSnapshot(ShardSnapPath(slot.uid)));
      return slot.index.EnableDurability(ShardCfg(slot.uid));
    }

    /// Atomically commit the routing state: boundaries + shard uids.
    /// The rename inside WriteFile is the durability commit point for
    /// every rebalance cutover.
    Status WriteManifestLocked(
        const std::vector<key_type>& boundaries,
        const std::vector<std::shared_ptr<Slot>>& slots) {
      snapshot::SnapshotWriter w;
      LI_RETURN_IF_ERROR(w.AddPod("manifest", Manifest(slots.size())));
      LI_RETURN_IF_ERROR(
          w.AddArray("bounds", std::span<const key_type>(boundaries),
                     snapshot::SectionKind::kManifest));
      std::vector<uint64_t> uids;
      uids.reserve(slots.size());
      for (const auto& s : slots) uids.push_back(s->uid);
      LI_RETURN_IF_ERROR(w.AddArray("uids", std::span<const uint64_t>(uids),
                                    snapshot::SectionKind::kManifest));
      LI_RETURN_IF_ERROR(w.AddPod("nextuid", next_uid_));
      return w.WriteFile(ManifestPath());
    }

    /// Best-effort removal of one shard's file pair (a retired shard
    /// after its cutover committed, or an aborted attach).
    void DropShardFiles(uint64_t uid) const {
      ::unlink(ShardSnapPath(uid).c_str());
      ::unlink(ShardWalPath(uid).c_str());
    }

    /// Recovery hygiene: remove s<uid>.{snap,wal} pairs whose uid the
    /// MANIFEST does not reference (a rebalance that crashed before its
    /// commit point) and stale .tmp staging files.
    void RemoveOrphanShardFiles(const std::vector<uint64_t>& live) const {
      DIR* d = ::opendir(dur_cfg_.path.c_str());
      if (d == nullptr) return;
      std::vector<std::string> doomed;
      while (struct dirent* e = ::readdir(d)) {
        const std::string name = e->d_name;
        const size_t n = name.size();
        if (n > 4 && name.compare(n - 4, 4, ".tmp") == 0) {
          doomed.push_back(name);
          continue;
        }
        if (n < 2 || name[0] != 's') continue;
        uint64_t uid = 0;
        size_t i = 1;
        while (i < n && name[i] >= '0' && name[i] <= '9') {
          uid = uid * 10 + static_cast<uint64_t>(name[i] - '0');
          ++i;
        }
        if (i == 1) continue;  // no digits after 's'
        const std::string ext = name.substr(i);
        if (ext != ".snap" && ext != ".wal") continue;
        if (std::find(live.begin(), live.end(), uid) == live.end()) {
          doomed.push_back(name);
        }
      }
      ::closedir(d);
      for (const std::string& name : doomed) {
        ::unlink((dur_cfg_.path + "/" + name).c_str());
      }
    }

    /// One rebalance action: replaces the `count` adjacent shards from
    /// `first` of the current map `m` with `cuts + 1` shards cut at
    /// equal-count points of their keys — a split is (s, 1, 1), a
    /// coalesce (s, 2, 0). Seal -> snapshot -> build -> attach
    /// durability -> cutover (replay catch-up, commit MANIFEST, publish)
    /// -> drop the replaced shards' files. Readers never block; writers
    /// to the replaced shards block only during seal and cutover (brief).
    /// `published` reports whether a new map went out (false when there
    /// is nothing to cut strictly between, which unseals and leaves state
    /// intact).
    Status ReplaceShards(const ShardMap& m, size_t first, size_t count,
                         size_t cuts, bool* published) {
      *published = false;
      const auto begin = static_cast<ptrdiff_t>(first);
      const auto end = begin + static_cast<ptrdiff_t>(count);
      const std::vector<std::shared_ptr<Slot>> old(m.slots.begin() + begin,
                                                   m.slots.begin() + end);
      for (const auto& slot : old) {
        // Seal: after this exclusive section every writer dual-writes
        // into the catch-up log, so the snapshot below may be fuzzy
        // about post-seal writes without losing them.
        std::unique_lock<std::shared_mutex> lk(slot->cutover_mu);
        slot->sealed = true;
      }
      auto unseal = [&] {
        for (const auto& slot : old) Unseal(*slot);
      };
      // One lock-free scan per shard. It need not be a consistent
      // snapshot: every key it misses or over-reports was written after
      // the seal, and the catch-up replay settles those (see
      // docs/SHARDING.md, "why the snapshot may be fuzzy"). Adjacent
      // shards hold disjoint ascending ranges, so the concatenated scans
      // are sorted and strictly increasing.
      std::vector<key_type> snap;
      for (const auto& slot : old) {
        const std::vector<key_type> part = slot->index.Scan(0, SIZE_MAX);
        snap.insert(snap.end(), part.begin(), part.end());
      }
      std::vector<size_t> at{0};  // first snapshot index of each new shard
      std::vector<key_type> cut_keys;
      for (size_t i = 1; i <= cuts; ++i) {
        const size_t c = i * snap.size() / (cuts + 1);
        if (c <= at.back()) {  // nothing to cut strictly between
          unseal();
          return Status::OK();
        }
        at.push_back(c);
        cut_keys.push_back(snap[c]);
      }
      at.push_back(snap.size());
      std::vector<std::shared_ptr<Slot>> fresh_slots;
      for (size_t i = 0; i + 1 < at.size(); ++i) {
        fresh_slots.push_back(std::make_shared<Slot>());
        const Status st = fresh_slots.back()->index.Build(
            std::span<const key_type>(snap).subspan(at[i], at[i + 1] - at[i]),
            config_.inner);
        if (!st.ok()) {
          unseal();
          return st;
        }
      }
      // Durable cutovers serialize with Checkpoint() on durable_mu_ and
      // give the new shards their own snapshot + fresh log *before* any
      // catch-up record is replayed, so the replay below lands in the
      // new logs through the ordinary durable write path.
      std::unique_lock<std::mutex> dlk;
      size_t attached = 0;  // new shards that may own files
      auto drop_fresh = [&] {
        for (size_t i = 0; i < attached; ++i) {
          DropShardFiles(fresh_slots[i]->uid);
        }
      };
      if (durable_.load(std::memory_order_acquire)) {
        dlk = std::unique_lock<std::mutex>(durable_mu_);
        Status st = Status::OK();
        while (st.ok() && attached < fresh_slots.size()) {
          st = AttachShardDurability(*fresh_slots[attached++]);
        }
        if (!st.ok()) {
          drop_fresh();
          unseal();
          return st;
        }
      }
      {
        // Cutover: no writer holds a replaced slot (exclusive locks, in
        // shard order), so the catch-up logs are complete; replay each
        // into the new shard covering its key, commit the MANIFEST
        // (durable mode), publish the new map, retire the old shards.
        // The map writer is declared first so the retired map is freed
        // after the cutover locks drop.
        typename Cell::Writer w(cell_);
        std::vector<std::unique_lock<std::shared_mutex>> locks;
        for (const auto& slot : old) locks.emplace_back(slot->cutover_mu);
        for (const auto& slot : old) {
          for (const auto& [k, tomb] : slot->catchup) {
            const size_t i = static_cast<size_t>(
                std::upper_bound(cut_keys.begin(), cut_keys.end(), k) -
                cut_keys.begin());
            Inner& dst = fresh_slots[i]->index;
            tomb ? dst.Erase(k) : dst.Insert(k);
          }
          slot->catchup.clear();
        }
        auto fresh = std::make_unique<ShardMap>();
        fresh->boundaries = m.boundaries;
        fresh->boundaries.erase(fresh->boundaries.begin() + begin,
                                fresh->boundaries.begin() + end - 1);
        fresh->boundaries.insert(fresh->boundaries.begin() + begin,
                                 cut_keys.begin(), cut_keys.end());
        fresh->slots = m.slots;
        fresh->slots.erase(fresh->slots.begin() + begin,
                           fresh->slots.begin() + end);
        fresh->slots.insert(fresh->slots.begin() + begin,
                            fresh_slots.begin(), fresh_slots.end());
        if (dlk.owns_lock()) {
          // Commit point, inside the critical section: sync the replayed
          // catch-up records, then flip MANIFEST to the new shard set. No
          // write can be acknowledged against the new shards until the
          // flip is on disk — a crash on either side of the rename
          // recovers every acknowledged write.
          Status st = Status::OK();
          for (const auto& slot : fresh_slots) {
            if (st.ok()) st = slot->index.SyncWal();
          }
          if (st.ok()) {
            st = WriteManifestLocked(fresh->boundaries, fresh->slots);
          }
          if (!st.ok()) {
            // Abort: the old shard set stays authoritative (its logs hold
            // every write, catch-up included — dual-write).
            drop_fresh();
            for (const auto& slot : old) slot->sealed = false;
            return st;
          }
        }
        w.Publish(fresh.release());
        for (const auto& slot : old) slot->retired = true;
        (cuts > 0 ? splits_ : coalesces_)
            .fetch_add(1, std::memory_order_relaxed);
      }
      if (dlk.owns_lock()) {
        for (const auto& slot : old) DropShardFiles(slot->uid);
      }
      *published = true;
      return Status::OK();
    }

    /// One rebalance cycle (the worker's body): act on what PickAction
    /// calls for, re-check, repeat until balanced, the per-cycle action
    /// cap hits, or an action cannot make progress (e.g. the hot shard
    /// has nothing to cut strictly between; writers may re-trigger
    /// later). `work_left` reports a cap-limited exit with the
    /// conditions still firing — the worker then re-arms itself, so one
    /// WaitForRebalances() suffices however many actions the drift
    /// needs.
    Status DoRebalance(bool* work_left) {
      Status st = Status::OK();
      bool capped = true;
      for (size_t a = 0; a < kMaxRebalanceActionsPerCycle; ++a) {
        // The pin keeps `m` alive across the action; the worker is the
        // only map publisher, so `m` is also the map it replaces.
        const auto m = cell_.Pin();
        const RebalanceAction act = PickAction(*m);
        bool published = false;
        if (act.kind == RebalanceAction::Kind::kSplit) {
          st = ReplaceShards(*m, act.shard, 1, 1, &published);
        } else if (act.kind == RebalanceAction::Kind::kCoalesce) {
          st = ReplaceShards(*m, act.shard, 2, 0, &published);
        }
        if (!published) {  // balanced, failed, or no progress possible
          capped = false;
          break;
        }
      }
      *work_left = st.ok() && capped &&
                   PickAction(*cell_.Pin()).kind !=
                       RebalanceAction::Kind::kNone;
      cell_.Reclaim();  // maps this cycle retired while it held a pin
      return st;
    }

    static void Accumulate(index::WritableIndexStats& agg,
                           const index::WritableIndexStats& s) {
      agg.lookups += s.lookups;
      agg.contains += s.contains;
      agg.inserts += s.inserts;
      agg.erases += s.erases;
      agg.delta_hits += s.delta_hits;
      agg.merges += s.merges;
      agg.merged_keys += s.merged_keys;
      agg.last_merge_ns = std::max(agg.last_merge_ns, s.last_merge_ns);
      agg.total_merge_ns += s.total_merge_ns;
      agg.delta_entries += s.delta_entries;
      agg.delta_bytes += s.delta_bytes;
      agg.base_keys += s.base_keys;
    }

    Config config_{};
    // The routing map; slots die with the last map that references them.
    Cell cell_;

    std::atomic<uint64_t> write_tick_{0};
    std::atomic<uint64_t> splits_{0};
    std::atomic<uint64_t> coalesces_{0};

    // Durability state. `durable_` flips once (under durable_mu_) and
    // is read by the worker without it; everything else behind the flag
    // is touched only with durable_mu_ held.
    std::atomic<bool> durable_{false};
    mutable std::mutex durable_mu_;
    wal::DurabilityConfig dur_cfg_;
    uint64_t next_uid_ = 0;

    // Declared last: stops before the state its cycles touch.
    BackgroundWorker worker_;
  };

  std::unique_ptr<Impl> impl_;
};

}  // namespace li::concurrent

#endif  // LI_CONCURRENT_SHARDED_INDEX_H_
