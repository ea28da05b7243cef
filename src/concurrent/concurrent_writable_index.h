// ConcurrentWritableIndex<Base> — the thread-safe write path over the
// Appendix-D.1 delta architecture, behind the library-wide
// index::ConcurrentWritableRangeIndex contract.
//
// Published state is an immutable *version* (the version cell and the
// background worker are the shared core in concurrent/versioned.h):
//
//   State = { base keys + built Base index   (shared with older versions)
//           , frozen delta                   (sorted runs + rank prefix sums)
//           , write log                      (append-only, bounded) }
//
// Readers pin an epoch (concurrent/epoch.h), load the current version
// with one atomic load, and answer from base + frozen + log-prefix with
// no locks: rank = bi + frozen.RankAdjustBelow + Σ log nets, where the
// base rank bi = base.Lookup also positions the frozen seek (the frozen
// run's base fence, dynamic/delta_buffer.h).
// The log (WriteLog, below) fixes each write's *liveness delta*
// net = !tombstone - live_before ∈ {-1,0,+1} at append time, so any
// published log prefix yields an exact lower_bound rank over the live set
// as of that prefix — the log-count store, which publishes the write, is
// the serialization point.
//
// Writers serialize on one mutex (contention is counted, and sharding —
// sharded_index.h — is the documented escape hatch), append to the log,
// and publish the new count with a release store. A full log is *frozen*:
// folded into the sorted delta, republished as a new version, the old one
// retired to the epoch manager.
//
// Merges run on a background worker so no caller ever pays the
// merge+retrain latency inline:
//   1. rotate: fold any pending log so the delta to merge is a frozen,
//      immutable snapshot (brief writer lock);
//   2. build: merge base ∪ delta into a fresh key array and train a new
//      Base over it — off to the side, no locks held;
//   3. publish: rebase whatever the delta accumulated *during* the build
//      onto the new base (per-key membership recheck), swap the version
//      in atomically, retire the old one (brief writer lock).
// Readers never block on any phase; they keep serving from whichever
// version they pinned, and the old base is reclaimed once its epoch
// drains. Merge timing reuses the pluggable dynamic::MergePolicy,
// evaluated by writers and executed by the worker.
//
// Single-threaded use degenerates to exact DeltaRangeIndex semantics
// (same oracle conformance suite).
//
// Durability (index::DurableIndex; docs/DURABILITY.md): with
// EnableDurability attached, Write appends a CRC-framed record to the
// write-ahead log under the writer mutex *before* the log-entry publish
// — so WAL order, LSN order and acknowledgement order coincide — and
// recovery (OpenSnapshot + RecoverFromWal) replays the tail through the
// same Write path. WriteSnapshot publishes the covered LSN inside its
// captured version and truncates the log behind it.

#ifndef LI_CONCURRENT_CONCURRENT_WRITABLE_INDEX_H_
#define LI_CONCURRENT_CONCURRENT_WRITABLE_INDEX_H_

#include <algorithm>
#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "concurrent/versioned.h"
#include "dynamic/delta_buffer.h"
#include "dynamic/delta_snapshot.h"
#include "dynamic/merge_policy.h"
#include "index/approx.h"
#include "index/concurrent_writable_index.h"
#include "index/range_index.h"
#include "index/snapshottable.h"
#include "index/writable_range_index.h"
#include "search/search.h"
#include "simd/dispatch.h"
#include "snapshot/snapshot.h"
#include "wal/index_wal.h"
#include "wal/wal.h"

namespace li::concurrent {

/// The bounded, append-only write log of one ConcurrentWritableIndex
/// version, as two columns of one length: the written keys, contiguous so
/// the per-read passes over them vectorize (they run through the SIMD
/// kernel table), and one flags byte per write — tombstone, and whether
/// the key was live just before the write.
///
/// Thread-safety: Append runs under the owning index's writer mutex and
/// is the only code that stores to the log. A reader loads count() once
/// (acquire) and hands that prefix n to the passes below, which read
/// nothing past it.
class WriteLog {
 public:
  explicit WriteLog(size_t cap)
      : keys_(std::make_unique<uint64_t[]>(cap)),
        flags_(std::make_unique<uint8_t[]>(cap)),
        cap_(cap) {}

  size_t SizeBytes() const { return cap_ * (sizeof(uint64_t) + 1); }
  /// Published write count (readers).
  uint32_t count() const { return count_.load(std::memory_order_acquire); }
  /// Write count for the writer-mutex holder.
  uint32_t count_locked() const {
    return count_.load(std::memory_order_relaxed);
  }
  bool full_locked() const { return count_locked() == cap_; }

  /// Appends and publishes one write; returns its liveness delta. Writer
  /// mutex held, log not full. The flags byte and the first-tombstone
  /// index are stored before the key, and the count's release store
  /// publishes all three, so a reader's acquire covers them.
  int Append(uint64_t key, bool tombstone, bool live_before) {
    const uint32_t n = count_locked();
    flags_[n] = static_cast<uint8_t>((tombstone ? kTombstone : 0) |
                                     (live_before ? kLiveBefore : 0));
    if (tombstone && n < first_tombstone_.load(std::memory_order_relaxed)) {
      first_tombstone_.store(n, std::memory_order_relaxed);
    }
    keys_[n] = key;
    count_.store(n + 1, std::memory_order_release);
    return Net(flags_[n]);
  }

  bool tombstone(uint32_t i) const { return (flags_[i] & kTombstone) != 0; }
  bool live_before(uint32_t i) const {
    return (flags_[i] & kLiveBefore) != 0;
  }

  // ---- passes over a published prefix [0, n) ----

  /// Index of the newest write to `key`, or n if there is none: the
  /// window kernel steps through the matches (lo == hi == key).
  uint32_t NewestWrite(uint32_t n, uint64_t key) const {
    uint32_t newest = n;
    for (uint32_t i = NextInWindow(0, n, key, key); i < n;
         i = NextInWindow(i + 1, n, key, key)) {
      newest = i;
    }
    return newest;
  }

  /// Σ nets of the writes on keys below `key`.
  int64_t NetBelow(uint32_t n, uint64_t key) const {
    int64_t adj = 0;
    for (uint32_t i = 0; i < n; ++i) {
      adj += static_cast<int>(keys_[i] < key) * Net(flags_[i]);
    }
    return adj;
  }

  /// Σ nets of every write.
  int64_t NetTotal(uint32_t n) const {
    int64_t c = 0;
    for (uint32_t i = 0; i < n; ++i) c += Net(flags_[i]);
    return c;
  }

  /// Tombstones among the writes with key >= `lo`; 0 without a pass when
  /// the prefix holds no tombstone.
  size_t TombstonesFrom(uint32_t n, uint64_t lo) const {
    if (n <= first_tombstone_.load(std::memory_order_relaxed)) return 0;
    return simd::GetKernels().count_at_least_flagged_u64(
        keys_.get(), flags_.get(), n, lo, kTombstone);
  }

  /// One key's writes within a prefix: its oldest and newest write.
  struct KeyHistory {
    uint64_t key;
    uint32_t oldest;
    uint32_t newest;
  };

  /// The keys written inside [lo, hi], ascending, each with its oldest
  /// and newest write: one window-kernel pass, then a sort of the writes
  /// it found — O(m log m) in those m writes.
  std::vector<KeyHistory> NewestPerKey(uint32_t n, uint64_t lo,
                                       uint64_t hi) const {
    std::vector<KeyHistory> w;
    for (uint32_t i = NextInWindow(0, n, lo, hi); i < n;
         i = NextInWindow(i + 1, n, lo, hi)) {
      w.push_back({keys_[i], i, i});
    }
    std::sort(w.begin(), w.end(),
              [](const KeyHistory& a, const KeyHistory& b) {
                return a.key < b.key ||
                       (a.key == b.key && a.oldest < b.oldest);
              });
    size_t out = 0;
    for (size_t i = 0; i < w.size(); ++i) {
      if (out > 0 && w[out - 1].key == w[i].key) {
        w[out - 1].newest = w[i].newest;
      } else {
        w[out++] = w[i];
      }
    }
    w.resize(out);
    return w;
  }

 private:
  static constexpr uint8_t kTombstone = 1;   // Erase vs Insert
  static constexpr uint8_t kLiveBefore = 2;  // key was live just before

  /// Liveness delta of a write: !tombstone - live_before ∈ {-1, 0, +1}.
  static int Net(uint8_t flags) {
    return static_cast<int>((flags & kTombstone) == 0) -
           static_cast<int>((flags & kLiveBefore) != 0);
  }

  /// First i in [begin, n) with lo <= keys[i] <= hi, or n.
  uint32_t NextInWindow(uint32_t begin, uint32_t n, uint64_t lo,
                        uint64_t hi) const {
    return static_cast<uint32_t>(
        simd::GetKernels().next_in_range_u64(keys_.get(), begin, n, lo, hi));
  }

  std::unique_ptr<uint64_t[]> keys_;
  std::unique_ptr<uint8_t[]> flags_;
  size_t cap_;
  std::atomic<uint32_t> count_{0};
  // Index of the first tombstone (UINT32_MAX while there is none): a
  // prefix of n writes holds a tombstone iff n > first_tombstone_.
  std::atomic<uint32_t> first_tombstone_{UINT32_MAX};
};

template <index::RangeIndex Base>
  requires std::same_as<typename Base::key_type, uint64_t> &&
           index::DataSpanSnapshottable<Base>
class ConcurrentWritableIndex {
 public:
  using key_type = typename Base::key_type;
  using base_config_type = typename Base::config_type;

  struct Config {
    base_config_type base{};
    dynamic::MergePolicy policy{};
    /// Write-log capacity: how many writes a version absorbs before the
    /// log is folded into the sorted frozen delta. Larger amortizes the
    /// fold better; smaller keeps the per-read log scan shorter. Raised
    /// to 2; Build rejects more than 2^20 (dynamic::CheckCfg).
    size_t log_cap = 1024;
  };
  using config_type = Config;

  ConcurrentWritableIndex() = default;
  ConcurrentWritableIndex(ConcurrentWritableIndex&&) noexcept = default;
  ConcurrentWritableIndex& operator=(ConcurrentWritableIndex&&) noexcept =
      default;

  /// Builds the initial version over `keys` (sorted, strictly increasing;
  /// copied — merges replace the array) and starts the background merge
  /// worker. Not thread-safe against other methods (build-then-share, the
  /// same discipline as every container). On failure the handle reverts
  /// to the never-built state: reads answer empty, writes return false,
  /// Merge fails cleanly — never UB (the library-wide convention).
  Status Build(std::span<const key_type> keys, const Config& config) {
    impl_ = std::make_unique<Impl>();
    const Status st = impl_->Build(keys, config);
    if (!st.ok()) impl_.reset();
    return st;
  }

  // ---- reads: lock-free, safe from any thread ----

  size_t Lookup(const key_type& key) const {
    return impl_ ? impl_->Lookup(key) : 0;
  }
  size_t LowerBound(const key_type& key) const { return Lookup(key); }
  index::Approx ApproxPos(const key_type& key) const {
    return impl_ ? impl_->ApproxPos(key) : index::Approx{};
  }
  void LookupBatch(std::span<const key_type> keys,
                   std::span<size_t> out) const {
    if (impl_ != nullptr) {
      impl_->LookupBatch(keys, out);
    } else {
      for (size_t i = 0; i < out.size(); ++i) out[i] = 0;
    }
  }
  bool Contains(const key_type& key) const {
    return impl_ != nullptr && impl_->Contains(key);
  }
  /// Up to `limit` live keys >= `from`, ascending, from one version. Cost:
  /// one model lookup (which also positions the frozen seek), one vector
  /// pass over the log's key column (two when the log holds an erase),
  /// O(limit + E) merge work for E log erases >= `from`, and a sort of
  /// the log writes in the window.
  std::vector<key_type> Scan(const key_type& from, size_t limit) const {
    return impl_ ? impl_->Scan(from, limit) : std::vector<key_type>{};
  }
  size_t size() const { return impl_ ? impl_->size() : 0; }
  size_t SizeBytes() const { return impl_ ? impl_->SizeBytes() : 0; }

  // ---- writes: safe from any thread, serialized internally ----

  bool Insert(const key_type& key) {
    return impl_ != nullptr && impl_->Write(key, /*tombstone=*/false);
  }
  bool Erase(const key_type& key) {
    return impl_ != nullptr && impl_->Write(key, /*tombstone=*/true);
  }

  // ---- merge control ----

  /// Synchronous merge cycle: folds everything written before the call
  /// into the base. Blocks the caller only; readers stay lock-free.
  Status Merge() {
    return impl_ ? impl_->worker_.RunSync()
                 : Status::FailedPrecondition(
                       "ConcurrentWritableIndex: not built");
  }
  /// Asynchronous merge trigger; coalesces with a pending request.
  void RequestMerge() {
    if (impl_ != nullptr) impl_->worker_.Request();
  }
  /// Blocks until no merge is pending or running (the quiesce point).
  void WaitForMerges() {
    if (impl_ != nullptr) impl_->worker_.WaitIdle();
  }
  /// Outcome of the most recent background merge cycle.
  Status last_merge_status() const {
    return impl_ ? impl_->worker_.last_status() : Status::OK();
  }

  // ---- Durability (index::DurableIndex; docs/DURABILITY.md) ----

  /// Attach a fresh write-ahead log at cfg.path; subsequent writes are
  /// log-then-apply. Call after Build (or after a snapshot): earlier
  /// writes are only recoverable through a snapshot containing them.
  Status EnableDurability(const wal::DurabilityConfig& cfg) {
    return impl_ ? impl_->EnableDurability(cfg)
                 : Status::FailedPrecondition(
                       "ConcurrentWritableIndex: not built");
  }

  /// Replay the log past the snapshot's covered LSN through the normal
  /// write path, then resume logging to the same file (torn tail
  /// truncated, missing file started fresh).
  Status RecoverFromWal(const wal::DurabilityConfig& cfg) {
    return impl_ ? impl_->RecoverFromWal(cfg)
                 : Status::FailedPrecondition(
                       "ConcurrentWritableIndex: not built");
  }

  bool durable() const { return impl_ != nullptr && impl_->durable(); }

  /// Sticky status of the logging path (an append failure poisons the
  /// log; the in-memory index keeps serving).
  Status wal_status() const {
    return impl_ ? impl_->wal_status() : Status::OK();
  }

  wal::WalStats DurabilityStats() const {
    return impl_ ? impl_->DurabilityStats() : wal::WalStats{};
  }

  /// Flush the group-commit window now.
  Status SyncWal() { return impl_ ? impl_->SyncWal() : Status::OK(); }

  // ---- Persistence (index::Snapshottable; docs/PERSISTENCE.md) ----
  // WriteSnapshot quiesces writers on the writer mutex just long enough
  // to fold the live write log + frozen delta into one sorted entry list
  // (the same fold the freeze path uses) and pin the base via its
  // shared_ptr; serialization then runs outside the lock against the
  // pinned immutable pieces. Readers stay lock-free throughout, and an
  // in-flight background merge publishes before or after the capture,
  // never during (publish takes the same mutex). OpenSnapshot rebuilds a
  // fully writable index: the key array is copied (merges replace it),
  // the base model loads against the copy without retraining, and the
  // background merge worker restarts.

  Status WriteSections(snapshot::SnapshotWriter& writer,
                       const std::string& prefix) const {
    if (impl_ == nullptr) {
      return Status::FailedPrecondition("ConcurrentWritableIndex: not built");
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
    LI_RETURN_IF_ERROR(index::WriteSnapshotViaSections(*this, path));
    // The snapshot is published; truncate the log behind the LSN it
    // covers (no-op when durability is off).
    return impl_ ? impl_->TruncateWalAfterPublish() : Status::OK();
  }

  static Result<ConcurrentWritableIndex> OpenSnapshot(
      const std::string& path, const snapshot::OpenOptions& opts = {}) {
    return index::OpenSnapshotViaSections<ConcurrentWritableIndex>(path,
                                                                   opts);
  }

  index::WritableIndexStats Stats() const {
    return impl_ ? impl_->Stats() : index::WritableIndexStats{};
  }
  index::ConcurrentIndexStats ConcurrentStats() const {
    return impl_ ? impl_->ConcurrentStats() : index::ConcurrentIndexStats{};
  }
  const Config& config() const {
    static const Config kEmpty{};
    return impl_ ? impl_->config_ : kEmpty;
  }

 private:
  using DeltaEntry = dynamic::DeltaEntry<key_type>;
  using KeyHistory = WriteLog::KeyHistory;

  /// One immutable published version. Only the log tail changes after
  /// publication, and only under the writer mutex.
  struct State {
    explicit State(size_t log_cap) : log(log_cap) {}

    std::shared_ptr<const std::vector<key_type>> base_keys;
    std::shared_ptr<const Base> base;  // spans *base_keys
    dynamic::DeltaBuffer<key_type> frozen;  // paired with *base_keys
    WriteLog log;
  };
  using Cell = VersionedCell<State>;

  struct Impl {
    Status Build(std::span<const key_type> keys, const Config& config) {
      config_ = config;
      config_.log_cap = std::max<size_t>(config.log_cap, 2);
      LI_RETURN_IF_ERROR(dynamic::CheckCfg(
          dynamic::DeltaSnapshotCfg{config_.policy, config_.log_cap}));
      auto bk = std::make_shared<std::vector<key_type>>(keys.begin(),
                                                        keys.end());
      auto base = std::make_shared<Base>();
      LI_RETURN_IF_ERROR(
          base->Build(std::span<const key_type>(*bk), config_.base));
      live_count_.store(static_cast<int64_t>(keys.size()),
                        std::memory_order_relaxed);
      Start(NewState(std::move(bk), std::move(base), {}));
      return Status::OK();
    }

    // ---- read path ----

    size_t Lookup(const key_type& key) const {
      const auto s = cell_.Pin();
      return RawLookupIn(*s, s->log.count(), key);
    }

    index::Approx ApproxPos(const key_type& key) const {
      const auto s = cell_.Pin();
      const uint32_t n = s->log.count();
      return index::Approx::Exact(RawLookupIn(*s, n, key),
                                  LiveCountIn(*s, n));
    }

    void LookupBatch(std::span<const key_type> keys,
                     std::span<size_t> out) const {
      const size_t m = std::min(keys.size(), out.size());
      const auto s = cell_.Pin();
      const uint32_t n = s->log.count();
      // Base ranks through the base's native batch path (the RMI software
      // pipeline), then the delta adjustment per key, its frozen seek
      // positioned by that rank — with an empty delta this runs at base
      // batch throughput.
      index::LookupBatch(*s->base, keys, out);
      if (s->frozen.empty() && n == 0) return;
      for (size_t i = 0; i < m; ++i) {
        const int64_t adj =
            s->frozen.RankAdjustBelow(s->frozen.Seek(keys[i], out[i])) +
            s->log.NetBelow(n, keys[i]);
        out[i] = static_cast<size_t>(static_cast<int64_t>(out[i]) + adj);
      }
    }

    bool Contains(const key_type& key) const {
      const auto s = cell_.Pin();
      return LiveIn(*s, s->log.count(), key);
    }

    std::vector<key_type> Scan(const key_type& from, size_t limit) const {
      std::vector<key_type> out;
      if (limit == 0) return out;
      const auto s = cell_.Pin();
      const uint32_t n = s->log.count();
      // Two bounded stages over this version and its log prefix, never a
      // sort of the whole log.
      //
      // 1. Window. The log's tombstones at or above `from` number E, so
      //    the log removes at most E distinct keys from any range. Take
      //    the first limit + E live keys >= `from` of base + frozen (the
      //    streamed merge DeltaRangeIndex::Scan runs: base copied up to
      //    each frozen entry, frozen shadowing and cancelling base keys).
      const size_t erases = s->log.TombstonesFrom(n, from);
      const size_t cap = limit + std::min(erases, SIZE_MAX - limit);
      std::vector<key_type> window = dynamic::LiveKeys(
          std::span<const key_type>(*s->base_keys), s->frozen,
          s->base->Lookup(from), &from, cap);
      // 2. Overlay. A full window ends at hi = window.back(), and the
      //    live set within [from, hi] still holds at least
      //    (limit + E) - E = limit keys after the log's writes, so the
      //    answer ends at or before hi: only log writes inside
      //    [from, hi] (all >= from when the window is short) can reach
      //    it. Merge their newest write per key into the window — an
      //    insert adds its key, an erase drops it.
      const std::vector<KeyHistory> writes = s->log.NewestPerKey(
          n, from, window.size() == cap ? window.back() : UINT64_MAX);
      if (writes.empty()) {
        if (window.size() > limit) window.resize(limit);
        return window;
      }
      out.reserve(std::min(limit, window.size() + writes.size()));
      size_t i = 0, wi = 0;
      while (out.size() < limit &&
             (i < window.size() || wi < writes.size())) {
        if (wi == writes.size() ||
            (i < window.size() && window[i] < writes[wi].key)) {
          out.push_back(window[i++]);
          continue;
        }
        if (i < window.size() && window[i] == writes[wi].key) ++i;
        if (!s->log.tombstone(writes[wi].newest)) {
          out.push_back(writes[wi].key);
        }
        ++wi;
      }
      return out;
    }

    size_t size() const {
      const int64_t n = live_count_.load(std::memory_order_relaxed);
      return n > 0 ? static_cast<size_t>(n) : 0;
    }

    size_t SizeBytes() const {
      const auto s = cell_.Pin();
      return s->base->SizeBytes() + s->frozen.SizeBytes() +
             s->log.SizeBytes();
    }

    // ---- write path ----

    bool Write(const key_type& key, bool tombstone) {
      typename Cell::Writer w(cell_, /*count_contention=*/true);
      // Log-then-apply: the WAL append happens under the writer mutex
      // before the in-memory log-entry publish, so WAL order == LSN
      // order == acknowledgement order, and a crash after the append
      // but before the publish at worst replays a write the caller was
      // never acked for (safe: replay goes through this same path).
      wal_.Append(tombstone ? wal::WalRecordType::kErase
                            : wal::WalRecordType::kInsert,
                  &key, sizeof(key));
      State* s = w.get();
      if (s->log.full_locked()) s = FreezeLocked(w, *s);
      const uint32_t n = s->log.count_locked();
      // Under the writer mutex no pin is needed: only writers swap state.
      const bool live_before = LiveIn(*s, n, key);
      live_count_.fetch_add(s->log.Append(key, tombstone, live_before),
                            std::memory_order_relaxed);
      (tombstone ? erases_ : inserts_).fetch_add(1, std::memory_order_relaxed);
      if (dynamic::ShouldMerge(config_.policy, s->frozen.entry_count() + n + 1,
                               s->base_keys->size())) {
        worker_.Request();
      }
      return tombstone ? live_before : !live_before;
    }

    // ---- persistence ----

    Status WriteSections(snapshot::SnapshotWriter& writer,
                         const std::string& prefix) const {
      // Capture a consistent point-in-time version under the writer
      // mutex: writers and merge publishes are excluded for the O(delta)
      // fold only; readers are undisturbed.
      std::shared_ptr<const std::vector<key_type>> keys;
      std::shared_ptr<const Base> base;
      std::vector<DeltaEntry> folded;
      std::optional<wal::WalSnapshotMeta> wal_meta;
      {
        typename Cell::Writer w(cell_);
        const State& s = *w.get();
        // Redundancy drop is legal here regardless of a pending rebase:
        // the snapshot pairs the fold with this *same* captured base.
        folded = FoldedEntries(s, s.log.count_locked(),
                               /*drop_redundant=*/true);
        keys = s.base_keys;
        base = s.base;
        // Every record so far is reflected in this capture (appends
        // serialize on the same mutex), so the snapshot covers it and
        // truncation behind it is safe after publish.
        wal_meta = wal_.CaptureCovered();
      }
      // Serialization outside the lock: every captured piece is
      // immutable and shared_ptr-pinned (a concurrent merge may retire
      // the version, not free these).
      return dynamic::WriteDeltaSections(
          writer, prefix,
          dynamic::DeltaSnapshotCfg{config_.policy, config_.log_cap},
          wal_meta, std::span<const key_type>(*keys), *base,
          std::span<const DeltaEntry>(folded));
    }

    /// Rebuilds a live index from snapshot sections: fresh Impl only
    /// (build-then-share discipline, same as Build).
    Status LoadSections(const snapshot::SnapshotReader& reader,
                        const std::string& prefix) {
      dynamic::DeltaSnapshotCfg cfg;
      auto bk = std::make_shared<std::vector<key_type>>();
      auto base = std::make_shared<Base>();
      std::vector<DeltaEntry> entries;
      LI_RETURN_IF_ERROR(dynamic::ReadDeltaSections(
          reader, prefix, &cfg, bk.get(), base.get(), &entries, &wal_));
      config_.policy = cfg.policy;
      config_.log_cap = cfg.cap;
      config_.base = base->config();
      State* s = NewState(std::move(bk), std::move(base), entries);
      live_count_.store(static_cast<int64_t>(s->base_keys->size()) +
                            s->frozen.LiveAdjustTotal(),
                        std::memory_order_relaxed);
      Start(s);
      return Status::OK();
    }

    // ---- durability (wal_ is guarded by the writer mutex) ----

    Status EnableDurability(const wal::DurabilityConfig& cfg) {
      std::lock_guard<std::mutex> lk(cell_.mutex());
      return wal_.Enable(cfg, sizeof(key_type));
    }

    Status RecoverFromWal(const wal::DurabilityConfig& cfg) {
      // Replay through the normal write path (no log attached yet, so
      // nothing re-logs); recovery is single-threaded by contract.
      return wal_.Recover(
          cfg, sizeof(key_type),
          [&](wal::WalRecordType type, const void* payload) {
            key_type k;
            std::memcpy(&k, payload, sizeof(k));
            Write(k, type == wal::WalRecordType::kErase);
          },
          &cell_.mutex());
    }

    Status TruncateWalAfterPublish() const {
      // Under the writer mutex no append can race the rotation scan.
      std::lock_guard<std::mutex> lk(cell_.mutex());
      return wal_.TruncateAfterPublish();
    }

    bool durable() const {
      std::lock_guard<std::mutex> lk(cell_.mutex());
      return wal_.attached();
    }

    Status wal_status() const {
      std::lock_guard<std::mutex> lk(cell_.mutex());
      return wal_.status();
    }

    wal::WalStats DurabilityStats() const {
      std::lock_guard<std::mutex> lk(cell_.mutex());
      return wal_.stats();
    }

    Status SyncWal() {
      std::lock_guard<std::mutex> lk(cell_.mutex());
      return wal_.Sync();
    }

    // ---- stats ----

    index::WritableIndexStats Stats() const {
      return FillStats<index::WritableIndexStats>();
    }

    index::ConcurrentIndexStats ConcurrentStats() const {
      index::ConcurrentIndexStats s =
          FillStats<index::ConcurrentIndexStats>();
      s.freezes = freezes_.load(std::memory_order_relaxed);
      s.background_merges = s.merges;
      cell_.AddStats(s);
      s.log_entries = cell_.Pin()->log.count();
      return s;
    }

    // ---- internals ----

    void Start(State* first) {
      cell_.Init(first);
      worker_.Start([this](bool*) { return DoBackgroundMerge(); });
    }

    /// A version over `keys` whose frozen run holds `frozen`; `prev` is
    /// the frozen run of a version over the same keys, if any (it speeds
    /// up the fence build).
    State* NewState(
        std::shared_ptr<const std::vector<key_type>> keys,
        std::shared_ptr<const Base> base, std::span<const DeltaEntry> frozen,
        const dynamic::DeltaBuffer<key_type>* prev = nullptr) const {
      State* s = new State(config_.log_cap);
      s->base_keys = std::move(keys);
      s->base = std::move(base);
      s->frozen = dynamic::DeltaBuffer<key_type>::FromSortedEntries(
          frozen, *s->base_keys, 2, prev);
      return s;
    }

    size_t RawLookupIn(const State& s, uint32_t n,
                       const key_type& key) const {
      const size_t bi = s.base->Lookup(key);
      const int64_t rank = static_cast<int64_t>(bi) +
                           s.frozen.RankAdjustBelow(s.frozen.Seek(key, bi)) +
                           s.log.NetBelow(n, key);
      return rank > 0 ? static_cast<size_t>(rank) : 0;
    }

    size_t LiveCountIn(const State& s, uint32_t n) const {
      const int64_t c = static_cast<int64_t>(s.base_keys->size()) +
                        s.frozen.LiveAdjustTotal() + s.log.NetTotal(n);
      return c > 0 ? static_cast<size_t>(c) : 0;
    }

    /// Liveness of `key` as of the first n log writes of `s`: its newest
    /// log write, else its frozen entry, else base membership read off
    /// the base rank that positioned the frozen seek.
    static bool LiveIn(const State& s, uint32_t n, const key_type& key) {
      if (const uint32_t w = s.log.NewestWrite(n, key); w < n) {
        return !s.log.tombstone(w);
      }
      const size_t bi = s.base->Lookup(key);
      if (const auto e = s.frozen.Find(key, bi)) return !e->tombstone;
      return dynamic::BaseHolds(std::span<const key_type>(*s.base_keys), bi,
                                key);
    }

    /// Newest-wins fold of `s.frozen` + `s.log[0..n)` into one sorted
    /// entry list, `in_base` still relative to s's base. With
    /// `drop_redundant`, entries whose final state matches the base
    /// (re-insert of a base key, erase of an absent key) are dropped —
    /// valid only when the result is paired with the *same* base.
    std::vector<DeltaEntry> FoldedEntries(const State& s, uint32_t n,
                                          bool drop_redundant) const {
      const std::vector<KeyHistory> writes =
          s.log.NewestPerKey(n, 0, UINT64_MAX);
      std::vector<DeltaEntry> out;
      out.reserve(s.frozen.entry_count() + writes.size());
      // A key's newest write decides its state; in_base comes from the
      // frozen entry it shadows, else from its oldest write's prior
      // liveness, which *is* base membership (no frozen or log
      // predecessor existed).
      auto add_write = [&](const KeyHistory& w, const DeltaEntry* shadowed) {
        const bool in_base = shadowed != nullptr ? shadowed->in_base
                                                 : s.log.live_before(w.oldest);
        const bool tombstone = s.log.tombstone(w.newest);
        if (!drop_redundant || tombstone == in_base) {
          out.push_back(DeltaEntry{w.key, tombstone, in_base});
        }
      };
      size_t wi = 0;
      s.frozen.VisitAll([&](const DeltaEntry& fe) {
        for (; wi < writes.size() && writes[wi].key < fe.key; ++wi) {
          add_write(writes[wi], nullptr);
        }
        if (wi < writes.size() && writes[wi].key == fe.key) {
          add_write(writes[wi++], &fe);
        } else {
          out.push_back(fe);
        }
        return true;
      });
      for (; wi < writes.size(); ++wi) add_write(writes[wi], nullptr);
      return out;
    }

    /// Folds the full write log into the frozen delta and publishes the
    /// result as a new version (same base). Returns the new version.
    ///
    /// The redundancy drop is only legal while no merge is in flight:
    /// dropping an entry whose final state matches the *current* base
    /// (e.g. the erase of a key the base does not hold) loses exactly the
    /// tombstone the publish-time rebase would need when that key was
    /// captured in the rotation snapshot and is being baked into the NEW
    /// base right now. With a rebase pending, every entry is kept
    /// (contribution-0 entries are semantically inert) and the publish
    /// step filters against the new base instead.
    State* FreezeLocked(typename Cell::Writer& w, const State& s) {
      State* ns = NewState(
          s.base_keys, s.base,
          FoldedEntries(s, s.log.count_locked(),
                        /*drop_redundant=*/!merge_rebase_pending_),
          &s.frozen);
      w.Publish(ns);
      freezes_.fetch_add(1, std::memory_order_relaxed);
      return ns;
    }

    /// One background merge cycle (the worker's body).
    Status DoBackgroundMerge() {
      Timer timer;
      std::shared_ptr<const std::vector<key_type>> old_keys;
      dynamic::DeltaBuffer<key_type> frozen_copy;
      {
        // Phase 1 — rotate: fold any pending log so the delta to merge is
        // an immutable snapshot, then copy it out (O(delta), brief).
        typename Cell::Writer w(cell_);
        State* s = w.get();
        if (s->log.count_locked() > 0) s = FreezeLocked(w, *s);
        if (s->frozen.empty()) return Status::OK();
        frozen_copy = s->frozen;
        old_keys = s->base_keys;
        // From here until publish, freezes must keep every fold entry:
        // the snapshot just taken is being baked into the next base, so
        // "redundant vs the old base" no longer implies droppable.
        merge_rebase_pending_ = true;
      }
      // Phase 2 — build off to the side: no locks, readers undisturbed.
      // An RMI base trains on this thread alone, not on a core per 2^18
      // keys as RmiIndex::Build would: readers run beside the merge, and a
      // fanned-out 1M-key merge cost ycsb_e 4-9% throughput on a 4-vCPU
      // host (docs/BENCHMARKS.md).
      auto merged = std::make_shared<std::vector<key_type>>(
          dynamic::MergeLiveKeys(std::span<const key_type>(*old_keys),
                                 frozen_copy));
      const std::span<const key_type> merged_keys(*merged);
      auto new_base = std::make_shared<Base>();
      Status built;
      if constexpr (requires { new_base->BuildOnWorkers(merged_keys,
                                                        config_.base, 1); }) {
        built = new_base->BuildOnWorkers(merged_keys, config_.base, 1);
      } else {
        built = new_base->Build(merged_keys, config_.base);
      }
      if (!built.ok()) {
        typename Cell::Writer w(cell_);
        merge_rebase_pending_ = false;  // old base stays; drops legal again
        return built;
      }
      {
        // Phase 3 — publish: rebase the delta that accumulated during the
        // build onto the new base, swap the version in, retire the old.
        // The folded entries ascend, so one forward gallop over the new
        // base finds each one's membership.
        typename Cell::Writer w(cell_);
        const State& s = *w.get();
        std::vector<DeltaEntry> rebased;
        size_t pos = 0;
        for (const DeltaEntry& e :
             FoldedEntries(s, s.log.count_locked(), /*drop_redundant=*/false)) {
          pos += search::ExponentialSearch(merged->data() + pos,
                                           merged->size() - pos, e.key, 0);
          const bool in_nb = dynamic::BaseHolds(
              std::span<const key_type>(*merged), pos, e.key);
          // Keep only entries the new base does not already reflect.
          if (e.tombstone == in_nb) {
            rebased.push_back(DeltaEntry{e.key, e.tombstone, in_nb});
          }
        }
        w.Publish(NewState(merged, std::move(new_base), rebased));
        merge_rebase_pending_ = false;
        merges_.fetch_add(1, std::memory_order_relaxed);
      }
      const uint64_t ns_elapsed = static_cast<uint64_t>(timer.ElapsedNanos());
      last_merge_ns_.store(ns_elapsed, std::memory_order_relaxed);
      total_merge_ns_.fetch_add(ns_elapsed, std::memory_order_relaxed);
      return Status::OK();
    }

    template <typename S>
    S FillStats() const {
      S s{};
      s.inserts = inserts_.load(std::memory_order_relaxed);
      s.erases = erases_.load(std::memory_order_relaxed);
      s.merges = merges_.load(std::memory_order_relaxed);
      s.last_merge_ns =
          static_cast<double>(last_merge_ns_.load(std::memory_order_relaxed));
      s.total_merge_ns = static_cast<double>(
          total_merge_ns_.load(std::memory_order_relaxed));
      const auto st = cell_.Pin();
      s.delta_entries = st->frozen.entry_count() + st->log.count();
      s.base_keys = st->base_keys->size();
      return s;
    }

    Config config_{};
    // mutable: the const snapshot and durability paths take its mutex.
    mutable Cell cell_;
    std::atomic<int64_t> live_count_{0};

    // Write-side counters; reads count nothing.
    std::atomic<uint64_t> inserts_{0};
    std::atomic<uint64_t> erases_{0};
    std::atomic<uint64_t> merges_{0};
    std::atomic<uint64_t> freezes_{0};
    std::atomic<uint64_t> last_merge_ns_{0};
    std::atomic<uint64_t> total_merge_ns_{0};
    // True between merge rotation and publish (writer-mutex holders
    // only): freeze folds must not drop entries then — see FreezeLocked.
    bool merge_rebase_pending_ = false;
    // Writer-mutex holders only; mutable because the const snapshot
    // path stashes the covered LSN and truncates after publish.
    mutable wal::IndexWal wal_;

    // Declared last: stops before the state its cycles touch.
    BackgroundWorker worker_;
  };

  std::unique_ptr<Impl> impl_;
};

}  // namespace li::concurrent

#endif  // LI_CONCURRENT_CONCURRENT_WRITABLE_INDEX_H_
