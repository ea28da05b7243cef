// ConcurrentPointIndex<Base> — the thread-safe write path over the
// static point-map families (ChainedHashMap, InplaceChainedMap,
// CuckooMap), behind the library-wide
// index::ConcurrentWritablePointIndex contract.
//
// Same version architecture as the range side (the shared core in
// concurrent/versioned.h), specialized to keyed records:
//
//   State = { base records + built Base map   (shared with older versions)
//           , frozen overlay                  (sorted, one entry per key,
//                                              newest sequence number wins)
//           , write log                       (append-only, bounded) }
//
// Readers pin an epoch, load the current version with one atomic load,
// and answer newest-first: log suffix -> frozen overlay -> base map. The
// log-count store is the serialization point. Every overlay entry carries
// the full record plus a monotone per-write sequence number; reads copy
// the record out under the pin (the contract is value-semantics exactly
// because a base pointer would dangle once a rebuild retires its
// version).
//
// Writers serialize on one mutex (contention is counted), append to the
// log, and publish the new count with a release store. A full log is
// *frozen*: folded into the sorted overlay, republished as a new version,
// the old one retired to the epoch manager.
//
// Rehash/resize runs on a background worker so no caller ever pays the
// table rebuild inline:
//   1. rotate: fold any pending log so the overlay to fold is a frozen,
//      immutable snapshot; record the snapshot sequence number (brief
//      writer lock);
//   2. build: apply the snapshot overlay over the base records and build
//      a replacement table over the merged set — off to the side, no
//      locks held. Cuckoo kick-chains run entirely against this private
//      table, never the published one, and an explicit slot budget is
//      rescaled to the merged record count (this is where resize
//      happens);
//   3. publish: keep only overlay entries written *after* the snapshot
//      sequence number (everything else is baked into the new table),
//      swap the version in atomically, retire the old one (brief writer
//      lock).
// The sequence-number rebase is what makes upserts safe: a payload
// update that raced the build keeps shadowing the new base, while
// anything the build captured is dropped without a by-key membership
// probe. Readers never block on any phase; a failed rebuild (e.g. a
// cuckoo table that cannot place at the configured load factor even
// after the fallback relaxations) leaves the old version serving and
// surfaces through last_rebuild_status().
//
// Single-threaded use degenerates to exact map semantics (same oracle
// conformance suite as the static families), so the concurrent point
// wrappers are qualified with the same contract checks as everything
// else.

#ifndef LI_CONCURRENT_CONCURRENT_POINT_INDEX_H_
#define LI_CONCURRENT_CONCURRENT_POINT_INDEX_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "concurrent/versioned.h"
#include "hash/record.h"
#include "index/concurrent_point_index.h"
#include "index/concurrent_writable_index.h"
#include "index/point_index.h"

namespace li::concurrent {

template <index::PointIndex Base>
class ConcurrentPointIndex {
 public:
  using base_type = Base;
  using base_config_type = typename Base::config_type;

  struct Config {
    base_config_type base{};
    /// Write-log capacity: how many writes a version absorbs before the
    /// log is folded into the sorted frozen overlay.
    size_t log_cap = 1024;
    /// Overlay entries (frozen + log) that trigger a background rebuild
    /// of the base table; 0 disables the automatic trigger
    /// (RequestRebuild still works).
    size_t rebuild_entries = 4096;
  };
  using config_type = Config;

  ConcurrentPointIndex() = default;
  ConcurrentPointIndex(ConcurrentPointIndex&&) noexcept = default;
  ConcurrentPointIndex& operator=(ConcurrentPointIndex&&) noexcept = default;

  /// Builds the initial version over `records` (any order, duplicate keys
  /// keep the FIRST record seen — the static families' Build contract)
  /// and starts the background rebuild worker. An empty span is allowed:
  /// the index starts empty and grows by Insert. Not thread-safe against
  /// other methods (build-then-share). On failure the handle reverts to
  /// the never-built state: reads answer absent, writes return false.
  Status Build(std::span<const hash::Record> records, const Config& config) {
    impl_ = std::make_unique<Impl>();
    const Status st = impl_->Build(records, config);
    if (!st.ok()) impl_.reset();
    return st;
  }

  // ---- reads: lock-free, safe from any thread ----

  /// Copies the stored record for `key` into `*out` and returns true, or
  /// returns false when absent (out untouched).
  bool Find(uint64_t key, hash::Record* out) const {
    return impl_ != nullptr && impl_->Find(key, out);
  }
  /// Batched copy-out probe: found[i] = 1 and recs[i] = the record when
  /// keys[i] is present, else found[i] = 0. Routed through the base
  /// map's native (SIMD-dispatched) batch path for the keys the overlay
  /// does not shadow. Mismatched span lengths clamp to the shortest.
  void FindBatch(std::span<const uint64_t> keys, std::span<hash::Record> recs,
                 std::span<uint8_t> found) const {
    if (impl_ != nullptr) {
      impl_->FindBatch(keys, recs, found);
    } else {
      const size_t n = std::min({keys.size(), recs.size(), found.size()});
      for (size_t i = 0; i < n; ++i) found[i] = 0;
    }
  }
  size_t num_records() const { return impl_ ? impl_->num_records() : 0; }
  size_t SizeBytes() const { return impl_ ? impl_->SizeBytes() : 0; }
  /// Occupancy stats of the published base table. The overlay is not a
  /// hashed structure; its size is ConcurrentStats().delta_entries.
  index::PointIndexStats Stats() const {
    return impl_ ? impl_->Stats() : index::PointIndexStats{};
  }
  index::ConcurrentIndexStats ConcurrentStats() const {
    return impl_ ? impl_->ConcurrentStats() : index::ConcurrentIndexStats{};
  }

  // ---- writes: safe from any thread, serialized internally ----

  /// First-wins insert: true iff the key was absent (an existing record
  /// is not overwritten, matching Build's dedup rule).
  bool Insert(const hash::Record& rec) {
    return impl_ != nullptr && impl_->Write(rec, WriteKind::kInsert);
  }
  /// Last-write-wins store: true iff the key was absent.
  bool Upsert(const hash::Record& rec) {
    return impl_ != nullptr && impl_->Write(rec, WriteKind::kUpsert);
  }
  /// True iff the key was present.
  bool Erase(uint64_t key) {
    return impl_ != nullptr &&
           impl_->Write(hash::Record{key, 0, 0}, WriteKind::kErase);
  }

  // ---- rebuild control ----

  /// Synchronous rebuild cycle: folds everything written before the call
  /// into a fresh base table. Blocks the caller only; readers stay
  /// lock-free.
  Status Rebuild() {
    return impl_ ? impl_->worker_.RunSync()
                 : Status::FailedPrecondition(
                       "ConcurrentPointIndex: not built");
  }
  /// Asynchronous rebuild trigger; coalesces with a pending request.
  void RequestRebuild() {
    if (impl_ != nullptr) impl_->worker_.Request();
  }
  /// Blocks until no rebuild is pending or running (the quiesce point).
  void WaitForRebuilds() {
    if (impl_ != nullptr) impl_->worker_.WaitIdle();
  }
  /// Outcome of the most recent background rebuild cycle.
  Status last_rebuild_status() const {
    return impl_ ? impl_->worker_.last_status() : Status::OK();
  }

  const Config& config() const {
    static const Config kEmpty{};
    return impl_ ? impl_->config_ : kEmpty;
  }

 private:
  enum class WriteKind { kInsert, kUpsert, kErase };

  /// One overlay entry: the full record, its tombstone flag, and the
  /// monotone sequence number of the write that produced it — the rebase
  /// watermark the publish step filters on.
  struct OvEntry {
    hash::Record rec{};
    uint64_t seq = 0;
    bool tombstone = false;
  };

  struct State {
    explicit State(size_t log_cap) : log(log_cap) {}
    std::shared_ptr<const std::vector<hash::Record>> base_records;
    std::shared_ptr<const Base> base;  // built over *base_records
    std::vector<OvEntry> frozen;       // sorted by key, one entry per key
    AppendLog<OvEntry> log;
  };
  using Cell = VersionedCell<State>;

  struct alignas(64) ReadStripe {
    std::atomic<uint64_t> lookups{0};
    std::atomic<uint64_t> overlay_hits{0};
  };
  static constexpr size_t kStripes = 16;

  struct Impl {
    Status Build(std::span<const hash::Record> records, const Config& config) {
      config_ = config;
      config_.log_cap = std::max<size_t>(config.log_cap, 2);
      // Sort + first-wins dedup so merges are a linear two-pointer pass.
      auto br = std::make_shared<std::vector<hash::Record>>(records.begin(),
                                                            records.end());
      std::stable_sort(br->begin(), br->end(),
                       [](const hash::Record& a, const hash::Record& b) {
                         return a.key < b.key;
                       });
      br->erase(std::unique(br->begin(), br->end(),
                            [](const hash::Record& a, const hash::Record& b) {
                              return a.key == b.key;
                            }),
                br->end());
      auto base = std::make_shared<Base>();
      if (!br->empty()) {
        LI_RETURN_IF_ERROR(
            base->Build(std::span<const hash::Record>(*br), config_.base));
      }
      // An explicit slot budget becomes a slots-per-record ratio so
      // rebuilds resize the table with the data instead of pinning the
      // original slot count forever.
      if constexpr (requires { config_.base.num_slots; }) {
        if (config_.base.num_slots != 0 && !br->empty()) {
          slots_per_record_ = static_cast<double>(config_.base.num_slots) /
                              static_cast<double>(br->size());
        }
      }
      live_count_.store(static_cast<int64_t>(br->size()),
                        std::memory_order_relaxed);
      cell_.Init(NewState(std::move(br), std::move(base), {}));
      worker_.Start([this](bool*) { return DoBackgroundRebuild(); });
      return Status::OK();
    }

    // ---- read path ----

    bool Find(uint64_t key, hash::Record* out) const {
      ReadStripe& stripe = Stripe();
      stripe.lookups.fetch_add(1, std::memory_order_relaxed);
      const auto s = cell_.Pin();
      const int ov = OverlayFind(*s, s->log.count(), key, out);
      if (ov >= 0) {
        stripe.overlay_hits.fetch_add(1, std::memory_order_relaxed);
        return ov == 1;
      }
      const hash::Record* r = s->base->Find(key);
      if (r == nullptr) return false;
      *out = *r;  // copied under the epoch pin; safe past it
      return true;
    }

    void FindBatch(std::span<const uint64_t> keys,
                   std::span<hash::Record> recs,
                   std::span<uint8_t> found) const {
      const size_t m = std::min({keys.size(), recs.size(), found.size()});
      ReadStripe& stripe = Stripe();
      stripe.lookups.fetch_add(m, std::memory_order_relaxed);
      const auto s = cell_.Pin();
      const uint32_t n = s->log.count();
      const bool base_has_records = s->base->num_records() > 0;
      // Blocked: the base's native batch path (the SIMD slot kernels)
      // resolves each block, then the overlay patches the keys it
      // shadows — with an empty overlay this runs at base throughput.
      constexpr size_t kBlock = 128;
      const hash::Record* ptrs[kBlock];
      for (size_t beg = 0; beg < m; beg += kBlock) {
        const size_t len = std::min(kBlock, m - beg);
        if (base_has_records) {
          index::FindBatch(*s->base, keys.subspan(beg, len),
                           std::span<const hash::Record*>(ptrs, len));
        } else {
          for (size_t i = 0; i < len; ++i) ptrs[i] = nullptr;
        }
        for (size_t i = 0; i < len; ++i) {
          hash::Record tmp;
          const int ov = OverlayFind(*s, n, keys[beg + i], &tmp);
          if (ov >= 0) {
            stripe.overlay_hits.fetch_add(1, std::memory_order_relaxed);
            found[beg + i] = ov == 1 ? 1 : 0;
            if (ov == 1) recs[beg + i] = tmp;
          } else if (ptrs[i] != nullptr) {
            found[beg + i] = 1;
            recs[beg + i] = *ptrs[i];
          } else {
            found[beg + i] = 0;
          }
        }
      }
    }

    size_t num_records() const {
      const int64_t n = live_count_.load(std::memory_order_relaxed);
      return n > 0 ? static_cast<size_t>(n) : 0;
    }

    size_t SizeBytes() const {
      const auto s = cell_.Pin();
      return s->base->SizeBytes() +
             s->base_records->size() * sizeof(hash::Record) +
             s->frozen.size() * sizeof(OvEntry) + s->log.SizeBytes();
    }

    index::PointIndexStats Stats() const { return cell_.Pin()->base->Stats(); }

    index::ConcurrentIndexStats ConcurrentStats() const {
      index::ConcurrentIndexStats cs;
      for (const ReadStripe& r : read_stripes_) {
        cs.lookups += r.lookups.load(std::memory_order_relaxed);
        cs.delta_hits += r.overlay_hits.load(std::memory_order_relaxed);
      }
      cs.inserts = inserts_.load(std::memory_order_relaxed);
      cs.erases = erases_.load(std::memory_order_relaxed);
      cs.merges = rebuilds_.load(std::memory_order_relaxed);
      cs.background_merges = cs.merges;
      cs.merged_keys = merged_records_.load(std::memory_order_relaxed);
      cs.last_merge_ns = static_cast<double>(
          last_rebuild_ns_.load(std::memory_order_relaxed));
      cs.total_merge_ns = static_cast<double>(
          total_rebuild_ns_.load(std::memory_order_relaxed));
      cs.freezes = freezes_.load(std::memory_order_relaxed);
      cell_.AddStats(cs);
      const auto s = cell_.Pin();
      const uint32_t n = s->log.count();
      cs.log_entries = n;
      cs.delta_entries = s->frozen.size() + n;
      cs.delta_bytes = s->frozen.size() * sizeof(OvEntry) + s->log.SizeBytes();
      cs.base_keys = s->base_records->size();
      return cs;
    }

    // ---- write path ----

    bool Write(const hash::Record& rec, WriteKind kind) {
      typename Cell::Writer w(cell_, /*count_contention=*/true);
      State* s = w.get();
      hash::Record tmp;
      const int ov = OverlayFind(*s, s->log.count_locked(), rec.key, &tmp);
      const bool live = ov >= 0 ? ov == 1 : s->base->Find(rec.key) != nullptr;
      // No-op writes return without consuming log space: a first-wins
      // insert of a live key, or the erase of an absent one.
      if (live ? kind == WriteKind::kInsert : kind == WriteKind::kErase) {
        return false;
      }
      if (s->log.full_locked()) s = FreezeLocked(w, *s);
      const bool tombstone = kind == WriteKind::kErase;
      s->log.Append(OvEntry{rec, ++seq_last_, tombstone});
      if (tombstone) {
        live_count_.fetch_add(-1, std::memory_order_relaxed);
        erases_.fetch_add(1, std::memory_order_relaxed);
      } else {
        if (!live) live_count_.fetch_add(1, std::memory_order_relaxed);
        inserts_.fetch_add(1, std::memory_order_relaxed);
      }
      if (config_.rebuild_entries != 0 &&
          s->frozen.size() + s->log.count_locked() >=
              config_.rebuild_entries) {
        worker_.Request();
      }
      return tombstone || !live;
    }

    // ---- internals ----

    State* NewState(std::shared_ptr<const std::vector<hash::Record>> records,
                    std::shared_ptr<const Base> base,
                    std::vector<OvEntry> frozen) const {
      State* s = new State(config_.log_cap);
      s->base_records = std::move(records);
      s->base = std::move(base);
      s->frozen = std::move(frozen);
      return s;
    }

    ReadStripe& Stripe() const {
      return read_stripes_[ThisThreadIndex() % kStripes];
    }

    /// Overlay verdict for `key`: 1 = live (record copied into *out),
    /// 0 = tombstoned, -1 = not in the overlay (consult the base).
    /// Newest-first: log suffix before frozen.
    static int OverlayFind(const State& s, uint32_t n, uint64_t key,
                           hash::Record* out) {
      const OvEntry* e = s.log.FindNewest(
          n, [&](const OvEntry& le) { return le.rec.key == key; });
      if (e == nullptr) {
        const auto it = std::lower_bound(
            s.frozen.begin(), s.frozen.end(), key,
            [](const OvEntry& fe, uint64_t k) { return fe.rec.key < k; });
        if (it == s.frozen.end() || it->rec.key != key) return -1;
        e = &*it;
      }
      if (e->tombstone) return 0;
      *out = e->rec;
      return 1;
    }

    /// Newest-wins fold of `s.frozen` + `s.log[0..n)` into one sorted
    /// entry list. Log order is sequence order, so the newest write per
    /// key always shadows its frozen entry.
    static std::vector<OvEntry> FoldedOverlay(const State& s, uint32_t n) {
      std::vector<OvEntry> out;
      out.reserve(s.frozen.size() + n);
      auto key_of = [](const OvEntry& e) { return e.rec.key; };
      FoldNewest(
          WritesByKey<uint64_t>(s.log, n, key_of),
          [&](auto&& fn) {
            for (const OvEntry& fe : s.frozen) {
              if (!fn(fe)) return;
            }
          },
          key_of,
          [&](const OvEntry& fe) {
            out.push_back(fe);
            return true;
          },
          [&](const KeyWrites<uint64_t>& w, const OvEntry*) {
            out.push_back(s.log[w.newest]);
            return true;
          });
      return out;
    }

    /// Folds the full write log into the frozen overlay and publishes the
    /// result as a new version (same base). Returns the new version.
    State* FreezeLocked(typename Cell::Writer& w, const State& s) {
      State* ns = NewState(s.base_records, s.base,
                           FoldedOverlay(s, s.log.count_locked()));
      w.Publish(ns);
      freezes_.fetch_add(1, std::memory_order_relaxed);
      return ns;
    }

    typename Base::config_type ScaledBaseConfig(size_t num_records) const {
      auto bc = config_.base;
      if constexpr (requires { bc.num_slots; }) {
        if (slots_per_record_ > 0.0) {
          bc.num_slots = std::max<size_t>(
              1, static_cast<size_t>(slots_per_record_ *
                                         static_cast<double>(num_records) +
                                     0.5));
        }
      }
      return bc;
    }

    /// Builds the replacement table, relaxing the placement knobs on
    /// failure where the config has them (a cuckoo table can run out of
    /// kicks + stash at an aggressive load factor; backing off the load
    /// factor and enabling the careful two-choice build always converges
    /// well before 0.5).
    static Status BuildBaseWithFallback(std::span<const hash::Record> records,
                                        typename Base::config_type bc,
                                        Base* out) {
      Status st = out->Build(records, bc);
      if constexpr (requires {
                      bc.load_factor;
                      bc.careful;
                    }) {
        while (!st.ok() && bc.load_factor > 0.5) {
          bc.load_factor = std::max(0.5, bc.load_factor * 0.85);
          bc.careful = true;
          *out = Base{};
          st = out->Build(records, bc);
        }
      }
      return st;
    }

    /// One background rebuild cycle (the worker's body).
    Status DoBackgroundRebuild() {
      Timer timer;
      std::shared_ptr<const std::vector<hash::Record>> old_records;
      std::vector<OvEntry> snapshot;
      uint64_t snapshot_seq = 0;
      {
        // Phase 1 — rotate: fold any pending log so the overlay to bake
        // in is an immutable snapshot (O(overlay), brief).
        typename Cell::Writer w(cell_);
        State* s = w.get();
        if (s->log.count_locked() > 0) s = FreezeLocked(w, *s);
        if (s->frozen.empty()) return Status::OK();
        snapshot = s->frozen;
        old_records = s->base_records;
        snapshot_seq = seq_last_;
      }
      // Phase 2 — build off to the side: no locks, readers undisturbed.
      // Kick-chains, probe placement, model training — everything runs
      // against this private table.
      auto merged = std::make_shared<std::vector<hash::Record>>();
      merged->reserve(old_records->size() + snapshot.size());
      {
        size_t bi = 0;
        const std::vector<hash::Record>& br = *old_records;
        for (const OvEntry& e : snapshot) {
          while (bi < br.size() && br[bi].key < e.rec.key) {
            merged->push_back(br[bi++]);
          }
          if (bi < br.size() && br[bi].key == e.rec.key) ++bi;  // shadowed
          if (!e.tombstone) merged->push_back(e.rec);
        }
        while (bi < br.size()) merged->push_back(br[bi++]);
      }
      auto new_base = std::make_shared<Base>();
      if (!merged->empty()) {
        if (const Status st = BuildBaseWithFallback(
                std::span<const hash::Record>(*merged),
                ScaledBaseConfig(merged->size()), new_base.get());
            !st.ok()) {
          return st;  // old version keeps serving; overlay keeps growing
        }
      }
      {
        // Phase 3 — publish: keep only overlay entries written after the
        // snapshot (the new table reflects everything at or before it).
        typename Cell::Writer w(cell_);
        const State& s = *w.get();
        std::vector<OvEntry> rebased;
        for (const OvEntry& e : FoldedOverlay(s, s.log.count_locked())) {
          if (e.seq > snapshot_seq) rebased.push_back(e);
        }
        merged_records_.fetch_add(merged->size(), std::memory_order_relaxed);
        w.Publish(NewState(std::move(merged), std::move(new_base),
                           std::move(rebased)));
        rebuilds_.fetch_add(1, std::memory_order_relaxed);
      }
      const uint64_t ns_elapsed =
          static_cast<uint64_t>(timer.ElapsedNanos());
      last_rebuild_ns_.store(ns_elapsed, std::memory_order_relaxed);
      total_rebuild_ns_.fetch_add(ns_elapsed, std::memory_order_relaxed);
      return Status::OK();
    }

    Config config_{};
    Cell cell_;
    std::atomic<int64_t> live_count_{0};
    double slots_per_record_ = 0.0;  // 0 = base auto-sizes its table
    uint64_t seq_last_ = 0;          // writer-mutex holders only

    // Counters. Read stripes keep reader increments off one shared line.
    mutable ReadStripe read_stripes_[kStripes];
    std::atomic<uint64_t> inserts_{0};
    std::atomic<uint64_t> erases_{0};
    std::atomic<uint64_t> rebuilds_{0};
    std::atomic<uint64_t> merged_records_{0};
    std::atomic<uint64_t> freezes_{0};
    std::atomic<uint64_t> last_rebuild_ns_{0};
    std::atomic<uint64_t> total_rebuild_ns_{0};

    // Declared last: stops before the state its cycles touch.
    BackgroundWorker worker_;
  };

  std::unique_ptr<Impl> impl_;
};

}  // namespace li::concurrent

#endif  // LI_CONCURRENT_CONCURRENT_POINT_INDEX_H_
