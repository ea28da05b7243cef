// RebuildableExistence<Base> — online-insertable existence filtering over
// any static index::ExistenceIndex (plain Bloom, learned Bloom,
// model-hash), behind the library-wide index::ConcurrentExistenceIndex
// contract.
//
// A static filter cannot admit new keys (a learned Bloom in particular
// must re-calibrate its threshold), so inserts land in an *exact* side
// set layered over the published filter:
//
//   State = { filter                      (covers `corpus`, immutable)
//           , corpus                      (sorted keys the filter was
//                                          built over; the rebuild input)
//           , pending                     (sorted keys mid-fold: handed
//                                          to an in-flight rebuild, still
//                                          answered exactly)
//           , frozen side set             (sorted inserted keys)
//           , write log                   (append-only, bounded) }
//
// MightContain answers log -> frozen -> pending -> filter under an epoch
// pin, lock-free; because every side structure is exact, the §5
// no-false-negative guarantee extends to inserted keys the moment Insert
// returns. Writers serialize on one mutex, append to the log, publish the
// count with a release store, and fold a full log into the frozen set as
// a fresh version (the shared core in concurrent/versioned.h, as for
// every concurrent class).
//
// When the side set outgrows `staleness` (side/corpus ratio), a
// background worker rebuilds the filter:
//   1. rotate: fold the log, move frozen -> pending, snapshot corpus +
//      pending (brief writer lock);
//   2. build: corpus' = corpus ∪ pending, run the caller-supplied
//      `Rebuilder` over corpus' off to the side — for a learned filter
//      this is where the threshold re-calibrates and the overflow Bloom
//      re-forms;
//   3. publish: new version {filter', corpus', pending = ∅} keeping
//      whatever the side set accumulated during the build; retire the
//      old version. On failure pending folds back into frozen and the
//      old filter keeps serving (exactness is never at risk — only
//      memory growth), surfacing through last_rebuild_status().
//
// The Rebuilder is a plain std::function so the LIF synthesizer can hand
// in closures owning a classifier (the OwnedLearnedBloom pattern);
// PlainBloomRebuilder covers the no-model case.

#ifndef LI_CONCURRENT_REBUILDABLE_EXISTENCE_H_
#define LI_CONCURRENT_REBUILDABLE_EXISTENCE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bloom/bloom_filter.h"
#include "common/status.h"
#include "common/timer.h"
#include "concurrent/versioned.h"
#include "index/concurrent_existence_index.h"
#include "index/concurrent_writable_index.h"
#include "index/existence_index.h"

namespace li::concurrent {

template <index::ExistenceIndex Base>
class RebuildableExistence {
 public:
  using base_type = Base;
  /// Builds `*out` over exactly `keys` (sorted, unique). Must leave the
  /// result with no false negatives over `keys`; called off-lock on the
  /// background worker, so it may train models, calibrate thresholds,
  /// allocate freely.
  using Rebuilder =
      std::function<Status(std::span<const std::string> keys, Base* out)>;

  struct Config {
    Rebuilder rebuild{};  // required: Build fails without one
    /// Side-set fraction of the corpus that triggers a background
    /// rebuild; 0 disables the automatic trigger (RequestRebuild still
    /// works).
    double staleness = 0.05;
    /// Floor before the ratio trigger arms (tiny corpora would otherwise
    /// rebuild on every insert).
    size_t min_side_keys = 256;
    /// Write-log capacity per version.
    size_t log_cap = 1024;
  };
  using config_type = Config;

  RebuildableExistence() = default;
  RebuildableExistence(RebuildableExistence&&) noexcept = default;
  RebuildableExistence& operator=(RebuildableExistence&&) noexcept = default;

  /// Builds the initial filter over `keys` (any order, duplicates
  /// dropped) via config.rebuild and starts the background worker. An
  /// empty span is allowed: the filter starts over the empty set. Not
  /// thread-safe against other methods (build-then-share). On failure
  /// the handle reverts to never-built: MightContain false, Insert
  /// dropped.
  Status Build(std::span<const std::string> keys, const Config& config) {
    impl_ = std::make_unique<Impl>();
    const Status st = impl_->Build(keys, config);
    if (!st.ok()) impl_.reset();
    return st;
  }

  // ---- reads: lock-free, safe from any thread ----

  bool MightContain(std::string_view key) const {
    return impl_ != nullptr && impl_->MightContain(key);
  }
  size_t num_keys() const { return impl_ ? impl_->num_keys() : 0; }
  size_t SizeBytes() const { return impl_ ? impl_->SizeBytes() : 0; }
  double MeasuredFpr(std::span<const std::string> non_keys) const {
    return index::MeasureFprOver(*this, non_keys);
  }
  index::ConcurrentIndexStats ConcurrentStats() const {
    return impl_ ? impl_->ConcurrentStats() : index::ConcurrentIndexStats{};
  }

  // ---- writes: safe from any thread, serialized internally ----

  /// Exact-membership insert: true iff the key was not already present
  /// (corpus or side set — exact, not filter-positive). Once this
  /// returns, MightContain(key) is true on every thread, permanently.
  bool Insert(std::string_view key) {
    return impl_ != nullptr && impl_->Insert(key);
  }

  // ---- rebuild control ----

  Status Rebuild() {
    return impl_ ? impl_->worker_.RunSync()
                 : Status::FailedPrecondition(
                       "RebuildableExistence: not built");
  }
  void RequestRebuild() {
    if (impl_ != nullptr) impl_->worker_.Request();
  }
  void WaitForRebuilds() {
    if (impl_ != nullptr) impl_->worker_.WaitIdle();
  }
  Status last_rebuild_status() const {
    return impl_ ? impl_->worker_.last_status() : Status::OK();
  }

  const Config& config() const {
    static const Config kEmpty{};
    return impl_ ? impl_->config_ : kEmpty;
  }

 private:
  using Keys = std::vector<std::string>;

  struct State {
    explicit State(size_t log_cap) : log(log_cap) {}
    std::shared_ptr<const Base> filter;         // covers *corpus, no more
    std::shared_ptr<const Keys> corpus;         // sorted
    std::shared_ptr<const Keys> pending;        // sorted
    Keys frozen;                                // sorted
    AppendLog<std::string> log;
  };
  using Cell = VersionedCell<State>;

  struct alignas(64) ReadStripe {
    std::atomic<uint64_t> lookups{0};
    std::atomic<uint64_t> side_hits{0};
  };
  static constexpr size_t kStripes = 16;

  struct Impl {
    Status Build(std::span<const std::string> keys, const Config& config) {
      if (!config.rebuild) {
        return Status::InvalidArgument(
            "RebuildableExistence: config.rebuild is required");
      }
      config_ = config;
      config_.log_cap = std::max<size_t>(config.log_cap, 2);
      auto corpus = std::make_shared<Keys>(keys.begin(), keys.end());
      std::sort(corpus->begin(), corpus->end());
      corpus->erase(std::unique(corpus->begin(), corpus->end()),
                    corpus->end());
      auto filter = std::make_shared<Base>();
      if (!corpus->empty()) {
        LI_RETURN_IF_ERROR(config_.rebuild(
            std::span<const std::string>(*corpus), filter.get()));
      }
      key_count_.store(static_cast<int64_t>(corpus->size()),
                       std::memory_order_relaxed);
      corpus_bytes_.store(StoredBytes(*corpus), std::memory_order_relaxed);
      State* s = new State(config_.log_cap);
      s->filter = std::move(filter);
      s->corpus = std::move(corpus);
      cell_.Init(s);
      worker_.Start([this](bool*) { return DoBackgroundRebuild(); });
      return Status::OK();
    }

    // ---- read path ----

    bool MightContain(std::string_view key) const {
      ReadStripe& stripe = Stripe();
      stripe.lookups.fetch_add(1, std::memory_order_relaxed);
      const auto s = cell_.Pin();
      if (InSideSet(*s, s->log.count(), key)) {
        stripe.side_hits.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      return s->filter->MightContain(key);
    }

    size_t num_keys() const {
      const int64_t n = key_count_.load(std::memory_order_relaxed);
      return n > 0 ? static_cast<size_t>(n) : 0;
    }

    size_t SizeBytes() const {
      const auto s = cell_.Pin();
      // The filter plus the exact side structures; the corpus is the
      // rebuild input and part of what this structure owns, so it is
      // counted too (stored byte size, computed once per publish).
      size_t bytes = s->filter->SizeBytes() +
                     corpus_bytes_.load(std::memory_order_relaxed) +
                     s->log.SizeBytes();
      const uint32_t n = s->log.count();
      for (const std::string& k : s->frozen) bytes += k.size();
      for (uint32_t i = 0; i < n; ++i) bytes += s->log[i].size();
      if (s->pending != nullptr) {
        for (const std::string& k : *s->pending) bytes += k.size();
      }
      return bytes;
    }

    index::ConcurrentIndexStats ConcurrentStats() const {
      index::ConcurrentIndexStats cs;
      for (const ReadStripe& r : read_stripes_) {
        cs.lookups += r.lookups.load(std::memory_order_relaxed);
        cs.delta_hits += r.side_hits.load(std::memory_order_relaxed);
      }
      cs.contains = cs.lookups;
      cs.inserts = inserts_.load(std::memory_order_relaxed);
      cs.merges = rebuilds_.load(std::memory_order_relaxed);
      cs.background_merges = cs.merges;
      cs.merged_keys = merged_keys_.load(std::memory_order_relaxed);
      cs.last_merge_ns = static_cast<double>(
          last_rebuild_ns_.load(std::memory_order_relaxed));
      cs.total_merge_ns = static_cast<double>(
          total_rebuild_ns_.load(std::memory_order_relaxed));
      cs.freezes = freezes_.load(std::memory_order_relaxed);
      cell_.AddStats(cs);
      const auto s = cell_.Pin();
      cs.log_entries = s->log.count();
      cs.delta_entries = SideKeys(*s, s->log.count());
      cs.base_keys = s->corpus->size();
      return cs;
    }

    // ---- write path ----

    bool Insert(std::string_view key) {
      typename Cell::Writer w(cell_, /*count_contention=*/true);
      State* s = w.get();
      // Exact membership: corpus, pending, frozen and log are all exact
      // sets, so the return value and num_keys() count distinct keys,
      // never filter positives.
      if (InSideSet(*s, s->log.count_locked(), key) ||
          SortedContains(*s->corpus, key)) {
        return false;
      }
      if (s->log.full_locked()) s = FreezeLocked(w, *s);
      s->log.Append(std::string(key));
      key_count_.fetch_add(1, std::memory_order_relaxed);
      inserts_.fetch_add(1, std::memory_order_relaxed);
      const size_t side = SideKeys(*s, s->log.count_locked());
      if (config_.staleness > 0.0 && side >= config_.min_side_keys &&
          static_cast<double>(side) >=
              config_.staleness *
                  static_cast<double>(std::max<size_t>(s->corpus->size(),
                                                       1))) {
        worker_.Request();
      }
      return true;
    }

    // ---- internals ----

    ReadStripe& Stripe() const {
      return read_stripes_[ThisThreadIndex() % kStripes];
    }

    static bool SortedContains(const Keys& v, std::string_view key) {
      const auto it = std::lower_bound(v.begin(), v.end(), key);
      return it != v.end() && *it == key;
    }

    /// Stored bytes of a key array (strings + array).
    static size_t StoredBytes(const Keys& keys) {
      size_t bytes = keys.size() * sizeof(std::string);
      for (const std::string& k : keys) bytes += k.size();
      return bytes;
    }

    /// Membership in the exact side structures: log -> frozen -> pending.
    static bool InSideSet(const State& s, uint32_t n, std::string_view key) {
      return s.log.FindNewest(
                 n, [&](const std::string& e) { return e == key; }) !=
                 nullptr ||
             SortedContains(s.frozen, key) ||
             (s.pending != nullptr && SortedContains(*s.pending, key));
    }

    static size_t SideKeys(const State& s, uint32_t n) {
      return s.frozen.size() + n +
             (s.pending != nullptr ? s.pending->size() : 0);
    }

    /// A fresh version sharing `s`'s filter, corpus and pending set, with
    /// an empty side set and log.
    State* Successor(const State& s) const {
      State* ns = new State(config_.log_cap);
      ns->filter = s.filter;
      ns->corpus = s.corpus;
      ns->pending = s.pending;
      return ns;
    }

    /// Folds the full write log into the frozen side set and publishes
    /// the result as a new version. Returns the new version.
    State* FreezeLocked(typename Cell::Writer& w, const State& s) {
      const uint32_t n = s.log.count_locked();
      State* ns = Successor(s);
      ns->frozen.reserve(s.frozen.size() + n);
      ns->frozen.insert(ns->frozen.end(), s.frozen.begin(), s.frozen.end());
      for (uint32_t i = 0; i < n; ++i) ns->frozen.push_back(s.log[i]);
      std::sort(ns->frozen.begin(), ns->frozen.end());
      w.Publish(ns);
      freezes_.fetch_add(1, std::memory_order_relaxed);
      return ns;
    }

    /// One background rebuild cycle (the worker's body).
    Status DoBackgroundRebuild() {
      Timer timer;
      std::shared_ptr<const Keys> corpus;
      std::shared_ptr<const Keys> pending;
      {
        // Phase 1 — rotate: fold the log, move frozen -> pending so the
        // set to bake in is an immutable snapshot readers keep answering
        // exactly (brief writer lock).
        typename Cell::Writer w(cell_);
        State* s = w.get();
        if (s->log.count_locked() > 0) s = FreezeLocked(w, *s);
        if (s->frozen.empty() && s->pending == nullptr) return Status::OK();
        // Copy, never move: `s` stays published until Publish and
        // readers scan s->frozen lock-free the whole time.
        auto pend = std::make_shared<Keys>(s->frozen);
        if (s->pending != nullptr) {
          // A previous failed cycle left keys pending; fold them in.
          pend->insert(pend->end(), s->pending->begin(), s->pending->end());
          std::sort(pend->begin(), pend->end());
          pend->erase(std::unique(pend->begin(), pend->end()), pend->end());
        }
        State* ns = Successor(*s);
        ns->pending = pend;
        w.Publish(ns);
        corpus = ns->corpus;
        pending = pend;
      }
      // Phase 2 — build off to the side: corpus' = corpus ∪ pending,
      // rebuild the filter over it. No locks held; model training and
      // threshold calibration happen here.
      auto merged = std::make_shared<Keys>();
      merged->reserve(corpus->size() + pending->size());
      std::merge(corpus->begin(), corpus->end(), pending->begin(),
                 pending->end(), std::back_inserter(*merged));
      merged->erase(std::unique(merged->begin(), merged->end()),
                    merged->end());
      auto filter = std::make_shared<Base>();
      Status built = Status::OK();
      if (!merged->empty()) {
        built = config_.rebuild(std::span<const std::string>(*merged),
                                filter.get());
      }
      {
        // Phase 3 — publish (or, on failure, fold pending back so the
        // next cycle retries; the old filter keeps serving either way).
        typename Cell::Writer w(cell_);
        const State& s = *w.get();
        State* ns = Successor(s);
        ns->pending = nullptr;
        ns->frozen = s.frozen;  // copy: s stays published until the swap
        if (built.ok()) {
          ns->filter = std::move(filter);
          ns->corpus = merged;
          corpus_bytes_.store(StoredBytes(*merged), std::memory_order_relaxed);
          merged_keys_.fetch_add(merged->size(), std::memory_order_relaxed);
          rebuilds_.fetch_add(1, std::memory_order_relaxed);
        } else {
          ns->frozen.insert(ns->frozen.end(), pending->begin(),
                            pending->end());
          std::sort(ns->frozen.begin(), ns->frozen.end());
        }
        // Keep the live log tail: readers of the new version must still
        // see the entries the old version's log holds.
        ns->log.CopyPrefix(s.log, s.log.count_locked());
        w.Publish(ns);
      }
      const uint64_t ns_elapsed =
          static_cast<uint64_t>(timer.ElapsedNanos());
      last_rebuild_ns_.store(ns_elapsed, std::memory_order_relaxed);
      total_rebuild_ns_.fetch_add(ns_elapsed, std::memory_order_relaxed);
      return built;
    }

    Config config_{};
    Cell cell_;
    std::atomic<int64_t> key_count_{0};
    // Stored bytes of the current corpus (strings + array), set at Build
    // and at each successful rebuild publish (writer-mutex holders only);
    // read under the epoch pin in SizeBytes.
    std::atomic<size_t> corpus_bytes_{0};

    // Counters.
    mutable ReadStripe read_stripes_[kStripes];
    std::atomic<uint64_t> inserts_{0};
    std::atomic<uint64_t> rebuilds_{0};
    std::atomic<uint64_t> merged_keys_{0};
    std::atomic<uint64_t> freezes_{0};
    std::atomic<uint64_t> last_rebuild_ns_{0};
    std::atomic<uint64_t> total_rebuild_ns_{0};

    // Declared last: stops before the state its cycles touch.
    BackgroundWorker worker_;
  };

  std::unique_ptr<Impl> impl_;
};

/// Rebuilder for the no-model case: a fresh plain Bloom filter sized to
/// the merged corpus at `target_fpr`.
inline RebuildableExistence<bloom::BloomFilter>::Rebuilder
PlainBloomRebuilder(double target_fpr) {
  return [target_fpr](std::span<const std::string> keys,
                      bloom::BloomFilter* out) -> Status {
    LI_RETURN_IF_ERROR(
        out->Init(std::max<size_t>(keys.size(), 1), target_fpr));
    for (const std::string& k : keys) out->Add(std::string_view(k));
    return Status::OK();
  };
}

}  // namespace li::concurrent

#endif  // LI_CONCURRENT_REBUILDABLE_EXISTENCE_H_
