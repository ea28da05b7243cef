// The versioned-state core of the concurrent wrappers
// (ConcurrentWritableIndex, ConcurrentPointIndex, RebuildableExistence,
// ShardedIndex). Each wrapper serves the paper's static models under
// writes through the Appendix-D.1 delta-and-retrain design, and each
// does it with the same three pieces:
//
//  * VersionedCell<State> — one atomic pointer to the published,
//    immutable version. Readers Pin() it (epoch pin, then one load) and
//    never lock; writers take the writer mutex, publish a replacement,
//    and retire the old version to the epoch manager (epoch.h). Versions
//    no reader can reach any more are collected under the mutex and
//    freed after it is released, so no writer pays a multi-megabyte free
//    inside the lock.
//  * AppendLog<Entry> — the bounded write log of one version: filled
//    under the writer mutex, each entry published by a release store of
//    the count, scanned by readers over the prefix they loaded.
//    WritesByKey (or GroupByKey over writes a caller picked) + FoldNewest
//    turn a log prefix into its newest write per key and fold it over a
//    sorted frozen run.
//  * BackgroundWorker — the thread that runs the wrapper's rebuild cycle
//    (merge, rehash, filter rebuild, rebalance) on request, with a
//    synchronous run, a quiesce point and the last cycle's status.
//
// A wrapper's State says what a version holds; its cycle body says how
// a new version is built. The lifecycle around both lives here.

#ifndef LI_CONCURRENT_VERSIONED_H_
#define LI_CONCURRENT_VERSIONED_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "concurrent/epoch.h"
#include "index/concurrent_writable_index.h"

namespace li::concurrent {

/// One published version of `State` plus everything that keeps it safe
/// to replace under lock-free readers.
///
/// Thread-safety: Pin() from any thread; Writer serializes mutators.
/// Init runs once before the cell is shared. The destructor must run
/// after every thread that could touch the cell has stopped.
template <typename State>
class VersionedCell {
 public:
  VersionedCell() = default;
  VersionedCell(const VersionedCell&) = delete;
  VersionedCell& operator=(const VersionedCell&) = delete;

  ~VersionedCell() {
    delete state_.load(std::memory_order_relaxed);
    EpochManager::Free(deferred_);
    // epoch_ frees every version still retired.
  }

  /// Installs the first version. Not counted as a publish.
  void Init(State* first) { state_.store(first, std::memory_order_seq_cst); }

  /// Read guard: pins the epoch, then loads the current version, which
  /// stays valid (and immutable outside its log tail) until the guard
  /// drops. O(1): one seq_cst store and one load.
  class ReadPin {
   public:
    explicit ReadPin(const VersionedCell& cell)
        : guard_(cell.epoch_),
          state_(cell.state_.load(std::memory_order_seq_cst)) {}
    const State& operator*() const { return *state_; }
    const State* operator->() const { return state_; }

   private:
    EpochManager::Guard guard_;
    const State* state_;
  };
  ReadPin Pin() const { return ReadPin(*this); }

  /// Writer-mutex guard. With `count_contention`, an acquisition that
  /// finds the mutex held is counted (ConcurrentIndexStats::
  /// writer_contended — client writes pass true, background cycles and
  /// snapshot captures false). Versions reclaimed while it is held are
  /// freed right after the mutex is released.
  class Writer {
   public:
    explicit Writer(VersionedCell& cell, bool count_contention = false)
        : cell_(cell), lk_(cell.mu_, std::try_to_lock) {
      if (!lk_.owns_lock()) {
        if (count_contention) {
          cell_.contended_.fetch_add(1, std::memory_order_relaxed);
        }
        lk_.lock();
      }
    }
    ~Writer() {
      std::vector<EpochManager::Retired> batch;
      batch.swap(cell_.deferred_);
      lk_.unlock();
      EpochManager::Free(batch);
    }
    Writer(const Writer&) = delete;
    Writer& operator=(const Writer&) = delete;

    /// The current version; only the writer may touch its log tail.
    State* get() const { return cell_.state_.load(std::memory_order_relaxed); }

    /// Swaps `fresh` in, retires the version it replaces, and collects
    /// every retired version no reader can still reach.
    void Publish(State* fresh) {
      State* old = get();
      cell_.state_.store(fresh, std::memory_order_seq_cst);
      cell_.published_.fetch_add(1, std::memory_order_relaxed);
      cell_.epoch_.Retire(old);
      cell_.epoch_.ReclaimTo(cell_.deferred_);
    }

   private:
    VersionedCell& cell_;
    std::unique_lock<std::mutex> lk_;
  };

  /// Frees retired versions whose readers have all left (a publisher
  /// calls this once its own pins are gone).
  void Reclaim() {
    Writer w(*this);
    epoch_.ReclaimTo(deferred_);
  }

  /// The raw writer mutex, for callers that guard other writer-side
  /// state with it and publish nothing while holding it.
  std::mutex& mutex() const { return mu_; }

  /// Versions published after Init.
  uint64_t published() const {
    return published_.load(std::memory_order_relaxed);
  }

  /// Fills the contention and version-lifecycle gauges.
  void AddStats(index::ConcurrentIndexStats& s) const {
    s.writer_contended = contended_.load(std::memory_order_relaxed);
    s.states_published = published();
    s.states_retired = epoch_.retired_count();
    s.states_reclaimed = epoch_.reclaimed_count();
    s.epoch_fallback_pins = epoch_.fallback_pins();
  }

 private:
  std::atomic<State*> state_{nullptr};
  mutable std::mutex mu_;
  mutable EpochManager epoch_;
  // Reclaimed, not yet freed; touched under mu_ only.
  std::vector<EpochManager::Retired> deferred_;
  std::atomic<uint64_t> contended_{0};
  std::atomic<uint64_t> published_{0};
};

/// The bounded, append-only write log of one version. The writer fills
/// entry `n` under the writer mutex and publishes it with a release store
/// of the count; a reader loads the count once (acquire) and reads that
/// prefix, newest entry last.
template <typename Entry>
class AppendLog {
 public:
  explicit AppendLog(size_t cap)
      : entries_(std::make_unique<Entry[]>(cap)), cap_(cap) {}

  size_t SizeBytes() const { return cap_ * sizeof(Entry); }
  size_t capacity() const { return cap_; }
  /// Published entry count (readers).
  uint32_t count() const { return count_.load(std::memory_order_acquire); }
  /// Entry count for the writer-mutex holder.
  uint32_t count_locked() const {
    return count_.load(std::memory_order_relaxed);
  }
  bool full_locked() const { return count_locked() == cap_; }
  const Entry& operator[](size_t i) const { return entries_[i]; }
  /// The entries as one contiguous column; a reader may touch only the
  /// prefix it loaded the count for.
  const Entry* data() const { return entries_.get(); }

  /// Appends and publishes `e`. Writer mutex held, log not full.
  void Append(Entry e) {
    const uint32_t n = count_locked();
    entries_[n] = std::move(e);
    count_.store(n + 1, std::memory_order_release);
  }

  /// Copies the first `n` entries of `other` into this unpublished log.
  void CopyPrefix(const AppendLog& other, uint32_t n) {
    std::copy(other.entries_.get(), other.entries_.get() + n, entries_.get());
    count_.store(n, std::memory_order_relaxed);
  }

  /// The newest of the first `n` entries matching `pred`, or nullptr.
  template <typename Pred>
  const Entry* FindNewest(uint32_t n, Pred&& pred) const {
    for (uint32_t i = n; i-- > 0;) {
      if (pred(entries_[i])) return &entries_[i];
    }
    return nullptr;
  }

 private:
  std::unique_ptr<Entry[]> entries_;
  size_t cap_;
  std::atomic<uint32_t> count_{0};
};

/// One key's writes within a log prefix: its oldest and newest entry.
template <typename Key>
struct KeyWrites {
  Key key;
  uint32_t oldest;
  uint32_t newest;
};

/// Sorts `w` — one entry per write, oldest == newest == its log index —
/// by key, oldest write first, and merges each key's writes into one
/// entry with its oldest and newest index. O(m log m) in the m writes.
template <typename Key>
void GroupByKey(std::vector<KeyWrites<Key>>& w) {
  std::sort(w.begin(), w.end(), [](const KeyWrites<Key>& a,
                                   const KeyWrites<Key>& b) {
    return a.key < b.key || (!(b.key < a.key) && a.oldest < b.oldest);
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
}

/// The keys written in `log[0, n)`, ascending, each with its oldest and
/// newest write. One pass over the log, then GroupByKey: O(n log n).
template <typename Key, typename Entry, typename KeyOf>
std::vector<KeyWrites<Key>> WritesByKey(const AppendLog<Entry>& log,
                                        uint32_t n, KeyOf&& key_of) {
  std::vector<KeyWrites<Key>> w;
  for (uint32_t i = 0; i < n; ++i) w.push_back({key_of(log[i]), i, i});
  GroupByKey(w);
  return w;
}

/// Newest-wins fold of a sorted frozen run with a log's `writes`, in key
/// order. A key the log wrote goes to `on_log(writes, shadowed)`, where
/// `shadowed` is the frozen entry it hides or nullptr; every other frozen
/// entry goes to `on_frozen(entry)`. `visit_frozen(fn)` feeds the frozen
/// entries in key order and stops when `fn` returns false; `frozen_key`
/// reads an entry's key. Either callback returns false to stop the fold.
template <typename Key, typename VisitFrozen, typename FrozenKey,
          typename OnFrozen, typename OnLog>
void FoldNewest(const std::vector<KeyWrites<Key>>& writes,
                VisitFrozen&& visit_frozen, FrozenKey&& frozen_key,
                OnFrozen&& on_frozen, OnLog&& on_log) {
  size_t wi = 0;
  bool go = true;
  visit_frozen([&](const auto& fe) {
    const Key& fk = frozen_key(fe);
    while (go && wi < writes.size() && writes[wi].key < fk) {
      go = on_log(writes[wi++], nullptr);
    }
    if (!go) return false;
    if (wi < writes.size() && writes[wi].key == fk) {
      go = on_log(writes[wi++], &fe);
    } else {
      go = on_frozen(fe);
    }
    return go;
  });
  while (go && wi < writes.size()) go = on_log(writes[wi++], nullptr);
}

/// One background thread running a wrapper's cycle body on request.
/// Requests coalesce: any number made while no cycle has picked them up
/// yet run one cycle. A body that reports work left re-arms the worker,
/// so one WaitIdle() covers however many cycles the work needs.
///
/// Thread-safety: every method is safe from any thread. Stop() (also run
/// by the destructor) drops a pending request, waits for a running cycle
/// and joins; declare the worker after the state its body touches so it
/// stops first.
class BackgroundWorker {
 public:
  /// One cycle. Sets `*work_left` to run another cycle right after.
  using Body = std::function<Status(bool* work_left)>;

  BackgroundWorker() = default;
  BackgroundWorker(const BackgroundWorker&) = delete;
  BackgroundWorker& operator=(const BackgroundWorker&) = delete;
  ~BackgroundWorker() { Stop(); }

  void Start(Body body) {
    body_ = std::move(body);
    thread_ = std::thread([this] { Loop(); });
  }

  /// Asks for a cycle; never blocks on a running one.
  void Request() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      requested_ = true;
    }
    cv_.notify_one();
  }

  /// Requests a cycle and waits for one that started after this call
  /// (and any re-armed cycles after it); returns its status.
  Status RunSync() {
    std::unique_lock<std::mutex> lk(mu_);
    requested_ = true;
    cv_.notify_one();
    const uint64_t start = cycles_;
    done_cv_.wait(lk, [&] {
      return cycles_ > start && !requested_ && !running_;
    });
    return last_status_;
  }

  /// Blocks until no cycle is pending or running.
  void WaitIdle() {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] { return !requested_ && !running_; });
  }

  /// Status of the most recent cycle (OK before the first).
  Status last_status() const {
    std::lock_guard<std::mutex> lk(mu_);
    return last_status_;
  }

  /// Cycles finished so far.
  uint64_t cycles() const {
    std::lock_guard<std::mutex> lk(mu_);
    return cycles_;
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_.wait(lk, [&] { return requested_ || shutdown_; });
      if (shutdown_) return;  // a pending request is dropped
      requested_ = false;
      running_ = true;
      lk.unlock();
      bool work_left = false;
      const Status st = body_(&work_left);
      lk.lock();
      running_ = false;
      last_status_ = st;
      ++cycles_;
      if (st.ok() && work_left && !shutdown_) requested_ = true;
      done_cv_.notify_all();
    }
  }

  Body body_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  bool requested_ = false;
  bool running_ = false;
  bool shutdown_ = false;
  uint64_t cycles_ = 0;
  Status last_status_{};
  std::thread thread_;  // last: uses every member above
};

}  // namespace li::concurrent

#endif  // LI_CONCURRENT_VERSIONED_H_
