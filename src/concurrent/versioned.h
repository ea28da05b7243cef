// The versioned-state core of the two concurrent range front-ends,
// which serve the paper's static models under writes through the
// Appendix-D.1 delta-and-retrain design. ConcurrentWritableIndex
// publishes its versions through a VersionedCell and merges on a
// BackgroundWorker; ShardedIndex publishes its shard map through one and
// rebalances on the other.
//
//  * VersionedCell<State> — one atomic pointer to the published,
//    immutable version. Readers Pin() it (epoch pin, then one load) and
//    never lock; writers take the writer mutex, publish a replacement,
//    and retire the old version to the epoch manager (epoch.h). Versions
//    no reader can reach any more are collected under the mutex and
//    freed after it is released, so no writer pays a multi-megabyte free
//    inside the lock.
//  * BackgroundWorker — the thread that runs the wrapper's background
//    cycle (merge, rebalance) on request, with a synchronous run, a
//    quiesce point and the last cycle's status.
//
// A wrapper's State says what a version holds; its cycle body says how
// a new version is built. The lifecycle around both lives here.

#ifndef LI_CONCURRENT_VERSIONED_H_
#define LI_CONCURRENT_VERSIONED_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
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
