// Measurement harness (the "tests them automatically" half of LIF, §3.1):
// latency per lookup over a query workload, with warm-up and repetition,
// plus the paper-style table printer used by every figure bench.

#ifndef LI_LIF_MEASURE_H_
#define LI_LIF_MEASURE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"

namespace li::lif {

/// Runs `fn(query)` over all queries `repeats` times and returns average
/// nanoseconds per call. `fn` must return something accumulable so the
/// compiler cannot elide the work.
template <typename Fn, typename Q>
double MeasureNsPerOp(const std::vector<Q>& queries, int repeats, Fn&& fn) {
  if (queries.empty()) return 0.0;
  uint64_t sink = 0;
  // Warm-up pass (caches, branch predictors).
  for (const auto& q : queries) sink += static_cast<uint64_t>(fn(q));
  Timer timer;
  for (int r = 0; r < repeats; ++r) {
    for (const auto& q : queries) sink += static_cast<uint64_t>(fn(q));
  }
  const double ns = timer.ElapsedNanos();
  DoNotOptimize(sink);
  return ns / (static_cast<double>(queries.size()) * repeats);
}

/// Times one full batch call (warm-up run, then a timed run) and returns
/// average nanoseconds per item. `run_batch` must perform the entire
/// batch and return something tied to its output (e.g. `out.data()`) so
/// the work cannot be elided. The batched counterpart of MeasureNsPerOp,
/// shared by every bench that compares Find vs FindBatch.
template <typename BatchFn>
double MeasureBatchNsPerOp(size_t batch_size, BatchFn&& run_batch) {
  if (batch_size == 0) return 0.0;
  DoNotOptimize(run_batch());  // warm-up (caches, branch predictors)
  Timer timer;
  auto sink = run_batch();
  const double ns = timer.ElapsedNanos();
  DoNotOptimize(sink);
  return ns / static_cast<double>(batch_size);
}

/// Fixed-width table printer echoing the layout of the paper's figures
/// (config column, then metric columns, factors in parentheses).
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  /// Adds a full-width section label row (e.g. "Btree" / "Learned Index").
  void AddSection(std::string label);
  void Print() const;

  /// "12.34 (1.50x)" helpers used across benches.
  static std::string WithFactor(double value, double factor, int precision = 2);
  static std::string WithPercent(double value, double pct, int precision = 0);

 private:
  std::vector<std::string> headers_;
  struct Row {
    bool is_section = false;
    std::string section;
    std::vector<std::string> cells;
  };
  std::vector<Row> rows_;
};

/// Benchmark scale: number of keys in millions, overridable with the
/// REPRO_SCALE_M environment variable (paper scale would be 200).
size_t BenchScaleKeys(size_t default_millions = 2);

/// A mixed read/write evaluation workload over a sorted key set: held-out
/// keys form the insert stream (evenly spaced, so inserts match the data
/// distribution), lookup probes sample the build split, and a
/// deterministic schedule interleaves the two at the target insert ratio.
/// Shared by the LIF writable synthesizer and bench_readwrite, so the
/// bench's consistency checks exercise the same workload class the
/// synthesizer qualifies candidates on.
struct ReadWriteWorkload {
  std::vector<uint64_t> base;      // build split, sorted
  std::vector<uint64_t> inserts;   // held-out insert stream
  std::vector<uint64_t> lookups;   // probes over the build split
  std::vector<uint8_t> is_insert;  // op schedule, one entry per op
};

ReadWriteWorkload MakeReadWriteWorkload(std::span<const uint64_t> keys,
                                        size_t ops, double insert_ratio,
                                        size_t lookup_probes, uint64_t seed);

/// Shape of the insert stream's key placement — the knob that makes a
/// workload drift away from the build-time CDF (what online shard
/// re-balancing exists to absorb).
struct InsertSkew {
  enum class Kind {
    kUniform,        // inserts follow the build distribution (the default
                     // MakeReadWriteWorkload behavior)
    kZipf,           // insert positions zipf-ranked over the key space:
                     // the lowest key gaps are the hottest, so mass piles
                     // onto the head shards
    kMovingHotspot,  // inserts land in a narrow window of the key space
                     // that drifts low -> high as the stream progresses
  };
  Kind kind = Kind::kUniform;
  /// Zipf exponent for kZipf (1.0-1.3 are realistic serving skews).
  double zipf_s = 1.1;
  /// Window width for kMovingHotspot, as a fraction of the key span.
  double hotspot_fraction = 0.05;
};

/// Skewed-insert variant of MakeReadWriteWorkload: the base keeps *all*
/// of `keys`, and the insert stream is fresh keys synthesized into the
/// gaps the skew targets (zipf-hot gaps, or a moving hotspot window), so
/// the insert distribution deliberately drifts from the build CDF.
/// kUniform delegates to MakeReadWriteWorkload unchanged.
ReadWriteWorkload MakeSkewedReadWriteWorkload(std::span<const uint64_t> keys,
                                              size_t ops, double insert_ratio,
                                              size_t lookup_probes,
                                              uint64_t seed,
                                              const InsertSkew& skew);

/// Multi-threaded mixed-stream harness over a ReadWriteWorkload.
/// bench_concurrent is its one multi-threaded caller; the LIF writable
/// synthesizer scores its candidates with the sequential stream (threads
/// == 1), so both report the same ns/op currency. The op schedule is cut
/// into per-thread slices (disjoint insert sub-streams, decorrelated
/// lookup offsets), all threads start on one flag, and the score is
/// aggregate wall-time per op. With threads == 1
/// it degenerates to the sequential stream. `idx` must be safe for the
/// given thread count (any ConcurrentWritableRangeIndex; 1 for
/// everything else).
template <typename Idx>
double RunMixedStreamNs(Idx& idx, const ReadWriteWorkload& w,
                        size_t threads) {
  threads = std::max<size_t>(threads, 1);
  const size_t ops = w.is_insert.size();
  if (ops == 0) return 0.0;
  std::vector<size_t> ins_prefix(ops + 1, 0);
  for (size_t i = 0; i < ops; ++i) {
    ins_prefix[i + 1] = ins_prefix[i] + (w.is_insert[i] != 0 ? 1 : 0);
  }
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    const size_t lo = t * ops / threads;
    const size_t hi = (t + 1) * ops / threads;
    pool.emplace_back([&, t, lo, hi] {
      size_t ii = ins_prefix[lo];
      size_t li = t * 7919;  // decorrelate probe positions across threads
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      uint64_t sink = 0;
      for (size_t i = lo; i < hi; ++i) {
        if (w.is_insert[i] != 0 && ii < w.inserts.size()) {
          sink += idx.Insert(w.inserts[ii++]) ? 1 : 0;
        } else {
          sink += static_cast<uint64_t>(
              idx.Lookup(w.lookups[li++ % w.lookups.size()]));
        }
      }
      DoNotOptimize(sink);
    });
  }
  while (ready.load(std::memory_order_acquire) < threads) {
    std::this_thread::yield();
  }
  Timer timer;
  go.store(true, std::memory_order_release);
  for (std::thread& th : pool) th.join();
  return timer.ElapsedNanos() / static_cast<double>(ops);
}

}  // namespace li::lif

#endif  // LI_LIF_MEASURE_H_
