// End-to-end benchmark program. One run drives one workload through one of
// the library's type-erased handles, the surface a serving system holds
// when the index type was picked at run time (by the LIF synthesizer, say).
// The workloads are YCSB core workloads (Cooper et al., "Benchmarking Cloud
// Serving Systems with YCSB", SoCC 2010): their operation mixes, and their
// request distribution, a scrambled zipfian with constant 0.99 over the
// stored keys (see ScrambledZipfian):
//
//   ycsb_c_range  YCSB C (100% reads) through index::AnyRangeIndex over a
//                 LinearRmi (§3): rank lookups over 4M lognormal keys, 32 MB,
//                 more than a core's L2 holds.
//   ycsb_c_point  YCSB C through index::AnyPointIndex over a chained hash
//                 map with the learned CDF hash (§4): gets of 1M records.
//   ycsb_e        YCSB E (95% scans of 1 to 100 keys, 5% inserts of new
//                 keys) through index::AnyConcurrentWritableIndex over
//                 concurrent::ConcurrentWritableIndex<LinearRmi> (App. D.1)
//                 with the write-ahead log on, over 1M keys with 1M more
//                 held back to insert. The default policy merges every 64k
//                 inserts; the delta is filled to 4k short of that before
//                 the loop, so each run scans a full delta and merges it.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--wal-dir <dir>]
//
// Inputs come from --seed alone. ycsb_e logs every write to a file in
// --wal-dir with fsync_every_n = 0: one write() per record into
// the page cache, which survives a killed process, not a power loss; when
// the device flushes is left to the operating system.
//
// Set-up builds the index at least three times and for about 0.2 s and
// reports the median build time as setup_s. One client thread then
// runs a closed loop, as the YCSB client does without a target rate: a
// warm-up, then --seconds of blocks that alternate between unstamped
// blocks, whose ops over their summed time give the throughput, and blocks
// that stamp every op into one histogram, whose p50 and p99 are those of
// all stamped ops of the process. Every answer is checked against one
// computed from the inputs (ycsb_e: every 8th scan), the index once more
// after the loop, and the writable index is rebuilt from its log and
// compared; `failed` counts wrong or refused operations. run.py runs
// several such processes and reports the best of each end-to-end metric.
//
// --trace 1 runs the same loop with spans around each call into a layer
// and prints the per-layer metrics instead of the end-to-end ones.
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "common/random.h"
#include "common/status.h"
#include "concurrent/concurrent_writable_index.h"
#include "data/datasets.h"
#include "hash/chained_hash_map.h"
#include "hash/hash_fn.h"
#include "hash/record.h"
#include "index/any_range_index.h"
#include "index/approx.h"
#include "index/concurrent_writable_index.h"
#include "index/point_index.h"
#include "rmi/rmi.h"
#include "wal/wal.h"

namespace li {
namespace {

using Clock = std::chrono::steady_clock;

// Set-up repeats: builds take 10-300 ms, so one build alone is noise.
constexpr int kSetupMinReps = 3;
constexpr int kSetupMaxReps = 100;
constexpr double kSetupMinSeconds = 0.2;
// Probe arrays are cycled; a power of two so the position is a mask.
constexpr size_t kProbes = size_t{1} << 20;
constexpr uint64_t kProbeMask = kProbes - 1;
// Ops per block of the measured loop: short enough that the two kinds of
// block sample the same phases of a run (a ycsb_e op takes ~10 us).
constexpr uint64_t kBlock = 1'024;

constexpr size_t kRangeKeys = 4'000'000;
constexpr size_t kPointKeys = 1'000'000;
// ycsb_e: every 2nd generated key is stored, the rest wait to be inserted.
constexpr size_t kScanKeys = 2'000'000;
constexpr size_t kMaxScan = 100;
// YCSB E: 5% of ops insert.
constexpr uint64_t kWritePercent = 5;
// ycsb_e: inserts left before the first merge when the loop starts, about
// a third of what one process of a run (about 3 s) inserts.
constexpr size_t kMergeHeadroom = 4096;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string wal_dir;
};

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

void CheckOk(const Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.message());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

/// Per-op stamps: the TSC on x86 (a few ns per read, where steady_clock
/// costs ~20 ns), converted to ns at a rate measured over the same loop.
/// The fences keep the compiler from moving the stamped work across it.
inline uint64_t Ticks() {
  std::atomic_signal_fence(std::memory_order_seq_cst);
#if defined(__x86_64__)
  const uint64_t t = __rdtsc();
#else
  const uint64_t t =
      static_cast<uint64_t>(Clock::now().time_since_epoch().count());
#endif
  std::atomic_signal_fence(std::memory_order_seq_cst);
  return t;
}

/// ns per tick since construction.
class TickRate {
 public:
  double NsPerTick() const {
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0_).count();
    const uint64_t ticks = Ticks() - k0_;
    return ticks == 0 ? 1.0 : ns / static_cast<double>(ticks);
  }

 private:
  Clock::time_point t0_ = Clock::now();
  uint64_t k0_ = Ticks();
};

/// Latencies in ticks: exact below 128, then 64 buckets per power of two
/// (1.6% wide). A percentile interpolates inside its bucket.
class Histogram {
 public:
  void Add(uint64_t t) {
    ++counts_[Bucket(t)];
    ++total_;
  }
  uint64_t total() const { return total_; }

  /// The value below which a share `q` of the samples fall.
  double Percentile(double q) const {
    const double target = q * static_cast<double>(total_);
    double below = 0.0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const auto c = static_cast<double>(counts_[b]);
      if (c > 0.0 && below + c >= target) {
        const auto [lo, width] = Range(b);
        return lo + width * (target - below) / c;
      }
      below += c;
    }
    return 0.0;
  }

 private:
  static constexpr size_t kExact = 128;
  static constexpr size_t kBuckets = kExact + (64 - 7) * 64;

  static size_t Bucket(uint64_t t) {
    if (t < kExact) return static_cast<size_t>(t);
    const int e = std::bit_width(t) - 1;  // >= 7
    return kExact + static_cast<size_t>(e - 7) * 64 +
           static_cast<size_t>((t >> (e - 6)) & 63);
  }
  /// Lower edge and width of bucket `b`.
  static std::pair<double, double> Range(size_t b) {
    if (b < kExact) return {static_cast<double>(b), 1.0};
    const size_t e = 7 + (b - kExact) / 64;
    const size_t sub = (b - kExact) % 64;
    return {std::ldexp(static_cast<double>(64 + sub), static_cast<int>(e - 6)),
            std::ldexp(1.0, static_cast<int>(e - 6))};
  }

  std::vector<uint64_t> counts_ = std::vector<uint64_t>(kBuckets, 0);
  uint64_t total_ = 0;
};

/// YCSB's request distribution: item ranks drawn from a zipfian with
/// constant 0.99 by Gray et al.'s method (YCSB's ZipfianGenerator), then
/// spread over the items by a 64-bit FNV hash (ScrambledZipfianGenerator),
/// so that the popular items are not neighbours in key order.
class ScrambledZipfian {
 public:
  explicit ScrambledZipfian(uint64_t n) : n_(n) {
    double zetan = 0.0;
    for (uint64_t i = 1; i <= n; ++i) {
      zetan += 1.0 / std::pow(static_cast<double>(i), kTheta);
    }
    const double zeta2 = 1.0 + std::pow(0.5, kTheta);
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - kTheta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - kTheta)) /
           (1.0 - zeta2 / zetan);
    second_ = zeta2;
  }

  uint64_t Next(Xorshift128Plus& rng) const {
    const double u = rng.NextDouble();
    const double uz = u * zetan_;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < second_) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(static_cast<double>(n_) *
                                   std::pow(eta_ * u - eta_ + 1.0, alpha_));
    }
    return Fnv64(std::min(rank, n_ - 1)) % n_;
  }

 private:
  static constexpr double kTheta = 0.99;

  static uint64_t Fnv64(uint64_t v) {
    uint64_t h = 0xCBF29CE484222325ULL;
    for (int i = 0; i < 8; ++i) {
      h ^= v & 0xff;
      h *= 1099511628211ULL;
      v >>= 8;
    }
    return h;
  }

  uint64_t n_;
  double zetan_ = 0.0, alpha_ = 0.0, eta_ = 0.0, second_ = 0.0;
};

/// Calls into one layer and the ticks they took.
struct Span {
  uint64_t calls = 0;
  uint64_t ticks = 0;

  void Add(uint64_t t) {
    ++calls;
    ticks += t;
  }
  double MeanNs(double ns_per_tick) const {
    return calls == 0 ? 0.0
                      : static_cast<double>(ticks) * ns_per_tick /
                            static_cast<double>(calls);
  }
};

double Share(double part, double whole) {
  return whole == 0.0 ? 0.0 : part / whole;
}

/// Spans of a traced run; a workload fills the ones its path has.
struct Trace {
  Span read;   // Lookup / Find
  Span model;  // ycsb_c_range: ApproxPos (top-model route + leaf predict)
  Span write;  // Insert (an update or a new key), WAL append included
  Span scan;   // ycsb_e: Scan
  uint64_t window_keys = 0;  // ycsb_c_range: summed ApproxPos widths
};

/// Per-layer metrics, in BENCHMARK.json order. A layer a workload does
/// not pass through reads 0.
struct Layers {
  double read_ns = 0.0;
  double model_ns = 0.0;
  double search_share = 0.0;
  double window_keys = 0.0;
  double write_ns = 0.0;
  double write_share = 0.0;
  double wal_bytes_per_write = 0.0;
  double merges_per_mwrite = 0.0;
  double freezes_per_mwrite = 0.0;
  double merge_busy_share = 0.0;
  double scan_ns = 0.0;
  double mean_probe = 0.0;
  double empty_slot_share = 0.0;
  double index_bytes = 0.0;
};

/// What one loop measured. The end-to-end fields are filled by RunTimed
/// only.
struct Loop {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double seconds = 0.0;  // warm-up included
  double ns_per_tick = 1.0;
  double mops = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
};

/// Runs `op(i)` (true = right answer) unstamped for `warmup_s`, then for
/// `seconds` in alternating blocks: unstamped blocks give the throughput
/// (their ops over their summed time), stamped blocks fill the latency
/// histogram.
template <typename Op>
Loop RunTimed(double seconds, double warmup_s, Op&& op) {
  Loop loop;
  uint64_t i = 0;
  const auto w0 = Clock::now();
  while (SecondsSince(w0) < warmup_s) {
    for (uint64_t k = 0; k < kBlock; ++k) loop.failed += !op(i++);
  }
  Histogram hist;
  uint64_t timed_ops = 0;
  double timed_s = 0.0;
  const TickRate rate;
  const auto t0 = Clock::now();
  for (uint64_t b = 0; SecondsSince(t0) < seconds; ++b) {
    if ((b & 1) == 0) {
      const auto s = Clock::now();
      for (uint64_t k = 0; k < kBlock; ++k) loop.failed += !op(i++);
      timed_s += SecondsSince(s);
      timed_ops += kBlock;
    } else {
      for (uint64_t k = 0; k < kBlock; ++k) {
        const uint64_t a = Ticks();
        const bool ok = op(i++);
        hist.Add(Ticks() - a);
        loop.failed += !ok;
      }
    }
  }
  std::fprintf(stderr, "perfbench: %llu ops, %llu stamped\n",
               static_cast<unsigned long long>(i),
               static_cast<unsigned long long>(hist.total()));
  loop.seconds = SecondsSince(w0);
  loop.ns_per_tick = rate.NsPerTick();
  loop.attempted = i;
  loop.mops = Share(static_cast<double>(timed_ops), timed_s) / 1e6;
  loop.p50_ns = hist.Percentile(0.5) * loop.ns_per_tick;
  loop.p99_ns = hist.Percentile(0.99) * loop.ns_per_tick;
  return loop;
}

/// The traced twin of RunTimed: `op(i, trace)` stamps its own spans.
template <typename Op>
Loop RunTraced(double seconds, double warmup_s, Trace& trace, Op&& op) {
  Loop loop;
  uint64_t i = 0;
  Trace warm;
  const auto w0 = Clock::now();
  while (SecondsSince(w0) < warmup_s) {
    for (uint64_t k = 0; k < kBlock; ++k) loop.failed += !op(i++, warm);
  }
  const TickRate rate;
  const auto t0 = Clock::now();
  while (SecondsSince(t0) < seconds) {
    for (uint64_t k = 0; k < kBlock; ++k) loop.failed += !op(i++, trace);
  }
  loop.seconds = SecondsSince(w0);
  loop.ns_per_tick = rate.NsPerTick();
  loop.attempted = i;
  return loop;
}

/// Runs the timed loop, or the traced one when --trace 1.
template <typename Op, typename TracedOp>
Loop RunLoop(const Options& o, Trace& trace, Op&& op, TracedOp&& traced) {
  const double warmup_s = std::min(1.0, o.seconds / 4.0);
  return o.trace ? RunTraced(o.seconds, warmup_s, trace, traced)
                 : RunTimed(o.seconds, warmup_s, op);
}

/// Builds the handle kSetupMinReps times, and more while less than
/// kSetupMinSeconds have passed, keeping the last build; returns the
/// median build time. The previous handle is released untimed (a
/// concurrent index joins its merge worker on destruction).
template <typename Handle, typename BuildFn>
double TimedSetup(Handle& handle, BuildFn&& build) {
  std::vector<double> secs;
  const auto start = Clock::now();
  for (int r = 0; r < kSetupMaxReps &&
                  (r < kSetupMinReps || SecondsSince(start) < kSetupMinSeconds);
       ++r) {
    handle = Handle{};
    const auto t0 = Clock::now();
    handle = build();
    secs.push_back(SecondsSince(t0));
  }
  return Median(std::move(secs));
}

/// `n` item positions drawn from the YCSB request distribution.
std::vector<uint32_t> ZipfianPositions(size_t n, size_t items,
                                       Xorshift128Plus& rng) {
  const ScrambledZipfian zipf(items);
  std::vector<uint32_t> out(n);
  for (uint32_t& p : out) p = static_cast<uint32_t>(zipf.Next(rng));
  return out;
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

/// Prints the result line; `layers` is only read for a traced run.
void PrintResult(const Options& o, const Loop& loop, bool checked,
                 double setup_s, const Layers& layers) {
  std::vector<Metric> metrics;
  if (o.trace) {
    metrics = {{"read_ns", layers.read_ns, "ns"},
               {"model_ns", layers.model_ns, "ns"},
               {"search_share", layers.search_share, "fraction"},
               {"window_keys", layers.window_keys, "keys"},
               {"write_ns", layers.write_ns, "ns"},
               {"write_share", layers.write_share, "fraction"},
               {"wal_bytes_per_write", layers.wal_bytes_per_write, "bytes"},
               {"merges_per_mwrite", layers.merges_per_mwrite,
                "count/Mwrites"},
               {"freezes_per_mwrite", layers.freezes_per_mwrite,
                "count/Mwrites"},
               {"merge_busy_share", layers.merge_busy_share, "fraction"},
               {"scan_ns", layers.scan_ns, "ns"},
               {"mean_probe", layers.mean_probe, "probes"},
               {"empty_slot_share", layers.empty_slot_share, "fraction"},
               {"index_bytes", layers.index_bytes, "bytes"}};
  } else {
    metrics = {{"throughput_mops", loop.mops, "Mops/s"},
               {"p50_ns", loop.p50_ns, "ns"},
               {"p99_ns", loop.p99_ns, "ns"},
               {"setup_s", setup_s, "s"}};
  }
  bool finite = true;
  std::string body;
  for (const Metric& m : metrics) {
    finite = finite && std::isfinite(m.value);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body.empty() ? "" : ", ", m.name,
                  std::isfinite(m.value) ? m.value : 0.0, m.unit);
    body += buf;
  }
  std::string out = "{\"correct\": ";
  out += (checked && finite && loop.failed == 0) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(loop.attempted);
  out += ", \"failed\": " + std::to_string(loop.failed);
  out += ", \"metrics\": {" + body + "}}";
  std::printf("%s\n", out.c_str());
}

// ---- ycsb_c_range: AnyRangeIndex over a LinearRmi ----

void RunYcsbCRange(const Options& o) {
  const std::vector<uint64_t> keys = data::GenLognormal(kRangeKeys, o.seed);
  rmi::RmiConfig cfg;
  cfg.num_leaf_models = keys.size() / 64;
  index::AnyRangeIndex idx;
  const double setup_s = TimedSetup(idx, [&] {
    rmi::LinearRmi rmi;
    CheckOk(rmi.Build(keys, cfg), "rmi build");
    return index::AnyRangeIndex(std::move(rmi));
  });

  // A stored key's rank is its position.
  Xorshift128Plus rng(o.seed ^ 0x52414e47);
  const std::vector<uint32_t> probes =
      ZipfianPositions(kProbes, keys.size(), rng);

  // Traced, odd ops time ApproxPos alone and even ops the whole Lookup,
  // each on a fresh key, so last-mile time is Lookup minus ApproxPos with
  // both paths starting equally cold.
  Trace trace;
  const Loop loop = RunLoop(
      o, trace,
      [&](uint64_t i) {
        const uint32_t j = probes[i & kProbeMask];
        return idx.Lookup(keys[j]) == j;
      },
      [&](uint64_t i, Trace& tr) {
        const uint32_t j = probes[i & kProbeMask];
        const uint64_t a = Ticks();
        if (i & 1) {
          const index::Approx ap = idx.ApproxPos(keys[j]);
          tr.model.Add(Ticks() - a);
          tr.window_keys += ap.Width();
          return ap.Contains(j);
        }
        const size_t rank = idx.Lookup(keys[j]);
        tr.read.Add(Ticks() - a);
        return rank == j;
      });

  // The batched path must agree too.
  constexpr size_t kCheck = 65'536;
  std::vector<uint64_t> batch(kCheck);
  std::vector<size_t> ranks(kCheck);
  for (size_t i = 0; i < kCheck; ++i) batch[i] = keys[probes[i]];
  idx.LookupBatch(batch, ranks);
  bool checked = true;
  for (size_t i = 0; i < kCheck; ++i) checked &= ranks[i] == probes[i];

  Layers l;
  l.read_ns = trace.read.MeanNs(loop.ns_per_tick);
  l.model_ns = trace.model.MeanNs(loop.ns_per_tick);
  l.search_share = std::max(0.0, Share(l.read_ns - l.model_ns, l.read_ns));
  l.window_keys = Share(static_cast<double>(trace.window_keys),
                        static_cast<double>(trace.model.calls));
  l.index_bytes = static_cast<double>(idx.SizeBytes());
  PrintResult(o, loop, checked, setup_s, l);
}

// ---- ycsb_c_point: AnyPointIndex over a learned-hash chained map ----

void RunYcsbCPoint(const Options& o) {
  const std::vector<uint64_t> keys = data::GenLognormal(kPointKeys, o.seed);
  std::vector<hash::Record> records(keys.size());
  for (size_t j = 0; j < keys.size(); ++j) {
    records[j] = {keys[j], Murmur3Fmix64(keys[j] ^ o.seed),
                  static_cast<uint32_t>(j)};
  }
  hash::ChainedHashMapConfig cfg;
  cfg.hash.kind = hash::HashKind::kLearnedCdf;
  index::AnyPointIndex map;
  const double setup_s = TimedSetup(map, [&] {
    hash::ChainedHashMap m;
    CheckOk(m.Build(records, cfg), "chained map build");
    return index::AnyPointIndex(std::move(m));
  });

  Xorshift128Plus rng(o.seed ^ 0x504f494e);
  const std::vector<uint32_t> probes =
      ZipfianPositions(kProbes, records.size(), rng);
  auto answer_ok = [&](uint32_t j, const hash::Record* r) {
    return r != nullptr && r->payload == records[j].payload;
  };

  Trace trace;
  const Loop loop = RunLoop(
      o, trace,
      [&](uint64_t i) {
        const uint32_t j = probes[i & kProbeMask];
        return answer_ok(j, map.Find(records[j].key));
      },
      [&](uint64_t i, Trace& tr) {
        const uint32_t j = probes[i & kProbeMask];
        const uint64_t a = Ticks();
        const hash::Record* r = map.Find(records[j].key);
        tr.read.Add(Ticks() - a);
        return answer_ok(j, r);
      });

  // The batched path must agree too.
  constexpr size_t kCheck = 65'536;
  std::vector<uint64_t> batch(kCheck);
  std::vector<const hash::Record*> found(kCheck);
  for (size_t i = 0; i < kCheck; ++i) batch[i] = records[probes[i]].key;
  map.FindBatch(batch, found);
  bool checked = map.num_records() == records.size();
  for (size_t i = 0; i < kCheck; ++i) {
    checked &= answer_ok(probes[i], found[i]);
  }

  const index::PointIndexStats stats = map.Stats();
  Layers l;
  l.read_ns = trace.read.MeanNs(loop.ns_per_tick);
  l.mean_probe = stats.mean_probe;
  l.empty_slot_share = Share(static_cast<double>(stats.empty_slots),
                             static_cast<double>(stats.num_slots));
  l.index_bytes = static_cast<double>(map.SizeBytes());
  PrintResult(o, loop, checked, setup_s, l);
}

// ---- ycsb_e: AnyConcurrentWritableIndex over a concurrent RMI ----

using ConcRmi = concurrent::ConcurrentWritableIndex<rmi::LinearRmi>;

/// The library's defaults (merge policy included), with one leaf model
/// per 64 keys as in ycsb_c_range.
ConcRmi::Config WritableConfig(size_t keys) {
  ConcRmi::Config cfg;
  cfg.base.num_leaf_models = keys / 64;
  return cfg;
}

wal::DurabilityConfig WalConfig(const Options& o) {
  if (o.wal_dir.empty()) Die(o.workload + " needs --wal-dir");
  wal::DurabilityConfig d;
  d.path = o.wal_dir + "/" + o.workload + ".wal";
  d.fsync_every_n = 0;
  return d;
}

index::AnyConcurrentWritableIndex BuildWritable(
    const std::vector<uint64_t>& keys, const ConcRmi::Config& cfg,
    const wal::DurabilityConfig& dcfg) {
  ConcRmi c;
  CheckOk(c.Build(keys, cfg), "concurrent index build");
  CheckOk(c.EnableDurability(dcfg), "enable durability");
  return index::AnyConcurrentWritableIndex(std::move(c));
}

/// Rebuilds the index over `keys` from the log alone: every acknowledged
/// write must replay, leaving `live` keys. Call after the logging index is
/// released.
bool Recovers(const std::vector<uint64_t>& keys, const ConcRmi::Config& cfg,
              const wal::DurabilityConfig& dcfg, uint64_t writes,
              size_t live) {
  ConcRmi r;
  CheckOk(r.Build(keys, cfg), "recovery build");
  if (!r.RecoverFromWal(dcfg).ok()) return false;
  r.WaitForMerges();
  return r.ConcurrentStats().inserts == writes && r.size() == live;
}

/// The write-path layers of a ycsb_e run, from the index's
/// counters across the loop (which made `writes` of the `logged` writes)
/// and the size of its log.
void FillWriteLayers(const index::ConcurrentIndexStats& before,
                     const index::ConcurrentIndexStats& after,
                     const Loop& loop, uint64_t writes, uint64_t logged,
                     const wal::DurabilityConfig& dcfg, Layers& l) {
  const double w = static_cast<double>(writes);
  std::error_code ec;
  const auto wal_bytes = std::filesystem::file_size(dcfg.path, ec);
  l.wal_bytes_per_write =
      ec ? 0.0
         : Share(static_cast<double>(wal_bytes), static_cast<double>(logged));
  l.merges_per_mwrite =
      Share(1e6 * static_cast<double>(after.background_merges -
                                      before.background_merges),
            w);
  l.freezes_per_mwrite =
      Share(1e6 * static_cast<double>(after.freezes - before.freezes), w);
  l.merge_busy_share = Share(after.total_merge_ns - before.total_merge_ns,
                             loop.seconds * 1e9);
}

struct ScanProbe {
  uint32_t base_rank = 0;  // the start key's position among stored keys
  uint32_t pool_rank = 0;  // lower_bound of the start key in the pool
  uint32_t len = 0;        // 0: an insert
};

void RunYcsbE(const Options& o) {
  const std::vector<uint64_t> all = data::GenLognormal(kScanKeys, o.seed);
  std::vector<uint64_t> base, pool;
  for (size_t j = 0; j < all.size(); ++j) {
    (j % 2 == 0 ? base : pool).push_back(all[j]);
  }
  const ConcRmi::Config cfg = WritableConfig(base.size());
  const wal::DurabilityConfig dcfg = WalConfig(o);
  index::AnyConcurrentWritableIndex idx;
  const double setup_s =
      TimedSetup(idx, [&] { return BuildWritable(base, cfg, dcfg); });

  // Scans start at a stored key drawn from the request distribution and
  // span 1 to kMaxScan keys (YCSB E's uniform scan length); inserts take
  // pool keys in a shuffled order (YCSB's hashed insert order).
  Xorshift128Plus rng(o.seed ^ 0x59435345);
  const std::vector<uint32_t> start =
      ZipfianPositions(kProbes, base.size(), rng);
  std::vector<ScanProbe> probes(kProbes);
  for (size_t i = 0; i < kProbes; ++i) {
    if (rng.NextBounded(100) < kWritePercent) continue;
    const uint64_t from = base[start[i]];
    probes[i] = {start[i],
                 static_cast<uint32_t>(
                     std::lower_bound(pool.begin(), pool.end(), from) -
                     pool.begin()),
                 static_cast<uint32_t>(1 + rng.NextBounded(kMaxScan))};
  }
  std::vector<uint32_t> order(pool.size());
  std::iota(order.begin(), order.end(), 0u);
  for (size_t j = order.size(); j > 1; --j) {
    std::swap(order[j - 1], order[rng.NextBounded(j)]);
  }
  // Once every pool key is stored, a write re-inserts one (Insert answers
  // false, the key set is unchanged), so a faster index cannot run dry.
  std::vector<uint8_t> live(pool.size(), 0);
  uint64_t inserted = 0, writes = 0;
  auto insert = [&] {
    const uint64_t w = writes++;
    if (inserted == order.size()) {
      return !idx.Insert(pool[order[w % order.size()]]);
    }
    const uint32_t j = order[inserted++];
    live[j] = 1;
    return idx.Insert(pool[j]);
  };
  // The stored keys from the probe's start on, merged with the live pool.
  auto scan_ok = [&](const ScanProbe& p, const std::vector<uint64_t>& got) {
    size_t b = p.base_rank, q = p.pool_rank;
    for (const uint64_t key : got) {
      while (q < pool.size() && live[q] == 0) ++q;
      const bool from_base =
          b < base.size() && (q == pool.size() || base[b] < pool[q]);
      if (!from_base && q == pool.size()) return false;
      if (key != (from_base ? base[b++] : pool[q++])) return false;
    }
    while (q < pool.size() && live[q] == 0) ++q;
    return got.size() == p.len || (b == base.size() && q == pool.size());
  };

  // A long-lived index holds a delta part-way to its next merge. Filling
  // it to kMergeHeadroom inserts short of the default merge threshold
  // makes every run scan a full delta and then merge it, where a fresh
  // index would run seconds before its delta mattered.
  bool checked = true;
  const size_t merge_at = cfg.policy.max_delta_entries;
  for (size_t k = 0; k + kMergeHeadroom < merge_at; ++k) checked &= insert();
  const uint64_t prefill = writes;

  const index::ConcurrentIndexStats before = idx.ConcurrentStats();
  Trace trace;
  const Loop loop = RunLoop(
      o, trace,
      [&](uint64_t i) {
        const ScanProbe& p = probes[i & kProbeMask];
        if (p.len == 0) return insert();
        const std::vector<uint64_t> got = idx.Scan(base[p.base_rank], p.len);
        // Every 8th scan is checked: the oracle's merge would otherwise
        // be a fair share of the op.
        return (i & 7) != 0 || scan_ok(p, got);
      },
      [&](uint64_t i, Trace& tr) {
        const ScanProbe& p = probes[i & kProbeMask];
        const uint64_t a = Ticks();
        if (p.len == 0) {
          const bool ok = insert();
          tr.write.Add(Ticks() - a);
          return ok;
        }
        const std::vector<uint64_t> got = idx.Scan(base[p.base_rank], p.len);
        tr.scan.Add(Ticks() - a);
        return (i & 7) != 0 || scan_ok(p, got);
      });
  const index::ConcurrentIndexStats after = idx.ConcurrentStats();

  idx.WaitForMerges();
  const size_t want_size = base.size() + inserted;
  checked &= idx.size() == want_size;
  for (size_t i = 0; i < 4096; ++i) {
    if (probes[i].len != 0) {
      checked &= scan_ok(probes[i], idx.Scan(base[probes[i].base_rank],
                                             probes[i].len));
    }
  }
  Layers l;
  l.scan_ns = trace.scan.MeanNs(loop.ns_per_tick);
  l.write_ns = trace.write.MeanNs(loop.ns_per_tick);
  l.write_share = Share(static_cast<double>(trace.write.ticks),
                        static_cast<double>(trace.write.ticks +
                                            trace.scan.ticks));
  FillWriteLayers(before, after, loop, writes - prefill, writes, dcfg, l);
  l.index_bytes = static_cast<double>(idx.SizeBytes());
  idx = index::AnyConcurrentWritableIndex{};  // closes the log
  checked &= Recovers(base, cfg, dcfg, writes, want_size);
  PrintResult(o, loop, checked, setup_s, l);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload ycsb_c_range|ycsb_c_point|"
               "ycsb_e --seed <n> --seconds <s> --trace <0|1> "
               "[--wal-dir <dir>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options o;
  for (int a = 1; a < argc; a += 2) {
    if (a + 1 >= argc) return Usage();
    const std::string flag = argv[a];
    const char* value = argv[a + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      o.trace = std::string(value) == "1";
    } else if (flag == "--wal-dir") {
      o.wal_dir = value;
    } else {
      return Usage();
    }
  }
  if (!(o.seconds > 0.0)) return Usage();
  if (o.workload == "ycsb_c_range") {
    RunYcsbCRange(o);
  } else if (o.workload == "ycsb_c_point") {
    RunYcsbCPoint(o);
  } else if (o.workload == "ycsb_e") {
    RunYcsbE(o);
  } else {
    return Usage();
  }
  return 0;
}

}  // namespace
}  // namespace li

int main(int argc, char** argv) { return li::Main(argc, argv); }
