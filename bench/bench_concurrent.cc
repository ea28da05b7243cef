// Concurrency sweep for the thread-safe write path (src/concurrent/):
// aggregate mixed-workload throughput vs thread count for the single
// concurrent front-end and the range-sharded front-end, plus a
// read-latency histogram sampled during an active background merge.
//
// Per (candidate, insert-ratio, threads) cell the bench builds a fresh
// index over a key split, cuts one deterministic interleaved stream of
// rank lookups and held-out-key inserts into per-thread slices, starts
// all threads on one flag, and reports:
//   agg ns/op  — wall time / total ops (aggregate throughput currency),
//   Mops/s     — the same number as a rate,
//   speedup    — vs the candidate's own 1-thread cell at that ratio,
//   merges / freezes / contention — the ConcurrentStats gauges.
// After every cell the index is quiesced (WaitForMerges) and checked:
// live count must equal base + executed inserts, inserted keys must be
// visible, ranks must match a sorted reference — the bench exits non-zero
// on any violation, so the CI smoke run is a functional check too.
//
// The latency section builds a manual-policy index, samples per-op read
// latencies three times — against a quiet index, while a writer floods
// inserts, and while that writer also requests back-to-back background
// merges — and prints p50/p90/p99/p99.9 for each. Acceptance bars:
// sharded 10%-insert throughput at 8 threads >= 4x its 1-thread cell
// (needs >= 8 hardware threads to be meaningful), and during-merge reader
// p99 <= 2x the quiet p99.
//
// The skewed-stream section drives zipf and moving-hotspot insert storms
// whose key distribution drifts from the build CDF, with online shard
// rebalancing off vs on, run in ABBA order (off, on, on, off), and
// reports final + peak max/mean shard mass, split/coalesce counts, and
// throughput (each side's mean of its two runs). Acceptance bar: with
// rebalancing on, the final imbalance under the zipf storm stays within
// the configured factor (5% slack) in both runs while the
// fixed-boundary run blows through it. The bar is functional — the
// worker has drained every action before the reading — so a miss exits
// non-zero, like a consistency failure. The batched-lookup section
// compares per-key Lookup routing against the shard-grouped LookupBatch
// on uniform probes (acceptance: grouped is faster — the recovered RMI
// software-pipeline win).
//
// Scale knobs: BENCH_CONC_KEYS (default REPRO_SCALE_M million),
// BENCH_CONC_OPS (ops per cell, default keys/10), BENCH_CONC_THREADS
// (comma list, default "1,2,4,8,16"), BENCH_CONC_SHARDS (default 8),
// BENCH_CONC_LAT_SAMPLES (default 200000). BENCH_MICRO_JSON=1 emits
// BENCH_concurrent.json via the shared bench_json writer.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "json_out.h"

#include "common/random.h"
#include "common/timer.h"
#include "concurrent/concurrent_writable_index.h"
#include "concurrent/sharded_index.h"
#include "data/datasets.h"
#include "dynamic/merge_policy.h"
#include "lif/measure.h"
#include "rmi/rmi.h"

using namespace li;

namespace {

using ConcRmi = concurrent::ConcurrentWritableIndex<rmi::LinearRmi>;
using ShardedRmi = concurrent::ShardedIndex<ConcRmi>;

std::string Fmt(double v, int prec = 1) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const long long parsed = atoll(v);
  return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

std::vector<size_t> EnvThreadList() {
  std::vector<size_t> out;
  const char* v = getenv("BENCH_CONC_THREADS");
  std::string s = (v != nullptr && *v != '\0') ? v : "1,2,4,8,16";
  size_t pos = 0;
  while (pos < s.size()) {
    const size_t comma = s.find(',', pos);
    const size_t end = comma == std::string::npos ? s.size() : comma;
    const long t = atol(s.substr(pos, end - pos).c_str());
    if (t > 0) out.push_back(static_cast<size_t>(t));
    pos = end + 1;
  }
  if (out.empty()) out = {1, 2, 4, 8, 16};
  return out;
}

struct CellResult {
  double agg_ns = 0.0;
  size_t inserted = 0;
  uint64_t merges = 0;
  uint64_t freezes = 0;
  double contention = 0.0;
  bool consistent = true;
};

/// One measured cell: the shared multi-threaded mixed-stream harness
/// (lif::RunMixedStreamNs — the same stream the LIF writable synthesizer
/// scores its candidates on, there with one thread). Every
/// scheduled insert executes (the workload maker bounds the schedule by
/// the held-out pool), so the executed count is the schedule count.
template <typename Idx>
CellResult RunCell(Idx& idx, const lif::ReadWriteWorkload& w,
                   size_t threads) {
  CellResult r;
  r.agg_ns = lif::RunMixedStreamNs(idx, w, threads);
  r.inserted = static_cast<size_t>(
      std::count_if(w.is_insert.begin(), w.is_insert.end(),
                    [](uint8_t op) { return op != 0; }));
  return r;
}

/// Quiesced functional check: the bench doubles as a smoke test.
template <typename Idx>
bool CheckCell(Idx& idx, const lif::ReadWriteWorkload& w, size_t inserted) {
  idx.WaitForMerges();
  std::vector<uint64_t> live = w.base;
  live.insert(live.end(), w.inserts.begin(),
              w.inserts.begin() + static_cast<ptrdiff_t>(inserted));
  std::sort(live.begin(), live.end());
  if (idx.size() != live.size()) {
    fprintf(stderr, "FAIL: size %zu != reference %zu\n", idx.size(),
            live.size());
    return false;
  }
  Xorshift128Plus rng(4242);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t q = i < 1000 && inserted > 0
                           ? w.inserts[rng.NextBounded(inserted)]
                           : live[rng.NextBounded(live.size())];
    if (!idx.Contains(q)) {
      fprintf(stderr, "FAIL: live key %llu invisible\n",
              static_cast<unsigned long long>(q));
      return false;
    }
    const size_t expect = static_cast<size_t>(
        std::lower_bound(live.begin(), live.end(), q) - live.begin());
    if (idx.Lookup(q) != expect) {
      fprintf(stderr, "FAIL: rank(%llu) = %zu, want %zu\n",
              static_cast<unsigned long long>(q), idx.Lookup(q), expect);
      return false;
    }
  }
  return true;
}

double Percentile(std::vector<double>& sorted_ns, double p) {
  if (sorted_ns.empty()) return 0.0;
  const size_t i = std::min(
      sorted_ns.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted_ns.size())));
  return sorted_ns[i];
}

struct LatencyProfile {
  double p50 = 0.0, p90 = 0.0, p99 = 0.0, p999 = 0.0;
};

/// Samples per-op read latencies (steady_clock around each Lookup).
LatencyProfile SampleReadLatency(const ConcRmi& idx,
                                 const std::vector<uint64_t>& probes,
                                 size_t samples) {
  std::vector<double> ns;
  ns.reserve(samples);
  Xorshift128Plus rng(777);
  uint64_t sink = 0;
  for (size_t i = 0; i < samples; ++i) {
    const uint64_t q = probes[rng.NextBounded(probes.size())];
    const auto t0 = std::chrono::steady_clock::now();
    sink += idx.Lookup(q);
    const auto t1 = std::chrono::steady_clock::now();
    ns.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  DoNotOptimize(sink);
  std::sort(ns.begin(), ns.end());
  LatencyProfile p;
  p.p50 = Percentile(ns, 0.50);
  p.p90 = Percentile(ns, 0.90);
  p.p99 = Percentile(ns, 0.99);
  p.p999 = Percentile(ns, 0.999);
  return p;
}

}  // namespace

int main() {
  const size_t n = EnvSize("BENCH_CONC_KEYS", lif::BenchScaleKeys(2));
  const size_t ops = EnvSize("BENCH_CONC_OPS", std::max<size_t>(n / 10, 2000));
  const size_t num_shards = EnvSize("BENCH_CONC_SHARDS", 8);
  const size_t lat_samples = EnvSize("BENCH_CONC_LAT_SAMPLES", 200'000);
  const std::vector<size_t> thread_list = EnvThreadList();
  const int ratios[] = {0, 10, 50};

  printf(
      "== concurrent sweep: %zu lognormal keys, %zu ops/cell, shards=%zu, "
      "hw threads=%u ==\n",
      n, ops, num_shards, std::thread::hardware_concurrency());
  const std::vector<uint64_t> keys = data::GenLognormal(n);

  std::vector<bench_json::Entry> json;
  auto emit = [&json](const std::string& name, double ns) {
    json.push_back(bench_json::Entry{name, ns, ns > 0.0 ? 1e9 / ns : 0.0});
  };

  lif::Table table({"config", "insert%", "threads", "agg ns/op", "Mops/s",
                    "speedup", "merges", "freezes", "contention%"});
  bool all_consistent = true;
  bool imbalance_ok = true;  // the rebalanced zipf storm's bar
  double sharded_t1_ins10 = 0.0, sharded_t8_ins10 = 0.0;

  const auto leaf_models = std::max<size_t>(64, n / 10);
  dynamic::MergePolicy policy;
  policy.min_delta_entries = 2048;
  policy.max_delta_entries = 8192;

  for (const int pct : ratios) {
    const lif::ReadWriteWorkload w = lif::MakeReadWriteWorkload(
        keys, ops, pct / 100.0, 1 << 14, 977 + static_cast<uint64_t>(pct));
    table.AddSection("insert ratio " + std::to_string(pct) + "%");

    for (int cand = 0; cand < 2; ++cand) {
      const bool sharded = cand == 1;
      const std::string name =
          sharded ? "sharded[" + std::to_string(num_shards) + " x rmi]"
                  : "concurrent[rmi]";
      double t1_ns = 0.0;
      for (const size_t threads : thread_list) {
        CellResult r;
        index::ConcurrentIndexStats cs;
        if (sharded) {
          ShardedRmi::Config cfg;
          cfg.inner.base.num_leaf_models = std::max<size_t>(
              64, leaf_models / std::max<size_t>(num_shards, 1));
          cfg.inner.policy = policy;
          cfg.inner.log_cap = 1024;
          cfg.num_shards = num_shards;
          ShardedRmi idx;
          if (!idx.Build(w.base, cfg).ok()) {
            fprintf(stderr, "sharded build failed\n");
            return 1;
          }
          r = RunCell(idx, w, threads);
          r.consistent = CheckCell(idx, w, r.inserted);
          cs = idx.ConcurrentStats();
        } else {
          ConcRmi::Config cfg;
          cfg.base.num_leaf_models = leaf_models;
          cfg.policy = policy;
          cfg.log_cap = 1024;
          ConcRmi idx;
          if (!idx.Build(w.base, cfg).ok()) {
            fprintf(stderr, "concurrent build failed\n");
            return 1;
          }
          r = RunCell(idx, w, threads);
          r.consistent = CheckCell(idx, w, r.inserted);
          cs = idx.ConcurrentStats();
        }
        r.merges = cs.merges;
        r.freezes = cs.freezes;
        r.contention = cs.WriterContentionRate();
        all_consistent &= r.consistent;
        if (threads == 1) t1_ns = r.agg_ns;
        const double speedup = r.agg_ns > 0.0 && t1_ns > 0.0
                                   ? t1_ns / r.agg_ns
                                   : 0.0;
        if (sharded && pct == 10 && threads == 1) sharded_t1_ins10 = r.agg_ns;
        if (sharded && pct == 10 && threads == 8) sharded_t8_ins10 = r.agg_ns;
        table.AddRow({name, std::to_string(pct), std::to_string(threads),
                      Fmt(r.agg_ns),
                      Fmt(r.agg_ns > 0.0 ? 1e3 / r.agg_ns : 0.0, 2),
                      Fmt(speedup, 2) + "x", std::to_string(r.merges),
                      std::to_string(r.freezes),
                      Fmt(r.contention * 100.0)});
        const std::string prefix = "concurrent/" +
                                   std::string(sharded ? "sharded" : "single") +
                                   "/ins" + std::to_string(pct) + "/t" +
                                   std::to_string(threads);
        emit(prefix + "/agg_ns", r.agg_ns);
      }
    }
  }
  table.Print();

  // ---- acceptance factor 1: sharded scaling at 10% inserts ----
  if (sharded_t1_ins10 > 0.0 && sharded_t8_ins10 > 0.0) {
    const double scaling = sharded_t1_ins10 / sharded_t8_ins10;
    printf(
        "\nsharded 10%%-insert aggregate throughput at 8 threads: %.2fx the "
        "1-thread cell (acceptance bar >= 4x on >= 8 hardware threads; "
        "this host has %u)\n",
        scaling, std::thread::hardware_concurrency());
    emit("concurrent/sharded/ins10/scaling_t8_vs_t1", scaling);
  }

  // ---- read latency during an active background merge ----
  {
    ConcRmi::Config cfg;
    cfg.base.num_leaf_models = leaf_models;
    cfg.policy.trigger = dynamic::MergeTrigger::kManual;
    cfg.log_cap = 4096;
    ConcRmi idx;
    if (!idx.Build(keys, cfg).ok()) {
      fprintf(stderr, "latency index build failed\n");
      return 1;
    }
    const auto probes = data::SampleKeys(keys, 1 << 14, 31);
    const LatencyProfile quiet = SampleReadLatency(idx, probes, lat_samples);

    // A writer floods fresh keys for the whole sampling window; with
    // `merge` it also keeps a background merge in flight. The storm
    // without merges isolates what the writes alone cost a reader (its
    // rank read passes over up to log_cap log entries).
    Xorshift128Plus storm_rng(1234);
    uint64_t next_key = keys.back() + 1;
    auto sample_under_storm = [&](bool merge) {
      std::atomic<bool> stop{false};
      std::thread storm([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          for (int i = 0; i < 2000; ++i) {
            idx.Insert(next_key += 1 + storm_rng.NextBounded(16));
          }
          if (merge) idx.RequestMerge();
        }
      });
      const LatencyProfile p = SampleReadLatency(idx, probes, lat_samples);
      stop.store(true);
      storm.join();
      return p;
    };
    const LatencyProfile writes = sample_under_storm(false);
    // Fold what that storm wrote, so the merge phase starts from an empty
    // delta as the quiet phase did.
    if (const Status st = idx.Merge(); !st.ok()) {
      fprintf(stderr, "latency index merge failed: %s\n",
              st.message().c_str());
      return 1;
    }
    const uint64_t merges_before = idx.ConcurrentStats().merges;
    const LatencyProfile busy = sample_under_storm(true);
    idx.WaitForMerges();

    lif::Table lat({"phase", "p50 ns", "p90 ns", "p99 ns", "p99.9 ns"});
    lat.AddRow({"quiet", Fmt(quiet.p50), Fmt(quiet.p90), Fmt(quiet.p99),
                Fmt(quiet.p999)});
    lat.AddRow({"writes, no merge", Fmt(writes.p50), Fmt(writes.p90),
                Fmt(writes.p99), Fmt(writes.p999)});
    lat.AddRow({"during merge", Fmt(busy.p50), Fmt(busy.p90), Fmt(busy.p99),
                Fmt(busy.p999)});
    printf("\nreader latency while a writer floods inserts, then while the "
           "merge worker also rebuilds the base:\n");
    lat.Print();
    const double factor = quiet.p99 > 0.0 ? busy.p99 / quiet.p99 : 0.0;
    printf(
        "reader p99 during merge: %.1f ns vs %.1f ns quiet (%.2fx; "
        "acceptance bar <= 2x on a multi-core host); writes alone: %.1f ns "
        "(%.2fx)\n",
        busy.p99, quiet.p99, factor, writes.p99,
        quiet.p99 > 0.0 ? writes.p99 / quiet.p99 : 0.0);
    emit("concurrent/read_latency/quiet/p99_ns", quiet.p99);
    emit("concurrent/read_latency/writes_only/p99_ns", writes.p99);
    emit("concurrent/read_latency/during_merge/p99_ns", busy.p99);
    emit("concurrent/read_latency/p99_factor", factor);
    const auto cs = idx.ConcurrentStats();
    printf("merge cycles during storm: %llu, states reclaimed: %llu\n",
           static_cast<unsigned long long>(cs.merges - merges_before),
           static_cast<unsigned long long>(cs.states_reclaimed));
  }

  // ---- skewed insert streams: online rebalance off vs on ----
  {
    // A deliberately drift-heavy setup: the base is a quarter of the key
    // set, the storm inserts twice the base count, so skew that piles
    // onto a few shards is visible in max/mean mass, not lost in the
    // build-time bulk.
    std::vector<uint64_t> skew_base;
    skew_base.reserve(keys.size() / 4 + 1);
    for (size_t i = 0; i < keys.size(); i += 4) skew_base.push_back(keys[i]);
    const size_t sk_ops = std::max<size_t>(skew_base.size() * 2, 10'000);
    const double factor = 2.0;
    struct SkewCase {
      const char* name;
      lif::InsertSkew skew;
    };
    SkewCase cases[2];
    cases[0].name = "zipf(1.2)";
    cases[0].skew.kind = lif::InsertSkew::Kind::kZipf;
    cases[0].skew.zipf_s = 1.2;
    cases[1].name = "hotspot(5%)";
    cases[1].skew.kind = lif::InsertSkew::Kind::kMovingHotspot;
    cases[1].skew.hotspot_fraction = 0.05;

    printf(
        "\n== skewed insert storms: %zu base keys + %zu skewed inserts, "
        "rebalance factor %.1f ==\n",
        skew_base.size(), sk_ops, factor);
    lif::Table st({"skew", "rebalance", "agg ns/op", "final imb", "peak imb",
                   "shards", "splits", "coalesces"});
    struct SkewRun {
      double agg_ns = 0.0;
      double imbalance_final = 0.0;
      double imbalance_peak = 0.0;
      double splits = 0.0;
      double coalesces = 0.0;
    };
    // One storm over a fresh index; false if the build fails.
    auto run_storm = [&](const SkewCase& sc, const lif::ReadWriteWorkload& w,
                         bool rebal, SkewRun* run) {
      ShardedRmi::Config cfg;
      cfg.inner.base.num_leaf_models = std::max<size_t>(
          64, leaf_models / (4 * std::max<size_t>(num_shards, 1)));
      cfg.inner.policy = policy;
      cfg.inner.log_cap = 1024;
      cfg.num_shards = num_shards;
      cfg.rebalance.enabled = rebal;
      cfg.rebalance.max_imbalance = factor;
      cfg.rebalance.min_split_keys = 2048;
      cfg.rebalance.check_stride = 256;
      ShardedRmi idx;
      if (!idx.Build(skew_base, cfg).ok()) return false;
      // Peak-imbalance monitor: the moving hotspot balances out by the
      // end of the stream, so the transient max is the interesting
      // number there.
      std::atomic<bool> mon_stop{false};
      std::atomic<uint64_t> peak_milli{1000};
      std::thread monitor([&] {
        while (!mon_stop.load(std::memory_order_relaxed)) {
          const auto imb =
              static_cast<uint64_t>(idx.CurrentImbalance() * 1000.0);
          uint64_t prev = peak_milli.load(std::memory_order_relaxed);
          while (imb > prev && !peak_milli.compare_exchange_weak(prev, imb)) {
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
      run->agg_ns = lif::RunMixedStreamNs(idx, w, 4);
      // One request catches drift the last check_stride missed; the
      // self-re-arming worker then drains every remaining action.
      if (rebal) idx.RequestRebalance();
      idx.WaitForRebalances();
      idx.WaitForMerges();
      mon_stop.store(true);
      monitor.join();
      const size_t inserted = static_cast<size_t>(
          std::count_if(w.is_insert.begin(), w.is_insert.end(),
                        [](uint8_t op) { return op != 0; }));
      all_consistent &= CheckCell(idx, w, inserted);
      const auto cs = idx.ConcurrentStats();
      run->imbalance_final = cs.shard_imbalance;
      run->imbalance_peak = static_cast<double>(peak_milli.load()) / 1000.0;
      run->splits = static_cast<double>(cs.shard_splits);
      run->coalesces = static_cast<double>(cs.shard_coalesces);
      st.AddRow({sc.name, rebal ? "on" : "off", Fmt(run->agg_ns),
                 Fmt(run->imbalance_final, 2), Fmt(run->imbalance_peak, 2),
                 std::to_string(cs.shards), std::to_string(cs.shard_splits),
                 std::to_string(cs.shard_coalesces)});
      return true;
    };
    double zipf_imb_on = 0.0, zipf_imb_off = 0.0;
    for (const SkewCase& sc : cases) {
      const lif::ReadWriteWorkload w = lif::MakeSkewedReadWriteWorkload(
          skew_base, sk_ops, 1.0, 1 << 14, 4242, sc.skew);
      // ABBA order (off, on, on, off): each side runs once early and once
      // late in the process, so drift over the run (warming caches, host
      // load) falls on both sides alike instead of on "on".
      SkewRun runs[2][2];  // [rebal][first or second run]
      int done[2] = {0, 0};
      for (const bool rebal : {false, true, true, false}) {
        if (!run_storm(sc, w, rebal, &runs[rebal][done[rebal]++])) {
          fprintf(stderr, "skewed sharded build failed\n");
          return 1;
        }
      }
      const bool zipf = sc.skew.kind == lif::InsertSkew::Kind::kZipf;
      for (const bool rebal : {false, true}) {
        const SkewRun& r0 = runs[rebal][0];
        const SkewRun& r1 = runs[rebal][1];
        // agg_ns is the side's mean; the other rows take the larger of
        // its two runs, so the imbalance bar holds for both "on" runs.
        const double imb_final = std::max(r0.imbalance_final,
                                          r1.imbalance_final);
        if (zipf) (rebal ? zipf_imb_on : zipf_imb_off) = imb_final;
        const std::string prefix = std::string("concurrent/sharded/skew_") +
                                   (zipf ? "zipf" : "hotspot") + "/rebal_" +
                                   (rebal ? "on" : "off");
        emit(prefix + "/agg_ns", (r0.agg_ns + r1.agg_ns) / 2.0);
        emit(prefix + "/imbalance_final", imb_final);
        emit(prefix + "/imbalance_peak",
             std::max(r0.imbalance_peak, r1.imbalance_peak));
        emit(prefix + "/splits", std::max(r0.splits, r1.splits));
        emit(prefix + "/coalesces", std::max(r0.coalesces, r1.coalesces));
      }
    }
    st.Print();
    printf(
        "zipf final imbalance (worse of two runs): %.2f with rebalance vs "
        "%.2f without (acceptance bar: <= %.1f with rebalancing on, "
        "exceeded without)\n",
        zipf_imb_on, zipf_imb_off, factor);
    if (zipf_imb_on > factor * 1.05) {
      fprintf(stderr,
              "FAIL: rebalanced zipf imbalance %.2f above the %.1f bar\n",
              zipf_imb_on, factor);
      imbalance_ok = false;
    }
  }

  // ---- batched lookups: per-key routing vs shard-grouped dispatch ----
  {
    ShardedRmi::Config cfg;
    cfg.inner.base.num_leaf_models = std::max<size_t>(
        64, leaf_models / std::max<size_t>(num_shards, 1));
    cfg.inner.policy.trigger = dynamic::MergeTrigger::kManual;
    cfg.inner.log_cap = 1024;
    cfg.num_shards = num_shards;
    ShardedRmi idx;
    if (!idx.Build(keys, cfg).ok()) {
      fprintf(stderr, "batch-lookup index build failed\n");
      return 1;
    }
    const std::vector<uint64_t> probes = data::SampleKeys(keys, 1 << 14, 47);
    const double perkey_ns = lif::MeasureNsPerOp(
        probes, 3, [&](uint64_t q) { return idx.Lookup(q); });
    std::vector<size_t> out(probes.size());
    const double batched_ns = lif::MeasureBatchNsPerOp(probes.size(), [&] {
      idx.LookupBatch(probes, out);
      return out.data();
    });
    const double speedup = batched_ns > 0.0 ? perkey_ns / batched_ns : 0.0;
    printf(
        "\nuniform batched reads over %zu shards: per-key %.1f ns/key vs "
        "shard-grouped LookupBatch %.1f ns/key (%.2fx; acceptance bar: "
        "grouped faster)\n",
        idx.num_shards(), perkey_ns, batched_ns, speedup);
    emit("concurrent/sharded/lookup/perkey_ns", perkey_ns);
    emit("concurrent/sharded/lookup/grouped_ns", batched_ns);
    emit("concurrent/sharded/lookup/batch_speedup_factor", speedup);
  }

  if (const char* env = getenv("BENCH_MICRO_JSON")) {
    const char* path = bench_json::ResolvePath(env, "BENCH_concurrent.json");
    if (bench_json::Write(path, json)) {
      fprintf(stderr, "wrote %s\n", path);
    } else {
      fprintf(stderr, "failed to write %s\n", path);
      return 1;
    }
  }
  if (!all_consistent) {
    fprintf(stderr, "consistency checks FAILED\n");
    return 1;
  }
  return imbalance_ok ? 0 : 1;
}
