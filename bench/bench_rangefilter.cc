// Range-filter bench: FPR-vs-bits-per-key curves for the two
// src/rangefilter/ constructions — the learned segmented filter and the
// fixed-width interval baseline — over uniform, zipf, and
// adversarial-gap key sets, next to a plain-Bloom point-probe comparator
// (the only range strategy a classic Bloom filter offers: probe every
// point of a narrow range).
//
// Every (dataset, filter, budget) cell first passes a zero-false-negative
// oracle gate over witness ranges that provably contain a built key; any
// false negative exits 1 — a filter that loses keys has no business on a
// perf chart. The headline comparison is the issue's acceptance bar: on
// the skewed sets (zipf, advgap) the learned layout beats the interval
// baseline on range-FPR at equal bits per key, because equal-mass
// segments spend bits on key density while fixed-width blocks spend them
// on key span.
//
//   BENCH_RANGEFILTER_KEYS     keys per dataset   (default 200'000)
//   BENCH_RANGEFILTER_QUERIES  empty queries/cell (default 40'000)
//   BENCH_MICRO_JSON           unset = console only; "1" =
//                              BENCH_rangefilter.json; other = that path
//
// JSON schema (docs/BENCHMARKS.md "BENCH_rangefilter.json"): row names
//   rangefilter/<dataset>/<filter>/bpk<B>/<metric>
// with metric one of range_fpr (ns_per_op carries the dimensionless
// fraction), query_ns (ns_per_op + items_per_second = probes/s),
// bits_per_key (actual total bits incl. metadata), and
// zero_false_negatives (1.0 = the oracle gate passed). The Bloom
// comparator rows use filter name "bloom-point" and carry the narrow
// (width <= 64) query mix they are able to answer at all.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "json_out.h"
#include "bloom/bloom_filter.h"
#include "common/random.h"
#include "common/status.h"
#include "index/range_filter.h"
#include "rangefilter/interval_bitmap_filter.h"
#include "rangefilter/learned_range_filter.h"
#include "rangefilter/workload.h"

namespace li {
namespace {

using Clock = std::chrono::steady_clock;

double NsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Forces `v` to be materialized each iteration. The query paths are
/// pure, so without a barrier the timed loop is CSE'd against the
/// warm-up loop and measures nothing but two clock reads.
inline void KeepAlive(bool v) { asm volatile("" : : "r"(v)); }

size_t EnvSize(const char* name, size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const long long v = std::atoll(env);
  return v > 0 ? static_cast<size_t>(v) : fallback;
}

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "bench_rangefilter: %s\n", what.c_str());
  std::exit(1);
}

struct Cell {
  std::string name;  // rangefilter/<dataset>/<filter>/bpk<B>
  double range_fpr = 0.0;
  double query_ns = 0.0;
  double bits_per_key = 0.0;  // actual, incl. segment metadata
};

/// Runs one (filter, query set) cell: oracle gate first, then FPR and
/// query latency over the empty set.
template <typename F>
Cell RunCell(const std::string& name, const F& filter, size_t num_keys,
             const std::vector<index::RangeQuery>& empties,
             const std::vector<index::RangeQuery>& witnesses) {
  for (const index::RangeQuery& w : witnesses) {
    if (!filter.MightContainRange(w.lo, w.hi)) {
      Fail(name + ": FALSE NEGATIVE on witness range [" +
           std::to_string(w.lo) + ", " + std::to_string(w.hi) + ")");
    }
  }
  Cell cell;
  cell.name = name;
  cell.range_fpr = index::MeasureRangeFprOver(filter, empties);
  cell.bits_per_key = static_cast<double>(filter.SizeBytes()) * 8.0 /
                      static_cast<double>(num_keys);
  for (const index::RangeQuery& q : empties) {  // warm-up
    KeepAlive(filter.MightContainRange(q.lo, q.hi));
  }
  const auto t0 = Clock::now();
  for (const index::RangeQuery& q : empties) {
    KeepAlive(filter.MightContainRange(q.lo, q.hi));
  }
  const double ns = NsSince(t0);
  cell.query_ns = ns / static_cast<double>(empties.size());
  return cell;
}

/// The Bloom comparator answers a range only by probing every point in
/// it, so it competes on the narrow-query mix alone.
Cell RunBloomCell(const std::string& name, const bloom::BloomFilter& filter,
                  size_t num_keys,
                  const std::vector<index::RangeQuery>& narrow_empties,
                  std::span<const uint64_t> keys) {
  auto probe_range = [&](uint64_t lo, uint64_t hi) {
    for (uint64_t k = lo; k < hi; ++k) {
      if (filter.MightContain(k)) return true;
    }
    return false;
  };
  Xorshift128Plus rng(7);
  for (int i = 0; i < 20'000; ++i) {  // oracle gate on built keys
    const uint64_t k = keys[rng.NextBounded(keys.size())];
    if (!probe_range(k, k + 1)) {
      Fail(name + ": FALSE NEGATIVE on built key " + std::to_string(k));
    }
  }
  Cell cell;
  cell.name = name;
  size_t fp = 0;
  for (const index::RangeQuery& q : narrow_empties) {
    fp += probe_range(q.lo, q.hi);
  }
  cell.range_fpr =
      static_cast<double>(fp) / static_cast<double>(narrow_empties.size());
  cell.bits_per_key = static_cast<double>(filter.SizeBytes()) * 8.0 /
                      static_cast<double>(num_keys);
  const auto t0 = Clock::now();
  for (const index::RangeQuery& q : narrow_empties) {
    KeepAlive(probe_range(q.lo, q.hi));
  }
  const double ns = NsSince(t0);
  cell.query_ns = ns / static_cast<double>(narrow_empties.size());
  return cell;
}

int Run() {
  const size_t n = EnvSize("BENCH_RANGEFILTER_KEYS", 200'000);
  const size_t q = EnvSize("BENCH_RANGEFILTER_QUERIES", 40'000);
  const double budgets[] = {4.0, 8.0, 16.0, 32.0};

  struct Dataset {
    const char* name;
    std::vector<uint64_t> keys;
  };
  std::vector<Dataset> datasets;
  datasets.push_back({"uniform", rangefilter::GenUniformKeys(n, 101)});
  datasets.push_back({"zipf", rangefilter::GenZipfKeys(n, 102)});
  datasets.push_back({"advgap", rangefilter::GenAdversarialGapKeys(n, 103)});

  std::vector<Cell> cells;
  std::printf("%-44s %10s %10s %10s\n", "cell", "fpr", "query_ns",
              "bits/key");
  for (const Dataset& ds : datasets) {
    // The operational query mix: half correlated adjacent-gap near
    // misses (the LSM probe shape), half uniform over the domain (the
    // analytics predicate shape). One mix per dataset, shared by every
    // filter so the comparison is apples to apples.
    rangefilter::EmptyQueryConfig qcfg;
    qcfg.count = q;
    qcfg.correlated_fraction = 0.5;
    const std::vector<index::RangeQuery> empties =
        rangefilter::GenEmptyRanges(ds.keys, 201, qcfg);
    qcfg.max_width = 64;  // the only mix the Bloom comparator can serve
    const std::vector<index::RangeQuery> narrow_empties =
        rangefilter::GenEmptyRanges(ds.keys, 202, qcfg);
    const std::vector<index::RangeQuery> witnesses =
        rangefilter::GenWitnessRanges(ds.keys, 203, 20'000);
    if (empties.size() < q / 2 || narrow_empties.size() < q / 2) {
      Fail(std::string(ds.name) + ": could not generate empty queries");
    }

    for (const double bpk : budgets) {
      const std::string stem =
          "rangefilter/" + std::string(ds.name) + "/";
      const std::string suffix =
          "/bpk" + std::to_string(static_cast<int>(bpk));
      {
        rangefilter::LearnedRangeFilterConfig cfg;
        cfg.bits_per_key = bpk;
        rangefilter::LearnedRangeFilter f;
        if (Status st = f.Build(ds.keys, cfg); !st.ok()) {
          Fail("learned build: " + st.message());
        }
        cells.push_back(RunCell(stem + "learned" + suffix, f,
                                ds.keys.size(), empties, witnesses));
      }
      {
        rangefilter::IntervalBitmapFilterConfig cfg;
        cfg.bits_per_key = bpk;
        rangefilter::IntervalBitmapFilter f;
        if (Status st = f.Build(ds.keys, cfg); !st.ok()) {
          Fail("interval build: " + st.message());
        }
        cells.push_back(RunCell(stem + "interval" + suffix, f,
                                ds.keys.size(), empties, witnesses));
      }
      {
        bloom::BloomFilter f;
        const auto bits = static_cast<uint64_t>(
            bpk * static_cast<double>(ds.keys.size()));
        const int hashes =
            std::max(1, static_cast<int>(bpk * 0.693 + 0.5));
        if (Status st = f.InitExplicit(std::max<uint64_t>(64, bits), hashes);
            !st.ok()) {
          Fail("bloom init: " + st.message());
        }
        for (const uint64_t k : ds.keys) f.Add(k);
        cells.push_back(RunBloomCell(stem + "bloom-point" + suffix, f,
                                     ds.keys.size(), narrow_empties,
                                     ds.keys));
      }
      for (size_t i = cells.size() - 3; i < cells.size(); ++i) {
        std::printf("%-44s %10.4f %10.1f %10.2f\n", cells[i].name.c_str(),
                    cells[i].range_fpr, cells[i].query_ns,
                    cells[i].bits_per_key);
      }
    }
  }

  // The acceptance comparison: learned must beat interval on range-FPR
  // at equal budget on the skewed sets. Checked here (and again by the
  // CI validator) so a local run fails loudly too.
  auto fpr_of = [&](const std::string& name) {
    for (const Cell& c : cells) {
      if (c.name == name) return c.range_fpr;
    }
    Fail("missing cell " + name);
  };
  for (const char* ds : {"zipf", "advgap"}) {
    for (const double bpk : budgets) {
      const std::string suffix =
          "/bpk" + std::to_string(static_cast<int>(bpk));
      const std::string stem = "rangefilter/" + std::string(ds) + "/";
      const double learned = fpr_of(stem + "learned" + suffix);
      const double interval = fpr_of(stem + "interval" + suffix);
      if (learned >= interval) {
        Fail(stem + "learned" + suffix + ": learned FPR " +
             std::to_string(learned) + " does not beat interval " +
             std::to_string(interval));
      }
    }
  }

  if (std::getenv("BENCH_MICRO_JSON") != nullptr) {
    std::vector<bench_json::Entry> json;
    for (const Cell& c : cells) {
      json.push_back({c.name + "/range_fpr", c.range_fpr, 0.0});
      json.push_back({c.name + "/query_ns", c.query_ns,
                      c.query_ns > 0.0 ? 1e9 / c.query_ns : 0.0});
      json.push_back({c.name + "/bits_per_key", c.bits_per_key, 0.0});
      // 1.0 = the witness-range oracle gate passed; a failed gate never
      // reaches emission (the bench exits 1 above).
      json.push_back({c.name + "/zero_false_negatives", 1.0, 0.0});
    }
    const char* path = bench_json::ResolvePath(
        std::getenv("BENCH_MICRO_JSON"), "BENCH_rangefilter.json");
    if (bench_json::Write(path, json)) {
      std::printf("wrote %s\n", path);
    } else {
      Fail(std::string("failed to write ") + path);
    }
  }
  return 0;
}

}  // namespace
}  // namespace li

int main() { return li::Run(); }
