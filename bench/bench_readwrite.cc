// Read/write workload sweep for the writable-index subsystem (Appendix
// D.1): insert ratios of 0/1/10/50% over RMI, B-Tree and delta-wrapped
// bases.
//
// Per (candidate, ratio) cell the bench builds the index over a key split
// (held-out keys form the insert stream, so inserts match the data
// distribution), drives one deterministic interleaved stream of
// membership probes and inserts, and reports:
//   mixed_ns  — ns/op over the whole stream (the headline number),
//   lookup_ns — rank-lookup ns/op measured after the stream with the
//               delta still populated (for the dynamic B-Tree baseline
//               this column is its native exact Find),
//   merges, merge ms — the delta rows' merge count and total merge time
//               from Stats() (the indexes count writes and merges; reads
//               are not counted).
// Read-only RMI and B-Tree rows anchor the sweep: the acceptance bar is
// delta-wrapped RMI lookup throughput within 2x of the read-only base at
// the 10% ratio. The bench verifies consistency (inserted keys visible,
// ranks matching a from-scratch reference) and exits non-zero on any
// violation, so the CI bench-smoke job is a functional check too.
//
// Scale knobs: BENCH_RW_KEYS (exact key count; default REPRO_SCALE_M
// million via lif::BenchScaleKeys) and BENCH_RW_OPS (ops per cell;
// default keys/10). BENCH_MICRO_JSON=1 additionally emits
// BENCH_readwrite.json through the shared bench_json writer.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "json_out.h"

#include "btree/dynamic_btree.h"
#include "btree/readonly_btree.h"
#include "common/random.h"
#include "common/timer.h"
#include "data/datasets.h"
#include "dynamic/delta_range_index.h"
#include "lif/measure.h"
#include "rmi/rmi.h"

using namespace li;

namespace {

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

struct CellResult {
  double mixed_ns = 0.0;
  double lookup_ns = 0.0;
  size_t inserted = 0;   // inserts actually executed
  uint64_t merges = 0;
  double merge_ms = 0.0;
  bool consistent = true;
};

/// Drives the interleaved stream. `probe` is the candidate's membership
/// op, `rank` its rank lookup (or the same membership op for structures
/// without rank semantics).
template <typename InsertFn, typename ProbeFn, typename RankFn>
CellResult RunStream(const lif::ReadWriteWorkload& w, InsertFn&& do_insert,
                     ProbeFn&& do_probe, RankFn&& do_rank) {
  CellResult r;
  size_t ii = 0, li = 0;
  uint64_t sink = 0;
  Timer timer;
  for (const uint8_t op : w.is_insert) {
    if (op != 0 && ii < w.inserts.size()) {
      do_insert(w.inserts[ii++]);
    } else {
      sink += do_probe(w.lookups[li++ % w.lookups.size()]) ? 1 : 0;
    }
  }
  r.mixed_ns = timer.ElapsedNanos() /
               static_cast<double>(std::max<size_t>(w.is_insert.size(), 1));
  DoNotOptimize(sink);
  r.inserted = ii;
  r.lookup_ns =
      lif::MeasureNsPerOp(w.lookups, 3, [&](uint64_t q) { return do_rank(q); });
  return r;
}

/// Reference live key set after the stream: base split + executed inserts.
std::vector<uint64_t> ReferenceLive(const lif::ReadWriteWorkload& w,
                                    size_t inserted) {
  std::vector<uint64_t> live = w.base;
  live.insert(live.end(), w.inserts.begin(),
              w.inserts.begin() + static_cast<ptrdiff_t>(inserted));
  std::sort(live.begin(), live.end());
  return live;
}

template <typename Idx>
bool CheckConsistency(const Idx& idx, const lif::ReadWriteWorkload& w,
                      size_t inserted) {
  const std::vector<uint64_t> live = ReferenceLive(w, inserted);
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

}  // namespace

int main() {
  const size_t n = EnvSize("BENCH_RW_KEYS", lif::BenchScaleKeys(2));
  const size_t ops = EnvSize("BENCH_RW_OPS", std::max<size_t>(n / 10, 1000));
  const int ratios[] = {0, 1, 10, 50};

  printf("== read/write sweep: %zu lognormal keys, %zu ops per cell ==\n", n,
         ops);
  const std::vector<uint64_t> keys = data::GenLognormal(n);

  std::vector<bench_json::Entry> json;
  auto emit = [&json](const std::string& name, double ns) {
    json.push_back(
        bench_json::Entry{name, ns, ns > 0.0 ? 1e9 / ns : 0.0});
  };

  lif::Table table({"config", "insert%", "mixed ns/op", "lookup ns/op",
                    "merges", "merge ms"});
  bool all_consistent = true;
  double rmi_baseline_lookup_ns = 0.0;
  double delta_rmi_lookup_at_10 = 0.0;
  // The acceptance factor compares like with like: a read-only RMI built
  // over the SAME base split as the 10%-cell delta index, timed on the
  // SAME probe set (the global anchor above uses its own sample and is
  // informational only).
  double matched_rmi_baseline_at_10 = 0.0;

  const auto leaf_models = std::max<size_t>(64, n / 10);

  // ---- read-only anchors (lookup-only; they cannot absorb inserts) ----
  {
    rmi::RmiConfig rc;
    rc.num_leaf_models = leaf_models;
    rmi::LinearRmi rmi_idx;
    if (!rmi_idx.Build(keys, rc).ok()) {
      fprintf(stderr, "rmi baseline build failed\n");
      return 1;
    }
    const auto probes = data::SampleKeys(keys, 1 << 14, 7);
    rmi_baseline_lookup_ns = lif::MeasureNsPerOp(
        probes, 3, [&](uint64_t q) { return rmi_idx.Lookup(q); });
    table.AddSection("read-only bases");
    table.AddRow({"rmi (read-only)", "0",
                  "-", Fmt(rmi_baseline_lookup_ns),
                  "-", "-"});
    emit("readwrite/rmi_readonly/lookup_ns", rmi_baseline_lookup_ns);

    btree::ReadOnlyBTree bt;
    if (!bt.Build(keys, btree::ReadOnlyBTreeConfig{128}).ok()) {
      fprintf(stderr, "btree baseline build failed\n");
      return 1;
    }
    const double bt_ns = lif::MeasureNsPerOp(
        probes, 3, [&](uint64_t q) { return bt.Lookup(q); });
    table.AddRow({"btree (read-only)", "0", "-",
                  lif::Table::WithFactor(bt_ns, bt_ns /
                                                    rmi_baseline_lookup_ns),
                  "-", "-"});
    emit("readwrite/btree_readonly/lookup_ns", bt_ns);
  }

  // ---- writable candidates across the ratio sweep ----
  for (const int pct : ratios) {
    const lif::ReadWriteWorkload w = lif::MakeReadWriteWorkload(
        keys, ops, pct / 100.0, 1 << 14, 1234 + static_cast<uint64_t>(pct));
    table.AddSection("insert ratio " + std::to_string(pct) + "%");

    // Delta-wrapped RMI.
    {
      using DeltaRmi = dynamic::DeltaRangeIndex<rmi::LinearRmi>;
      DeltaRmi::Config cfg;
      cfg.base.num_leaf_models = std::max<size_t>(64, w.base.size() / 10);
      // Operational merge cadence: bound the delta (and so the read
      // amplification) at a few thousand entries; the merge cost this
      // buys shows up honestly in mixed_ns and the merges column.
      cfg.policy.min_delta_entries = 1024;
      cfg.policy.max_delta_entries = 4096;
      DeltaRmi idx;
      if (!idx.Build(w.base, cfg).ok()) {
        fprintf(stderr, "delta_rmi build failed\n");
        return 1;
      }
      CellResult r = RunStream(
          w, [&](uint64_t k) { idx.Insert(k); },
          [&](uint64_t q) { return idx.Contains(q); },
          [&](uint64_t q) { return idx.Lookup(q); });
      r.consistent = CheckConsistency(idx, w, r.inserted);
      const auto st = idx.Stats();
      r.merges = st.merges;
      r.merge_ms = st.total_merge_ns / 1e6;
      all_consistent &= r.consistent;
      if (pct == 10) {
        delta_rmi_lookup_at_10 = r.lookup_ns;
        rmi::LinearRmi matched;
        if (!matched.Build(w.base, cfg.base).ok()) {
          fprintf(stderr, "matched baseline build failed\n");
          return 1;
        }
        matched_rmi_baseline_at_10 = lif::MeasureNsPerOp(
            w.lookups, 3, [&](uint64_t q) { return matched.Lookup(q); });
      }
      table.AddRow(
          {"delta[rmi]", std::to_string(pct),
           Fmt(r.mixed_ns),
           lif::Table::WithFactor(r.lookup_ns,
                                  r.lookup_ns / rmi_baseline_lookup_ns),
           std::to_string(r.merges),
           Fmt(r.merge_ms)});
      const std::string prefix =
          "readwrite/delta_rmi/ins" + std::to_string(pct);
      emit(prefix + "/mixed_ns", r.mixed_ns);
      emit(prefix + "/lookup_ns", r.lookup_ns);
    }

    // Delta-wrapped read-only B-Tree.
    {
      using DeltaBt = dynamic::DeltaRangeIndex<btree::ReadOnlyBTree>;
      DeltaBt::Config cfg;
      cfg.base.keys_per_page = 128;
      cfg.policy.min_delta_entries = 1024;
      cfg.policy.max_delta_entries = 4096;
      DeltaBt idx;
      if (!idx.Build(w.base, cfg).ok()) {
        fprintf(stderr, "delta_btree build failed\n");
        return 1;
      }
      CellResult r = RunStream(
          w, [&](uint64_t k) { idx.Insert(k); },
          [&](uint64_t q) { return idx.Contains(q); },
          [&](uint64_t q) { return idx.Lookup(q); });
      r.consistent = CheckConsistency(idx, w, r.inserted);
      const auto st = idx.Stats();
      all_consistent &= r.consistent;
      table.AddRow(
          {"delta[btree]", std::to_string(pct),
           Fmt(r.mixed_ns),
           lif::Table::WithFactor(r.lookup_ns,
                                  r.lookup_ns / rmi_baseline_lookup_ns),
           std::to_string(st.merges),
           Fmt(st.total_merge_ns / 1e6)});
      const std::string prefix =
          "readwrite/delta_btree/ins" + std::to_string(pct);
      emit(prefix + "/mixed_ns", r.mixed_ns);
      emit(prefix + "/lookup_ns", r.lookup_ns);
    }

    // Fully-dynamic B-Tree map (native inserts, exact Find; the classic
    // structure the paper's write-path sketch competes with).
    {
      btree::BTreeMap map;
      if (!map.Build(w.base, {}).ok()) {
        fprintf(stderr, "btree_dynamic build failed\n");
        return 1;
      }
      CellResult r = RunStream(
          w, [&](uint64_t k) { map.Insert(k, 0); },
          [&](uint64_t q) { return map.Find(q).has_value(); },
          [&](uint64_t q) { return map.Find(q).has_value(); });
      table.AddRow({"btree-map (dynamic)", std::to_string(pct),
                    Fmt(r.mixed_ns),
                    lif::Table::WithFactor(r.lookup_ns,
                                           r.lookup_ns /
                                               rmi_baseline_lookup_ns),
                    "-", "-"});
      const std::string prefix =
          "readwrite/btree_dynamic/ins" + std::to_string(pct);
      emit(prefix + "/mixed_ns", r.mixed_ns);
      emit(prefix + "/lookup_ns", r.lookup_ns);
    }
  }

  table.Print();

  const double factor =
      matched_rmi_baseline_at_10 > 0.0
          ? delta_rmi_lookup_at_10 / matched_rmi_baseline_at_10
          : 0.0;
  printf(
      "\ndelta-wrapped RMI lookup at 10%% inserts: %.1f ns vs %.1f ns "
      "matched read-only base (%.2fx; acceptance bar <= 2x)\n",
      delta_rmi_lookup_at_10, matched_rmi_baseline_at_10, factor);
  emit("readwrite/delta_rmi_vs_readonly_factor_ins10", factor);

  if (const char* env = getenv("BENCH_MICRO_JSON")) {
    const char* path = bench_json::ResolvePath(env, "BENCH_readwrite.json");
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
  return 0;
}
