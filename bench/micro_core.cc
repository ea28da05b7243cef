// google-benchmark microbenchmarks for the primitive operations the paper
// reasons about in §2.1/§3.1: model inference kernels (linear,
// multivariate, NNs of increasing width), B-Tree page descents, the search
// strategies, hash functions, and the point-index probe paths (single-key
// vs software-pipelined FindBatch). These are the "30 ns-class model
// execution" numbers.
//
// Set BENCH_MICRO_JSON=<path> (or =1 for ./BENCH_micro.json) to also emit
// the shared bench_json document (see bench/json_out.h), so the perf
// trajectory accumulates across PRs.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "json_out.h"
#include "btree/readonly_btree.h"
#include "data/datasets.h"
#include "hash/chained_hash_map.h"
#include "hash/cuckoo_map.h"
#include "hash/hash_fn.h"
#include "index/approx.h"
#include "models/linear.h"
#include "models/multivariate.h"
#include "models/nn.h"
#include "rmi/rmi.h"
#include "search/search.h"
#include "simd/dispatch.h"

using namespace li;

namespace {

const std::vector<uint64_t>& Keys() {
  static const std::vector<uint64_t> keys = data::GenLognormal(1'000'000);
  return keys;
}

const std::vector<uint64_t>& Queries() {
  static const std::vector<uint64_t> queries =
      data::SampleKeys(Keys(), 1 << 16);
  return queries;
}

void BM_LinearModelPredict(benchmark::State& state) {
  models::LinearModel model(1e-6, 42.0);
  size_t i = 0;
  const auto& qs = Queries();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.Predict(static_cast<double>(qs[i++ & 0xFFFF])));
  }
}
BENCHMARK(BM_LinearModelPredict);

void BM_MultivariatePredict(benchmark::State& state) {
  std::vector<double> xs, ys;
  for (size_t i = 0; i < Keys().size(); i += 100) {
    xs.push_back(static_cast<double>(Keys()[i]));
    ys.push_back(static_cast<double>(i));
  }
  models::MultivariateModel model;
  if (!model.FitAutoSelect(xs, ys).ok()) {
    state.SkipWithError("fit failed");
    return;
  }
  size_t i = 0;
  const auto& qs = Queries();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.Predict(static_cast<double>(qs[i++ & 0xFFFF])));
  }
}
BENCHMARK(BM_MultivariatePredict);

void BM_NNPredict(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const int layers = static_cast<int>(state.range(1));
  std::vector<double> xs, ys;
  for (size_t i = 0; i < Keys().size(); i += 100) {
    xs.push_back(static_cast<double>(Keys()[i]));
    ys.push_back(static_cast<double>(i));
  }
  models::NNConfig config;
  for (int l = 0; l < layers; ++l) config.hidden.push_back(width);
  config.epochs = 2;
  models::NeuralNet net;
  if (!net.Fit(xs, ys, config).ok()) {
    state.SkipWithError("fit failed");
    return;
  }
  size_t i = 0;
  const auto& qs = Queries();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net.Predict(static_cast<double>(qs[i++ & 0xFFFF])));
  }
}
BENCHMARK(BM_NNPredict)->Args({8, 1})->Args({16, 1})->Args({32, 2});

void BM_RmiPredict(benchmark::State& state) {
  rmi::RmiConfig config;
  config.num_leaf_models = static_cast<size_t>(state.range(0));
  static rmi::LinearRmi* index = nullptr;
  rmi::LinearRmi local;
  if (!local.Build(Keys(), config).ok()) {
    state.SkipWithError("build failed");
    return;
  }
  index = &local;
  size_t i = 0;
  const auto& qs = Queries();
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->Predict(qs[i++ & 0xFFFF]).pos);
  }
}
BENCHMARK(BM_RmiPredict)->Arg(10'000)->Arg(100'000);

void BM_RmiLowerBound(benchmark::State& state) {
  rmi::RmiConfig config;
  config.num_leaf_models = static_cast<size_t>(state.range(0));
  rmi::LinearRmi index;
  if (!index.Build(Keys(), config).ok()) {
    state.SkipWithError("build failed");
    return;
  }
  size_t i = 0;
  const auto& qs = Queries();
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.LowerBound(qs[i++ & 0xFFFF]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RmiLowerBound)->Arg(10'000)->Arg(100'000);

// Batched vs. single-key lookups (compare items_per_second against
// BM_RmiLowerBound): the batch path software-pipelines route / predict /
// search over 16-key blocks so neighboring cache misses overlap.
void BM_RmiLookupBatch(benchmark::State& state) {
  rmi::RmiConfig config;
  config.num_leaf_models = static_cast<size_t>(state.range(0));
  rmi::LinearRmi index;
  if (!index.Build(Keys(), config).ok()) {
    state.SkipWithError("build failed");
    return;
  }
  const auto& qs = Queries();
  std::vector<size_t> out(qs.size());
  for (auto _ : state) {
    index.LookupBatch(qs, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(qs.size()));
}
BENCHMARK(BM_RmiLookupBatch)->Arg(10'000)->Arg(100'000);

// ---- Per-dispatch-level kernels: scalar vs AVX2 vs AVX-512 --------------
// Each *_AtLevel bench pins the SIMD dispatch level for its run (level 0 =
// scalar = the pipelined per-key path, 1 = avx2, 2 = avx512) so
// BENCH_micro.json carries a scalar-vs-vector column per primitive.
// Unsupported levels skip rather than silently falling back, so a missing
// entry means "this host/build can't run it", never a mislabeled number.

// 100k leaves over 1M keys — the paper's serving-scale leaf budget (and
// the same budget BuiltLearnedHash uses), where per-leaf error windows are
// tight enough that the σ-sub-window sweep does the last mile in one pass.
const rmi::LinearRmi* BuiltRmi() {
  static const auto* index = []() -> const rmi::LinearRmi* {
    auto idx = std::make_unique<rmi::LinearRmi>();
    rmi::RmiConfig config;
    config.num_leaf_models = 100'000;
    if (!idx->Build(Keys(), config).ok()) return nullptr;
    return idx.release();
  }();
  return index;
}

bool PinLevelOrSkip(benchmark::State& state, simd::ScopedLevel& pin) {
  if (!pin.status().ok()) {
    state.SkipWithError("dispatch level unsupported on this host/build");
    return false;
  }
  return true;
}

// The tentpole comparison: batched lookups per level x batch size. The
// level-0 row is the pre-SIMD pipelined scalar path (the acceptance
// baseline); batch sizes must divide the 65536-query pool.
void BM_RmiLookupBatchAtLevel(benchmark::State& state) {
  const auto level = static_cast<simd::Level>(state.range(0));
  const size_t batch = static_cast<size_t>(state.range(1));
  const auto* index = BuiltRmi();
  if (index == nullptr) {
    state.SkipWithError("build failed");
    return;
  }
  simd::ScopedLevel pin(level);
  if (!PinLevelOrSkip(state, pin)) return;
  const auto& qs = Queries();
  std::vector<size_t> out(batch);
  size_t off = 0;
  for (auto _ : state) {
    index->LookupBatch(std::span(qs).subspan(off, batch), out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    off = (off + batch) & (qs.size() - 1);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_RmiLookupBatchAtLevel)
    ->ArgNames({"level", "batch"})
    ->Args({0, 64})
    ->Args({1, 64})
    ->Args({2, 64})
    ->Args({0, 1024})
    ->Args({1, 1024})
    ->Args({2, 1024})
    ->Args({0, 65536})
    ->Args({1, 65536})
    ->Args({2, 65536});

// Model execution only (route + leaf predict, no search) per level.
void BM_RmiPredictBatchAtLevel(benchmark::State& state) {
  const auto level = static_cast<simd::Level>(state.range(0));
  const auto* index = BuiltRmi();
  if (index == nullptr) {
    state.SkipWithError("build failed");
    return;
  }
  simd::ScopedLevel pin(level);
  if (!PinLevelOrSkip(state, pin)) return;
  const auto& qs = Queries();
  std::vector<uint64_t> pos(qs.size());
  for (auto _ : state) {
    index->PredictPosBatch(qs, pos);
    benchmark::DoNotOptimize(pos.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(qs.size()));
}
BENCHMARK(BM_RmiPredictBatchAtLevel)
    ->ArgNames({"level"})
    ->Arg(0)
    ->Arg(1)
    ->Arg(2);

// The bounded last mile alone: branchless compare-and-popcount search per
// level over precomputed prediction windows (compare against
// BM_LastMileScalarStrategy, the per-key biased-binary baseline).
const std::vector<index::Approx>& QueryWindows() {
  static const std::vector<index::Approx> windows = [] {
    std::vector<index::Approx> w;
    const auto* index = BuiltRmi();
    if (index == nullptr) return w;
    const auto& qs = Queries();
    w.reserve(qs.size());
    for (const uint64_t q : qs) w.push_back(index->ApproxPos(q));
    return w;
  }();
  return windows;
}

void BM_LastMileScalarStrategy(benchmark::State& state) {
  const auto& windows = QueryWindows();
  if (windows.empty()) {
    state.SkipWithError("build failed");
    return;
  }
  const auto& keys = Keys();
  const auto& qs = Queries();
  size_t i = 0;
  for (auto _ : state) {
    const size_t j = i++ & 0xFFFF;
    benchmark::DoNotOptimize(
        search::FindInWindow(search::Strategy::kBiasedBinary, keys.data(),
                             keys.size(), qs[j], windows[j]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LastMileScalarStrategy);

void BM_LastMileAtLevel(benchmark::State& state) {
  const auto level = static_cast<simd::Level>(state.range(0));
  const auto& windows = QueryWindows();
  if (windows.empty()) {
    state.SkipWithError("build failed");
    return;
  }
  simd::ScopedLevel pin(level);
  if (!PinLevelOrSkip(state, pin)) return;
  const simd::Kernels& kern = simd::GetKernels();
  const auto& keys = Keys();
  const auto& qs = Queries();
  size_t i = 0;
  for (auto _ : state) {
    const size_t j = i++ & 0xFFFF;
    benchmark::DoNotOptimize(search::FindInWindowBranchless(
        kern, keys.data(), keys.size(), qs[j], windows[j]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LastMileAtLevel)->ArgNames({"level"})->Arg(0)->Arg(1)->Arg(2);

// A whole LinearRmi build per level on one worker: 4M lognormal keys at
// n/64 leaves, where the leaf fit (the fit_leaf kernel) is the largest
// stage. Reported as keys/s.
void BM_RmiBuildAtLevel(benchmark::State& state) {
  const auto level = static_cast<simd::Level>(state.range(0));
  static const std::vector<uint64_t> keys = data::GenLognormal(4'000'000);
  simd::ScopedLevel pin(level);
  if (!PinLevelOrSkip(state, pin)) return;
  rmi::RmiConfig config;
  config.num_leaf_models = keys.size() / 64;
  rmi::LinearRmi index;
  for (auto _ : state) {
    if (!index.BuildOnWorkers(keys, config, 1).ok()) {
      state.SkipWithError("build failed");
      return;
    }
    benchmark::DoNotOptimize(index.leaves().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_RmiBuildAtLevel)
    ->ArgNames({"level"})
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_BTreeFindPage(benchmark::State& state) {
  btree::ReadOnlyBTree tree;
  if (!tree.Build(Keys(), static_cast<size_t>(state.range(0))).ok()) {
    state.SkipWithError("build failed");
    return;
  }
  size_t i = 0;
  const auto& qs = Queries();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.FindPage(qs[i++ & 0xFFFF]));
  }
}
BENCHMARK(BM_BTreeFindPage)->Arg(32)->Arg(128)->Arg(512);

void BM_BTreeLowerBound(benchmark::State& state) {
  btree::ReadOnlyBTree tree;
  if (!tree.Build(Keys(), static_cast<size_t>(state.range(0))).ok()) {
    state.SkipWithError("build failed");
    return;
  }
  size_t i = 0;
  const auto& qs = Queries();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.LowerBound(qs[i++ & 0xFFFF]));
  }
}
BENCHMARK(BM_BTreeLowerBound)->Arg(32)->Arg(128)->Arg(512);

void BM_FullBinarySearch(benchmark::State& state) {
  size_t i = 0;
  const auto& keys = Keys();
  const auto& qs = Queries();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        search::BinarySearch(keys.data(), 0, keys.size(), qs[i++ & 0xFFFF]));
  }
}
BENCHMARK(BM_FullBinarySearch);

void BM_MurmurHash(benchmark::State& state) {
  hash::RandomHash h(Keys().size(), 3);
  size_t i = 0;
  const auto& qs = Queries();
  for (auto _ : state) {
    benchmark::DoNotOptimize(h(qs[i++ & 0xFFFF]));
  }
}
BENCHMARK(BM_MurmurHash);

// Shared fixtures build once and return nullptr on failure so one broken
// build skips its benchmarks instead of killing the whole process.
const hash::LearnedHash<models::LinearModel>* BuiltLearnedHash() {
  static const auto* h =
      []() -> const hash::LearnedHash<models::LinearModel>* {
    auto fn = std::make_unique<hash::LearnedHash<models::LinearModel>>();
    rmi::RmiConfig config;
    config.num_leaf_models = 100'000;
    if (!fn->Build(Keys(), Keys().size(), config).ok()) return nullptr;
    return fn.release();
  }();
  return h;
}

// The shipped path: fixed-point multiplicative rescale of the CDF
// position (multiply + shift per lookup).
void BM_LearnedHash(benchmark::State& state) {
  const auto* h = BuiltLearnedHash();
  if (h == nullptr) {
    state.SkipWithError("build failed");
    return;
  }
  size_t i = 0;
  const auto& qs = Queries();
  for (auto _ : state) {
    benchmark::DoNotOptimize((*h)(qs[i++ & 0xFFFF]));
  }
}
BENCHMARK(BM_LearnedHash);

// The pre-optimization reference: per-lookup 128-bit division
// ((pos * M) / N). Compare against BM_LearnedHash for the rescale delta.
void BM_LearnedHashDivision(benchmark::State& state) {
  const auto* h = BuiltLearnedHash();
  if (h == nullptr) {
    state.SkipWithError("build failed");
    return;
  }
  size_t i = 0;
  const auto& qs = Queries();
  for (auto _ : state) {
    benchmark::DoNotOptimize(h->SlotViaDivision(qs[i++ & 0xFFFF]));
  }
}
BENCHMARK(BM_LearnedHashDivision);

// Vectorized CDF-model slot batches per dispatch level (compare against
// BM_LearnedHash, the single-key path).
void BM_LearnedHashSlotBatchAtLevel(benchmark::State& state) {
  const auto level = static_cast<simd::Level>(state.range(0));
  const auto* h = BuiltLearnedHash();
  if (h == nullptr) {
    state.SkipWithError("build failed");
    return;
  }
  simd::ScopedLevel pin(level);
  if (!PinLevelOrSkip(state, pin)) return;
  const auto& qs = Queries();
  std::vector<uint64_t> slots(qs.size());
  for (auto _ : state) {
    h->SlotBatch(qs.data(), qs.size(), slots.data());
    benchmark::DoNotOptimize(slots.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(qs.size()));
}
BENCHMARK(BM_LearnedHashSlotBatchAtLevel)
    ->ArgNames({"level"})
    ->Arg(0)
    ->Arg(1)
    ->Arg(2);

// ---- Point-index probe paths: single-key Find vs pipelined FindBatch ----

const std::vector<hash::Record>& MapRecords() {
  static const std::vector<hash::Record> records = [] {
    std::vector<hash::Record> r;
    r.reserve(Keys().size());
    for (size_t i = 0; i < Keys().size(); ++i) {
      r.push_back({Keys()[i], i, 0});
    }
    return r;
  }();
  return records;
}

const hash::ChainedHashMap* BuiltChainedMap() {
  static const auto* map = []() -> const hash::ChainedHashMap* {
    auto m = std::make_unique<hash::ChainedHashMap>();
    hash::ChainedHashMapConfig config;
    config.hash.kind = hash::HashKind::kRandom;
    config.hash.seed = 3;
    if (!m->Build(MapRecords(), config).ok()) return nullptr;
    return m.release();
  }();
  return map;
}

void BM_ChainedMapFind(benchmark::State& state) {
  const auto* map = BuiltChainedMap();
  if (map == nullptr) {
    state.SkipWithError("build failed");
    return;
  }
  size_t i = 0;
  const auto& qs = Queries();
  for (auto _ : state) {
    benchmark::DoNotOptimize(map->Find(qs[i++ & 0xFFFF]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChainedMapFind);

// Compare items_per_second against BM_ChainedMapFind: per 16-key block,
// hashes + prefetches every home slot before probing, so neighboring
// cache misses overlap (acceptance bar: >= 1.2x the single-key path).
void BM_ChainedMapFindBatch(benchmark::State& state) {
  const auto* map = BuiltChainedMap();
  if (map == nullptr) {
    state.SkipWithError("build failed");
    return;
  }
  const auto& qs = Queries();
  std::vector<const hash::Record*> out(qs.size());
  for (auto _ : state) {
    map->FindBatch(qs, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(qs.size()));
}
BENCHMARK(BM_ChainedMapFindBatch);

const hash::CuckooMap<hash::Record>* BuiltCuckooMap() {
  static const auto* map = []() -> const hash::CuckooMap<hash::Record>* {
    auto m = std::make_unique<hash::CuckooMap<hash::Record>>();
    hash::CuckooMapConfig config;
    config.load_factor = 0.95;
    if (!m->Build(MapRecords(), config).ok()) return nullptr;
    return m.release();
  }();
  return map;
}

void BM_CuckooMapFind(benchmark::State& state) {
  const auto* map = BuiltCuckooMap();
  if (map == nullptr) {
    state.SkipWithError("build failed");
    return;
  }
  size_t i = 0;
  const auto& qs = Queries();
  for (auto _ : state) {
    benchmark::DoNotOptimize(map->Find(qs[i++ & 0xFFFF]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CuckooMapFind);

void BM_CuckooMapFindBatch(benchmark::State& state) {
  const auto* map = BuiltCuckooMap();
  if (map == nullptr) {
    state.SkipWithError("build failed");
    return;
  }
  const auto& qs = Queries();
  std::vector<const hash::Record*> out(qs.size());
  for (auto _ : state) {
    map->FindBatch(qs, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(qs.size()));
}
BENCHMARK(BM_CuckooMapFindBatch);

// Per-level map probes: the batch slot computation vectorizes with the
// dispatch level while the chain walk / bucket probe stays memory-bound,
// so the level deltas here bound how much of FindBatch is compute.
void BM_ChainedMapFindBatchAtLevel(benchmark::State& state) {
  const auto level = static_cast<simd::Level>(state.range(0));
  const auto* map = BuiltChainedMap();
  if (map == nullptr) {
    state.SkipWithError("build failed");
    return;
  }
  simd::ScopedLevel pin(level);
  if (!PinLevelOrSkip(state, pin)) return;
  const auto& qs = Queries();
  std::vector<const hash::Record*> out(qs.size());
  for (auto _ : state) {
    map->FindBatch(qs, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(qs.size()));
}
BENCHMARK(BM_ChainedMapFindBatchAtLevel)
    ->ArgNames({"level"})
    ->Arg(0)
    ->Arg(1)
    ->Arg(2);

void BM_CuckooMapFindBatchAtLevel(benchmark::State& state) {
  const auto level = static_cast<simd::Level>(state.range(0));
  const auto* map = BuiltCuckooMap();
  if (map == nullptr) {
    state.SkipWithError("build failed");
    return;
  }
  simd::ScopedLevel pin(level);
  if (!PinLevelOrSkip(state, pin)) return;
  const auto& qs = Queries();
  std::vector<const hash::Record*> out(qs.size());
  for (auto _ : state) {
    map->FindBatch(qs, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(qs.size()));
}
BENCHMARK(BM_CuckooMapFindBatchAtLevel)
    ->ArgNames({"level"})
    ->Arg(0)
    ->Arg(1)
    ->Arg(2);

// ---- optional machine-readable output (BENCH_micro.json) ----

// Console output stays the default; when BENCH_MICRO_JSON is set, every
// per-iteration result is also collected and written through the shared
// bench_json emitter on exit.
class JsonEmittingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      bench_json::Entry e;
      e.name = run.benchmark_name();
      e.ns_per_op = run.GetAdjustedRealTime();  // default unit: ns
      const auto it = run.counters.find("items_per_second");
      e.items_per_second =
          it != run.counters.end() ? static_cast<double>(it->second) : 0.0;
      entries_.push_back(std::move(e));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  bool WriteJson(const char* path) const {
    return bench_json::Write(path, entries_);
  }

 private:
  std::vector<bench_json::Entry> entries_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const char* json_env = getenv("BENCH_MICRO_JSON");
  if (json_env == nullptr) {
    benchmark::RunSpecifiedBenchmarks();
  } else {
    const char* path = bench_json::ResolvePath(json_env, "BENCH_micro.json");
    JsonEmittingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    if (reporter.WriteJson(path)) {
      fprintf(stderr, "wrote %s\n", path);
    } else {
      fprintf(stderr, "failed to write %s\n", path);
    }
  }
  benchmark::Shutdown();
  return 0;
}
