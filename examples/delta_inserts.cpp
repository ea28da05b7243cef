// Scenario example: handling inserts with a delta index (Appendix D.1) —
// "all inserts are kept in buffer and from time to time merged with a
// potential retraining of the model ... already widely used, for example
// in Bigtable".
//
// This used to be a hand-rolled ~100-line inline class; it now rides the
// library's writable-index subsystem: dynamic::DeltaRangeIndex wraps the
// learned RMI base, buffers Insert/Erase in sorted runs, serves lookups
// from base+delta, and merges+retrains under a pluggable policy. The old
// inline merge loop (and its subtle dedupe-ordering questions — see the
// duplicate-key regression in tests/writable_index_conformance_test.cc)
// is gone.

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/random.h"
#include "data/datasets.h"
#include "dynamic/delta_range_index.h"
#include "rmi/rmi.h"

int main(int argc, char** argv) {
  using namespace li;
  const size_t n =
      (argc > 1 ? static_cast<size_t>(atol(argv[1])) : 1) * 1'000'000;

  printf("== delta-index insert handling (Appendix D.1) ==\n");
  const std::vector<uint64_t> base = data::GenWeblog(n);

  using Store = dynamic::DeltaRangeIndex<rmi::LinearRmi>;
  Store::Config config;
  config.base.num_leaf_models = std::max<size_t>(64, base.size() / 200);
  // Auto-merge once the delta holds 64k entries, so the second half of
  // the insert stream demonstrates the automatic Appendix-D.1 cycle; the
  // explicit Merge() below flushes the remainder.
  config.policy.trigger = dynamic::MergeTrigger::kSizeThreshold;
  config.policy.max_delta_entries = 64 * 1024;

  Store store;
  if (const Status s = store.Build(base, config); !s.ok()) {
    fprintf(stderr, "build failed: %s\n", s.ToString().c_str());
    return 1;
  }
  printf("base: %zu keys (learned index), delta: empty\n", store.size());

  // Append-style inserts: later timestamps (the Appendix-D.1 append case).
  Xorshift128Plus rng(3);
  std::vector<uint64_t> fresh;
  uint64_t t = 3'000'000'000'000ULL * 40;  // beyond the generated range
  for (int i = 0; i < 100'000; ++i) {
    t += rng.NextBounded(1'000'000) + 1;
    fresh.push_back(t);
    store.Insert(t);
  }
  printf("inserted %zu new timestamps into the delta buffer\n", fresh.size());

  size_t found = 0;
  for (const uint64_t k : fresh) found += store.Contains(k);
  printf("visible before final merge: %zu/%zu\n", found, fresh.size());

  if (const Status s = store.Merge(); !s.ok()) {
    fprintf(stderr, "merge failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const auto stats = store.Stats();
  printf("merged: base now %zu keys, delta %zu entries\n", stats.base_keys,
         stats.delta_entries);
  printf(
      "stats: %llu merges (%.1f ms total), index %zu bytes\n",
      static_cast<unsigned long long>(stats.merges),
      stats.total_merge_ns / 1e6, store.SizeBytes());

  found = 0;
  for (const uint64_t k : fresh) found += store.Contains(k);
  printf("visible after merge: %zu/%zu\n", found, fresh.size());

  // Erase flows through the same delta: tombstone now, fold at merge.
  size_t erased = 0;
  for (size_t i = 0; i < fresh.size(); i += 2) erased += store.Erase(fresh[i]);
  printf("erased %zu of the fresh keys (tombstoned in the delta)\n", erased);
  size_t gone = 0;
  for (size_t i = 0; i < fresh.size(); i += 2) gone += !store.Contains(fresh[i]);

  // Ordered scans see through base + delta too.
  const auto window = store.Scan(fresh.front(), 5);
  printf("scan from first fresh key: %zu keys, first=%llu\n", window.size(),
         window.empty() ? 0ULL
                        : static_cast<unsigned long long>(window.front()));

  const bool ok =
      found == fresh.size() && gone == erased && erased == fresh.size() / 2;
  printf("%s\n", ok ? "OK" : "MISMATCH");
  return ok ? 0 : 1;
}
