// Quickstart: build a learned range index (RMI) over a synthetic dataset,
// look up keys, run a range scan, and compare size/latency against the
// read-optimized B-Tree baseline. Every answer is checked against
// std::lower_bound over the key array; a mismatch exits 1.
//
//   ./examples/quickstart [num_keys_millions]

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "btree/readonly_btree.h"
#include "data/datasets.h"
#include "lif/measure.h"
#include "rmi/rmi.h"

int main(int argc, char** argv) {
  using namespace li;
  const size_t n =
      (argc > 1 ? static_cast<size_t>(atol(argv[1])) : 2) * 1'000'000;

  printf("== learned-index quickstart ==\n");
  printf("generating %zu lognormal keys...\n", n);
  const std::vector<uint64_t> keys = data::GenLognormal(n);

  // ---- Build a 2-stage RMI: linear top model + linear leaf models ----
  // ~1000 keys per leaf keeps the index an order of magnitude smaller than
  // the page-128 B-Tree while staying faster.
  rmi::RmiConfig config;
  config.num_leaf_models = std::max<size_t>(64, n / 1000);
  config.strategy = search::Strategy::kBiasedBinary;
  rmi::LinearRmi index;
  if (const Status s = index.Build(keys, config); !s.ok()) {
    fprintf(stderr, "build failed: %s\n", s.ToString().c_str());
    return 1;
  }
  printf("RMI built: %.2f MB index overhead, max |error| = %lld positions\n",
         index.SizeBytes() / 1e6,
         static_cast<long long>(index.MaxAbsError()));

  auto lower_bound = [&](uint64_t q) {
    return static_cast<size_t>(std::lower_bound(keys.begin(), keys.end(), q) -
                               keys.begin());
  };
  bool correct = true;

  // ---- Point lookups ----
  const uint64_t probe = keys[n / 3];
  const size_t pos = index.LowerBound(probe);
  printf("LowerBound(%llu) = %zu (key at pos: %llu)\n",
         static_cast<unsigned long long>(probe), pos,
         static_cast<unsigned long long>(keys[pos]));
  const bool has = index.Contains(probe), has_next = index.Contains(probe + 1);
  printf("Contains(probe)   = %s\n", has ? "yes" : "no");
  printf("Contains(probe+1) = %s\n", has_next ? "yes" : "no");
  correct &= pos == lower_bound(probe) && has &&
             has_next == std::binary_search(keys.begin(), keys.end(),
                                            probe + 1);

  // ---- Range scan: all keys in [a, b) ----
  const uint64_t a = keys[n / 2], b = keys[n / 2 + 100];
  size_t count = 0;
  for (size_t i = index.LowerBound(a); i < keys.size() && keys[i] < b; ++i) {
    ++count;
  }
  printf("range [%llu, %llu) holds %zu keys\n",
         static_cast<unsigned long long>(a),
         static_cast<unsigned long long>(b), count);
  correct &= count == lower_bound(b) - lower_bound(a);

  // ---- Compare with the B-Tree baseline ----
  btree::ReadOnlyBTree btree;
  if (const Status s = btree.Build(keys, 128); !s.ok()) {
    fprintf(stderr, "btree build failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const auto queries = data::SampleKeys(keys, 100'000);
  for (const uint64_t q : queries) {
    correct &= index.LowerBound(q) == lower_bound(q) &&
               index.LowerBound(q + 1) == lower_bound(q + 1);
  }
  if (!correct) {
    fprintf(stderr, "an RMI answer disagrees with std::lower_bound\n");
    return 1;
  }
  const double rmi_ns = lif::MeasureNsPerOp(
      queries, 2, [&](uint64_t q) { return index.LowerBound(q); });
  const double bt_ns = lif::MeasureNsPerOp(
      queries, 2, [&](uint64_t q) { return btree.LowerBound(q); });
  printf("\n            %12s %12s\n", "RMI", "B-Tree(128)");
  printf("lookup ns   %12.0f %12.0f\n", rmi_ns, bt_ns);
  printf("size MB     %12.2f %12.2f\n", index.SizeBytes() / 1e6,
         btree.SizeBytes() / 1e6);
  printf("speedup: %.2fx, size ratio: %.1fx smaller\n", bt_ns / rmi_ns,
         static_cast<double>(btree.SizeBytes()) / index.SizeBytes());
  return 0;
}
