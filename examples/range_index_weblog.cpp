// Scenario example: a secondary index over web-server log timestamps —
// the paper's motivating workload (§2.3). Demonstrates:
//   * the hard-to-learn weblog CDF (complex time patterns),
//   * hybrid indexes bounding worst-case leaves with B-Trees (§3.3),
//   * time-range analytics queries via lower_bound scans.
// Every answer is checked against std::lower_bound over the timestamps; a
// mismatch exits 1.

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "data/datasets.h"
#include "lif/measure.h"
#include "rmi/hybrid.h"
#include "rmi/rmi.h"

int main(int argc, char** argv) {
  using namespace li;
  const size_t n =
      (argc > 1 ? static_cast<size_t>(atol(argv[1])) : 2) * 1'000'000;

  printf("== weblog secondary-index example ==\n");
  const std::vector<uint64_t> ts = data::GenWeblog(n);
  printf("%zu request timestamps spanning %.1f days\n", n,
         static_cast<double>(ts.back() - ts.front()) / 86'400e6);

  // Pure learned index.
  rmi::RmiConfig rmi_cfg;
  rmi_cfg.num_leaf_models = 10'000;
  rmi::LinearRmi learned;
  if (const Status s = learned.Build(ts, rmi_cfg); !s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  // Hybrid: replace bad leaves with B-Trees above |err| 128.
  rmi::HybridConfig hybrid_cfg;
  hybrid_cfg.rmi = rmi_cfg;
  hybrid_cfg.threshold = 128;
  rmi::HybridRmi<models::LinearModel> hybrid;
  if (const Status s = hybrid.Build(ts, hybrid_cfg); !s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  printf("learned index: %.2f MB, max |err| %lld\n",
         learned.SizeBytes() / 1e6,
         static_cast<long long>(learned.MaxAbsError()));
  printf("hybrid index:  %.2f MB, %zu/%zu leaves swapped to B-Trees\n",
         hybrid.SizeBytes() / 1e6, hybrid.num_btree_leaves(),
         rmi_cfg.num_leaf_models);

  // Analytics query: requests within one hour of a burst.
  const uint64_t t0 = ts[n / 2];
  const uint64_t t1 = t0 + uint64_t{3600} * 1'000'000;
  size_t hits = 0;
  for (size_t i = learned.LowerBound(t0); i < ts.size() && ts[i] < t1; ++i) {
    ++hits;
  }
  printf("requests in 1h window starting at key %llu: %zu\n",
         static_cast<unsigned long long>(t0), hits);
  auto lower_bound = [&](uint64_t q) {
    return static_cast<size_t>(std::lower_bound(ts.begin(), ts.end(), q) -
                               ts.begin());
  };
  bool correct = hits == lower_bound(t1) - lower_bound(t0);

  const auto queries = data::SampleKeys(ts, 100'000);
  for (const uint64_t q : queries) {
    correct &= learned.LowerBound(q) == lower_bound(q) &&
               hybrid.LowerBound(q) == lower_bound(q) &&
               learned.LowerBound(q + 1) == lower_bound(q + 1) &&
               hybrid.LowerBound(q + 1) == lower_bound(q + 1);
  }
  if (!correct) {
    fprintf(stderr, "an index answer disagrees with std::lower_bound\n");
    return 1;
  }
  const double ln = lif::MeasureNsPerOp(
      queries, 2, [&](uint64_t q) { return learned.LowerBound(q); });
  const double hn = lif::MeasureNsPerOp(
      queries, 2, [&](uint64_t q) { return hybrid.LowerBound(q); });
  printf("lookup: learned %.0f ns, hybrid %.0f ns\n", ln, hn);
  return 0;
}
