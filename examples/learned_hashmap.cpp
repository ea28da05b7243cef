// Scenario example: a point index (§4) — separate-chaining hash map whose
// hash function is a learned CDF model, compared against MurmurHash-style
// random hashing. Shows the conflict-rate and wasted-space reductions of
// Figure 8 / Figure 11 on live data structures, all built through the
// PointIndex contract: the hash family is build configuration, and the
// winner can be held type-erased (index::AnyPointIndex) like any other
// point index. Exits 1 if a build fails or the erased handle misses a
// probed key.

#include <cstdio>
#include <cstdlib>

#include "data/datasets.h"
#include "hash/chained_hash_map.h"
#include "index/point_index.h"
#include "lif/measure.h"

int main(int argc, char** argv) {
  using namespace li;
  const size_t n =
      (argc > 1 ? static_cast<size_t>(atol(argv[1])) : 2) * 1'000'000;

  printf("== learned hash map example ==\n");
  const std::vector<uint64_t> keys = data::GenMaps(n);
  std::vector<hash::Record> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    records.push_back({keys[i], i, 0});
  }

  // Learned hash: 2-stage RMI, linear top, no hidden layers (§4.2) —
  // selected by config, not by template parameter.
  hash::ChainedHashMapConfig learned_cfg;
  learned_cfg.hash.kind = hash::HashKind::kLearnedCdf;
  learned_cfg.hash.cdf_leaf_models = 100'000;
  hash::ChainedHashMapConfig random_cfg;
  random_cfg.hash.kind = hash::HashKind::kRandom;
  random_cfg.hash.seed = 3;

  hash::ChainedHashMap learned_map;
  hash::ChainedHashMap random_map;
  if (const Status s = learned_map.Build(records, learned_cfg); !s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  if (!random_map.Build(records, random_cfg).ok()) {
    fprintf(stderr, "hash map build failed\n");
    return 1;
  }

  const index::PointIndexStats learned_stats = learned_map.Stats();
  const index::PointIndexStats random_stats = random_map.Stats();
  printf("conflicts (overflow records): learned %zu vs random %zu\n",
         learned_stats.overflow, random_stats.overflow);
  printf("empty slots (wasted space): learned %.2f GB vs random %.2f GB\n",
         learned_map.EmptySlotBytes() / 1e9,
         random_map.EmptySlotBytes() / 1e9);

  const auto probes = data::SampleKeys(keys, 200'000);
  const double ln = lif::MeasureNsPerOp(probes, 2, [&](uint64_t q) {
    return learned_map.Find(q) != nullptr;
  });
  const double rn = lif::MeasureNsPerOp(probes, 2, [&](uint64_t q) {
    return random_map.Find(q) != nullptr;
  });
  printf("lookup: learned %.0f ns vs random %.0f ns\n", ln, rn);

  // The software-pipelined batch probe overlaps neighboring cache misses.
  std::vector<const hash::Record*> out(probes.size());
  const double bn = lif::MeasureBatchNsPerOp(probes.size(), [&] {
    learned_map.FindBatch(probes, out);
    return out.data();
  });
  printf("batched lookup (FindBatch): %.0f ns/key (%.2fx vs single)\n", bn,
         ln / bn);

  // Type-erased, the winner drops into any PointIndex call site.
  index::AnyPointIndex erased(std::move(learned_map));
  size_t hits = 0;
  for (const uint64_t q : probes) hits += erased.Find(q) != nullptr;
  printf("erased handle verified %zu/%zu probes\n", hits, probes.size());
  printf("(learned hashing trades model-execution time for fewer chains\n"
         " and less wasted memory — Appendix B)\n");
  return hits == probes.size() ? 0 : 1;
}
