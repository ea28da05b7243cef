// Ablation (§3.2): RMI stage layout. The paper evaluates two-stage indexes;
// the routing stage inserts K linear models between the top and the M
// leaves (1 -> K -> M). K = 1 is the paper's two-stage RMI; larger K
// spends one more model evaluation and a dependent memory access per
// lookup ("There is no search process required in-between the stages")
// to equalize leaf mass, shrinking the last-mile window. Rows: K = 1,
// 64, 1024 and the library default (0, K = M/64).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "data/datasets.h"
#include "lif/measure.h"
#include "rmi/rmi.h"

using namespace li;

int main() {
  const size_t n = lif::BenchScaleKeys();
  printf("RMI routing-stage ablation (weblog, %zu keys)\n", n);
  const auto keys = data::GenWeblog(n);
  const auto queries = data::SampleKeys(keys, 200'000);

  lif::Table table({"K", "Layout", "Size (MB)", "max |err|", "Mean window",
                    "Lookup (ns)"});
  const size_t leaves = std::max<size_t>(1024, n / 100);
  for (const size_t k : {size_t{1}, size_t{64}, size_t{1024}, size_t{0}}) {
    rmi::RmiConfig config;
    config.num_leaf_models = leaves;
    config.num_route_models = k;
    rmi::LinearRmi index;
    if (!index.Build(keys, config).ok()) continue;
    double width = 0.0;
    for (const uint64_t q : queries) {
      width += static_cast<double>(index.ApproxPos(q).Width());
    }
    width /= static_cast<double>(queries.size());
    const double ns = lif::MeasureNsPerOp(
        queries, 2, [&](uint64_t q) { return index.LowerBound(q); });
    const std::string label = k == 0 ? "0 (M/64)" : std::to_string(k);
    const std::string layout = "1->" +
                               std::to_string(index.num_route_models()) +
                               "->" + std::to_string(leaves);
    char c1[32], c2[32], c3[32], c4[32];
    snprintf(c1, sizeof(c1), "%.3f", index.SizeBytes() / 1e6);
    snprintf(c2, sizeof(c2), "%lld",
             static_cast<long long>(index.MaxAbsError()));
    snprintf(c3, sizeof(c3), "%.1f", width);
    snprintf(c4, sizeof(c4), "%.0f", ns);
    table.AddRow({label, layout, c1, c2, c3, c4});
  }
  table.Print();
  return 0;
}
