// Figure 4: Learned Index vs B-Tree on the three integer datasets
// (Maps / Weblog / Lognormal).
//
// Rows: read-optimized B-Tree with page sizes {32..512}, and 2-stage RMI
// configurations (routing stage off, K = 1, as in the paper). The first
// four RMI rows preserve the paper's keys-per-leaf ratios
// (10k/50k/100k/200k second-stage models over 200M keys); a fifth row
// adds the speed-optimal fine-grained configuration for this scale, and a
// last row the library default: a linear top with the routing stage
// (K = M/64 routing models) over n/64 leaves. Columns: size MB, total
// lookup ns, model-execution ns with its share of total — with factors
// against the paper's reference point, the page-128 B-Tree — and the mean
// search window (the ApproxPos width) over the queries.
//
// Top models follow the paper's grid-search outcome ("simple (0 hidden
// layers) to semi-complex (2 hidden layers and 8- or 16-wide) models for
// the first stage work the best", §3.7.1): linear tops for the
// near-linear Maps/Weblog CDFs, a 1x8 ReLU net for the heavy-tailed
// Lognormal CDF.
//
// Scale: REPRO_SCALE_M million keys (default 2; paper used 200). Note on
// interpreting results at small scale: with 2M keys the whole B-Tree is
// cache-resident, which flatters it; the paper's larger speedups reappear
// as REPRO_SCALE_M grows and the B-Tree's lower levels start missing.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "btree/readonly_btree.h"
#include "data/datasets.h"
#include "lif/measure.h"
#include "rmi/rmi.h"

using namespace li;

namespace {

struct Row {
  std::string config;
  double size_mb;
  double lookup_ns;
  double model_ns;
  double window = 0.0;  // mean ApproxPos width, learned rows only
};

std::string Fixed1(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

template <typename TopModel>
bool RunLearned(const std::vector<uint64_t>& keys,
                const std::vector<uint64_t>& queries, size_t stage2,
                const rmi::RmiConfig& base, std::string label, Row* row) {
  rmi::RmiConfig config = base;
  config.num_leaf_models = stage2;
  rmi::Rmi<TopModel> index;
  if (!index.Build(keys, config).ok()) return false;
  row->config = std::move(label);
  if (index.num_route_models() > 1) {
    row->config += " K=" + std::to_string(index.num_route_models());
  }
  row->size_mb = index.SizeBytes() / 1e6;
  double width = 0.0;
  for (const uint64_t q : queries) width += index.ApproxPos(q).Width();
  row->window = width / static_cast<double>(queries.size());
  row->model_ns = lif::MeasureNsPerOp(
      queries, 2, [&](uint64_t q) { return index.Predict(q).pos; });
  row->lookup_ns = lif::MeasureNsPerOp(
      queries, 2, [&](uint64_t q) { return index.LowerBound(q); });
  return true;
}

template <typename TopModel>
void PrintDataset(data::DatasetKind kind, size_t n, rmi::RmiConfig base) {
  base.num_route_models = 1;  // the paper's two-stage rows
  printf("\n=== %s (%zu keys) ===\n", data::DatasetName(kind), n);
  const std::vector<uint64_t> keys = data::Generate(kind, n);
  const std::vector<uint64_t> queries = data::SampleKeys(keys, 200'000);

  std::vector<Row> btree_rows, learned_rows;
  double ref_size = 1.0, ref_lookup = 1.0;

  for (const size_t page : {32, 64, 128, 256, 512}) {
    btree::ReadOnlyBTree tree;
    if (!tree.Build(keys, page).ok()) continue;
    Row row;
    row.config = "page size: " + std::to_string(page);
    row.size_mb = tree.SizeBytes() / 1e6;
    row.model_ns = lif::MeasureNsPerOp(
        queries, 2, [&](uint64_t q) { return tree.FindPage(q); });
    row.lookup_ns = lif::MeasureNsPerOp(
        queries, 2, [&](uint64_t q) { return tree.LowerBound(q); });
    if (page == 128) {
      ref_size = row.size_mb;
      ref_lookup = row.lookup_ns;
    }
    btree_rows.push_back(row);
  }

  // Paper-ratio rows: same keys-per-leaf as 10k..200k models at 200M keys.
  for (const size_t paper_stage2 : {10'000, 50'000, 100'000, 200'000}) {
    const size_t stage2 = std::max<size_t>(
        64, static_cast<size_t>(static_cast<double>(paper_stage2) *
                                static_cast<double>(n) / 200e6));
    Row row;
    if (RunLearned<TopModel>(keys, queries, stage2, base,
                             "2nd stage: " + std::to_string(paper_stage2 / 1000)
                                 + "k-equiv (" + std::to_string(stage2) + ")",
                             &row)) {
      learned_rows.push_back(row);
    }
  }
  // Speed-optimal configuration at this scale (~20 keys per leaf).
  {
    Row row;
    if (RunLearned<TopModel>(keys, queries, std::max<size_t>(64, n / 20),
                             base,
                             "speed-opt (" + std::to_string(n / 20) + ")",
                             &row)) {
      learned_rows.push_back(row);
    }
  }
  // The library default: linear top, routing stage, n/64 leaves.
  {
    const size_t stage2 = std::max<size_t>(64, n / 64);
    Row row;
    if (RunLearned<models::LinearModel>(
            keys, queries, stage2, rmi::RmiConfig{},
            "routed (" + std::to_string(stage2) + ")",
            &row)) {
      learned_rows.push_back(row);
    }
  }

  lif::Table table(
      {"Config", "Size (MB)", "Lookup (ns)", "Model (ns)", "Window (keys)"});
  table.AddSection("Btree");
  for (const Row& r : btree_rows) {
    table.AddRow({r.config, lif::Table::WithFactor(r.size_mb, r.size_mb / ref_size),
                  lif::Table::WithFactor(r.lookup_ns, ref_lookup / r.lookup_ns, 0),
                  lif::Table::WithPercent(r.model_ns,
                                          100.0 * r.model_ns / r.lookup_ns),
                  "-"});
  }
  table.AddSection("Learned Index");
  for (const Row& r : learned_rows) {
    table.AddRow({r.config, lif::Table::WithFactor(r.size_mb, r.size_mb / ref_size),
                  lif::Table::WithFactor(r.lookup_ns, ref_lookup / r.lookup_ns, 0),
                  lif::Table::WithPercent(r.model_ns,
                                          100.0 * r.model_ns / r.lookup_ns),
                  Fixed1(r.window)});
  }
  table.Print();
}

}  // namespace

int main() {
  const size_t n = lif::BenchScaleKeys();
  printf("Figure 4 reproduction: Learned Index vs B-Tree\n");
  printf("(size/speed factors are relative to the page-128 B-Tree)\n");
  rmi::RmiConfig linear_top;  // defaults; TopModel decides the rest
  PrintDataset<models::LinearModel>(data::DatasetKind::kMaps, n, linear_top);
  PrintDataset<models::LinearModel>(data::DatasetKind::kWeblog, n, linear_top);
  rmi::RmiConfig nn_top;
  nn_top.train.nn.hidden = {8};
  nn_top.train.nn.epochs = 20;
  PrintDataset<models::NeuralNet>(data::DatasetKind::kLognormal, n, nn_top);
  return 0;
}
