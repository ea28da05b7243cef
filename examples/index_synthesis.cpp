// Scenario example: the Learning Index Framework (§3.1) as an index
// *synthesizer* — hand it a key set and a size budget, get back the fastest
// index configuration found by grid search, with the full candidate sweep
// printed the way LIF "generates different index configurations, optimizes
// them, and tests them automatically". Covers three of the five
// synthesis classes: range (§3), point (§4), and existence (§5). Exits 1
// if a synthesis fails, a sampled lookup misses, or the existence winner
// drops a key.

#include <cstdio>
#include <cstdlib>

#include "data/datasets.h"
#include "data/strings.h"
#include "index/existence_index.h"
#include "lif/measure.h"
#include "lif/synthesizer.h"

using namespace li;

namespace {

void PrintReports(const std::vector<lif::CandidateReport>& reports,
                  bool with_fpr) {
  lif::Table table({"candidate", "size MB", "lookup ns",
                    with_fpr ? "meas. FPR" : "model ns", "fits budget"});
  for (const auto& r : reports) {
    char size_mb[32], lookup[32], extra[32];
    snprintf(size_mb, sizeof(size_mb), "%.3f", r.size_bytes / 1e6);
    snprintf(lookup, sizeof(lookup), "%.0f", r.lookup_ns);
    if (with_fpr) {
      snprintf(extra, sizeof(extra), "%.2f%%", 100.0 * r.fpr);
    } else {
      snprintf(extra, sizeof(extra), "%.0f", r.model_ns);
    }
    table.AddRow({r.description, size_mb, lookup, extra,
                  r.within_budget ? "yes" : "no"});
  }
  table.Print();
}

}  // namespace

int main(int argc, char** argv) {
  const size_t n =
      (argc > 1 ? static_cast<size_t>(atol(argv[1])) : 1) * 1'000'000;
  const double budget_mb = argc > 2 ? atof(argv[2]) : 4.0;

  // ---- Range index (§3): fastest LowerBound within the size budget ----
  printf("== LIF range-index synthesis ==\n");
  const std::vector<uint64_t> keys = data::GenWeblog(n);
  printf("dataset: %zu weblog timestamps, size budget %.1f MB\n", n,
         budget_mb);

  lif::SynthesisSpec spec;
  spec.stage2_sizes = {1000, 10'000, 50'000};
  spec.nn_hidden = {{8}, {16, 16}};
  spec.nn_epochs = 10;
  spec.size_budget_bytes = static_cast<size_t>(budget_mb * 1e6);
  lif::Synthesis<index::AnyRangeIndex> range;
  if (const Status s = lif::SynthesizeRange(keys, spec, &range); !s.ok()) {
    fprintf(stderr, "synthesis failed: %s\n", s.ToString().c_str());
    return 1;
  }
  PrintReports(range.reports, /*with_fpr=*/false);
  printf("winner: %s (%.2f MB)\n\n", range.description.c_str(),
         range.winner.SizeBytes() / 1e6);

  const auto queries = data::SampleKeys(keys, 10'000);
  size_t hits = 0;
  for (const uint64_t q : queries) {
    const size_t pos = range.winner.Lookup(q);
    hits += pos < keys.size() && keys[pos] == q;
  }
  printf("verified %zu/%zu sampled range lookups\n\n", hits, queries.size());
  bool ok = hits == queries.size();

  // ---- Point index (§4): hash family x slot sweep x map family ----
  printf("== LIF point-index synthesis ==\n");
  std::vector<hash::Record> records;
  records.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    records.push_back({keys[i], i, 0});
  }
  lif::PointSynthesisSpec pspec;
  pspec.eval_queries = 10'000;
  lif::Synthesis<index::AnyPointIndex> point;
  if (const Status s = lif::SynthesizePoint(records, pspec, &point); !s.ok()) {
    fprintf(stderr, "point synthesis failed: %s\n", s.ToString().c_str());
    return 1;
  }
  PrintReports(point.reports, /*with_fpr=*/false);
  printf("winner: %s (%.2f MB incl. records)\n", point.description.c_str(),
         point.winner.SizeBytes() / 1e6);
  hits = 0;
  for (const uint64_t q : queries) hits += point.winner.Find(q) != nullptr;
  printf("verified %zu/%zu sampled point lookups\n\n", hits, queries.size());
  ok = ok && hits == queries.size();

  // ---- Existence index (§5): smallest filter meeting the target FPR ----
  printf("== LIF existence-index synthesis ==\n");
  const size_t num_urls = 20'000;
  data::UrlCorpus corpus = data::GenUrls(num_urls, num_urls);
  const size_t third = corpus.random_negatives.size() / 3;
  const std::vector<std::string> train_neg(
      corpus.random_negatives.begin(), corpus.random_negatives.begin() + third);
  const std::vector<std::string> valid_neg(
      corpus.random_negatives.begin() + third,
      corpus.random_negatives.begin() + 2 * third);
  const std::vector<std::string> test_neg(
      corpus.random_negatives.begin() + 2 * third,
      corpus.random_negatives.end());
  lif::ExistenceSynthesisSpec espec;
  espec.target_fpr = 0.01;
  lif::Synthesis<index::AnyExistenceIndex> existence;
  if (const Status s = lif::SynthesizeExistence(
          corpus.keys, train_neg, valid_neg, test_neg, espec, &existence);
      !s.ok()) {
    fprintf(stderr, "existence synthesis failed: %s\n", s.ToString().c_str());
    return 1;
  }
  PrintReports(existence.reports, /*with_fpr=*/true);
  printf("winner: %s (%.3f MB, measured FPR %.2f%%)\n",
         existence.description.c_str(), existence.winner.SizeBytes() / 1e6,
         100.0 * index::MeasureFprOver(existence.winner, test_neg));
  size_t misses = 0;
  for (const auto& k : corpus.keys) misses += !existence.winner.MightContain(k);
  printf("false negatives: %zu (must be 0)\n", misses);
  return ok && misses == 0 ? 0 : 1;
}
