// Figure 10: learned Bloom filter memory footprint across the FPR range,
// for classifier configurations of increasing capacity — GRU widths
// W in {16, 32, 128} with 32-dim embeddings (plus the n-gram logistic
// model as an extra cheap point) — against the standard Bloom filter.
//
// Default scale trains small GRUs quickly; REPRO_BLOOM_KEYS and
// REPRO_GRU_FULL=1 raise fidelity toward the paper's 1.7M-key setting.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bloom/bloom_filter.h"
#include "bloom/learned_bloom.h"
#include "classifier/gru.h"
#include "classifier/ngram_logistic.h"
#include "common/random.h"
#include "data/strings.h"
#include "index/existence_index.h"
#include "lif/measure.h"

using namespace li;

namespace {

size_t NumKeys() {
  if (const char* env = getenv("REPRO_BLOOM_KEYS")) {
    const long v = atol(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 50'000;
}

}  // namespace

int main() {
  const size_t num_keys = NumKeys();
  const bool full_gru = getenv("REPRO_GRU_FULL") != nullptr;
  printf("Figure 10 reproduction: learned Bloom filter memory vs FPR "
         "(%zu keys)\n",
         num_keys);
  data::UrlCorpus corpus = data::GenUrls(num_keys, num_keys);
  // The paper's negative set "is a mixture of random (valid) URLs and
  // whitelisted URLs that could be mistaken for phishing pages", split
  // into train / validation / test.
  std::vector<std::string> negatives = corpus.random_negatives;
  negatives.insert(negatives.end(), corpus.whitelisted.begin(),
                   corpus.whitelisted.end());
  {
    Xorshift128Plus shuffle_rng(5);
    for (size_t i = negatives.size(); i > 1; --i) {
      std::swap(negatives[i - 1], negatives[shuffle_rng.NextBounded(i)]);
    }
  }
  const size_t third = negatives.size() / 3;
  const std::vector<std::string> train_neg(negatives.begin(),
                                           negatives.begin() + third);
  const std::vector<std::string> valid_neg(negatives.begin() + third,
                                           negatives.begin() + 2 * third);
  const std::vector<std::string> test_neg(negatives.begin() + 2 * third,
                                          negatives.end());

  const double fprs[] = {0.02, 0.01, 0.005, 0.001};

  lif::Table table({"Model", "Target FPR", "Size (MB)", "vs Bloom", "FNR",
                    "Test FPR"});

  // Standard Bloom filter line.
  std::vector<double> bloom_mb;
  for (const double fpr : fprs) {
    bloom::BloomFilter plain;
    if (!plain.Init(corpus.keys.size(), fpr).ok()) return 1;
    bloom_mb.push_back(plain.SizeBytes() / 1e6);
    char f[32], s[32];
    snprintf(f, sizeof(f), "%.2f%%", 100.0 * fpr);
    snprintf(s, sizeof(s), "%.3f", bloom_mb.back());
    table.AddRow({"BloomFilter", f, s, "1.00x", "-", "-"});
  }

  // Every candidate is scored through the type-erased ExistenceIndex
  // contract — the same handle the LIF synthesizer returns. Only the FNR
  // (construction detail, not contract) is read before erasure.
  auto run_model = [&](const char* name, auto& model) {
    for (size_t i = 0; i < std::size(fprs); ++i) {
      bloom::LearnedBloomFilter<std::decay_t<decltype(model)>> filter;
      if (!filter.Build(&model, corpus.keys, valid_neg, fprs[i]).ok()) {
        continue;
      }
      const double fnr = filter.fnr();
      const index::AnyExistenceIndex erased(std::move(filter));
      char f[32], s[32], r[32], fn[32], tf[32];
      snprintf(f, sizeof(f), "%.2f%%", 100.0 * fprs[i]);
      snprintf(s, sizeof(s), "%.3f", erased.SizeBytes() / 1e6);
      snprintf(r, sizeof(r), "%.2fx", erased.SizeBytes() / 1e6 / bloom_mb[i]);
      snprintf(fn, sizeof(fn), "%.0f%%", 100.0 * fnr);
      snprintf(tf, sizeof(tf), "%.2f%%",
               100.0 * index::MeasureFprOver(erased, test_neg));
      table.AddRow({name, f, s, r, fn, tf});
    }
  };

  {
    classifier::NgramConfig ngram_config;
    // Feature-table size scaled to the key count (the model must stay well
    // below the Bloom filter it displaces).
    ngram_config.num_buckets = std::max<size_t>(1024, num_keys / 16);
    classifier::NgramLogistic ngram;
    if (ngram.Train(corpus.keys, train_neg, ngram_config).ok()) {
      run_model("Ngram-LR", ngram);
    }
  }
  const int widths[] = {16, 32, 128};
  for (const int w : widths) {
    if (w == 128 && !full_gru) {
      printf("(skipping W=128 GRU; set REPRO_GRU_FULL=1 to include it)\n");
      continue;
    }
    classifier::GruConfig config;
    config.hidden_dim = w;
    config.embed_dim = 32;
    config.epochs = full_gru ? 2 : 1;
    config.max_train_per_class = full_gru ? 20'000 : 4000;
    classifier::GruClassifier gru;
    if (!gru.Train(corpus.keys, train_neg, config).ok()) continue;
    char name[32];
    snprintf(name, sizeof(name), "W=%d,E=32", w);
    run_model(name, gru);
  }
  table.Print();
  printf("(paper: W=16,E=32 at 1%% FPR -> 36%% smaller than Bloom; at 0.1%% "
         "-> 15%% smaller)\n");
  return 0;
}
