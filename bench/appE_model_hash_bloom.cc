// Appendix E: Bloom filter with model-hashes — discretize the classifier
// into an m-bit bitmap, back it with a Bloom filter sized for
// FPR_B = p*/FPR_m, and sweep m. Reports the total size at p* = 1% and
// 0.1% next to the §5.1.1 learned filter and the standard filter.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bloom/bloom_filter.h"
#include "bloom/learned_bloom.h"
#include "bloom/model_hash_bloom.h"
#include "classifier/ngram_logistic.h"
#include "common/random.h"
#include "data/strings.h"
#include "index/existence_index.h"
#include "lif/measure.h"

using namespace li;

int main() {
  size_t num_keys = 50'000;
  if (const char* env = getenv("REPRO_BLOOM_KEYS")) {
    const long v = atol(env);
    if (v > 0) num_keys = static_cast<size_t>(v);
  }
  printf("Appendix E reproduction: model-hash Bloom filters (%zu keys)\n",
         num_keys);
  data::UrlCorpus corpus = data::GenUrls(num_keys, num_keys);
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

  classifier::NgramConfig ngram_config;
  ngram_config.num_buckets = std::max<size_t>(1024, num_keys / 16);
  classifier::NgramLogistic model;
  if (!model.Train(corpus.keys, train_neg, ngram_config).ok()) return 1;

  lif::Table table({"Construction", "p*", "m (bits)", "Size (MB)", "vs Bloom",
                    "Test FPR"});
  for (const double p : {0.01, 0.001}) {
    bloom::BloomFilter plain;
    if (!plain.Init(corpus.keys.size(), p).ok()) continue;
    const double plain_mb = plain.SizeBytes() / 1e6;
    char ps[16];
    snprintf(ps, sizeof(ps), "%.1f%%", 100.0 * p);
    {
      char s[32];
      snprintf(s, sizeof(s), "%.3f", plain_mb);
      table.AddRow({"standard Bloom", ps, "-", s, "1.00x", "-"});
    }
    {
      bloom::LearnedBloomFilter<classifier::NgramLogistic> learned;
      if (learned.Build(&model, corpus.keys, valid_neg, p).ok()) {
        char s[32], r[32], tf[32];
        snprintf(s, sizeof(s), "%.3f", learned.SizeBytes() / 1e6);
        snprintf(r, sizeof(r), "%.2fx",
                 learned.SizeBytes() / 1e6 / plain_mb);
        snprintf(tf, sizeof(tf), "%.2f%%",
                 100.0 * index::MeasureFprOver(learned, test_neg));
        table.AddRow({"classifier + overflow (5.1.1)", ps, "-", s, r, tf});
      }
    }
    // m sweep around the paper's 1e6 (scaled by key count vs 1.7M).
    for (const double scale : {0.25, 0.5, 1.0, 2.0}) {
      const uint64_t m = static_cast<uint64_t>(
          scale * 1e6 * static_cast<double>(num_keys) / 1.7e6);
      bloom::ModelHashBloomFilter<classifier::NgramLogistic> mh;
      if (!mh.Build(&model, corpus.keys, valid_neg, p, std::max<uint64_t>(m, 1024))
               .ok()) {
        continue;
      }
      char ms[32], s[32], r[32], tf[32];
      snprintf(ms, sizeof(ms), "%llu",
               static_cast<unsigned long long>(mh.bitmap_bits()));
      snprintf(s, sizeof(s), "%.3f", mh.SizeBytes() / 1e6);
      snprintf(r, sizeof(r), "%.2fx", mh.SizeBytes() / 1e6 / plain_mb);
      snprintf(tf, sizeof(tf), "%.2f%%",
               100.0 * index::MeasureFprOver(mh, test_neg));
      table.AddRow({"model-hash sandwich (5.1.2)", ps, ms, s, r, tf});
    }
  }
  table.Print();
  printf("(paper: model-hash at p*=1%% -> 41%% smaller; at 0.1%% -> 27.4%% "
         "smaller)\n");
  return 0;
}
