// Scenario example: an existence index (§5) for a phishing-URL blacklist —
// the paper's §5.2 experiment. Trains a character classifier, builds a
// learned Bloom filter with an overflow filter (zero false negatives), and
// compares its memory footprint against a standard Bloom filter at the
// same false-positive rate. Exits 1 if a build fails or the learned
// filter drops a key.

#include <cstdio>
#include <cstdlib>

#include "bloom/bloom_filter.h"
#include "bloom/learned_bloom.h"
#include "classifier/gru.h"
#include "classifier/ngram_logistic.h"
#include "data/strings.h"
#include "index/existence_index.h"

int main(int argc, char** argv) {
  using namespace li;
  const size_t num_keys =
      argc > 1 ? static_cast<size_t>(atol(argv[1])) : 50'000;

  printf("== URL blacklist learned Bloom filter ==\n");
  data::UrlCorpus corpus = data::GenUrls(num_keys, num_keys);
  const size_t third = corpus.random_negatives.size() / 3;
  std::vector<std::string> train_neg(corpus.random_negatives.begin(),
                                     corpus.random_negatives.begin() + third);
  std::vector<std::string> valid_neg(
      corpus.random_negatives.begin() + third,
      corpus.random_negatives.begin() + 2 * third);
  std::vector<std::string> test_neg(corpus.random_negatives.begin() + 2 * third,
                                    corpus.random_negatives.end());
  printf("%zu blacklisted URLs, %zu negatives (train/valid/test)\n",
         corpus.keys.size(), corpus.random_negatives.size());

  classifier::NgramConfig ngram_config;
  ngram_config.num_buckets = std::max<size_t>(1024, num_keys / 16);
  classifier::NgramLogistic model;
  if (const Status s = model.Train(corpus.keys, train_neg, ngram_config);
      !s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  const double target_fpr = 0.01;
  bloom::LearnedBloomFilter<classifier::NgramLogistic> learned;
  if (const Status s =
          learned.Build(&model, corpus.keys, valid_neg, target_fpr);
      !s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  bloom::BloomFilter plain;
  if (!plain.Init(corpus.keys.size(), target_fpr).ok()) return 1;
  for (const auto& k : corpus.keys) plain.Add(k);

  // Sanity: no false negatives, by construction.
  size_t misses = 0;
  for (const auto& k : corpus.keys) misses += !learned.MightContain(k);
  printf("false negatives: %zu (must be 0)\n", misses);

  printf("\n                         %10s %10s\n", "learned", "standard");
  printf("size                     %7.3f MB %7.3f MB\n",
         learned.SizeBytes() / 1e6, plain.SizeBytes() / 1e6);
  printf("test FPR                 %9.2f%% %9.2f%%\n",
         100.0 * index::MeasureFprOver(learned, test_neg),
         100.0 * index::MeasureFprOver(plain, test_neg));
  printf("classifier FNR (spilled) %9.1f%%\n", 100.0 * learned.fnr());
  printf("memory saved: %.0f%%\n",
         100.0 * (1.0 - static_cast<double>(learned.SizeBytes()) /
                            plain.SizeBytes()));
  return misses == 0 ? 0 : 1;
}
