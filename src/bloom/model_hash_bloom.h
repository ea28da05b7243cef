// Bloom filter with model-hashes (§5.1.2 + Appendix E): the classifier
// output is discretized into an m-bit bitmap, M[floor(m * f(x))] = 1 for
// every key — f is trained to push keys toward high outputs and non-keys
// toward low outputs, so the bitmap acts as a hash function with many
// key/key collisions and few key/non-key collisions.
//
// A query is predicted to be a key iff its bitmap bit is set AND a backup
// Bloom filter (over all keys) agrees; the overall FPR is
// FPR_m x FPR_B, so the backup is sized for FPR_B = p* / FPR_m
// (Appendix E). No false negatives: every key sets its bit and is in the
// backup filter. Satisfies the index::ExistenceIndex contract; the
// classifier is held by pointer and must outlive the filter.

#ifndef LI_BLOOM_MODEL_HASH_BLOOM_H_
#define LI_BLOOM_MODEL_HASH_BLOOM_H_

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bloom/bloom_filter.h"
#include "common/status.h"

namespace li::bloom {

template <typename Classifier>
class ModelHashBloomFilter {
 public:
  ModelHashBloomFilter() = default;

  /// `bitmap_bits` is the Appendix-E m parameter (e.g. 1,000,000).
  Status Build(const Classifier* classifier,
               std::span<const std::string> keys,
               std::span<const std::string> validation_non_keys,
               double target_fpr, uint64_t bitmap_bits) {
    if (classifier == nullptr || bitmap_bits == 0) {
      return Status::InvalidArgument("ModelHashBloom: bad arguments");
    }
    if (target_fpr <= 0.0 || target_fpr >= 1.0) {
      return Status::InvalidArgument("ModelHashBloom: bad target FPR");
    }
    classifier_ = classifier;
    m_ = bitmap_bits;
    bitmap_.assign((m_ + 63) / 64, 0);

    for (const auto& k : keys) {
      const uint64_t bit = Discretize(classifier_->Predict(k));
      bitmap_[bit >> 6] |= uint64_t{1} << (bit & 63);
    }

    // Measure FPR_m on the validation non-keys.
    size_t hits = 0;
    for (const auto& s : validation_non_keys) {
      hits += TestBit(Discretize(classifier_->Predict(s)));
    }
    fpr_m_ = validation_non_keys.empty()
                 ? 1.0
                 : static_cast<double>(hits) /
                       static_cast<double>(validation_non_keys.size());

    // Backup filter sized for FPR_B = p* / FPR_m (capped to a valid FPR).
    const double fpr_b =
        std::clamp(fpr_m_ > 0.0 ? target_fpr / fpr_m_ : 0.5, 1e-6, 0.5);
    LI_RETURN_IF_ERROR(backup_.Init(std::max<size_t>(1, keys.size()), fpr_b));
    for (const auto& k : keys) backup_.Add(k);
    return Status::OK();
  }

  bool MightContain(std::string_view key) const {
    if (classifier_ == nullptr) return false;  // never built: empty set
    if (!TestBit(Discretize(classifier_->Predict(key)))) return false;
    return backup_.MightContain(key);
  }

  double fpr_m() const { return fpr_m_; }
  uint64_t bitmap_bits() const { return m_; }
  size_t SizeBytes() const {
    return classifier_->SizeBytes() + bitmap_.size() * sizeof(uint64_t) +
           backup_.SizeBytes();
  }

 private:
  uint64_t Discretize(double p) const {
    const double clamped = std::clamp(p, 0.0, 1.0);
    const uint64_t bit = static_cast<uint64_t>(
        clamped * static_cast<double>(m_));
    return std::min(bit, m_ - 1);
  }
  bool TestBit(uint64_t bit) const {
    return (bitmap_[bit >> 6] >> (bit & 63)) & 1;
  }

  const Classifier* classifier_ = nullptr;
  uint64_t m_ = 0;
  double fpr_m_ = 1.0;
  std::vector<uint64_t> bitmap_;
  BloomFilter backup_;
};

}  // namespace li::bloom

#endif  // LI_BLOOM_MODEL_HASH_BLOOM_H_
