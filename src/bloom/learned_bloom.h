// Learned Bloom filter (§5.1.1): a probabilistic classifier f plus an
// overflow Bloom filter over f's false negatives.
//
//  * Threshold tau is tuned on a held-out non-key validation set so that
//    FPR_tau = p*/2; the overflow filter is sized for FPR_B = p*/2, giving
//    an overall FPR_O = FPR_tau + (1 - FPR_tau) FPR_B <= p* [53].
//  * The no-false-negative guarantee is structural: every key with
//    f(x) < tau is inserted into the overflow filter, so
//    MightContain(key) is always true for keys.
//
// Templated on the classifier (GruClassifier, NgramLogistic, ...), which
// must provide `double Predict(std::string_view)` and `SizeBytes()`. The
// classifier is held by pointer and must outlive the filter. Satisfies
// the index::ExistenceIndex contract.

#ifndef LI_BLOOM_LEARNED_BLOOM_H_
#define LI_BLOOM_LEARNED_BLOOM_H_

#include <algorithm>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bloom/bloom_filter.h"
#include "common/status.h"

namespace li::bloom {

template <typename Classifier>
class LearnedBloomFilter {
 public:
  LearnedBloomFilter() = default;

  /// `classifier` must already be trained. `keys` are inserted;
  /// `validation_non_keys` calibrate tau for the target overall FPR.
  Status Build(const Classifier* classifier,
               std::span<const std::string> keys,
               std::span<const std::string> validation_non_keys,
               double target_fpr) {
    if (classifier == nullptr) {
      return Status::InvalidArgument("LearnedBloomFilter: null classifier");
    }
    if (target_fpr <= 0.0 || target_fpr >= 1.0) {
      return Status::InvalidArgument("LearnedBloomFilter: bad target FPR");
    }
    if (validation_non_keys.empty()) {
      return Status::InvalidArgument("LearnedBloomFilter: need validation set");
    }
    classifier_ = classifier;
    target_fpr_ = target_fpr;

    // ---- Tune tau: FPR_tau = p*/2 on the validation non-keys ----
    std::vector<double> scores;
    scores.reserve(validation_non_keys.size());
    for (const auto& s : validation_non_keys) {
      scores.push_back(classifier_->Predict(s));
    }
    std::sort(scores.begin(), scores.end());
    const double half = target_fpr / 2.0;
    // tau = (1 - p*/2) quantile of non-key scores; scores >= tau pass.
    const size_t cut = static_cast<size_t>(
        std::min<double>(static_cast<double>(scores.size() - 1),
                         std::ceil((1.0 - half) *
                                   static_cast<double>(scores.size()))));
    tau_ = std::min(scores[cut] + 1e-12, 1.0 + 1e-12);

    // ---- Overflow filter over the classifier's false negatives ----
    std::vector<const std::string*> false_negatives;
    for (const auto& k : keys) {
      if (classifier_->Predict(k) < tau_) false_negatives.push_back(&k);
    }
    fnr_ = keys.empty() ? 0.0
                        : static_cast<double>(false_negatives.size()) /
                              static_cast<double>(keys.size());
    if (!false_negatives.empty()) {
      LI_RETURN_IF_ERROR(overflow_.Init(false_negatives.size(), half));
      for (const auto* k : false_negatives) overflow_.Add(*k);
      has_overflow_ = true;
    } else {
      has_overflow_ = false;
    }
    return Status::OK();
  }

  /// Figure-9(c): model first; below-threshold queries fall through to the
  /// overflow filter. Never false-negative for inserted keys.
  bool MightContain(std::string_view key) const {
    if (classifier_ == nullptr) return false;  // never built: empty set
    if (classifier_->Predict(key) >= tau_) return true;
    return has_overflow_ && overflow_.MightContain(key);
  }

  double tau() const { return tau_; }
  double fnr() const { return fnr_; }
  size_t SizeBytes() const {
    return classifier_->SizeBytes() +
           (has_overflow_ ? overflow_.SizeBytes() : 0);
  }
  size_t OverflowBytes() const {
    return has_overflow_ ? overflow_.SizeBytes() : 0;
  }

  // ---- Persistence (docs/PERSISTENCE.md) ----
  // Persists the calibration scalars and the overflow bitmap; the
  // classifier itself is held by external pointer (see the class comment)
  // and is re-supplied at OpenSnapshot — the trained model's weights are
  // the caller's to persist, the filter snapshot pins everything derived
  // from them (tau, FNR, and the exact false-negative bitmap).

  Status WriteSections(snapshot::SnapshotWriter& writer,
                       const std::string& prefix) const {
    SnapshotMeta meta;
    meta.target_fpr = target_fpr_;
    meta.tau = tau_;
    meta.fnr = fnr_;
    meta.has_overflow = has_overflow_ ? 1 : 0;
    LI_RETURN_IF_ERROR(writer.AddPod(prefix + "meta", meta));
    if (has_overflow_) {
      LI_RETURN_IF_ERROR(overflow_.WriteSections(writer, prefix + "of/"));
    }
    return Status::OK();
  }

  /// `classifier` must be the same trained model the snapshot was built
  /// with: tau and the overflow bitmap are calibrated against its scores.
  Status LoadSections(const snapshot::SnapshotReader& reader,
                      const std::string& prefix,
                      const Classifier* classifier) {
    if (classifier == nullptr) {
      return Status::InvalidArgument("LearnedBloomFilter: null classifier");
    }
    SnapshotMeta meta;
    LI_RETURN_IF_ERROR(reader.GetPod(prefix + "meta", &meta));
    if (meta.has_overflow != 0) {
      LI_RETURN_IF_ERROR(overflow_.LoadSections(reader, prefix + "of/"));
    } else {
      overflow_ = BloomFilter();
    }
    classifier_ = classifier;
    target_fpr_ = meta.target_fpr;
    tau_ = meta.tau;
    fnr_ = meta.fnr;
    has_overflow_ = meta.has_overflow != 0;
    return Status::OK();
  }

  Status WriteSnapshot(const std::string& path) const {
    snapshot::SnapshotWriter writer;
    LI_RETURN_IF_ERROR(WriteSections(writer, ""));
    return writer.WriteFile(path);
  }

  static Result<LearnedBloomFilter> OpenSnapshot(
      const std::string& path, const Classifier* classifier,
      const snapshot::OpenOptions& opts = {}) {
    auto reader = snapshot::SnapshotReader::Open(path, opts);
    if (!reader.ok()) return reader.status();
    LearnedBloomFilter out;
    Status st = out.LoadSections(reader.value(), "", classifier);
    if (!st.ok()) return st;
    return out;
  }

 private:
  struct SnapshotMeta {
    double target_fpr = 0.01;
    double tau = 0.5;
    double fnr = 0.0;
    uint64_t has_overflow = 0;
  };

  const Classifier* classifier_ = nullptr;
  double target_fpr_ = 0.01;
  double tau_ = 0.5;
  double fnr_ = 0.0;
  bool has_overflow_ = false;
  BloomFilter overflow_;
};

}  // namespace li::bloom

#endif  // LI_BLOOM_LEARNED_BLOOM_H_
