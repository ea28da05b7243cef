// Learned index over string keys (§3.5, evaluated in Figure 6).
//
// Keys are tokenized to fixed-length ASCII feature vectors; the top model
// is a feed-forward net over the vector (0-2 hidden layers), the second
// stage holds vector linear models w.x + b, and — when a hybrid threshold
// is set — leaves whose error exceeds it are replaced by string B-Trees
// (the Figure-6 "Hybrid index" rows, thresholds t = 64 / 128). The
// "Learned QS" row is this class with Strategy::kBiasedQuaternary.

#ifndef LI_RMI_STRING_RMI_H_
#define LI_RMI_STRING_RMI_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "btree/string_btree.h"
#include "common/status.h"
#include "index/approx.h"
#include "models/nn.h"
#include "models/tokenizer.h"
#include "models/vec_linear.h"
#include "rmi/leaf_layer.h"
#include "search/search.h"

namespace li::rmi {

/// Cap on keys used to train the top net (strided sample, §3.6).
inline constexpr size_t kStringTopTrainSample = 60'000;

struct StringRmiConfig {
  size_t num_leaf_models = 10'000;
  size_t max_len = 20;  // tokenizer truncation length N (§3.5)
  models::NNConfig top_nn;  // input_dim is overwritten with max_len
  search::Strategy strategy = search::Strategy::kBiasedBinary;
  /// 0 disables hybrid mode; otherwise leaves with |error| > threshold are
  /// replaced with string B-Trees (Figure 6, t = 64 / 128).
  int64_t hybrid_threshold = 0;
  size_t btree_keys_per_page = 32;
};

class StringRmi {
 public:
  using key_type = std::string;
  using config_type = StringRmiConfig;

  StringRmi() = default;

  /// Builds over sorted `keys`; the caller owns the vector.
  Status Build(std::span<const std::string> keys,
               const StringRmiConfig& config);

  struct Prediction {
    size_t pos = 0;        // clamped position estimate
    index::Approx window;  // its error-band search window
    uint32_t leaf = 0;
    float std_err = 0.0f;
  };

  /// Model execution only (tokenize + top NN + leaf linear).
  Prediction Predict(const std::string& key) const;

  /// Contract view of Predict: the error-bound window.
  index::Approx ApproxPos(const std::string& key) const {
    return Predict(key).window;
  }

  /// Full lookup with bounded search + boundary fix-up.
  size_t Lookup(const std::string& key) const;

  size_t LowerBound(const std::string& key) const { return Lookup(key); }

  bool Contains(const std::string& key) const {
    const size_t pos = Lookup(key);
    return pos < data_.size() && data_[pos] == key;
  }

  size_t SizeBytes() const;
  size_t num_btree_leaves() const { return trees_.size(); }
  const models::NeuralNet& top() const { return top_; }

 private:
  struct Leaf {
    models::VecLinearModel model;
    int32_t min_err = 0;
    int32_t max_err = 0;
    float std_err = 0.0f;
  };
  uint32_t Route(const double* features) const;

  std::span<const std::string> data_;
  StringRmiConfig config_;
  models::StringTokenizer tokenizer_{20};
  models::NeuralNet top_;
  std::vector<Leaf> leaves_;
  BTreeLeaves<btree::StringBTree> trees_;
};

}  // namespace li::rmi

#endif  // LI_RMI_STRING_RMI_H_
