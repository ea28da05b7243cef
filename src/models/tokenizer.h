// String tokenization (§3.5): "we consider an n-length string to be a
// feature vector x in R^n where x_i is the ASCII decimal value ... we will
// set a maximum input length N ... truncate the keys to length N ... for
// strings with length n < N we set x_i = 0 for i > n."

#ifndef LI_MODELS_TOKENIZER_H_
#define LI_MODELS_TOKENIZER_H_

#include <algorithm>
#include <cstddef>
#include <string_view>
#include <vector>

namespace li::models {

class StringTokenizer {
 public:
  explicit StringTokenizer(size_t max_len = 20) : max_len_(max_len) {}

  size_t max_len() const { return max_len_; }

  /// Writes the feature vector for `s` into out[0..max_len).
  void Tokenize(std::string_view s, double* out) const {
    const size_t n = std::min(s.size(), max_len_);
    for (size_t i = 0; i < n; ++i) {
      out[i] = static_cast<double>(static_cast<unsigned char>(s[i]));
    }
    for (size_t i = n; i < max_len_; ++i) out[i] = 0.0;
  }

  std::vector<double> Tokenize(std::string_view s) const {
    std::vector<double> v(max_len_);
    Tokenize(s, v.data());
    return v;
  }

 private:
  size_t max_len_;
};

}  // namespace li::models

#endif  // LI_MODELS_TOKENIZER_H_
