// Standard Bloom filter (§5): m-bit array, k hash functions via
// Kirsch-Mitzenmacher double hashing. Sized from (n, target FPR) with the
// textbook optimum m = -n ln p / (ln 2)^2, k = (m/n) ln 2 — the formula
// behind the paper's "2.04 MB for 1% FPR over 1.7M keys" baseline.
// Satisfies the index::ExistenceIndex contract (MightContain / SizeBytes),
// the baseline every learned variant is compared against.

#ifndef LI_BLOOM_BLOOM_FILTER_H_
#define LI_BLOOM_BLOOM_FILTER_H_

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "index/snapshottable.h"
#include "snapshot/arena.h"
#include "snapshot/snapshot.h"

namespace li::bloom {

class BloomFilter {
 public:
  BloomFilter() = default;

  /// Sizes the filter for `expected_keys` at `target_fpr`.
  Status Init(size_t expected_keys, double target_fpr) {
    if (expected_keys == 0 || target_fpr <= 0.0 || target_fpr >= 1.0) {
      return Status::InvalidArgument("BloomFilter: bad parameters");
    }
    const double ln2 = std::log(2.0);
    const double m = -static_cast<double>(expected_keys) *
                     std::log(target_fpr) / (ln2 * ln2);
    num_bits_ = std::max<uint64_t>(64, static_cast<uint64_t>(std::ceil(m)));
    num_hashes_ = std::max(
        1, static_cast<int>(std::round(
               m / static_cast<double>(expected_keys) * ln2)));
    bits_.assign((num_bits_ + 63) / 64, 0);
    return Status::OK();
  }

  /// Explicit geometry (used by the sandwiched model-hash construction).
  Status InitExplicit(uint64_t num_bits, int num_hashes) {
    if (num_bits == 0 || num_hashes < 1) {
      return Status::InvalidArgument("BloomFilter: bad explicit geometry");
    }
    num_bits_ = num_bits;
    num_hashes_ = num_hashes;
    bits_.assign((num_bits_ + 63) / 64, 0);
    return Status::OK();
  }

  void Add(uint64_t key) { AddHash(Murmur3Fmix64(key)); }
  void Add(std::string_view key) {
    AddHash(MurmurHash64(key.data(), key.size()));
  }

  bool MightContain(uint64_t key) const {
    return TestHash(Murmur3Fmix64(key));
  }
  bool MightContain(std::string_view key) const {
    return TestHash(MurmurHash64(key.data(), key.size()));
  }

  uint64_t num_bits() const { return num_bits_; }
  int num_hashes() const { return num_hashes_; }
  size_t SizeBytes() const { return bits_.size() * sizeof(uint64_t); }

  // ---- Persistence (index::Snapshottable; docs/PERSISTENCE.md) ----
  // Sections: meta {num_bits, num_hashes} + the bit words verbatim. An
  // opened filter serves MightContain straight out of the mapping; Add on
  // a mapped filter is a programming error (asserted in debug builds).

  Status WriteSections(snapshot::SnapshotWriter& writer,
                       const std::string& prefix) const {
    const SnapshotMeta meta{num_bits_, static_cast<int64_t>(num_hashes_)};
    LI_RETURN_IF_ERROR(writer.AddPod(prefix + "meta", meta));
    return writer.AddArray(prefix + "bits", bits_.span(),
                           snapshot::SectionKind::kBitmap);
  }

  Status LoadSections(const snapshot::SnapshotReader& reader,
                      const std::string& prefix) {
    SnapshotMeta meta;
    LI_RETURN_IF_ERROR(reader.GetPod(prefix + "meta", &meta));
    if (meta.num_bits == 0 || meta.num_hashes < 1) {
      return Status::InvalidArgument("BloomFilter snapshot meta is corrupt");
    }
    auto bits = reader.GetArray<uint64_t>(prefix + "bits");
    if (!bits.ok()) return bits.status();
    if (bits.value().size() != (meta.num_bits + 63) / 64) {
      return Status::InvalidArgument(
          "BloomFilter snapshot bit section size disagrees with meta");
    }
    num_bits_ = meta.num_bits;
    num_hashes_ = static_cast<int>(meta.num_hashes);
    bits_ = snapshot::FlatVec<uint64_t>::View(bits.value(),
                                              reader.keepalive());
    return Status::OK();
  }

  Status WriteSnapshot(const std::string& path) const {
    return index::WriteSnapshotViaSections(*this, path);
  }

  static Result<BloomFilter> OpenSnapshot(
      const std::string& path, const snapshot::OpenOptions& opts = {}) {
    return index::OpenSnapshotViaSections<BloomFilter>(path, opts);
  }

 private:
  struct SnapshotMeta {
    uint64_t num_bits = 0;
    int64_t num_hashes = 0;
  };
  void AddHash(uint64_t h) {
    const uint64_t h1 = h;
    const uint64_t h2 = (h >> 33) | (h << 31) | 1;  // odd second hash
    for (int i = 0; i < num_hashes_; ++i) {
      const uint64_t bit = (h1 + static_cast<uint64_t>(i) * h2) % num_bits_;
      bits_[bit >> 6] |= uint64_t{1} << (bit & 63);
    }
  }
  bool TestHash(uint64_t h) const {
    // A never-built filter is the empty set. Without this guard the
    // probe loop below runs zero iterations (num_hashes_ == 0) and
    // falls through to `true` — "contains everything".
    if (num_bits_ == 0) return false;
    const uint64_t h1 = h;
    const uint64_t h2 = (h >> 33) | (h << 31) | 1;
    for (int i = 0; i < num_hashes_; ++i) {
      const uint64_t bit = (h1 + static_cast<uint64_t>(i) * h2) % num_bits_;
      if (!(bits_[bit >> 6] & (uint64_t{1} << (bit & 63)))) return false;
    }
    return true;
  }

  uint64_t num_bits_ = 0;
  int num_hashes_ = 0;
  /// Owned when built (Add mutates), a zero-copy mapped view when opened
  /// from a snapshot (read-only).
  snapshot::FlatVec<uint64_t> bits_;
};

}  // namespace li::bloom

#endif  // LI_BLOOM_BLOOM_FILTER_H_
