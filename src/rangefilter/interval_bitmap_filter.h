// Plain interval-bitmap range filter: the fixed-width baseline the
// learned construction is compared against (bench_rangefilter,
// docs/RANGEFILTER.md). The key domain [min_key, max_key] is cut into
// equal-width blocks — `bits_per_key * n` of them — and a block's bit is
// set iff any built key falls inside it. A query scans the bits of the
// blocks its clamped range overlaps.
//
// Zero false negatives for the same reason as the learned filter (the
// key -> block map, here exact integer division, is monotone), but the
// block *width* is dictated by the total key span rather than the local
// key density: on clustered or skewed key sets a block in a dense region
// covers many keys, so adjacent-gap queries there almost always hit a
// populated block. That asymmetry is the point of the comparison.
//
// Satisfies index::RangeFilter and the index::Snapshottable section
// protocol ("ib/meta" + "ib/bits", zero-copy reopen).

#ifndef LI_RANGEFILTER_INTERVAL_BITMAP_FILTER_H_
#define LI_RANGEFILTER_INTERVAL_BITMAP_FILTER_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "index/snapshottable.h"
#include "rangefilter/block_bitmap.h"
#include "rangefilter/filter_meta.h"
#include "snapshot/arena.h"
#include "snapshot/snapshot.h"

namespace li::rangefilter {

struct IntervalBitmapFilterConfig {
  /// Bitmap bits per distinct key; the block width follows as
  /// key_span / (bits_per_key * n).
  double bits_per_key = 16.0;
};

class IntervalBitmapFilter {
 public:
  IntervalBitmapFilter() = default;

  /// Builds over `keys` (any order, duplicates collapse). An empty key
  /// set builds an empty filter: every query answers false.
  Status Build(std::span<const uint64_t> keys,
               const IntervalBitmapFilterConfig& config = {}) {
    if (config.bits_per_key <= 0.0 || config.bits_per_key > 4096.0) {
      return Status::InvalidArgument(
          "IntervalBitmapFilter: bits_per_key out of range");
    }
    config_ = config;
    std::vector<uint64_t> sorted(keys.begin(), keys.end());
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    num_keys_ = sorted.size();
    if (num_keys_ == 0) {
      bits_.clear();
      num_blocks_ = 0;
      block_width_ = 0;
      min_key_ = max_key_ = 0;
      return Status::OK();
    }
    min_key_ = sorted.front();
    max_key_ = sorted.back();
    const uint64_t span = max_key_ - min_key_;  // inclusive span - 1
    const uint64_t target_blocks = static_cast<uint64_t>(std::max<int64_t>(
        1,
        std::llround(config.bits_per_key * static_cast<double>(num_keys_))));
    // Ceil-divide the span across the block budget; the +1s keep the
    // arithmetic exact at span = 2^64 - 1 without wider intermediates.
    block_width_ = span / target_blocks + 1;
    num_blocks_ = span / block_width_ + 1;

    std::vector<uint64_t> words((num_blocks_ + 63) / 64, 0);
    for (const uint64_t k : sorted) {
      SetBit(words, (k - min_key_) / block_width_);
    }
    bits_ = snapshot::FlatVec<uint64_t>::Adopt(std::move(words));
    return Status::OK();
  }

  bool MightContainRange(uint64_t lo, uint64_t hi) const {
    return hi > lo && QueryInclusive(lo, hi - 1);
  }

  bool MightContain(uint64_t key) const { return QueryInclusive(key, key); }

  size_t SizeBytes() const { return bits_.size() * sizeof(uint64_t); }
  size_t num_keys() const { return num_keys_; }
  uint64_t num_blocks() const { return num_blocks_; }
  uint64_t block_width() const { return block_width_; }
  const IntervalBitmapFilterConfig& config() const { return config_; }

  // ---- Persistence (index::Snapshottable; docs/PERSISTENCE.md) ----

  Status WriteSections(snapshot::SnapshotWriter& writer,
                       const std::string& prefix) const {
    RangeFilterSnapshotMeta meta;
    meta.filter_kind = static_cast<uint64_t>(FilterKind::kIntervalBitmap);
    meta.num_keys = num_keys_;
    meta.bitmap_bits = num_blocks_;
    meta.num_segments = num_keys_ == 0 ? 0 : 1;
    meta.domain_lo = min_key_;
    meta.domain_hi = max_key_;
    meta.block_width = block_width_;
    meta.bits_per_key = config_.bits_per_key;
    LI_RETURN_IF_ERROR(writer.AddPod(prefix + "ib/meta", meta,
                                     snapshot::SectionKind::kRangeFilterMeta));
    if (num_keys_ == 0) return Status::OK();
    return writer.AddArray(prefix + "ib/bits", bits_.span(),
                           snapshot::SectionKind::kBitmap);
  }

  Status LoadSections(const snapshot::SnapshotReader& reader,
                      const std::string& prefix) {
    RangeFilterSnapshotMeta meta;
    LI_RETURN_IF_ERROR(reader.GetPod(prefix + "ib/meta", &meta));
    if (meta.filter_kind !=
        static_cast<uint64_t>(FilterKind::kIntervalBitmap)) {
      return Status::InvalidArgument(
          "IntervalBitmapFilter: snapshot holds a different filter kind");
    }
    config_.bits_per_key = meta.bits_per_key;
    num_keys_ = meta.num_keys;
    if (num_keys_ == 0) {
      bits_.clear();
      num_blocks_ = 0;
      block_width_ = 0;
      min_key_ = max_key_ = 0;
      return Status::OK();
    }
    if (meta.block_width == 0 || meta.bitmap_bits == 0 ||
        meta.domain_hi < meta.domain_lo ||
        (meta.domain_hi - meta.domain_lo) / meta.block_width + 1 !=
            meta.bitmap_bits) {
      return Status::InvalidArgument(
          "IntervalBitmapFilter: snapshot meta geometry is corrupt");
    }
    auto bits = reader.GetArray<uint64_t>(prefix + "ib/bits");
    if (!bits.ok()) return bits.status();
    if (bits.value().size() != (meta.bitmap_bits + 63) / 64) {
      return Status::InvalidArgument(
          "IntervalBitmapFilter: snapshot bit section disagrees with meta");
    }
    min_key_ = meta.domain_lo;
    max_key_ = meta.domain_hi;
    block_width_ = meta.block_width;
    num_blocks_ = meta.bitmap_bits;
    bits_ =
        snapshot::FlatVec<uint64_t>::View(bits.value(), reader.keepalive());
    return Status::OK();
  }

  Status WriteSnapshot(const std::string& path) const {
    return index::WriteSnapshotViaSections(*this, path);
  }

  static Result<IntervalBitmapFilter> OpenSnapshot(
      const std::string& path, const snapshot::OpenOptions& opts = {}) {
    return index::OpenSnapshotViaSections<IntervalBitmapFilter>(path, opts);
  }

 private:
  bool QueryInclusive(uint64_t lo, uint64_t hi) const {
    if (num_keys_ == 0 || hi < min_key_ || lo > max_key_) return false;
    const uint64_t a = std::max(lo, min_key_) - min_key_;
    const uint64_t b = std::min(hi, max_key_) - min_key_;
    return AnyBitInRange(bits_.span(), a / block_width_, b / block_width_);
  }

  IntervalBitmapFilterConfig config_;
  size_t num_keys_ = 0;
  uint64_t min_key_ = 0;
  uint64_t max_key_ = 0;
  uint64_t block_width_ = 0;
  uint64_t num_blocks_ = 0;
  snapshot::FlatVec<uint64_t> bits_;
};

}  // namespace li::rangefilter

#endif  // LI_RANGEFILTER_INTERVAL_BITMAP_FILTER_H_
