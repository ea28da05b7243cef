// Learned segmented range filter (Oasis-class): answers "might any built
// key lie in [lo, hi)?" with zero false negatives and a memory budget of
// a few bitmap bits per key.
//
// Construction: the sorted key set is cut into disjoint segments of
// `keys_per_segment` keys each — an exact equal-mass (quantile) partition
// of the empirical CDF, so dense regions get many narrow segments and
// sparse regions few wide ones. Each segment carries
//   * its covered key interval [key_lo, key_hi],
//   * a per-segment linear CDF model (models::LinearModel fit of
//     key -> block position, the same closed-form machinery as the RMI's
//     second stage), and
//   * `bits_per_key * segment_keys` bits of a shared block bitmap; a
//     key sets the bit of the block its model maps it to.
//
// Query [lo, hi] (internally inclusive): binary-search the segment table
// for the first segment overlapping the range, then
//   * a segment *fully inside* the range answers true immediately —
//     segments are built over real keys, so its key_lo is a witness;
//   * the (at most two) boundary segments clamp the range to their key
//     interval, resolve both clamped endpoints through the segment model,
//     and scan the covered block bits;
//   * the inter-segment gaps carry no bits and answer false for free —
//     this is where the learned layout beats the fixed-width baseline on
//     gapped and skewed key sets (bench_rangefilter).
//
// Zero-false-negative argument: the model is clamped to non-negative
// slope, and IEEE multiply/add/floor are weakly monotone, so
// BlockOf(seg, k) is non-decreasing in k. For any built key k in
// [lo, hi], k lies in some segment whose clamped query endpoints a <= k
// <= b give BlockOf(a) <= BlockOf(k) <= BlockOf(b); k's bit was set at
// BlockOf(k) during Build, so the scanned block range contains it. The
// same argument covers the baseline (exact integer division is monotone).
// False positives arise only when a scanned block was populated by a key
// *outside* [lo, hi]; the range FPR is roughly (2 + query width in
// blocks) / bits_per_key for adjacent-gap queries (docs/RANGEFILTER.md).
//
// Satisfies index::RangeFilter and the index::Snapshottable section
// protocol: segments and bitmap are flat sections served zero-copy from
// a reopened mapping (FlatVec), like every other index class.

#ifndef LI_RANGEFILTER_LEARNED_RANGE_FILTER_H_
#define LI_RANGEFILTER_LEARNED_RANGE_FILTER_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "index/snapshottable.h"
#include "models/linear.h"
#include "rangefilter/block_bitmap.h"
#include "rangefilter/filter_meta.h"
#include "snapshot/arena.h"
#include "snapshot/snapshot.h"

namespace li::rangefilter {

struct LearnedRangeFilterConfig {
  /// Bitmap bits per distinct key (segment metadata is extra and reported
  /// through SizeBytes). Range FPR on adjacent-gap queries shrinks
  /// roughly as 1/bits_per_key; see the tuning table in
  /// docs/RANGEFILTER.md.
  double bits_per_key = 16.0;
  /// Segment width in keys (equal-mass quantile cut). Smaller segments
  /// fit the local CDF tighter at ~48 bytes of metadata each.
  size_t keys_per_segment = 256;
};

class LearnedRangeFilter {
 public:
  /// One quantile segment: covered key interval, linear CDF model, and
  /// its bit window inside the shared bitmap. Flat and trivially
  /// copyable so the table snapshots as one section.
  struct Segment {
    uint64_t key_lo = 0;
    uint64_t key_hi = 0;
    uint64_t bit_offset = 0;
    uint32_t num_blocks = 0;
    uint32_t reserved = 0;
    double slope = 0.0;
    double intercept = 0.0;
  };
  static_assert(sizeof(Segment) == 48);
  static_assert(std::is_trivially_copyable_v<Segment>);

  LearnedRangeFilter() = default;

  /// Builds over `keys` (any order, duplicates collapse). An empty key
  /// set builds an empty filter: every query answers false.
  Status Build(std::span<const uint64_t> keys,
               const LearnedRangeFilterConfig& config = {}) {
    if (config.bits_per_key <= 0.0 || config.bits_per_key > 4096.0) {
      return Status::InvalidArgument(
          "LearnedRangeFilter: bits_per_key out of range");
    }
    if (config.keys_per_segment == 0) {
      return Status::InvalidArgument(
          "LearnedRangeFilter: keys_per_segment must be positive");
    }
    config_ = config;
    std::vector<uint64_t> sorted(keys.begin(), keys.end());
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    num_keys_ = sorted.size();
    if (num_keys_ == 0) {
      segments_.clear();
      bits_.clear();
      bitmap_bits_ = 0;
      return Status::OK();
    }

    const size_t num_segments =
        (num_keys_ + config.keys_per_segment - 1) / config.keys_per_segment;
    std::vector<Segment> segments;
    segments.reserve(num_segments);
    uint64_t bit_cursor = 0;
    std::vector<double> xs, ys;
    for (size_t s = 0; s < num_segments; ++s) {
      const size_t a = s * config.keys_per_segment;
      const size_t b = std::min(a + config.keys_per_segment, num_keys_);
      const size_t count = b - a;
      Segment seg;
      seg.key_lo = sorted[a];
      seg.key_hi = sorted[b - 1];
      seg.bit_offset = bit_cursor;
      seg.num_blocks = static_cast<uint32_t>(std::max<int64_t>(
          1, std::llround(config.bits_per_key * static_cast<double>(count))));
      // Fit key -> block-center position; distinct sorted keys give a
      // positive covariance, so the least-squares slope is monotone
      // (>= 0) except in the all-equal degenerate case, where the fit
      // falls back to a constant model — still monotone.
      xs.clear();
      ys.clear();
      xs.reserve(count);
      ys.reserve(count);
      for (size_t i = a; i < b; ++i) {
        xs.push_back(static_cast<double>(sorted[i]));
        ys.push_back((static_cast<double>(i - a) + 0.5) *
                     static_cast<double>(seg.num_blocks) /
                     static_cast<double>(count));
      }
      models::LinearModel model;
      LI_RETURN_IF_ERROR(model.Fit(xs, ys));
      seg.slope = std::max(0.0, model.slope());
      seg.intercept = seg.slope == model.slope()
                          ? model.intercept()
                          : static_cast<double>(seg.num_blocks) / 2.0;
      segments.push_back(seg);
      bit_cursor += seg.num_blocks;
    }
    bitmap_bits_ = bit_cursor;

    std::vector<uint64_t> words((bitmap_bits_ + 63) / 64, 0);
    for (size_t s = 0; s < segments.size(); ++s) {
      const Segment& seg = segments[s];
      const size_t a = s * config.keys_per_segment;
      const size_t b = std::min(a + config.keys_per_segment, num_keys_);
      for (size_t i = a; i < b; ++i) {
        SetBit(words, seg.bit_offset + BlockOf(seg, sorted[i]));
      }
    }
    segments_ = snapshot::FlatVec<Segment>::Adopt(std::move(segments));
    bits_ = snapshot::FlatVec<uint64_t>::Adopt(std::move(words));
    return Status::OK();
  }

  /// Might any built key lie in the half-open range [lo, hi)? Never
  /// false when one does; hi <= lo is empty by definition.
  bool MightContainRange(uint64_t lo, uint64_t hi) const {
    return hi > lo && QueryInclusive(lo, hi - 1);
  }

  /// The degenerate point probe [key, key + 1), 2^64-1-safe.
  bool MightContain(uint64_t key) const { return QueryInclusive(key, key); }

  size_t SizeBytes() const {
    return segments_.size() * sizeof(Segment) +
           bits_.size() * sizeof(uint64_t);
  }
  size_t num_keys() const { return num_keys_; }
  size_t num_segments() const { return segments_.size(); }
  uint64_t bitmap_bits() const { return bitmap_bits_; }
  const LearnedRangeFilterConfig& config() const { return config_; }

  // ---- Persistence (index::Snapshottable; docs/PERSISTENCE.md) ----
  // Sections: "rf/meta" (kRangeFilterMeta geometry, tooling-readable),
  // "rf/segs" (kSegments table), "rf/bits" (kBitmap words). A reopened
  // filter serves queries zero-copy out of the mapping.

  Status WriteSections(snapshot::SnapshotWriter& writer,
                       const std::string& prefix) const {
    RangeFilterSnapshotMeta meta;
    meta.filter_kind = static_cast<uint64_t>(FilterKind::kLearnedSegmented);
    meta.num_keys = num_keys_;
    meta.bitmap_bits = bitmap_bits_;
    meta.num_segments = segments_.size();
    meta.domain_lo = segments_.empty() ? 0 : segments_[0].key_lo;
    meta.domain_hi =
        segments_.empty() ? 0 : segments_[segments_.size() - 1].key_hi;
    meta.bits_per_key = config_.bits_per_key;
    LI_RETURN_IF_ERROR(writer.AddPod(prefix + "rf/meta", meta,
                                     snapshot::SectionKind::kRangeFilterMeta));
    if (num_keys_ == 0) return Status::OK();
    LI_RETURN_IF_ERROR(writer.AddArray(prefix + "rf/segs", segments_.span(),
                                       snapshot::SectionKind::kSegments));
    return writer.AddArray(prefix + "rf/bits", bits_.span(),
                           snapshot::SectionKind::kBitmap);
  }

  Status LoadSections(const snapshot::SnapshotReader& reader,
                      const std::string& prefix) {
    RangeFilterSnapshotMeta meta;
    LI_RETURN_IF_ERROR(reader.GetPod(prefix + "rf/meta", &meta));
    if (meta.filter_kind !=
        static_cast<uint64_t>(FilterKind::kLearnedSegmented)) {
      return Status::InvalidArgument(
          "LearnedRangeFilter: snapshot holds a different filter kind");
    }
    config_.bits_per_key = meta.bits_per_key;
    num_keys_ = meta.num_keys;
    bitmap_bits_ = meta.bitmap_bits;
    if (num_keys_ == 0) {
      segments_.clear();
      bits_.clear();
      return Status::OK();
    }
    auto segs = reader.GetArray<Segment>(prefix + "rf/segs");
    if (!segs.ok()) return segs.status();
    auto bits = reader.GetArray<uint64_t>(prefix + "rf/bits");
    if (!bits.ok()) return bits.status();
    if (segs.value().size() != meta.num_segments ||
        bits.value().size() != (meta.bitmap_bits + 63) / 64) {
      return Status::InvalidArgument(
          "LearnedRangeFilter: snapshot sections disagree with meta");
    }
    // Validate segment geometry against the bitmap before serving: a
    // corrupted table must fail Open, never index out of the mapping.
    uint64_t cursor = 0;
    for (const Segment& seg : segs.value()) {
      if (seg.bit_offset != cursor || seg.num_blocks == 0 ||
          seg.key_hi < seg.key_lo) {
        return Status::InvalidArgument(
            "LearnedRangeFilter: snapshot segment table is corrupt");
      }
      cursor += seg.num_blocks;
    }
    if (cursor != meta.bitmap_bits) {
      return Status::InvalidArgument(
          "LearnedRangeFilter: segment blocks disagree with bitmap size");
    }
    segments_ =
        snapshot::FlatVec<Segment>::View(segs.value(), reader.keepalive());
    bits_ =
        snapshot::FlatVec<uint64_t>::View(bits.value(), reader.keepalive());
    return Status::OK();
  }

  Status WriteSnapshot(const std::string& path) const {
    return index::WriteSnapshotViaSections(*this, path);
  }

  static Result<LearnedRangeFilter> OpenSnapshot(
      const std::string& path, const snapshot::OpenOptions& opts = {}) {
    return index::OpenSnapshotViaSections<LearnedRangeFilter>(path, opts);
  }

 private:
  /// Weakly monotone in `key` (non-negative slope, IEEE rounding
  /// preserves <=, clamped floor) — the zero-false-negative lynchpin.
  static uint32_t BlockOf(const Segment& seg, uint64_t key) {
    const double p = seg.slope * static_cast<double>(key) + seg.intercept;
    if (!(p > 0.0)) return 0;  // also catches NaN from corrupt models
    if (p >= static_cast<double>(seg.num_blocks)) return seg.num_blocks - 1;
    return static_cast<uint32_t>(p);
  }

  /// Inclusive-range query core; lo <= hi required.
  bool QueryInclusive(uint64_t lo, uint64_t hi) const {
    if (num_keys_ == 0) return false;
    const std::span<const Segment> segs = segments_.span();
    const Segment* seg = std::partition_point(
        segs.data(), segs.data() + segs.size(),
        [&](const Segment& s) { return s.key_hi < lo; });
    for (; seg != segs.data() + segs.size() && seg->key_lo <= hi; ++seg) {
      if (lo <= seg->key_lo && seg->key_hi <= hi) {
        return true;  // fully covered segment: key_lo is a real key
      }
      const uint64_t a = std::max(lo, seg->key_lo);
      const uint64_t b = std::min(hi, seg->key_hi);
      const uint64_t bit_lo = seg->bit_offset + BlockOf(*seg, a);
      const uint64_t bit_hi = seg->bit_offset + BlockOf(*seg, b);
      if (AnyBitInRange(bits_.span(), bit_lo, bit_hi)) return true;
    }
    return false;
  }

  LearnedRangeFilterConfig config_;
  size_t num_keys_ = 0;
  uint64_t bitmap_bits_ = 0;
  /// Owned when built, zero-copy mapped views when opened from a
  /// snapshot.
  snapshot::FlatVec<Segment> segments_;
  snapshot::FlatVec<uint64_t> bits_;
};

}  // namespace li::rangefilter

#endif  // LI_RANGEFILTER_LEARNED_RANGE_FILTER_H_
