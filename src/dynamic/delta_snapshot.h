// The snapshot codec of the Appendix-D.1 write path: the one section
// layout dynamic::DeltaRangeIndex and concurrent::ConcurrentWritableIndex
// share (docs/PERSISTENCE.md). Under the caller's prefix:
//
//   cfg     DeltaCfgRecord — merge policy + buffer capacity
//   wal     covered-LSN watermark, durable indexes only (wal/index_wal.h)
//   keys    the base key array, persisted once
//   base/   the base model's sections, loaded against `keys`
//   dkeys   delta keys, strictly increasing
//   dmeta   one flags byte per delta key: bit 0 tombstone, bit 1 in_base
//
// ReadDeltaSections runs DecodeCfg and CheckDelta before it touches the
// caller's state, so a knob no Build accepts (a NaN fraction, a buffer
// capacity past 2^20), base keys out of order, or a delta that disagrees
// with its base keys — a key out of order, an in_base bit that
// contradicts the key array, an unknown flag bit — is an
// InvalidArgument, never UB or a wrong rank after reopen. The default
// Open does not verify payload CRCs, so these checks are what stands
// between a flipped bit and the write/read path.

#ifndef LI_DYNAMIC_DELTA_SNAPSHOT_H_
#define LI_DYNAMIC_DELTA_SNAPSHOT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "dynamic/delta_buffer.h"
#include "dynamic/merge_policy.h"
#include "snapshot/snapshot.h"
#include "wal/index_wal.h"
#include "wal/wal.h"

namespace li::dynamic {

/// A wrapper's write-path knobs: its merge policy and buffer capacity
/// (DeltaRangeIndex's active_cap, ConcurrentWritableIndex's log_cap).
struct DeltaSnapshotCfg {
  MergePolicy policy{};
  uint64_t cap = 0;
};

/// The "cfg" section's on-disk record, 48 bytes with no padding. Two
/// slots are retired: `write_ratio` (a trigger that merged in read-mostly
/// lulls) is written as its last default, 0.5, and still checked to lie
/// in [0, 1] on open; trigger value 1 (that trigger) opens as the size
/// threshold over the record's own thresholds. The other values are
/// 0 = kSizeThreshold, 2 = kManual.
struct DeltaCfgRecord {
  int32_t trigger;
  uint8_t pad[4];  // zero
  uint64_t max_delta_entries;
  double max_delta_fraction;
  double write_ratio;  // retired
  uint64_t min_delta_entries;
  uint64_t cap;
};
static_assert(sizeof(DeltaCfgRecord) == sizeof(int32_t) + 4 * sizeof(uint8_t) +
                                            3 * sizeof(uint64_t) +
                                            2 * sizeof(double),
              "no padding bytes: snapshots must be deterministic");
static_assert(sizeof(DeltaCfgRecord) == 48,
              "the cfg section's on-disk size is part of the format");

inline constexpr int32_t kCfgTriggerSize = 0;
inline constexpr int32_t kCfgTriggerManual = 2;
inline constexpr double kCfgRetiredWriteRatio = 0.5;

/// Largest buffer capacity (entries) the cfg section may carry.
inline constexpr uint64_t kMaxDeltaCap = uint64_t{1} << 20;

/// The record a wrapper persists for `cfg`. A trigger outside the enum
/// encodes as -1, which DecodeCfg refuses.
inline DeltaCfgRecord EncodeCfg(const DeltaSnapshotCfg& cfg) {
  DeltaCfgRecord r{};
  switch (cfg.policy.trigger) {
    case MergeTrigger::kSizeThreshold:
      r.trigger = kCfgTriggerSize;
      break;
    case MergeTrigger::kManual:
      r.trigger = kCfgTriggerManual;
      break;
    default:
      r.trigger = -1;
  }
  r.max_delta_entries = cfg.policy.max_delta_entries;
  r.max_delta_fraction = cfg.policy.max_delta_fraction;
  r.write_ratio = kCfgRetiredWriteRatio;
  r.min_delta_entries = cfg.policy.min_delta_entries;
  r.cap = cfg.cap;
  return r;
}

/// Validates a record and decodes it into `*out` (untouched on failure):
/// a known trigger, max_delta_fraction and the retired write_ratio in
/// [0, 1] (NaN fails), cap in [2, kMaxDeltaCap]. The pad bytes are not
/// checked: older writers left them indeterminate.
inline Status DecodeCfg(const DeltaCfgRecord& r, DeltaSnapshotCfg* out) {
  const auto in_unit = [](double v) { return v >= 0.0 && v <= 1.0; };
  if (r.trigger < kCfgTriggerSize || r.trigger > kCfgTriggerManual) {
    return Status::InvalidArgument("delta cfg: unknown merge trigger");
  }
  if (!in_unit(r.max_delta_fraction) || !in_unit(r.write_ratio)) {
    return Status::InvalidArgument(
        "delta cfg: max_delta_fraction and write_ratio must lie in [0, 1]");
  }
  if (r.cap < 2 || r.cap > kMaxDeltaCap) {
    return Status::InvalidArgument(
        "delta cfg: buffer capacity outside [2, 2^20]");
  }
  out->policy.trigger = r.trigger == kCfgTriggerManual
                            ? MergeTrigger::kManual
                            : MergeTrigger::kSizeThreshold;
  out->policy.max_delta_entries = r.max_delta_entries;
  out->policy.max_delta_fraction = r.max_delta_fraction;
  out->policy.min_delta_entries = r.min_delta_entries;
  out->cap = r.cap;
  return Status::OK();
}

/// The check open runs, applied to the record `cfg` would persist. Both
/// wrappers' Builds run it, so every file a Build writes opens.
inline Status CheckCfg(const DeltaSnapshotCfg& cfg) {
  DeltaSnapshotCfg decoded;
  return DecodeCfg(EncodeCfg(cfg), &decoded);
}

/// Reads and decodes `<prefix>cfg`: the one path from bytes to knobs,
/// shared by open and `snapshot_inspect --verify`.
inline Status ReadDeltaCfg(const snapshot::SnapshotReader& reader,
                           const std::string& prefix, DeltaSnapshotCfg* out) {
  DeltaCfgRecord r{};
  LI_RETURN_IF_ERROR(reader.GetPod(prefix + "cfg", &r));
  return DecodeCfg(r, out);
}

inline constexpr uint8_t kDeltaTombstone = 1;
inline constexpr uint8_t kDeltaInBase = 2;

/// Validates a delta against the base key array it is paired with:
/// strictly increasing `keys` (the rank search below and every read
/// after open assume it), equal lengths, strictly increasing `dkeys`, no
/// flag bit beyond tombstone/in_base, and every in_base bit equal to the
/// key's membership in `keys`. O(n + d log n).
template <typename Key>
Status CheckDelta(std::span<const Key> keys, std::span<const Key> dkeys,
                  std::span<const uint8_t> dmeta) {
  for (size_t i = 1; i < keys.size(); ++i) {
    if (!(keys[i - 1] < keys[i])) {
      return Status::InvalidArgument(
          "delta snapshot: base keys are not strictly increasing");
    }
  }
  if (dkeys.size() != dmeta.size()) {
    return Status::InvalidArgument(
        "delta snapshot: dkeys and dmeta disagree in length");
  }
  auto it = keys.begin();
  for (size_t i = 0; i < dkeys.size(); ++i) {
    if (i > 0 && !(dkeys[i - 1] < dkeys[i])) {
      return Status::InvalidArgument(
          "delta snapshot: dkeys are not strictly increasing");
    }
    if ((dmeta[i] & ~(kDeltaTombstone | kDeltaInBase)) != 0) {
      return Status::InvalidArgument(
          "delta snapshot: dmeta has unknown flag bits");
    }
    // dkeys ascend, so each search resumes where the last one stopped.
    it = std::lower_bound(it, keys.end(), dkeys[i]);
    const bool in_keys = it != keys.end() && !(dkeys[i] < *it);
    if (((dmeta[i] & kDeltaInBase) != 0) != in_keys) {
      return Status::InvalidArgument(
          "delta snapshot: an in_base flag disagrees with the base keys");
    }
  }
  return Status::OK();
}

/// Writes the layout above. `delta` is sorted by key, with in_base
/// relative to `keys`; `base` persists its model only (DataSpanSnapshottable).
template <typename Key, typename Base>
Status WriteDeltaSections(snapshot::SnapshotWriter& writer,
                          const std::string& prefix,
                          const DeltaSnapshotCfg& cfg,
                          const std::optional<wal::WalSnapshotMeta>& wal_meta,
                          std::span<const Key> keys, const Base& base,
                          std::span<const DeltaEntry<Key>> delta) {
  LI_RETURN_IF_ERROR(writer.AddPod(prefix + "cfg", EncodeCfg(cfg)));
  if (wal_meta) LI_RETURN_IF_ERROR(writer.AddPod(prefix + "wal", *wal_meta));
  LI_RETURN_IF_ERROR(
      writer.AddArray(prefix + "keys", keys, snapshot::SectionKind::kKeys));
  LI_RETURN_IF_ERROR(
      base.WriteSections(writer, prefix + "base/", /*include_keys=*/false));
  std::vector<Key> dkeys;
  std::vector<uint8_t> dmeta;
  dkeys.reserve(delta.size());
  dmeta.reserve(delta.size());
  for (const DeltaEntry<Key>& e : delta) {
    dkeys.push_back(e.key);
    dmeta.push_back(static_cast<uint8_t>((e.tombstone ? kDeltaTombstone : 0) |
                                         (e.in_base ? kDeltaInBase : 0)));
  }
  LI_RETURN_IF_ERROR(writer.AddArray(prefix + "dkeys",
                                     std::span<const Key>(dkeys),
                                     snapshot::SectionKind::kDelta));
  return writer.AddArray(prefix + "dmeta", std::span<const uint8_t>(dmeta),
                         snapshot::SectionKind::kDelta);
}

/// Reads the layout above into caller-owned state: the key array is
/// copied into `*keys` (not mapped: merges replace it) and `*base` loads
/// its model against that copy in place, so the caller must keep the
/// vector's buffer where it is (moving the vector keeps it). `*wal`
/// takes the covered-LSN watermark and detaches any log. Keys, base,
/// delta and wal are left untouched unless DecodeCfg and CheckDelta pass.
template <typename Key, typename Base>
Status ReadDeltaSections(const snapshot::SnapshotReader& reader,
                         const std::string& prefix, DeltaSnapshotCfg* cfg,
                         std::vector<Key>* keys, Base* base,
                         std::vector<DeltaEntry<Key>>* delta,
                         wal::IndexWal* wal) {
  LI_RETURN_IF_ERROR(ReadDeltaCfg(reader, prefix, cfg));
  auto k = reader.GetArray<Key>(prefix + "keys");
  if (!k.ok()) return k.status();
  auto dkeys = reader.GetArray<Key>(prefix + "dkeys");
  if (!dkeys.ok()) return dkeys.status();
  auto dmeta = reader.GetArray<uint8_t>(prefix + "dmeta");
  if (!dmeta.ok()) return dmeta.status();
  LI_RETURN_IF_ERROR(CheckDelta(k.value(), dkeys.value(), dmeta.value()));
  keys->assign(k.value().begin(), k.value().end());
  LI_RETURN_IF_ERROR(base->LoadSections(reader, prefix + "base/",
                                        std::span<const Key>(*keys)));
  delta->clear();
  delta->reserve(dkeys.value().size());
  for (size_t i = 0; i < dkeys.value().size(); ++i) {
    const uint8_t m = dmeta.value()[i];
    delta->push_back(DeltaEntry<Key>{dkeys.value()[i],
                                     (m & kDeltaTombstone) != 0,
                                     (m & kDeltaInBase) != 0});
  }
  return wal->LoadCovered(reader, prefix);
}

}  // namespace li::dynamic

#endif  // LI_DYNAMIC_DELTA_SNAPSHOT_H_
