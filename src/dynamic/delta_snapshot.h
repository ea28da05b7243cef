// The snapshot codec of the Appendix-D.1 write path: the one section
// layout dynamic::DeltaRangeIndex and concurrent::ConcurrentWritableIndex
// share (docs/PERSISTENCE.md). Under the caller's prefix:
//
//   cfg     DeltaSnapshotCfg — merge policy + buffer capacity
//   wal     covered-LSN watermark, durable indexes only (wal/index_wal.h)
//   keys    the base key array, persisted once
//   base/   the base model's sections, loaded against `keys`
//   dkeys   delta keys, strictly increasing
//   dmeta   one flags byte per delta key: bit 0 tombstone, bit 1 in_base
//
// ReadDeltaSections runs CheckCfg and CheckDelta before it touches the
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
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "dynamic/delta_buffer.h"
#include "dynamic/merge_policy.h"
#include "snapshot/snapshot.h"
#include "wal/index_wal.h"
#include "wal/wal.h"

namespace li::dynamic {

/// The "cfg" section, persisted verbatim. `cap` is the wrapper's buffer
/// capacity: DeltaRangeIndex's active_cap, ConcurrentWritableIndex's
/// log_cap.
struct DeltaSnapshotCfg {
  MergePolicy policy{};
  uint64_t cap = 0;
};
static_assert(std::is_trivially_copyable_v<DeltaSnapshotCfg>,
              "the cfg section is persisted verbatim");
static_assert(sizeof(DeltaSnapshotCfg) == 48,
              "the cfg section's on-disk size is part of the format");

/// Largest buffer capacity (entries) the cfg section may carry.
inline constexpr uint64_t kMaxDeltaCap = uint64_t{1} << 20;

/// Validates the cfg knobs: a known trigger, max_delta_fraction and
/// write_ratio in [0, 1] (NaN fails), cap in [2, kMaxDeltaCap]. Both
/// wrappers' Builds run it on the cfg they would persist, so every file a
/// Build writes passes it at open.
inline Status CheckCfg(const DeltaSnapshotCfg& cfg) {
  const auto trigger =
      static_cast<std::underlying_type_t<MergeTrigger>>(cfg.policy.trigger);
  const auto in_unit = [](double v) { return v >= 0.0 && v <= 1.0; };
  if (trigger < 0 ||
      trigger > static_cast<std::underlying_type_t<MergeTrigger>>(
                    MergeTrigger::kManual)) {
    return Status::InvalidArgument("delta cfg: unknown merge trigger");
  }
  if (!in_unit(cfg.policy.max_delta_fraction) ||
      !in_unit(cfg.policy.write_ratio)) {
    return Status::InvalidArgument(
        "delta cfg: max_delta_fraction and write_ratio must lie in [0, 1]");
  }
  if (cfg.cap < 2 || cfg.cap > kMaxDeltaCap) {
    return Status::InvalidArgument(
        "delta cfg: buffer capacity outside [2, 2^20]");
  }
  return Status::OK();
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
  LI_RETURN_IF_ERROR(writer.AddPod(prefix + "cfg", cfg));
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
/// delta and wal are left untouched unless CheckCfg and CheckDelta pass.
template <typename Key, typename Base>
Status ReadDeltaSections(const snapshot::SnapshotReader& reader,
                         const std::string& prefix, DeltaSnapshotCfg* cfg,
                         std::vector<Key>* keys, Base* base,
                         std::vector<DeltaEntry<Key>>* delta,
                         wal::IndexWal* wal) {
  LI_RETURN_IF_ERROR(reader.GetPod(prefix + "cfg", cfg));
  LI_RETURN_IF_ERROR(CheckCfg(*cfg));
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
