// Separate-chaining hash map (Appendix B): "records are stored directly
// within an array and only in the case of a conflict is the record attached
// to the linked-list. That is without a conflict there is at most one cache
// miss." Each slot is the 20-byte record plus a 32-bit chain offset,
// "making it a 24Byte slot".
//
// The map is built once from a record set (the paper's experiments are
// read-only) and satisfies the index::PointIndex contract: the slot count
// and the hash family (random vs learned CDF) are build parameters, so the
// 75% / 100% / 125% sweep of Figure 11 and the Figure-8 hash comparison
// both fall out of one Build signature. Reported size *includes* the
// record storage (the explicit accounting difference Appendix B notes).

#ifndef LI_HASH_CHAINED_HASH_MAP_H_
#define LI_HASH_CHAINED_HASH_MAP_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/status.h"
#include "hash/hash_fn.h"
#include "hash/record.h"
#include "index/point_index.h"
#include "index/snapshottable.h"
#include "snapshot/arena.h"
#include "snapshot/snapshot.h"

namespace li::hash {

struct ChainedHashMapConfig {
  /// Primary slot count; 0 sizes the table at one slot per record.
  uint64_t num_slots = 0;
  HashConfig hash;
};

class ChainedHashMap {
 public:
  using config_type = ChainedHashMapConfig;

  ChainedHashMap() = default;

  /// Builds from `records`. Duplicate keys keep the first record.
  Status Build(std::span<const Record> records, const config_type& config) {
    const uint64_t num_slots =
        config.num_slots != 0 ? config.num_slots : records.size();
    if (num_slots == 0) {
      return Status::InvalidArgument("ChainedHashMap: no slots (empty build)");
    }
    LI_RETURN_IF_ERROR(
        BuildRecordHash(records, num_slots, config.hash, &hash_fn_));
    return Populate(records, num_slots);
  }

  /// Fast-path Build for callers that already trained a hash over this
  /// key set (the LIF slot sweep): copies `prebuilt` and re-aims it at
  /// this table's slot count instead of training the CDF model again.
  Status Build(std::span<const Record> records, const config_type& config,
               const PointHash& prebuilt) {
    const uint64_t num_slots =
        config.num_slots != 0 ? config.num_slots : records.size();
    if (num_slots == 0) {
      return Status::InvalidArgument("ChainedHashMap: no slots (empty build)");
    }
    hash_fn_ = prebuilt;
    hash_fn_.Retarget(num_slots);
    return Populate(records, num_slots);
  }

  /// Returns the record for `key`, or nullptr (including on a never-built
  /// or empty map).
  const Record* Find(uint64_t key) const {
    if (slots_.empty()) return nullptr;
    return FindFrom(&slots_[hash_fn_(key)], key);
  }

  /// Software-pipelined batch probe (vectorized home-slot batch +
  /// prefetch, then chain walks) — see hash::PipelinedFindBatchSlots.
  void FindBatch(std::span<const uint64_t> keys,
                 std::span<const Record*> out) const {
    const size_t n = std::min(keys.size(), out.size());
    if (slots_.empty()) {
      for (size_t i = 0; i < n; ++i) out[i] = nullptr;
      return;
    }
    PipelinedFindBatchSlots(
        keys, out,
        [&](const uint64_t* ks, size_t b, uint64_t* slots) {
          hash_fn_.SlotBatch(ks, b, slots);
        },
        [&](uint64_t slot) { return &slots_[slot]; },
        [&](const Slot* head, uint64_t key) { return FindFrom(head, key); });
  }

  /// Number of primary slots never filled — the "Empty Slots" / wasted
  /// space column of Figure 11.
  size_t EmptySlots() const {
    size_t empty = 0;
    for (const Slot& s : slots_) empty += !(s.meta & kOccupied);
    return empty;
  }

  size_t num_slots() const { return slots_.size(); }
  size_t num_records() const { return num_records_; }
  size_t overflow_size() const { return overflow_.size(); }

  /// Total bytes including record storage plus the hash function itself
  /// (per Appendix B accounting: the learned model is part of the index).
  size_t SizeBytes() const {
    return (slots_.size() + overflow_.size()) * sizeof(Slot) +
           hash_fn_.SizeBytes();
  }
  /// Bytes wasted in never-used primary slots.
  size_t EmptySlotBytes() const { return EmptySlots() * sizeof(Slot); }

  // ---- Persistence (index::Snapshottable; docs/PERSISTENCE.md) ----
  // The slot and overflow arrays are flat 24-byte-slot tables already —
  // they persist verbatim and reopen as zero-copy views; the hash
  // function (including a learned CDF model) nests under "<prefix>hash/".

  Status WriteSections(snapshot::SnapshotWriter& writer,
                       const std::string& prefix) const {
    SnapshotMeta meta;
    meta.num_slots = slots_.size();
    meta.overflow_size = overflow_.size();
    meta.num_records = num_records_;
    LI_RETURN_IF_ERROR(writer.AddPod(prefix + "meta", meta));
    LI_RETURN_IF_ERROR(writer.AddArray(prefix + "slots", slots_.span(),
                                       snapshot::SectionKind::kSlots));
    LI_RETURN_IF_ERROR(writer.AddArray(prefix + "ovf", overflow_.span(),
                                       snapshot::SectionKind::kSlots));
    return hash_fn_.WriteSections(writer, prefix + "hash/");
  }

  Status LoadSections(const snapshot::SnapshotReader& reader,
                      const std::string& prefix) {
    SnapshotMeta meta;
    LI_RETURN_IF_ERROR(reader.GetPod(prefix + "meta", &meta));
    auto slots = reader.GetArray<Slot>(prefix + "slots");
    if (!slots.ok()) return slots.status();
    auto ovf = reader.GetArray<Slot>(prefix + "ovf");
    if (!ovf.ok()) return ovf.status();
    if (slots.value().size() != meta.num_slots ||
        ovf.value().size() != meta.overflow_size) {
      return Status::InvalidArgument(
          "ChainedHashMap snapshot table sizes disagree with meta");
    }
    LI_RETURN_IF_ERROR(hash_fn_.LoadSections(reader, prefix + "hash/"));
    // The hash must index exactly this table: a mismatched pair would
    // probe out of bounds.
    if (hash_fn_.num_slots() != slots.value().size()) {
      return Status::InvalidArgument(
          "ChainedHashMap snapshot hash range disagrees with slot table");
    }
    // Chain links must stay inside the overflow table (links are 1-based).
    const auto in_range = [&](const Slot& s) {
      return s.next <= ovf.value().size();
    };
    for (const Slot& s : slots.value()) {
      if (!in_range(s)) {
        return Status::InvalidArgument(
            "ChainedHashMap snapshot has an out-of-range chain link");
      }
    }
    for (const Slot& s : ovf.value()) {
      if (!in_range(s)) {
        return Status::InvalidArgument(
            "ChainedHashMap snapshot has an out-of-range chain link");
      }
    }
    slots_ = snapshot::FlatVec<Slot>::View(slots.value(), reader.keepalive());
    overflow_ = snapshot::FlatVec<Slot>::View(ovf.value(), reader.keepalive());
    num_records_ = meta.num_records;
    return Status::OK();
  }

  Status WriteSnapshot(const std::string& path) const {
    return index::WriteSnapshotViaSections(*this, path);
  }

  static Result<ChainedHashMap> OpenSnapshot(
      const std::string& path, const snapshot::OpenOptions& opts = {}) {
    return index::OpenSnapshotViaSections<ChainedHashMap>(path, opts);
  }

  index::PointIndexStats Stats() const {
    index::PointIndexStats stats;
    stats.num_slots = slots_.size();
    stats.empty_slots = EmptySlots();
    stats.overflow = overflow_.size();
    if (num_records_ > 0) {
      // Every overflow entry at chain depth d costs d extra hops; summing
      // per-chain arithmetic series over the chain-length histogram.
      double total = 0.0;
      for (const Slot& s : slots_) {
        if (!(s.meta & kOccupied)) continue;
        size_t len = 1;
        const Slot* cursor = &s;
        while (cursor->next != kNull) {
          ++len;
          cursor = &overflow_[cursor->next - 1];
        }
        total += static_cast<double>(len * (len + 1)) / 2.0;
      }
      stats.mean_probe = total / static_cast<double>(num_records_);
    }
    return stats;
  }

 private:
  static constexpr uint32_t kNull = 0;
  static constexpr uint32_t kOccupied = 0x8000'0000u;  // internal meta bit

  struct Slot {
    Record record;
    uint32_t meta = 0;   // bit 31: occupied; low bits mirror record.meta
    uint32_t next = kNull;  // 1-based index into overflow_
  };
  static_assert(std::is_trivially_copyable_v<Slot>,
                "Slot tables are persisted verbatim in snapshots");
  static_assert(std::has_unique_object_representations_v<Slot>,
                "no padding bytes: snapshots must be deterministic");

  struct SnapshotMeta {
    uint64_t num_slots = 0;
    uint64_t overflow_size = 0;
    uint64_t num_records = 0;
  };

  /// Builds into local vectors, then adopts them as the flat tables —
  /// the incremental Insert path needs vector growth; the steady state
  /// (Find/FindBatch) only needs the flat layout.
  Status Populate(std::span<const Record> records, uint64_t num_slots) {
    std::vector<Slot> slots(num_slots);
    std::vector<Slot> overflow;
    num_records_ = 0;
    for (const Record& r : records) {
      Insert(slots, overflow, r);
    }
    slots_ = snapshot::FlatVec<Slot>::Adopt(std::move(slots));
    overflow_ = snapshot::FlatVec<Slot>::Adopt(std::move(overflow));
    return Status::OK();
  }

  const Record* FindFrom(const Slot* slot, uint64_t key) const {
    if (!(slot->meta & kOccupied)) return nullptr;
    while (true) {
      if (slot->record.key == key) return &slot->record;
      if (slot->next == kNull) return nullptr;
      slot = &overflow_[slot->next - 1];
    }
  }

  void Insert(std::vector<Slot>& slots, std::vector<Slot>& overflow,
              const Record& r) {
    Slot& head = slots[hash_fn_(r.key)];
    if (!(head.meta & kOccupied)) {
      head.record = r;
      head.meta = kOccupied | (r.meta & ~kOccupied);
      head.next = kNull;
      ++num_records_;
      return;
    }
    // Walk the chain; ignore duplicates.
    Slot* cursor = &head;
    while (true) {
      if (cursor->record.key == r.key) return;
      if (cursor->next == kNull) break;
      cursor = &overflow[cursor->next - 1];
    }
    Slot extra;
    extra.record = r;
    extra.meta = kOccupied | (r.meta & ~kOccupied);
    extra.next = kNull;
    // push_back may reallocate overflow, so re-resolve the chain tail by
    // index if it lives there.
    const bool tail_in_overflow = cursor != &head;
    const size_t tail_idx =
        tail_in_overflow ? static_cast<size_t>(cursor - overflow.data()) : 0;
    overflow.push_back(extra);
    Slot* tail = tail_in_overflow ? &overflow[tail_idx] : &head;
    tail->next = static_cast<uint32_t>(overflow.size());
    ++num_records_;
  }

  PointHash hash_fn_;
  /// Adopted from the build vectors, or zero-copy mapped views when
  /// opened from a snapshot; the probe path is identical either way.
  snapshot::FlatVec<Slot> slots_;
  snapshot::FlatVec<Slot> overflow_;
  size_t num_records_ = 0;
};

}  // namespace li::hash

#endif  // LI_HASH_CHAINED_HASH_MAP_H_
