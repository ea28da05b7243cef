// Hash functions for the point-index experiments (§4).
//
//  * RandomHash  — the "MurmurHash3-like" baseline: a finalizer-strength
//    mix mapped to [0, M) with a multiply-shift (no modulo on the hot
//    path).
//  * LearnedHash — the Hash-Model Index (§4.1): h(K) = F(K) * M, where F
//    is a 2-stage RMI over the key CDF ("100k models on the 2nd stage and
//    without any hidden layers", §4.2). If the model learned the empirical
//    CDF perfectly, no conflicts would exist.
//  * PointHash  — the config-selected union of the two, so the map
//    families take the random-vs-learned choice as build configuration
//    (the PointIndex contract) instead of a template parameter smuggled in
//    by every caller.

#ifndef LI_HASH_HASH_FN_H_
#define LI_HASH_HASH_FN_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bits.h"
#include "common/random.h"
#include "hash/record.h"
#include "rmi/rmi.h"
#include "simd/dispatch.h"
#include "snapshot/snapshot.h"

namespace li::hash {

/// Uniformly randomizing baseline hash into [0, num_slots).
class RandomHash {
 public:
  RandomHash() = default;
  explicit RandomHash(uint64_t num_slots, uint64_t seed = 0)
      : num_slots_(num_slots), seed_(seed) {}

  uint64_t operator()(uint64_t key) const {
    return simd::ScalarHashSlot(key, seed_, num_slots_);
  }

  /// Batch slot computation through the SIMD kernel table (the scalar
  /// table at scalar level — spec-identical to operator(), so batch and
  /// single-key probes agree on every home slot).
  void SlotBatch(const uint64_t* keys, size_t n, uint64_t* slots) const {
    simd::GetKernels().hash_slots(keys, n, seed_, num_slots_, slots);
  }

  /// Re-aims the hash at a new table size (the multiply-shift needs no
  /// other state).
  void Retarget(uint64_t num_slots) { num_slots_ = num_slots; }

  uint64_t num_slots() const { return num_slots_; }
  uint64_t seed() const { return seed_; }
  size_t SizeBytes() const { return 2 * sizeof(uint64_t); }

 private:
  uint64_t num_slots_ = 1;
  uint64_t seed_ = 0;
};

/// CDF-model hash: scales the RMI position estimate to the table size.
template <typename TopModel = models::LinearModel>
class LearnedHash {
 public:
  LearnedHash() = default;

  /// Trains the CDF model over `keys` (sorted); hashes into
  /// [0, num_slots). The caller owns `keys` during Build only — the hash
  /// function itself does not touch the data afterwards.
  Status Build(std::span<const uint64_t> keys, uint64_t num_slots,
               const rmi::RmiConfig& config) {
    num_keys_ = std::max<uint64_t>(1, keys.size());
    Retarget(num_slots);
    return rmi_.Build(keys, config);
  }

  /// Re-aims the hash at a new table size without retraining: the CDF
  /// model depends only on the keys; num_slots enters through the rescale
  /// factor alone. Used by the LIF slot sweep to train once per key set.
  void Retarget(uint64_t num_slots) {
    num_slots_ = num_slots;
    // Fixed-point rescale factor: floor(M * 2^64 / N). The hot path then
    // maps pos in [0, N) to [0, M) with a multiply + shift instead of the
    // 128-bit division a naive (pos * M) / N would cost per lookup:
    //   (pos * scale) >> 64 <= floor(pos * M / N) < M.
    // The true product is < M * 2^64 < 2^128, so the mod-2^128 multiply
    // is exact.
    scale_ = (static_cast<unsigned __int128>(num_slots_) << 64) / num_keys_;
  }

  uint64_t operator()(uint64_t key) const {
    const size_t pos = rmi_.Predict(key).pos;  // pos in [0, N)
    return static_cast<uint64_t>((scale_ * pos) >> 64);
  }

  /// Batch slot computation: vectorized CDF-model execution
  /// (Rmi::PredictPosBatch), then the exact fixed-point rescale per slot.
  /// The rescale stays scalar — it is a 128-bit multiply the kernels do
  /// not model — and the predict path is spec-identical at every dispatch
  /// level, so SlotBatch(k) == operator()(k) always.
  void SlotBatch(const uint64_t* keys, size_t n, uint64_t* slots) const {
    rmi_.PredictPosBatch({keys, n}, {slots, n});
    for (size_t i = 0; i < n; ++i) {
      slots[i] = static_cast<uint64_t>((scale_ * slots[i]) >> 64);
    }
  }

  /// The pre-optimization reference path (per-lookup 128-bit division);
  /// kept so the microbenchmark can show the rescale delta and the tests
  /// can bound the divergence (at most 1 slot, always in range).
  uint64_t SlotViaDivision(uint64_t key) const {
    const size_t pos = rmi_.Predict(key).pos;
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(pos) * num_slots_) / num_keys_);
  }

  uint64_t num_slots() const { return num_slots_; }
  size_t SizeBytes() const { return rmi_.SizeBytes(); }

  // ---- Persistence (docs/PERSISTENCE.md) ----
  // The CDF model snapshots in *model-only* form (no key section): the
  // RMI's key span already dangles by design after Build (see the Build
  // comment), so the reopened model reconstructs only the span's size.
  // scale_ is recomputed from the persisted (num_slots, num_keys) via
  // Retarget — a derived value stays derived.

  Status WriteSections(snapshot::SnapshotWriter& writer,
                       const std::string& prefix) const {
    const SnapshotMeta meta{num_slots_, num_keys_};
    LI_RETURN_IF_ERROR(writer.AddPod(prefix + "meta", meta));
    return rmi_.WriteSections(writer, prefix + "rmi/",
                              /*include_keys=*/false);
  }

  Status LoadSections(const snapshot::SnapshotReader& reader,
                      const std::string& prefix) {
    SnapshotMeta meta;
    LI_RETURN_IF_ERROR(reader.GetPod(prefix + "meta", &meta));
    if (meta.num_keys == 0 || meta.num_slots == 0) {
      return Status::InvalidArgument("LearnedHash snapshot meta is corrupt");
    }
    LI_RETURN_IF_ERROR(rmi_.LoadModelSections(reader, prefix + "rmi/"));
    // The slot mapping is only in [0, num_slots) when the model's
    // position estimates stay below num_keys; a mismatched pair would
    // turn lookups into out-of-bounds slot indexes.
    if (rmi_.data().size() != meta.num_keys) {
      return Status::InvalidArgument(
          "LearnedHash snapshot key count disagrees with its CDF model");
    }
    num_keys_ = meta.num_keys;
    Retarget(meta.num_slots);
    return Status::OK();
  }

 private:
  struct SnapshotMeta {
    uint64_t num_slots = 1;
    uint64_t num_keys = 1;
  };

  uint64_t num_slots_ = 1;
  uint64_t num_keys_ = 1;
  unsigned __int128 scale_ = 0;
  rmi::Rmi<TopModel> rmi_;
};

/// Which hash-function family a point index builds with (§4.1 vs the
/// MurmurHash3-like baseline).
enum class HashKind {
  kRandom,
  kLearnedCdf,
};

/// The hash half of every point-index build config.
struct HashConfig {
  HashKind kind = HashKind::kRandom;
  uint64_t seed = 0;
  /// Second-stage model count for the learned CDF (§4.2's 100k). 0 picks
  /// min(100'000, max(1, n/10)) from the key count, the benches' default.
  size_t cdf_leaf_models = 0;
};

/// Config-selected hash function: random or learned CDF behind one call.
/// The kind branch is perfectly predicted; the learned path dominates it
/// by orders of magnitude (model execution), the random path by the mix.
class PointHash {
 public:
  PointHash() = default;

  /// `sorted_keys` is only read when kind == kLearnedCdf (CDF training)
  /// and only during Build; it must be sorted ascending.
  Status Build(std::span<const uint64_t> sorted_keys, uint64_t num_slots,
               const HashConfig& config) {
    kind_ = config.kind;
    if (kind_ == HashKind::kRandom) {
      random_ = RandomHash(num_slots, config.seed);
      return Status::OK();
    }
    rmi::RmiConfig rc;
    rc.num_leaf_models =
        config.cdf_leaf_models != 0
            ? config.cdf_leaf_models
            : std::min<size_t>(100'000,
                               std::max<size_t>(1, sorted_keys.size() / 10));
    // The hash never searches, so a narrower window buys nothing: keep the
    // two-stage model and its one-model-per-stage predict throughput.
    rc.num_route_models = 1;
    return learned_.Build(sorted_keys, num_slots, rc);
  }

  uint64_t operator()(uint64_t key) const {
    return kind_ == HashKind::kLearnedCdf ? learned_(key) : random_(key);
  }

  /// Batch slot computation — one kind branch per batch instead of per
  /// key; see the per-family SlotBatch docs.
  void SlotBatch(const uint64_t* keys, size_t n, uint64_t* slots) const {
    if (kind_ == HashKind::kLearnedCdf) {
      learned_.SlotBatch(keys, n, slots);
    } else {
      random_.SlotBatch(keys, n, slots);
    }
  }

  /// Re-aims a built hash at a new table size without retraining the CDF
  /// model — a copy + Retarget replaces a full Build when only the slot
  /// count differs (the LIF slot sweep).
  void Retarget(uint64_t num_slots) {
    if (kind_ == HashKind::kLearnedCdf) {
      learned_.Retarget(num_slots);
    } else {
      random_.Retarget(num_slots);
    }
  }

  HashKind kind() const { return kind_; }
  uint64_t num_slots() const {
    return kind_ == HashKind::kLearnedCdf ? learned_.num_slots()
                                          : random_.num_slots();
  }
  size_t SizeBytes() const {
    return kind_ == HashKind::kLearnedCdf ? learned_.SizeBytes()
                                          : random_.SizeBytes();
  }

  // ---- Persistence (docs/PERSISTENCE.md) ----
  // One meta section covers the random family entirely (two scalars);
  // the learned family nests its CDF model under "<prefix>cdf/".

  Status WriteSections(snapshot::SnapshotWriter& writer,
                       const std::string& prefix) const {
    SnapshotMeta meta;
    meta.kind = static_cast<uint32_t>(kind_);
    meta.num_slots = num_slots();
    meta.seed = kind_ == HashKind::kRandom ? random_.seed() : 0;
    LI_RETURN_IF_ERROR(writer.AddPod(prefix + "meta", meta));
    if (kind_ == HashKind::kLearnedCdf) {
      LI_RETURN_IF_ERROR(learned_.WriteSections(writer, prefix + "cdf/"));
    }
    return Status::OK();
  }

  Status LoadSections(const snapshot::SnapshotReader& reader,
                      const std::string& prefix) {
    SnapshotMeta meta;
    LI_RETURN_IF_ERROR(reader.GetPod(prefix + "meta", &meta));
    if (meta.kind > static_cast<uint32_t>(HashKind::kLearnedCdf) ||
        meta.num_slots == 0) {
      return Status::InvalidArgument("PointHash snapshot meta is corrupt");
    }
    kind_ = static_cast<HashKind>(meta.kind);
    if (kind_ == HashKind::kLearnedCdf) {
      LI_RETURN_IF_ERROR(learned_.LoadSections(reader, prefix + "cdf/"));
      if (learned_.num_slots() != meta.num_slots) {
        return Status::InvalidArgument(
            "PointHash snapshot slot count disagrees with its CDF hash");
      }
    } else {
      random_ = RandomHash(meta.num_slots, meta.seed);
    }
    return Status::OK();
  }

 private:
  struct SnapshotMeta {
    uint32_t kind = 0;
    uint32_t reserved = 0;
    uint64_t num_slots = 1;
    uint64_t seed = 0;
  };

  HashKind kind_ = HashKind::kRandom;
  RandomHash random_;
  LearnedHash<models::LinearModel> learned_;
};

/// Builds the configured hash for a record set, hashing into
/// [0, num_slots) — the shared first step of every map family's Build.
/// The learned CDF trains on a sorted copy of the record keys; the keys
/// are only read during Build (the RMI never dereferences them afterwards).
inline Status BuildRecordHash(std::span<const Record> records,
                              uint64_t num_slots, const HashConfig& config,
                              PointHash* fn) {
  if (config.kind == HashKind::kRandom) {
    return fn->Build({}, num_slots, config);
  }
  std::vector<uint64_t> keys;
  keys.reserve(records.size());
  for (const Record& r : records) keys.push_back(r.key);
  std::sort(keys.begin(), keys.end());
  return fn->Build(keys, num_slots, config);
}

/// The shared software pipeline behind every single-home-slot map's
/// FindBatch, per 64-key block: phase 0 computes the block's home slots
/// with one `slots_of(keys, b, slots)` call (the vectorized SlotBatch of
/// the map's hash function), phase 1 resolves slot -> head pointer and
/// prefetches it, phase 2 probes — so the per-probe cache miss of
/// neighboring keys overlaps instead of serializing (the same structure
/// as the RMI LookupBatch). Mismatched span lengths clamp to the shorter
/// one. The 64-key block matches the SIMD kernel block so a LearnedHash's
/// model execution vectorizes fully; prefetch distance stays bounded by
/// the block.
template <typename SlotsFn, typename HeadAtFn, typename ProbeFn>
void PipelinedFindBatchSlots(std::span<const uint64_t> keys,
                             std::span<const Record*> out, SlotsFn&& slots_of,
                             HeadAtFn&& head_at, ProbeFn&& probe) {
  using HeadPtr = std::invoke_result_t<HeadAtFn&, uint64_t>;
  const size_t n = std::min(keys.size(), out.size());
  constexpr size_t kBlock = 64;
  uint64_t slots[kBlock];
  HeadPtr heads[kBlock];
  for (size_t base = 0; base < n; base += kBlock) {
    const size_t b = std::min(kBlock, n - base);
    slots_of(keys.data() + base, b, slots);
    for (size_t k = 0; k < b; ++k) {
      heads[k] = head_at(slots[k]);
      PrefetchRead(heads[k]);
    }
    for (size_t k = 0; k < b; ++k) {
      out[base + k] = probe(heads[k], keys[base + k]);
    }
  }
}

/// Fraction of keys that land in an already-occupied slot — the Figure-8
/// metric ("% Conflicts"). Uses a bitmap over `num_slots`.
template <typename HashFn>
double ConflictRate(std::span<const uint64_t> keys, const HashFn& fn,
                    uint64_t num_slots) {
  std::vector<uint64_t> bitmap((num_slots + 63) / 64, 0);
  size_t conflicts = 0;
  for (const uint64_t key : keys) {
    const uint64_t slot = fn(key);
    uint64_t& word = bitmap[slot >> 6];
    const uint64_t bit = uint64_t{1} << (slot & 63);
    if (word & bit) {
      ++conflicts;
    } else {
      word |= bit;
    }
  }
  return keys.empty()
             ? 0.0
             : static_cast<double>(conflicts) / static_cast<double>(keys.size());
}

}  // namespace li::hash

#endif  // LI_HASH_HASH_FN_H_
