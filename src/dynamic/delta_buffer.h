// The delta structure behind DeltaRangeIndex: buffered writes as sorted-
// vector runs (Appendix D.1's insert buffer). Two runs are kept:
//
//  * `active_`  — a small sorted insertion buffer (bounded by
//    `active_cap`), absorbing every Upsert with an O(cap) memmove;
//  * `keys_`/.. — one large consolidated sorted run, deduplicated to the
//    newest write per key. When the active run fills it is merged in
//    (amortized O(consolidated / cap) per write).
//
// The newest write per key wins: an active entry shadows a consolidated
// one with the same key.
//
// Rank bookkeeping is what makes the wrapping index's Lookup exact and
// O(log) instead of a delta scan: every entry carries its *rank
// contribution* relative to the immutable base — +1 for an insert of a
// key absent from the base, -1 for an erase of a base key, 0 otherwise
// (re-insert of a base key, erase of a never-present key). Both runs keep
// prefix sums of contributions, so
//   #live keys < k  =  base.lower_bound(k) + RankAdjustBelow(Seek(k, bi))
// costs one seek per run and two prefix reads. An active entry that
// shadows a consolidated one stores the shadowed contribution and
// subtracts it, so nothing is double-counted.
//
// The consolidated run is sought from the base's own answer. Every read
// that needs the delta also needs bi = base.lower_bound(k) — the model
// lookup — so the run keeps a *base fence*: slot j holds the run's
// lower_bound of base[j·S]. Since base[bi-1] < k <= base[bi], the cursor
// of k lies between the slots around bi, and a seek reads two slots and
// searches the few entries between them instead of the whole run. S is a
// power of two, max(64, ⌈base / entries⌉), so the fence has at most one
// uint32 slot per entry and one forward walk over the run builds it.
// A skewed run (every entry in one base gap) degrades to one search over
// the whole run, never worse. The fence is derived state: rebuilt
// whenever the run is, never persisted.

#ifndef LI_DYNAMIC_DELTA_BUFFER_H_
#define LI_DYNAMIC_DELTA_BUFFER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "search/search.h"

namespace li::dynamic {

/// The newest buffered write for one key, as seen by consumers (the
/// wrapping index's Contains/Scan/Merge).
template <typename Key>
struct DeltaEntry {
  Key key{};
  bool tombstone = false;  // Erase vs Insert
  bool in_base = false;    // key was present in the base at upsert time
};

/// Base membership read off the base's lower_bound `bi` of `key`.
template <typename Key>
bool BaseHolds(std::span<const Key> base, size_t bi, const Key& key) {
  return bi < base.size() && base[bi] == key;
}

/// A buffer is paired with one immutable base key array: every call that
/// takes `base` or `bi` must pass that array, or its lower_bound of the
/// key, until Clear() (the wrapping index's merge) pairs it anew.
template <typename Key>
class DeltaBuffer {
 public:
  explicit DeltaBuffer(size_t active_cap = 256)
      : active_cap_(std::max<size_t>(active_cap, 2)) {}

  /// +1 / -1 / 0 rank contribution of a write against the immutable base.
  static int8_t Contribution(bool tombstone, bool in_base) {
    if (tombstone) return in_base ? int8_t{-1} : int8_t{0};
    return in_base ? int8_t{0} : int8_t{1};
  }

  /// One key's lower_bound in both runs, so a caller that needs the rank
  /// adjustment, the entry and the visit at the same key seeks once.
  /// The default cursor sits before every entry.
  struct Cursor {
    size_t consolidated = 0;
    size_t active = 0;
  };

  /// The cursor of `key`, given bi = base.lower_bound(key) in the paired
  /// base: two fence slots bound the consolidated cursor, a lower_bound
  /// between them finds it.
  Cursor Seek(const Key& key, size_t bi) const {
    const std::vector<uint32_t>& f = fence_.slot;
    size_t lo = 0;
    if (bi > 0) {
      const size_t j = (bi - 1) >> fence_.shift;
      if (j < f.size()) lo = f[j];
    }
    const size_t j = (bi + (size_t{1} << fence_.shift) - 1) >> fence_.shift;
    const size_t hi = j < f.size() ? f[j] : keys_.size();
    return Cursor{search::BinarySearch(keys_.data(), lo, hi, key),
                  search::BinarySearch(active_keys_.data(), 0,
                                       active_keys_.size(), key)};
  }

  /// The newest buffered write for `key`, if any; `at` is Seek(key, ..).
  std::optional<DeltaEntry<Key>> At(Cursor at, const Key& key) const {
    const size_t a = at.active, c = at.consolidated;
    if (a < active_keys_.size() && active_keys_[a] == key) {
      return DeltaEntry<Key>{key, active_meta_[a].tombstone,
                             active_meta_[a].in_base};
    }
    if (c < keys_.size() && keys_[c] == key) {
      return DeltaEntry<Key>{key, meta_[c].tombstone, meta_[c].in_base};
    }
    return std::nullopt;
  }
  /// The same from the base rank: At(Seek(key, bi), key).
  std::optional<DeltaEntry<Key>> Find(const Key& key, size_t bi) const {
    return At(Seek(key, bi), key);
  }

  /// Records the newest write for `key` at its cursor `at`. `in_base`
  /// must be the key's membership in the paired base (frozen until the
  /// next merge clears this buffer, so it never goes stale).
  void Upsert(Cursor at, const Key& key, bool tombstone, bool in_base,
              std::span<const Key> base) {
    const int8_t own = Contribution(tombstone, in_base);
    const size_t a = at.active, c = at.consolidated;
    if (a < active_keys_.size() && active_keys_[a] == key) {
      active_meta_[a].own_c = own;
      active_meta_[a].tombstone = tombstone;
      RebuildActivePrefixFrom(a);
      return;
    }
    int8_t shadow = 0;
    if (c < keys_.size() && keys_[c] == key) {
      shadow = Contribution(meta_[c].tombstone, meta_[c].in_base);
    }
    active_keys_.insert(active_keys_.begin() + static_cast<ptrdiff_t>(a),
                        key);
    active_meta_.insert(active_meta_.begin() + static_cast<ptrdiff_t>(a),
                        ActiveMeta{own, shadow, tombstone, in_base});
    RebuildActivePrefixFrom(a);
    if (active_keys_.size() >= active_cap_) Consolidate(base);
  }

  /// Net rank contribution of the buffered writes before cursor `at`
  /// (Seek(k, ..): on keys strictly below k) — see the header comment for
  /// why this makes Lookup exact.
  int64_t RankAdjustBelow(Cursor at) const {
    return static_cast<int64_t>(prefix_[at.consolidated]) +
           static_cast<int64_t>(active_prefix_[at.active]);
  }

  /// Net rank contribution of the whole buffer: live key count is
  /// base_keys + LiveAdjustTotal().
  int64_t LiveAdjustTotal() const {
    return static_cast<int64_t>(prefix_.back()) +
           static_cast<int64_t>(active_prefix_.back());
  }

  /// Distinct keys with a buffered write (the merge-policy pressure gauge).
  size_t entry_count() const { return keys_.size() + active_keys_.size(); }
  bool empty() const { return entry_count() == 0; }

  size_t SizeBytes() const {
    return keys_.capacity() * sizeof(Key) +
           meta_.capacity() * sizeof(Meta) +
           prefix_.capacity() * sizeof(int32_t) +
           fence_.slot.capacity() * sizeof(uint32_t) +
           active_keys_.capacity() * sizeof(Key) +
           active_meta_.capacity() * sizeof(ActiveMeta) +
           active_prefix_.capacity() * sizeof(int32_t);
  }

  void Clear() {
    keys_.clear();
    meta_.clear();
    prefix_.assign(1, 0);
    fence_ = Fence{};
    active_keys_.clear();
    active_meta_.clear();
    active_prefix_.assign(1, 0);
  }

  /// Visits buffered writes from cursor `at` (Seek(lo, ..): key >= lo) in
  /// ascending key order, the newest write per key (active shadows
  /// consolidated). `fn` returns false to stop early.
  template <typename Fn>
  void VisitFrom(Cursor at, Fn&& fn) const {
    Visit(at.consolidated, at.active, std::forward<Fn>(fn));
  }

  /// Visits every buffered write in ascending key order.
  template <typename Fn>
  void VisitAll(Fn&& fn) const {
    VisitFrom(Cursor{}, std::forward<Fn>(fn));
  }

  /// Immutable-snapshot handoff for the concurrent layer: bulk-loads
  /// `entries` (ascending keys, one newest write per key, `in_base`
  /// relative to `base`, the array the caller pairs this buffer with)
  /// straight into the consolidated run with its prefix sums and fence —
  /// no per-key Upserts, no active run. `prev`, a buffer paired with the
  /// same base (the version this one replaces), lets the fence walk skip
  /// most base reads. The result is a fully functional buffer; the
  /// concurrent index publishes it as the frozen half of a state version
  /// and never mutates it again.
  static DeltaBuffer FromSortedEntries(
      std::span<const DeltaEntry<Key>> entries, std::span<const Key> base,
      size_t active_cap = 256, const DeltaBuffer* prev = nullptr) {
    std::vector<Key> keys;
    std::vector<Meta> meta;
    keys.reserve(entries.size());
    meta.reserve(entries.size());
    for (const DeltaEntry<Key>& e : entries) {
      keys.push_back(e.key);
      meta.push_back(Meta{e.tombstone, e.in_base});
    }
    DeltaBuffer buf(active_cap);
    buf.SetConsolidated(std::move(keys), std::move(meta), base, prev);
    return buf;
  }

 private:
  template <typename Fn>
  void Visit(size_t c, size_t a, Fn&& fn) const {
    while (c < keys_.size() || a < active_keys_.size()) {
      const bool take_active =
          a < active_keys_.size() &&
          (c >= keys_.size() || !(keys_[c] < active_keys_[a]));
      if (take_active && c < keys_.size() && keys_[c] == active_keys_[a]) {
        ++c;  // shadowed consolidated entry
      }
      DeltaEntry<Key> e;
      if (take_active) {
        e = DeltaEntry<Key>{active_keys_[a], active_meta_[a].tombstone,
                            active_meta_[a].in_base};
        ++a;
      } else {
        e = DeltaEntry<Key>{keys_[c], meta_[c].tombstone, meta_[c].in_base};
        ++c;
      }
      if (!fn(e)) return;
    }
  }

  struct Meta {
    bool tombstone = false;
    bool in_base = false;
  };
  struct ActiveMeta {
    int8_t own_c = 0;     // this write's contribution
    int8_t shadow_c = 0;  // contribution of the consolidated entry it hides
    bool tombstone = false;
    bool in_base = false;
  };

  /// active_prefix_[i] = sum over active entries j < i of (own - shadow).
  /// Rebuilding the suffix costs O(cap), the same as the vector insert
  /// that triggered it.
  void RebuildActivePrefixFrom(size_t from) {
    active_prefix_.resize(active_keys_.size() + 1);
    for (size_t i = from; i < active_keys_.size(); ++i) {
      active_prefix_[i + 1] =
          active_prefix_[i] +
          (active_meta_[i].own_c - active_meta_[i].shadow_c);
    }
  }

  /// A run's base fence: slot[j] = lower_bound of base[j << shift] in the
  /// run; empty when the run or its base is. Cursors fit a uint32 as the
  /// int32 prefix sums already require.
  struct Fence {
    std::vector<uint32_t> slot;
    size_t shift = 6;

    /// One forward walk over `keys`, O(entries): S = 1 << shift keeps the
    /// slot count at most the entry count. `prev` is a run over the same
    /// base: where its fence has the same slots, its cursor f brackets
    /// base[j·S] in (prev keys[f-1], prev keys[f]], so the base key — a
    /// cache miss per slot — is read only for slots whose bracket holds a
    /// key new to `keys`.
    static Fence Build(std::span<const Key> keys, std::span<const Key> base,
                       const DeltaBuffer* prev) {
      constexpr uint32_t kUnknown = UINT32_MAX;
      Fence out;
      if (keys.empty() || base.empty()) return out;
      while (((base.size() - 1) >> out.shift) >= keys.size()) ++out.shift;
      out.slot.assign(((base.size() - 1) >> out.shift) + 1, kUnknown);
      if (prev != nullptr && prev->fence_.shift == out.shift &&
          prev->fence_.slot.size() == out.slot.size()) {
        const std::vector<Key>& pk = prev->keys_;
        size_t c = 0, f_last = 0;
        for (size_t j = 0; j < out.slot.size(); ++j) {
          // c becomes the cursor just past pk[f-1]. Where the run kept
          // prev's keys since the last slot, it moved as prev's did.
          const size_t f = prev->fence_.slot[j];
          if (f > 0) {
            const size_t x = c + (f - f_last);
            if (x > 0 && x <= keys.size() && keys[x - 1] == pk[f - 1]) {
              c = x;
            } else {
              while (c < keys.size() && !(pk[f - 1] < keys[c])) ++c;
            }
          }
          f_last = f;
          if (c == keys.size() || (f < pk.size() && !(keys[c] < pk[f]))) {
            out.slot[j] = static_cast<uint32_t>(c);
          }
        }
      }
      // The slots left read their base key, fetched a few slots ahead so
      // the misses overlap.
      size_t c = 0;
      for (size_t j = 0; j < out.slot.size(); ++j) {
        if (out.slot[j] != kUnknown) {
          c = out.slot[j];
          continue;
        }
        if (j + 8 < out.slot.size() && out.slot[j + 8] == kUnknown) {
          PrefetchRead(&base[(j + 8) << out.shift]);
        }
        const Key& b = base[j << out.shift];
        while (c < keys.size() && keys[c] < b) ++c;
        out.slot[j] = static_cast<uint32_t>(c);
      }
      return out;
    }
  };

  /// Installs `keys`/`meta` as the consolidated run with its prefix sums
  /// and its base fence against `base`. `prev` is a run over the same
  /// base (this buffer's own current run included); its fence is read
  /// before the run is replaced.
  void SetConsolidated(std::vector<Key> keys, std::vector<Meta> meta,
                       std::span<const Key> base, const DeltaBuffer* prev) {
    Fence fence = Fence::Build(keys, base, prev);
    keys_ = std::move(keys);
    meta_ = std::move(meta);
    fence_ = std::move(fence);
    prefix_.resize(keys_.size() + 1);
    prefix_[0] = 0;
    for (size_t i = 0; i < keys_.size(); ++i) {
      prefix_[i + 1] =
          prefix_[i] + Contribution(meta_[i].tombstone, meta_[i].in_base);
    }
  }

  /// Merges the active run into the consolidated one (newest write wins)
  /// and rebuilds the consolidated prefix sums and fence against `base`.
  void Consolidate(std::span<const Key> base) {
    std::vector<Key> merged_keys;
    std::vector<Meta> merged_meta;
    merged_keys.reserve(keys_.size() + active_keys_.size());
    merged_meta.reserve(keys_.size() + active_keys_.size());
    VisitAll([&](const DeltaEntry<Key>& e) {
      merged_keys.push_back(e.key);
      merged_meta.push_back(Meta{e.tombstone, e.in_base});
      return true;
    });
    SetConsolidated(std::move(merged_keys), std::move(merged_meta), base,
                    this);
    active_keys_.clear();
    active_meta_.clear();
    active_prefix_.assign(1, 0);
  }

  size_t active_cap_;
  // Consolidated run (struct-of-arrays for search locality).
  std::vector<Key> keys_;
  std::vector<Meta> meta_;
  std::vector<int32_t> prefix_{0};  // size keys_.size() + 1
  Fence fence_;  // keys_' base fence
  // Active run.
  std::vector<Key> active_keys_;
  std::vector<ActiveMeta> active_meta_;
  std::vector<int32_t> active_prefix_{0};  // size active_keys_.size() + 1
};

/// The first `limit` keys of the live set `base` ∪ delta-inserts ∖
/// delta-tombstones that are >= `*from` (all of them when `from` is
/// null), ascending, one copy per key (a delta entry shadows an equal
/// base key). `bi` is base's lower_bound of `*from` (0 when null) — the
/// caller's model lookup, which also positions the delta seek. The ONE
/// walk over base + delta, shared by both Scans and the merge step: each
/// run of base keys below the next delta entry is found by galloping and
/// copied whole, and the visit stops as soon as the result fills, so the
/// work is O(limit + delta entries before the stop). Exactly one
/// allocation: the live count past `from` is known from the delta's rank
/// prefix sums.
template <typename Key>
std::vector<Key> LiveKeys(std::span<const Key> base,
                          const DeltaBuffer<Key>& delta, size_t bi,
                          const Key* from, size_t limit) {
  std::vector<Key> out;
  const typename DeltaBuffer<Key>::Cursor at =
      from != nullptr ? delta.Seek(*from, bi)
                      : typename DeltaBuffer<Key>::Cursor{};
  const int64_t before = static_cast<int64_t>(bi) + delta.RankAdjustBelow(at);
  const int64_t live =
      static_cast<int64_t>(base.size()) + delta.LiveAdjustTotal();
  out.reserve(std::min(limit, static_cast<size_t>(live - before)));
  // The walk reads base keys from bi on: fetch the lines of the first
  // 128 ahead so their misses overlap instead of queueing behind the
  // walk's compares.
  const size_t ahead =
      std::min(base.size(), bi + std::min(limit, size_t{128}));
  for (size_t k = bi + 8; k < ahead; k += 8) PrefetchRead(&base[k]);
  // Copies the base keys from bi on that are below `*below` (all when
  // null), as many as fit.
  auto copy_base = [&](const Key* below) {
    const size_t room = std::min(limit - out.size(), base.size() - bi);
    const size_t run =
        below != nullptr
            ? search::ExponentialSearch(base.data() + bi, room, *below, 0)
            : room;
    out.insert(out.end(), base.begin() + static_cast<ptrdiff_t>(bi),
               base.begin() + static_cast<ptrdiff_t>(bi + run));
    bi += run;
  };
  auto visit = [&](const DeltaEntry<Key>& e) {
    copy_base(&e.key);
    if (out.size() >= limit) return false;
    if (BaseHolds(base, bi, e.key)) ++bi;  // shadowed base copy
    if (!e.tombstone) out.push_back(e.key);
    return out.size() < limit;
  };
  delta.VisitFrom(at, visit);
  copy_base(nullptr);
  return out;
}

/// The merged live key set, whole: the Appendix-D.1 merge-step key fold,
/// shared by DeltaRangeIndex::Merge and the concurrent merge worker — the
/// duplicate-key regression suite pins its semantics once for both.
template <typename Key>
std::vector<Key> MergeLiveKeys(std::span<const Key> base,
                               const DeltaBuffer<Key>& delta) {
  return LiveKeys<Key>(base, delta, 0, nullptr, SIZE_MAX);
}

}  // namespace li::dynamic

#endif  // LI_DYNAMIC_DELTA_BUFFER_H_
