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
//   #live keys < k  =  base.lower_bound(k) + RankAdjustBelow(k)
// costs two binary searches and two prefix reads. An active entry that
// shadows a consolidated one stores the shadowed contribution and
// subtracts it, so nothing is double-counted.

#ifndef LI_DYNAMIC_DELTA_BUFFER_H_
#define LI_DYNAMIC_DELTA_BUFFER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace li::dynamic {

/// The newest buffered write for one key, as seen by consumers (the
/// wrapping index's Contains/Scan/Merge).
template <typename Key>
struct DeltaEntry {
  Key key{};
  bool tombstone = false;  // Erase vs Insert
  bool in_base = false;    // key was present in the base at upsert time
};

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

  /// Records the newest write for `key`. `in_base` must be the key's
  /// membership in the *current immutable base* (frozen until the next
  /// merge clears this buffer, so it never goes stale).
  void Upsert(const Key& key, bool tombstone, bool in_base) {
    const int8_t own = Contribution(tombstone, in_base);
    size_t a = LowerBoundActive(key);
    if (a < active_keys_.size() && active_keys_[a] == key) {
      active_meta_[a].own_c = own;
      active_meta_[a].tombstone = tombstone;
      RebuildActivePrefixFrom(a);
      return;
    }
    int8_t shadow = 0;
    const size_t c = LowerBoundConsolidated(key);
    if (c < keys_.size() && keys_[c] == key) {
      shadow = Contribution(meta_[c].tombstone, meta_[c].in_base);
    }
    active_keys_.insert(active_keys_.begin() + static_cast<ptrdiff_t>(a),
                        key);
    active_meta_.insert(active_meta_.begin() + static_cast<ptrdiff_t>(a),
                        ActiveMeta{own, shadow, tombstone, in_base});
    RebuildActivePrefixFrom(a);
    if (active_keys_.size() >= active_cap_) Consolidate();
  }

  /// The newest buffered write for `key`, if any.
  std::optional<DeltaEntry<Key>> Find(const Key& key) const {
    const size_t a = LowerBoundActive(key);
    if (a < active_keys_.size() && active_keys_[a] == key) {
      return DeltaEntry<Key>{key, active_meta_[a].tombstone,
                             active_meta_[a].in_base};
    }
    const size_t c = LowerBoundConsolidated(key);
    if (c < keys_.size() && keys_[c] == key) {
      return DeltaEntry<Key>{key, meta_[c].tombstone, meta_[c].in_base};
    }
    return std::nullopt;
  }

  /// One key's lower_bound in both runs, so a caller that needs the rank
  /// adjustment and the visit at the same key searches each run once.
  /// The default cursor sits before every entry.
  struct Cursor {
    size_t consolidated = 0;
    size_t active = 0;
  };
  Cursor Seek(const Key& key) const {
    return Cursor{LowerBoundConsolidated(key), LowerBoundActive(key)};
  }

  /// Net rank contribution of all buffered writes on keys strictly below
  /// `key` — see the header comment for why this makes Lookup exact.
  int64_t RankAdjustBelow(const Key& key) const {
    return RankAdjustBelow(Seek(key));
  }
  /// The same at a cursor: the writes before it.
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
           active_keys_.capacity() * sizeof(Key) +
           active_meta_.capacity() * sizeof(ActiveMeta) +
           active_prefix_.capacity() * sizeof(int32_t);
  }

  void Clear() {
    keys_.clear();
    meta_.clear();
    prefix_.assign(1, 0);
    active_keys_.clear();
    active_meta_.clear();
    active_prefix_.assign(1, 0);
  }

  /// Visits buffered writes from cursor `at` (Seek(lo): key >= lo) in
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
  /// relative to whatever base the caller pairs this buffer with)
  /// straight into the consolidated run with its prefix sums — no per-key
  /// Upserts, no active run. The result is a fully functional buffer; the
  /// concurrent index publishes it as the frozen half of a state version
  /// and never mutates it again.
  static DeltaBuffer FromSortedEntries(
      std::span<const DeltaEntry<Key>> entries, size_t active_cap = 256) {
    DeltaBuffer buf(active_cap);
    buf.keys_.reserve(entries.size());
    buf.meta_.reserve(entries.size());
    buf.prefix_.resize(entries.size() + 1);
    buf.prefix_[0] = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
      const DeltaEntry<Key>& e = entries[i];
      buf.keys_.push_back(e.key);
      buf.meta_.push_back(Meta{e.tombstone, e.in_base});
      buf.prefix_[i + 1] =
          buf.prefix_[i] + Contribution(e.tombstone, e.in_base);
    }
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

  size_t LowerBoundConsolidated(const Key& key) const {
    return static_cast<size_t>(
        std::lower_bound(keys_.begin(), keys_.end(), key) - keys_.begin());
  }
  size_t LowerBoundActive(const Key& key) const {
    return static_cast<size_t>(
        std::lower_bound(active_keys_.begin(), active_keys_.end(), key) -
        active_keys_.begin());
  }

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

  /// Merges the active run into the consolidated one (newest write wins)
  /// and rebuilds the consolidated prefix sums.
  void Consolidate() {
    std::vector<Key> merged_keys;
    std::vector<Meta> merged_meta;
    merged_keys.reserve(keys_.size() + active_keys_.size());
    merged_meta.reserve(keys_.size() + active_keys_.size());
    size_t c = 0, a = 0;
    while (c < keys_.size() || a < active_keys_.size()) {
      const bool take_active =
          a < active_keys_.size() &&
          (c >= keys_.size() || !(keys_[c] < active_keys_[a]));
      if (take_active) {
        if (c < keys_.size() && keys_[c] == active_keys_[a]) ++c;
        merged_keys.push_back(active_keys_[a]);
        merged_meta.push_back(
            Meta{active_meta_[a].tombstone, active_meta_[a].in_base});
        ++a;
      } else {
        merged_keys.push_back(keys_[c]);
        merged_meta.push_back(meta_[c]);
        ++c;
      }
    }
    keys_ = std::move(merged_keys);
    meta_ = std::move(merged_meta);
    prefix_.resize(keys_.size() + 1);
    prefix_[0] = 0;
    for (size_t i = 0; i < keys_.size(); ++i) {
      prefix_[i + 1] =
          prefix_[i] + Contribution(meta_[i].tombstone, meta_[i].in_base);
    }
    active_keys_.clear();
    active_meta_.clear();
    active_prefix_.assign(1, 0);
  }

  size_t active_cap_;
  // Consolidated run (struct-of-arrays for binary-search locality).
  std::vector<Key> keys_;
  std::vector<Meta> meta_;
  std::vector<int32_t> prefix_{0};  // size keys_.size() + 1
  // Active run.
  std::vector<Key> active_keys_;
  std::vector<ActiveMeta> active_meta_;
  std::vector<int32_t> active_prefix_{0};  // size active_keys_.size() + 1
};

/// The first `limit` keys of the live set `base` ∪ delta-inserts ∖
/// delta-tombstones that are >= `*from` (all of them when `from` is
/// null), ascending, one copy per key (a delta entry shadows an equal
/// base key). `bi` is base's lower_bound of `*from` (0 when null) — the
/// caller's model lookup. The ONE walk over base + delta, shared by both
/// Scans and the merge step: base keys are drained up to each delta entry
/// and the visit stops as soon as the result fills, so the work is
/// O(limit + delta entries before the stop), after one lower_bound per
/// delta run. Exactly one allocation: the live count past `from` is known
/// from the delta's rank prefix sums.
template <typename Key>
std::vector<Key> LiveKeys(std::span<const Key> base,
                          const DeltaBuffer<Key>& delta, size_t bi,
                          const Key* from, size_t limit) {
  std::vector<Key> out;
  const typename DeltaBuffer<Key>::Cursor at =
      from != nullptr ? delta.Seek(*from)
                      : typename DeltaBuffer<Key>::Cursor{};
  const int64_t before = static_cast<int64_t>(bi) + delta.RankAdjustBelow(at);
  const int64_t live =
      static_cast<int64_t>(base.size()) + delta.LiveAdjustTotal();
  out.reserve(std::min(limit, static_cast<size_t>(live - before)));
  auto visit = [&](const DeltaEntry<Key>& e) {
    while (bi < base.size() && base[bi] < e.key && out.size() < limit) {
      out.push_back(base[bi++]);
    }
    if (out.size() >= limit) return false;
    if (bi < base.size() && base[bi] == e.key) ++bi;  // shadowed base copy
    if (!e.tombstone) out.push_back(e.key);
    return out.size() < limit;
  };
  delta.VisitFrom(at, visit);
  while (bi < base.size() && out.size() < limit) out.push_back(base[bi++]);
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
