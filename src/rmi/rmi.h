// The Recursive Model Index (§3.2) — the paper's primary contribution.
//
// A stack of model stages ("at stage l there are M_l models"). The top
// model learns the overall CDF shape; for linear tops a middle stage of K
// linear "routing" models refines it piecewise, and every key lands on
// one of M leaves via leaf = clamp(M * f1(key) / N), where f1 is the
// routing model the top picked by segment = clamp(K * f0(key) / N). With
// K = 1 the stage is the top itself — the paper's two-stage RMI. Every
// leaf model (simple linear — "for the second stage, simple linear models
// had the best performance", §3.7.1) predicts the absolute position, and
// per-leaf worst-case error bounds turn the prediction into a
// B-Tree-grade guarantee: the true position of any *stored* key lies in
// [pred + min_err, pred + max_err] (§3.4). For absent lookup keys with a
// non-monotonic model the bound can miss, so lookups finish with a
// boundary fix-up (exponential search) — the §3.4 "automatically adjust
// the search area" escape hatch.
//
// Why the middle stage: a linear top routes a skewed CDF's mass very
// unevenly (on lognormal keys most leaves stay empty while a few hold
// hundreds of keys), and the last-mile window is each leaf's worst case.
// Piecewise routing equalizes leaf mass at the same leaf count, so the
// window shrinks by an order of magnitude for ~1% more model bytes.
//
// Training is stage-wise per Algorithm 1: fit the top model on the §3.6
// sample, fit each routing model on the sample points its segment
// receives, route every key to its leaf, fit each leaf on its routed
// subset, then record min/max/std error per leaf.
//
// Keys are uint64_t, the paper's evaluated range-index key (§3.7.1,
// Figures 4-5), and each key's model feature is its exactly-rounded
// double value. String keys use the tokenized StringRmi (§3.5,
// rmi/string_rmi.h). The class satisfies the index::RangeIndex contract
// (ApproxPos / Lookup / SizeBytes) that the LIF synthesizer and benches
// enumerate over.

#ifndef LI_RMI_RMI_H_
#define LI_RMI_RMI_H_

#include <algorithm>
#include <cstdint>
#include <exception>
#include <memory>
#include <span>
#include <string>
#include <system_error>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/bits.h"
#include "common/status.h"
#include "index/approx.h"
#include "index/snapshottable.h"
#include "models/linear.h"
#include "rmi/trainers.h"
#include "search/search.h"
#include "simd/dispatch.h"
#include "snapshot/arena.h"
#include "snapshot/snapshot.h"

namespace li::rmi {

/// Cap on keys used to train the *top* model (§3.6: the top model
/// converges before a single scan of the data). Leaves always see all
/// their routed keys.
inline constexpr size_t kTopTrainSample = 100'000;

struct RmiConfig {
  size_t num_leaf_models = 10'000;       // "2nd stage models" in Figure 4
  /// Routing-stage model count K between the top and the leaves. 0 picks
  /// num_leaf_models / 64 clamped to [1, 4096] (8-64 KB of models, L1/L2
  /// resident); 1 is the paper's two-stage RMI, the top routing straight
  /// to a leaf. Capped at num_leaf_models. Non-linear tops always use 1.
  size_t num_route_models = 0;
  search::Strategy strategy = search::Strategy::kBiasedBinary;
  TrainOptions train;
};

/// Per-leaf metadata: the linear model plus its error band.
struct Leaf {
  models::LinearModel model;
  int32_t min_err = 0;  // most negative (actual - predicted), saturated
  int32_t max_err = 0;  // most positive (actual - predicted), saturated
  float std_err = 0.0f;
  /// Precomputed σ-scaled sweep sub-window for the vectorized batch path,
  /// as offsets relative to the clamped prediction: sweep
  /// [pos + sweep_lo, pos + sweep_hi) — the 3σ band intersected with the
  /// worst-case window for tight leaves, the full window for wide ones
  /// (where a σ band would pin and escape too often). Computed at Build
  /// so the lookup window stage is two adds and two clamps per key.
  int32_t sweep_lo = 0;
  int32_t sweep_hi = 1;
  /// The 4 bytes the compiler would pad to 40 anyway, named so every
  /// copy carries a defined value into the snapshot.
  int32_t pad = 0;
};
static_assert(std::is_trivially_copyable_v<Leaf>,
              "Leaf is persisted verbatim in snapshot leaf sections");
// The float members rule out has_unique_object_representations, so the
// no-padding check is a size sum.
static_assert(sizeof(Leaf) == sizeof(models::LinearModel) +
                                  5 * sizeof(int32_t) + sizeof(float),
              "no padding bytes: snapshots must be deterministic");

template <typename TopModel>
class RmiIndex {
 public:
  using key_type = uint64_t;
  using config_type = RmiConfig;

  /// Linear top models evaluate through the shared scalar spec
  /// (simd::ScalarRoute1), which is what the vector route kernel
  /// replicates, and take the vectorized batch path; other top models
  /// (NN, multivariate) stay on the generic Predict() path and the
  /// pipelined scalar batch path.
  static constexpr bool kTopIsLinear =
      std::is_same_v<TopModel, models::LinearModel>;

  RmiIndex() = default;

  /// Builds over sorted, strictly-increasing `keys` (caller owns the data).
  /// Routing and the leaf fit run on BuildWorkers(keys.size()) threads;
  /// every leaf comes out exactly as a one-thread build makes it.
  Status Build(std::span<const uint64_t> keys, const RmiConfig& config) {
    return BuildOnWorkers(keys, config, BuildWorkers(keys.size()));
  }

  /// Build with `workers` threads for routing and the leaf fit, the caller
  /// being one of them. Build passes BuildWorkers(n); a background merge
  /// passes 1, leaving the other cores to readers; tests pass other counts
  /// to check that the output does not depend on it.
  Status BuildOnWorkers(std::span<const uint64_t> keys,
                        const RmiConfig& config, size_t workers) {
    if (config.num_leaf_models == 0) {
      return Status::InvalidArgument("Rmi: need at least one leaf model");
    }
    // Leaf offsets and routed positions are 32-bit.
    if (keys.size() > UINT32_MAX) {
      return Status::InvalidArgument("Rmi: more than 2^32 - 1 keys");
    }
    data_ = keys;
    config_ = config;
    snapshot_keepalive_.reset();
    route_.clear();
    route_factor_ = 0.0;
    segment_factor_ = 0.0;
    const size_t m = config.num_leaf_models;
    // Every leaf is rewritten below, so a merge loop (Appendix D.1) that
    // rebuilds at the same leaf count keeps its owned table.
    if (keys.empty() || leaves_.mapped() || leaves_.size() != m) {
      leaves_.assign(m, Leaf{});
    }
    if (keys.empty()) return Status::OK();
    const size_t n = keys.size();
    // Precomputed M/N rescale: one multiply per key on the routing path
    // instead of a multiply plus a ~20-cycle divide.
    route_factor_ = static_cast<double>(m) / static_cast<double>(n);

    // ---- Stage 0: train the top model on (key, position) ----
    std::vector<double> xs, ys;
    const size_t top_n = std::min(n, kTopTrainSample);
    xs.reserve(top_n);
    ys.reserve(top_n);
    const double stride = static_cast<double>(n) / static_cast<double>(top_n);
    for (size_t i = 0; i < top_n; ++i) {
      const size_t idx = static_cast<size_t>(i * stride);
      xs.push_back(static_cast<double>(keys[idx]));
      ys.push_back(static_cast<double>(idx));
    }
    LI_RETURN_IF_ERROR(TrainModel(&top_, xs, ys, config.train));

    // ---- Stage 1: the routing models, on the same sample ----
    if constexpr (kTopIsLinear) {
      const size_t k = RouteModelCount(config);
      if (k > 1) {
        // The last key bounds P(x) on the right (the sample may stop short
        // of it).
        xs.push_back(static_cast<double>(keys.back()));
        ys.push_back(static_cast<double>(n - 1));
        TrainRouteStage(xs, ys, k);
      }
    }

    // ---- Route every key to its leaf (Algorithm 1, lines 8-10) ----
    // Leaf sizes first, each worker counting one contiguous chunk of whole
    // 64-key blocks (the last chunk takes the tail). When routing is
    // monotone in the key (a linear top, and the routing stage's
    // continuous chords, up to rounding) each leaf's keys are one
    // contiguous run of positions and need no grouping; otherwise a second
    // pass groups key positions by leaf.
    const simd::Kernels& kern = simd::GetKernels();
    const size_t blocks = (n + kBlock - 1) / kBlock;
    const size_t t = std::clamp<size_t>(workers, 1, blocks);
    auto chunk_begin = [&](size_t c) {
      return std::min(n, c * blocks / t * kBlock);
    };
    auto chunk = [&](size_t c) {
      return keys.subspan(chunk_begin(c), chunk_begin(c + 1) - chunk_begin(c));
    };
    struct ChunkRoute {
      uint32_t first = 0, last = 0;  // leaves of its first and last key
      bool monotone = true;
    };
    std::vector<ChunkRoute> chunks(t);
    // Chunk c's per-leaf key counts at [c * m, (c + 1) * m).
    std::vector<uint32_t> counts(t * m, 0);
    RunOnWorkers(t, [&](size_t c) {
      uint32_t* count = counts.data() + c * m;
      ChunkRoute r;  // local: the chunks share a cache line
      ForEachRoutedBlock(kern, chunk(c),
                         [&](size_t base, const uint32_t* leaf, size_t b) {
        if (base == 0) r.first = r.last = leaf[0];
        ForEachRun(leaf, b, [&](size_t k, size_t e, uint32_t j) {
          count[j] += static_cast<uint32_t>(e - k);
          r.monotone &= j >= r.last;
          r.last = j;
        });
      });
      chunks[c] = r;
    });
    bool monotone = true;
    for (size_t c = 0; c < t; ++c) {
      monotone &= chunks[c].monotone &&
                  (c + 1 == t || chunks[c].last <= chunks[c + 1].first);
    }
    // offsets sums the counts in leaf order, and each count becomes its
    // chunk's first slot for that leaf, after the earlier chunks' keys.
    std::vector<uint32_t> offsets(m + 1, 0);
    for (size_t j = 0; j < m; ++j) {
      uint32_t end = offsets[j];
      for (size_t c = 0; c < t; ++c) {
        const uint32_t count = counts[c * m + j];
        counts[c * m + j] = end;
        end += count;
      }
      offsets[j + 1] = end;
    }
    std::vector<uint32_t> routed;  // key positions grouped by leaf
    if (!monotone) {
      routed.resize(n);
      RunOnWorkers(t, [&](size_t c) {
        uint32_t* cursor = counts.data() + c * m;
        const size_t begin = chunk_begin(c);
        ForEachRoutedBlock(kern, chunk(c), [&](size_t base,
                                               const uint32_t* leaf,
                                               size_t b) {
          for (size_t k = 0; k < b; ++k) {
            routed[cursor[leaf[k]]++] = static_cast<uint32_t>(begin + base + k);
          }
        });
      });
    }

    // ---- Stage 2: fit each leaf + error bounds (Alg. 1 lines 11-12) ----
    // Each worker fits a contiguous leaf range holding about n/t keys.
    std::vector<size_t> first_leaf(t + 1, m);
    for (size_t w = 0; w < t; ++w) {
      first_leaf[w] = static_cast<size_t>(
          std::lower_bound(offsets.begin(), offsets.end(), w * n / t) -
          offsets.begin());
    }
    RunOnWorkers(t, [&](size_t w) {
      FitLeaves(kern, offsets, routed, first_leaf[w], first_leaf[w + 1]);
    });
    return Status::OK();
  }

  /// Threads a build of n keys uses: one per 2^18 keys, at most one per
  /// hardware thread, so small builds (tests, shards, LIF candidates) stay
  /// on the caller.
  static size_t BuildWorkers(size_t n) {
    const size_t cores = std::max(1u, std::thread::hardware_concurrency());
    return std::clamp<size_t>(n >> 18, 1, cores);
  }

  /// The pure model-execution path (what Figure 4's "Model (ns)" column
  /// times): one model evaluation per stage, no search.
  struct Prediction {
    size_t pos = 0;        // clamped position estimate
    index::Approx window;  // its error-band search window
    uint32_t leaf = 0;
    float std_err = 0.0f;
  };

  Prediction Predict(const key_type& key) const {
    if (data_.empty()) return Prediction{};
    const double x = static_cast<double>(key);
    return PredictAtLeaf(RouteToLeaf(x), x);
  }

  /// The contract's model-only entry point: prediction plus worst-case
  /// window, as an index::Approx.
  index::Approx ApproxPos(const key_type& key) const {
    return Predict(key).window;
  }

  /// Full lookup: model + bounded search + boundary fix-up. Returns
  /// lower_bound semantics over the data array for *any* key.
  size_t Lookup(const key_type& key) const {
    if (data_.empty()) return 0;
    const Prediction p = Predict(key);
    return search::FindInWindow(config_.strategy, data_.data(), data_.size(),
                                key, p.window,
                                static_cast<size_t>(p.std_err) + 1);
  }

  /// Historical name; identical to Lookup.
  size_t LowerBound(const key_type& key) const { return Lookup(key); }

  /// Batched lookup: software-pipelines the three phases (route, predict,
  /// search) over a block of keys so the leaf-table and data-array cache
  /// misses of neighboring keys overlap instead of serializing — the
  /// hot-path amortization the single-key path cannot do. When a vector
  /// dispatch level is active (and the top model is linear), the phases
  /// run as SIMD kernels over 64-key blocks;
  /// at scalar level this is the pipelined per-key loop below — which is
  /// also the baseline the per-level benchmarks compare against.
  void LookupBatch(std::span<const uint64_t> keys,
                   std::span<size_t> out) const {
    const size_t n = std::min(keys.size(), out.size());
    if (data_.empty()) {
      for (size_t i = 0; i < n; ++i) out[i] = 0;
      return;
    }
    if constexpr (kTopIsLinear) {
      if (simd::ActiveLevel() != simd::Level::kScalar) {
        LookupBatchSimd(simd::GetKernels(), keys, out, n);
        return;
      }
    }
    constexpr size_t kDepth = 16;  // keys in flight per pipeline pass
    double xs[kDepth];
    uint32_t leaf[kDepth];
    Prediction preds[kDepth];
    for (size_t base = 0; base < n; base += kDepth) {
      const size_t b = std::min(kDepth, n - base);
      // Phase 1: top-model routing; prefetch each leaf entry.
      for (size_t k = 0; k < b; ++k) {
        xs[k] = static_cast<double>(keys[base + k]);
        leaf[k] = RouteToLeaf(xs[k]);
        PrefetchRead(&leaves_[leaf[k]]);
      }
      // Phase 2: leaf predictions; prefetch the predicted data positions.
      for (size_t k = 0; k < b; ++k) {
        preds[k] = PredictAtLeaf(leaf[k], xs[k]);
        PrefetchRead(&data_[preds[k].pos]);
      }
      // Phase 3: bounded search per key.
      for (size_t k = 0; k < b; ++k) {
        out[base + k] = search::FindInWindow(
            config_.strategy, data_.data(), data_.size(), keys[base + k],
            preds[k].window, static_cast<size_t>(preds[k].std_err) + 1);
      }
    }
  }

  /// Batched model execution only: pos[i] = the clamped position estimate
  /// for keys[i] (no search). This is LearnedHash's batch primitive — it
  /// always runs through the kernel table (the scalar table at scalar
  /// level), which is spec-identical to the single-key Predict path, so
  /// slots computed here match slots computed at Build-insert time.
  void PredictPosBatch(std::span<const uint64_t> keys,
                       std::span<uint64_t> pos) const {
    const size_t n = std::min(keys.size(), pos.size());
    if (data_.empty()) {
      for (size_t i = 0; i < n; ++i) pos[i] = 0;
      return;
    }
    if constexpr (kTopIsLinear) {
      const simd::Kernels& kern = simd::GetKernels();
      alignas(64) double xs[kBlock];
      alignas(64) uint32_t leaf[kBlock];
      for (size_t base = 0; base < n; base += kBlock) {
        const size_t b = std::min(kBlock, n - base);
        kern.u64_to_f64(keys.data() + base, b, xs);
        RouteBlock(kern, xs, b, leaf);
        PredictLeafRuns(kern, xs, leaf, b, pos.data() + base);
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        pos[i] = static_cast<uint64_t>(Predict(keys[i]).pos);
      }
    }
  }

  /// True iff `key` is present in the data.
  bool Contains(const key_type& key) const {
    const size_t pos = Lookup(key);
    return pos < data_.size() && data_[pos] == key;
  }

  /// Index overhead in bytes (top model + routing stage + leaf table),
  /// excluding the data array — the paper's Figure-4 size accounting.
  size_t SizeBytes() const {
    return RoutingBytes() + leaves_.size() * sizeof(Leaf);
  }

  /// Bytes of the stages above the leaves: the top model plus the routing
  /// models (none when K = 1).
  size_t RoutingBytes() const {
    return top_.SizeBytes() + route_.size() * sizeof(models::LinearModel);
  }

  const TopModel& top() const { return top_; }
  /// The routing models; empty when K = 1 (the top routes to the leaves).
  std::span<const models::LinearModel> route() const { return route_.span(); }
  /// K, the routing-stage model count (1 = the two-stage RMI).
  size_t num_route_models() const { return std::max<size_t>(1, route_.size()); }
  std::span<const Leaf> leaves() const { return leaves_.span(); }
  std::span<const uint64_t> data() const { return data_; }
  const RmiConfig& config() const { return config_; }
  /// True when the leaf table is a zero-copy view into an open snapshot.
  bool FromSnapshot() const { return leaves_.mapped(); }

  // ---- Persistence (index::Snapshottable; docs/PERSISTENCE.md) ----
  //
  // Only linear tops snapshot: that is the flat-layout serving
  // configuration; NN and multivariate tops return Unimplemented.
  // Sections under `prefix`:
  //   meta    routing/search scalars + the top model's coefficients
  //   route   the K routing models verbatim (omitted when K = 1, so a
  //           file without it opens as the two-stage RMI)
  //   leaves  the Leaf table verbatim (models + error bands + sweeps)
  //   keys    the sorted key array (omitted when the parent owns it)

  /// Stable type tag used by type-erased snapshots (LIF winners) to pick
  /// the OpenSnapshot instantiation; empty when not snapshottable.
  static constexpr const char* SnapshotKindName() {
    return kTopIsLinear ? "rmi.linear.u64" : "";
  }

  Status WriteSections(snapshot::SnapshotWriter& writer,
                       const std::string& prefix,
                       bool include_keys = true) const {
    if constexpr (!kTopIsLinear) {
      return Status::Unimplemented("RmiIndex snapshots require a linear top");
    } else {
      SnapshotMeta meta;
      meta.key_kind = kKeyKindU64;
      meta.top_kind = 1;
      meta.num_leaf_models = config_.num_leaf_models;
      meta.top_train_sample = kTopTrainSample;
      meta.strategy = static_cast<uint32_t>(config_.strategy);
      meta.has_keys = include_keys ? 1u : 0u;
      meta.data_size = data_.size();
      meta.route_factor = route_factor_;
      meta.top_slope = top_.slope();
      meta.top_intercept = top_.intercept();
      LI_RETURN_IF_ERROR(writer.AddPod(prefix + "meta", meta));
      if (!route_.empty()) {
        LI_RETURN_IF_ERROR(writer.AddArray(prefix + "route", route_.span(),
                                           snapshot::SectionKind::kRoute));
      }
      LI_RETURN_IF_ERROR(writer.AddArray(prefix + "leaves", leaves_.span(),
                                         snapshot::SectionKind::kLeaves));
      if (include_keys) {
        LI_RETURN_IF_ERROR(writer.AddArray(prefix + "keys", data_,
                                           snapshot::SectionKind::kKeys));
      }
      return Status::OK();
    }
  }

  /// Loads from self-contained sections (written with include_keys=true);
  /// a meta without a key section is refused. All structural fields are
  /// validated so a corrupt table yields a Status, not UB.
  Status LoadSections(const snapshot::SnapshotReader& reader,
                      const std::string& prefix) {
    return LoadSectionsImpl(reader, prefix, KeySource::kOwnSection, {});
  }

  /// Load with the key array supplied by the caller (a parent index that
  /// persisted the keys once for several components).
  Status LoadSections(const snapshot::SnapshotReader& reader,
                      const std::string& prefix,
                      std::span<const uint64_t> external_keys) {
    return LoadSectionsImpl(reader, prefix, KeySource::kExternal,
                            external_keys);
  }

  /// Model-only load (LearnedHash's CDF model, written with
  /// include_keys=false): data() gets the right size() but no
  /// dereferenceable keys, so only Predict / ApproxPos / PredictPosBatch
  /// may be called on the result.
  Status LoadModelSections(const snapshot::SnapshotReader& reader,
                           const std::string& prefix) {
    return LoadSectionsImpl(reader, prefix, KeySource::kNone, {});
  }

  Status WriteSnapshot(const std::string& path) const {
    return index::WriteSnapshotViaSections(*this, path);
  }

  static Result<RmiIndex> OpenSnapshot(
      const std::string& path, const snapshot::OpenOptions& opts = {}) {
    return index::OpenSnapshotViaSections<RmiIndex>(path, opts);
  }

  /// Worst |error| across leaves — the hybrid-threshold diagnostic.
  int64_t MaxAbsError() const {
    int64_t worst = 0;
    for (const Leaf& l : leaves_) {
      worst = std::max<int64_t>(worst, -int64_t{l.min_err});
      worst = std::max<int64_t>(worst, int64_t{l.max_err});
    }
    return worst;
  }

  /// Mean of per-leaf max absolute error, weighted uniformly.
  double MeanStdError() const {
    if (leaves_.empty()) return 0.0;
    double s = 0.0;
    for (const Leaf& l : leaves_) s += l.std_err;
    return s / static_cast<double>(leaves_.size());
  }

 private:
  /// Fixed 64-byte snapshot metadata record (format.h SectionKind::kMeta).
  struct SnapshotMeta {
    uint32_t key_kind = 0;        // kKeyKindU64; nothing else opens
    uint32_t top_kind = 0;        // 1 = models::LinearModel
    uint64_t num_leaf_models = 0;
    uint64_t top_train_sample = 0;  // retired: kTopTrainSample, unread
    uint32_t strategy = 0;        // search::Strategy
    uint32_t has_keys = 0;        // keys section present
    uint64_t data_size = 0;       // key count the model was trained over
    double route_factor = 0.0;
    double top_slope = 0.0;
    double top_intercept = 0.0;
  };
  static_assert(sizeof(SnapshotMeta) == 64 &&
                std::is_trivially_copyable_v<SnapshotMeta>);

  /// The meta's key_kind word for uint64_t keys. Any other value (2
  /// marked double keys) is refused at load.
  static constexpr uint32_t kKeyKindU64 = 1;

  /// Where a load takes its key array from.
  enum class KeySource { kOwnSection, kExternal, kNone };

  Status LoadSectionsImpl(const snapshot::SnapshotReader& reader,
                          const std::string& prefix, KeySource source,
                          std::span<const uint64_t> external_keys) {
    if constexpr (!kTopIsLinear) {
      (void)reader;
      (void)prefix;
      (void)source;
      (void)external_keys;
      return Status::Unimplemented("RmiIndex snapshots require a linear top");
    } else {
      SnapshotMeta meta;
      LI_RETURN_IF_ERROR(reader.GetPod(prefix + "meta", &meta));
      if (meta.key_kind != kKeyKindU64 || meta.top_kind != 1) {
        return Status::InvalidArgument(
            "RmiIndex snapshot was written for a different key/top type");
      }
      if (meta.num_leaf_models == 0 ||
          meta.strategy > static_cast<uint32_t>(
                              search::Strategy::kInterpolation)) {
        return Status::InvalidArgument("RmiIndex snapshot meta is corrupt");
      }
      auto leaves = reader.GetArray<Leaf>(prefix + "leaves");
      if (!leaves.ok()) return leaves.status();
      if (leaves.value().size() != meta.num_leaf_models) {
        return Status::InvalidArgument(
            "RmiIndex snapshot leaf table size disagrees with meta");
      }
      if (source == KeySource::kExternal) {
        if (external_keys.size() != meta.data_size) {
          return Status::InvalidArgument(
              "RmiIndex snapshot external key array has the wrong size");
        }
        data_ = external_keys;
      } else if (source == KeySource::kOwnSection) {
        // A standalone load serves Lookup out of data_, so it must have
        // the keys: a cleared has_keys word would otherwise lay the key
        // span over some other section.
        if (meta.has_keys == 0) {
          return Status::InvalidArgument(
              "RmiIndex snapshot has no key section (model-only file)");
        }
        auto keys = reader.GetArray<uint64_t>(prefix + "keys");
        if (!keys.ok()) return keys.status();
        if (keys.value().size() != meta.data_size) {
          return Status::InvalidArgument(
              "RmiIndex snapshot key section size disagrees with meta");
        }
        data_ = keys.value();  // zero-copy: served out of the mapping
      } else {
        // Model-only load: reconstruct a span with the right *size* but
        // no dereferenceable keys — mirroring the documented
        // dangling-span semantics in hash_fn.h, where only size()/empty()
        // are ever used on this span.
        data_ = std::span<const uint64_t>(
            reinterpret_cast<const uint64_t*>(leaves.value().data()),
            meta.data_size);
      }
      // The routing stage is optional: a file without it (K = 1, or
      // written before the stage existed) routes through the top alone.
      route_.clear();
      segment_factor_ = 0.0;
      if (reader.Find(prefix + "route") != nullptr) {
        auto route = reader.GetArray<models::LinearModel>(prefix + "route");
        if (!route.ok()) return route.status();
        const size_t k = route.value().size();
        if (k == 0 || k > meta.num_leaf_models) {
          return Status::InvalidArgument(
              "RmiIndex snapshot routing stage size is out of range");
        }
        route_ = snapshot::FlatVec<models::LinearModel>::View(
            route.value(), reader.keepalive());
        segment_factor_ = SegmentFactor(k, meta.data_size);
      }
      config_.num_leaf_models = meta.num_leaf_models;
      config_.num_route_models = num_route_models();
      config_.strategy = static_cast<search::Strategy>(meta.strategy);
      top_ = models::LinearModel(meta.top_slope, meta.top_intercept);
      route_factor_ = meta.route_factor;
      leaves_ = snapshot::FlatVec<Leaf>::View(leaves.value(),
                                              reader.keepalive());
      snapshot_keepalive_ = reader.keepalive();
      return Status::OK();
    }
  }

  /// K for a build: the configured count, or the M/64 rule, capped at M.
  static size_t RouteModelCount(const RmiConfig& config) {
    const size_t k =
        config.num_route_models != 0
            ? config.num_route_models
            : std::clamp<size_t>(config.num_leaf_models / 64, 1, 4096);
    return std::min(k, config.num_leaf_models);
  }

  /// K/N: the top predicts a position in [0, N), the segment is its
  /// K-quantile.
  static double SegmentFactor(size_t k, size_t n) {
    return static_cast<double>(k) / static_cast<double>(n);
  }

  /// Fits the K routing models to the sample CDF: P(x) is the piecewise-
  /// linear interpolation of the (key, position) sample, and segment s's
  /// model is P's chord over the key range the top sends to s. Adjacent
  /// chords meet at the shared boundary, so routing stays monotone across
  /// segments (up to rounding) — a least-squares fit per segment would
  /// overshoot its neighbours and deal one leaf keys from both sides.
  /// `xs` is sorted; a top that is not increasing leaves K = 1.
  void TrainRouteStage(std::span<const double> xs, std::span<const double> ys,
                       size_t k) {
    if (!(top_.slope() > 0.0) || xs.size() < 2) return;
    route_.assign(k, models::LinearModel());
    segment_factor_ = SegmentFactor(k, data_.size());
    const double x_first = xs.front(), x_last = xs.back();
    // First key the top sends to segment s, clamped into the sample range.
    auto boundary = [&](size_t s) {
      if (s == 0) return x_first;
      if (s == k) return x_last;
      const double x = (static_cast<double>(s) / segment_factor_ -
                        top_.intercept()) / top_.slope();
      return std::clamp(x, x_first, x_last);
    };
    // P(x); knots are visited in increasing x, so one cursor serves all.
    size_t i = 0;
    auto cdf = [&](double x) {
      while (i + 1 < xs.size() && xs[i + 1] <= x) ++i;
      if (i + 1 == xs.size() || xs[i + 1] == xs[i]) return ys[i];
      return ys[i] + (ys[i + 1] - ys[i]) * (x - xs[i]) / (xs[i + 1] - xs[i]);
    };
    double lo = boundary(0), p_lo = cdf(lo);
    for (size_t s = 0; s < k; ++s) {
      const double hi = boundary(s + 1), p_hi = cdf(hi);
      const double slope = hi > lo ? (p_hi - p_lo) / (hi - lo) : 0.0;
      route_[s] = models::LinearModel(slope, p_lo - slope * lo);
      lo = hi;
      p_lo = p_hi;
    }
  }

  /// The routing model's segment: the top's prediction as a K-quantile.
  uint32_t SegmentOf(double x) const {
    return simd::ScalarRoute1(x, top_.slope(), top_.intercept(),
                              segment_factor_,
                              static_cast<uint32_t>(route_.size() - 1));
  }

  /// Fits leaves [first, last) and their error bands over the keys each
  /// was routed (positions offsets[j]..offsets[j + 1] of `routed`, or of
  /// the key array itself when `routed` is empty), one fit_leaf call per
  /// leaf. The kernel's band is taken against the shared predict spec, so
  /// it covers every dispatch level.
  void FitLeaves(const simd::Kernels& kern, std::span<const uint32_t> offsets,
                 std::span<const uint32_t> routed, size_t first,
                 size_t last) {
    const uint64_t max_pos = data_.size() - 1;
    std::vector<uint64_t> run;  // a grouped leaf's keys, gathered
    for (size_t j = first; j < last; ++j) {
      Leaf& leaf = leaves_[j];
      leaf = Leaf{};
      const uint32_t begin = offsets[j], end = offsets[j + 1];
      if (begin == end) {
        // Empty leaf: constant model at the position of the last key
        // routed to an earlier leaf, so absent keys routed here land near
        // the right region.
        const uint32_t fill =
            begin == 0 ? 0 : (routed.empty() ? begin - 1 : routed[begin - 1]);
        leaf.model = models::LinearModel(0.0, static_cast<double>(fill));
        continue;
      }
      simd::LeafFit fit;
      if (routed.empty()) {
        kern.fit_leaf(data_.data() + begin, nullptr, end - begin, begin,
                      max_pos, &fit);
      } else {
        run.resize(end - begin);
        for (uint32_t r = begin; r < end; ++r) {
          run[r - begin] = data_[routed[r]];
        }
        kern.fit_leaf(run.data(), routed.data() + begin, end - begin, 0,
                      max_pos, &fit);
      }
      leaf.model = models::LinearModel(fit.slope, fit.intercept);
      leaf.min_err = fit.min_err;
      leaf.max_err = fit.max_err;
      leaf.std_err = fit.std_err;
      // The sweep bounds in 64 bits: a saturated band's max_err + 1 does
      // not fit an int32.
      const int64_t band_lo = leaf.min_err;
      const int64_t band_hi = int64_t{leaf.max_err} + 1;
      const int64_t two_sigma = 2 * static_cast<int64_t>(leaf.std_err);
      int64_t sweep_lo = band_lo, sweep_hi = band_hi;  // wide leaf: full band
      if (two_sigma <= static_cast<int64_t>(kMaxSweepHalf)) {
        // 3σ band (capped): one extra sweep iteration per key is cheaper
        // than the ~5% full-window pin retries a 2σ band incurs.
        const int64_t three_sigma = 3 * static_cast<int64_t>(leaf.std_err);
        const int64_t h = std::clamp<int64_t>(three_sigma, kMinSweepHalf,
                                              kMaxSweepHalf);
        sweep_lo = std::max(band_lo, -h);
        // A heavily biased leaf (error band entirely to one side) can
        // produce an inverted band; keep it minimally non-empty — the pin
        // fix-up recovers exactness either way.
        sweep_hi = std::max(std::min(band_hi, h + 1), sweep_lo + 1);
      }
      leaf.sweep_lo = static_cast<int32_t>(sweep_lo);
      leaf.sweep_hi =
          static_cast<int32_t>(std::min<int64_t>(sweep_hi, INT32_MAX));
    }
  }

  /// Runs f(0) .. f(t - 1) at once: f(0) on the caller, the others on
  /// their own threads, or on the caller when a thread cannot start.
  /// Rethrows the lowest worker's exception after all have finished.
  template <typename F>
  static void RunOnWorkers(size_t t, F&& f) {
    std::vector<std::exception_ptr> thrown(t);
    auto run = [&](size_t w) {
      try {
        f(w);
      } catch (...) {
        thrown[w] = std::current_exception();
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(t);
    for (size_t w = 1; w < t; ++w) {
      try {
        threads.emplace_back(run, w);
      } catch (const std::system_error&) {
        run(w);
      }
    }
    run(0);
    for (std::thread& th : threads) th.join();
    for (const std::exception_ptr& e : thrown) {
      if (e) std::rethrow_exception(e);
    }
  }

  /// Routes every key in order, calling f(base, leaf, b) per block with
  /// leaf[k] the leaf of keys[base + k]; through the block route kernels
  /// when the top is linear.
  template <typename F>
  void ForEachRoutedBlock([[maybe_unused]] const simd::Kernels& kern,
                          std::span<const uint64_t> keys, F&& f) const {
    alignas(64) uint32_t leaf[kBlock];
    for (size_t base = 0; base < keys.size(); base += kBlock) {
      const size_t b = std::min(kBlock, keys.size() - base);
      if constexpr (kTopIsLinear) {
        alignas(64) double xs[kBlock];
        kern.u64_to_f64(keys.data() + base, b, xs);
        RouteBlock(kern, xs, b, leaf);
      } else {
        for (size_t k = 0; k < b; ++k) {
          leaf[k] = RouteToLeaf(static_cast<double>(keys[base + k]));
        }
      }
      f(base, static_cast<const uint32_t*>(leaf), b);
    }
  }

  uint32_t RouteToLeaf(double x) const {
    const uint32_t max_leaf = static_cast<uint32_t>(leaves_.size() - 1);
    if constexpr (kTopIsLinear) {
      // The shared kernel spec — what the vector route kernel computes.
      const models::LinearModel& r =
          route_.empty() ? top_ : route_[SegmentOf(x)];
      return simd::ScalarRoute1(x, r.slope(), r.intercept(), route_factor_,
                                max_leaf);
    } else {
      const double scaled = top_.Predict(x) * route_factor_;
      if (!(scaled > 0.0)) return 0;  // also catches NaN
      const double cap = static_cast<double>(max_leaf);
      return static_cast<uint32_t>(scaled < cap ? scaled : cap);
    }
  }

  /// Clamped integer position via the kernel spec (simd::ClampPos).
  size_t PredictPos1(const models::LinearModel& m, double x) const {
    return static_cast<size_t>(simd::ScalarPredict1(
        x, m.slope(), m.intercept(), data_.size() - 1));
  }

  Prediction PredictAtLeaf(uint32_t j, double x) const {
    const Leaf& leaf = leaves_[j];
    const size_t pos = PredictPos1(leaf.model, x);
    return Prediction{pos,
                      index::Approx::FromErrorBand(pos, leaf.min_err,
                                                   leaf.max_err, data_.size()),
                      j, leaf.std_err};
  }

  /// Calls f(begin, end, id) for every maximal run of equal ids[] in
  /// [0, b).
  template <typename F>
  static void ForEachRun(const uint32_t* ids, size_t b, F&& f) {
    for (size_t k = 0; k < b;) {
      size_t e = k + 1;
      while (e < b && ids[e] == ids[k]) ++e;
      f(k, e, ids[k]);
      k = e;
    }
  }

  /// Block routing through the kernel table: the top's route kernel to
  /// segments, then each run of keys sharing a segment through the same
  /// kernel with that routing model's coefficients. Keys routed alike sit
  /// in runs (routing is monotone within a segment, and real batches are
  /// often sorted or locally clustered), so this needs no gather. Short
  /// runs (< half a vector) go through the scalar spec directly — same
  /// results, no setup cost.
  void RouteBlock(const simd::Kernels& kern, const double* xs, size_t b,
                  uint32_t* leaf) const {
    const uint32_t max_leaf = static_cast<uint32_t>(leaves_.size() - 1);
    if (route_.empty()) {
      kern.route(xs, b, top_.slope(), top_.intercept(), route_factor_,
                 max_leaf, leaf);
      return;
    }
    alignas(64) uint32_t seg[kBlock];
    kern.route(xs, b, top_.slope(), top_.intercept(), segment_factor_,
               static_cast<uint32_t>(route_.size() - 1), seg);
    ForEachRun(seg, b, [&](size_t k, size_t e, uint32_t s) {
      const models::LinearModel& r = route_[s];
      if (e - k >= 4) {
        kern.route(xs + k, e - k, r.slope(), r.intercept(), route_factor_,
                   max_leaf, leaf + k);
      } else {
        for (size_t t = k; t < e; ++t) {
          leaf[t] = simd::ScalarRoute1(xs[t], r.slope(), r.intercept(),
                                       route_factor_, max_leaf);
        }
      }
    });
  }

  /// Gather-free leaf predict: the same run grouping by leaf, one
  /// broadcast-coefficient kernel call per run instead of gathering
  /// per-lane slopes.
  void PredictLeafRuns(const simd::Kernels& kern, const double* xs,
                       const uint32_t* leaf, size_t b, uint64_t* pos) const {
    const uint64_t max_pos = data_.size() - 1;
    ForEachRun(leaf, b, [&](size_t k, size_t e, uint32_t j) {
      const models::LinearModel& m = leaves_[j].model;
      if (e - k >= 4) {
        kern.predict_run(xs + k, e - k, m.slope(), m.intercept(), max_pos,
                         pos + k);
      } else {
        for (size_t t = k; t < e; ++t) {
          pos[t] = simd::ScalarPredict1(xs[t], m.slope(), m.intercept(),
                                        max_pos);
        }
      }
    });
  }

  /// σ-scaled half-width bounds for the batched last mile. The sweep
  /// sub-window is `pos ± clamp(3σ, kMinSweepHalf, kMaxSweepHalf)`
  /// intersected with the worst-case window, so one branchless
  /// compare-and-accumulate pass (no internal bisection) covers the
  /// typical-error mass while outliers escape through the pin-to-edge
  /// fix-up.
  static constexpr size_t kMinSweepHalf = 8;
  static constexpr size_t kMaxSweepHalf = 31;
  /// Keys per kernel block on the vectorized paths.
  static constexpr size_t kBlock = 64;

  /// The vectorized batch pipeline: 64-key blocks through the kernel
  /// table — feature conversion, top routing (+ leaf prefetch),
  /// run-grouped leaf predict, then the last mile as a single branchless
  /// sweep of a σ-scaled sub-window around each prediction. Sub-window
  /// cache lines for the whole block are prefetched before any sweep
  /// runs, so the misses a per-key binary search would serialize overlap
  /// across keys instead. Any choice of sub-window is lossless: a result
  /// strictly inside it is the exact global lower bound, and a result
  /// pinned to either edge escapes through ExponentialSearch exactly like
  /// the scalar path's §3.4 fix-up — so results stay bit-identical across
  /// dispatch levels.
  void LookupBatchSimd(const simd::Kernels& kern,
                       std::span<const uint64_t> keys, std::span<size_t> out,
                       size_t n) const {
    alignas(64) double xs[kBlock];
    alignas(64) uint32_t leaf[kBlock];
    alignas(64) uint64_t pos[kBlock];
    size_t lo[kBlock], hi[kBlock];  // σ-scaled sweep sub-windows
    const uint64_t* data = data_.data();
    const size_t size = data_.size();
    for (size_t base = 0; base < n; base += kBlock) {
      const size_t b = std::min(kBlock, n - base);
      kern.u64_to_f64(keys.data() + base, b, xs);
      RouteBlock(kern, xs, b, leaf);
      for (size_t k = 0; k < b; ++k) PrefetchRead(&leaves_[leaf[k]]);
      PredictLeafRuns(kern, xs, leaf, b, pos);
      const int64_t isize = static_cast<int64_t>(size);
      for (size_t k = 0; k < b; ++k) {
        const Leaf& lf = leaves_[leaf[k]];
        // Apply the Build-precomputed σ sub-window offsets (see Leaf):
        // two adds and two clamps per key, all cmovs — σ varies per leaf,
        // so anything branchy here would mispredict constantly. Outliers
        // pin to a sub-window edge and escape through the staged fix-up
        // below.
        const int64_t p = static_cast<int64_t>(pos[k]);
        const int64_t sl = std::clamp<int64_t>(p + lf.sweep_lo, 0, isize);
        const int64_t sh = std::clamp<int64_t>(p + lf.sweep_hi, sl, isize);
        lo[k] = static_cast<size_t>(sl);
        hi[k] = static_cast<size_t>(sh);
        // Prefetch ends + midpoint: the sweep's span for tight keys, the
        // first bisection probe for wide ones. A prefetch of the empty
        // window's degenerate address is harmless (prefetch never faults).
        PrefetchRead(&data[lo[k]]);
        PrefetchRead(&data[lo[k] + (hi[k] - lo[k]) / 2]);
        PrefetchRead(&data[hi[k] - (hi[k] != 0 ? 1 : 0)]);
      }
      size_t res[kBlock];
      kern.lower_bound_u64_multi(data, lo, hi, keys.data() + base, b, res);
      for (size_t k = 0; k < b; ++k) {
        size_t r = res[k];
        if (LI_UNLIKELY((r == lo[k] && lo[k] > 0) ||
                        (r == hi[k] && hi[k] < size))) {
          // Staged escape: a pin at a σ-sub-window edge first retries the
          // full worst-case window; only a pin at the *window* edge takes
          // the global §3.4 exponential fix-up.
          const key_type& key = keys[base + k];
          const Leaf& lf = leaves_[leaf[k]];
          const index::Approx w = index::Approx::FromErrorBand(
              static_cast<size_t>(pos[k]), lf.min_err, lf.max_err, size);
          if (lo[k] != w.lo || hi[k] != w.hi) {
            r = kern.lower_bound_u64(data, w.lo, w.hi, key);
          }
          if ((r == w.lo && w.lo > 0) || (r == w.hi && w.hi < size)) {
            r = search::ExponentialSearch(data, size, key, r);
          }
        }
        out[base + k] = r;
      }
    }
  }

  std::span<const uint64_t> data_;
  RmiConfig config_;
  TopModel top_;
  /// Owned when built, a zero-copy mapped view when opened from a
  /// snapshot; the read path is identical either way.
  snapshot::FlatVec<Leaf> leaves_;
  /// The routing stage (K models predicting positions); empty when K = 1.
  /// Owned or mapped, like leaves_.
  snapshot::FlatVec<models::LinearModel> route_;
  double route_factor_ = 0.0;    // M/N: routing model output -> leaf
  double segment_factor_ = 0.0;  // K/N: top output -> routing model
  /// Pins the mmap that data_ (and leaves_) may point into.
  std::shared_ptr<const void> snapshot_keepalive_;
};

/// The paper's evaluated configuration: integer keys (Figure 4/5).
template <typename TopModel>
using Rmi = RmiIndex<TopModel>;

/// The Figure-4 configuration: NN or linear top with linear leaves.
using LinearRmi = Rmi<models::LinearModel>;
using MultivariateRmi = Rmi<models::MultivariateModel>;
using NeuralRmi = Rmi<models::NeuralNet>;

}  // namespace li::rmi

#endif  // LI_RMI_RMI_H_
