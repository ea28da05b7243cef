// The Learning Index Framework (LIF, §3.1): "an index synthesis system;
// given an index specification, LIF generates different index
// configurations, optimizes them, and tests them automatically."
//
// The synthesizer covers five index classes, each behind its
// library-wide contract:
//
//  * SynthesizedIndex          (range, §3)    — grid-searches top-model
//    families (linear, multivariate with auto feature selection, NNs with
//    0-2 hidden layers and widths 4..32, the §3.7.1 space) crossed with
//    second-stage model counts; erases the fastest into AnyRangeIndex.
//  * SynthesizedPointIndex     (point, §4)    — grid-searches
//    {random, learned-CDF} hash x slot-count sweep x map family
//    (separate-chaining, in-place chained, bucketized cuckoo); erases the
//    fastest into AnyPointIndex.
//  * SynthesizedExistenceIndex (existence, §5) — searches classifier
//    capacity x construction (plain Bloom, classifier + overflow,
//    model-hash sandwich) x bitmap sizes at a fixed target FPR; erases
//    the smallest qualifying filter into AnyExistenceIndex.
//  * SynthesizedRangeFilter    (range filter, §5 lifted to ranges) —
//    searches the src/rangefilter/ constructions x bitmap budgets x
//    segment sizes at a fixed target range-FPR; erases the smallest
//    qualifying filter into AnyRangeFilter.
//  * SynthesizedWritableIndex  (writable, App. D.1) — grid-searches
//    delta-wrapped bases (RMI, read-only B-Tree) under a mixed
//    insert/lookup stream; erases the fastest into AnyWritableRangeIndex.
//
// Each class is a grid plus an objective. Every grid point is built,
// measured on a sampled workload with the measure.h harness and offered
// to one shared sweep, which reports it as a CandidateReport (so benches
// can print the full sweep, not just the winner), applies the size budget
// and the class gate, and keeps the winner.

#ifndef LI_LIF_SYNTHESIZER_H_
#define LI_LIF_SYNTHESIZER_H_

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "dynamic/merge_policy.h"
#include "snapshot/snapshot.h"
#include "index/any_range_index.h"
#include "index/existence_index.h"
#include "index/point_index.h"
#include "index/range_filter.h"
#include "index/writable_range_index.h"
#include "rmi/rmi.h"

namespace li::lif {

struct SynthesisSpec {
  std::vector<size_t> stage2_sizes = {10'000, 50'000, 100'000, 200'000};
  bool try_linear_top = true;
  bool try_multivariate_top = true;
  std::vector<std::vector<int>> nn_hidden = {{8}, {16}, {16, 16}};
  int nn_epochs = 20;
  search::Strategy strategy = search::Strategy::kBiasedBinary;
  size_t size_budget_bytes = std::numeric_limits<size_t>::max();
  size_t eval_queries = 20'000;  // lookups timed per candidate
  uint64_t seed = 99;
};

/// One evaluated candidate (every grid point is reported so benches can
/// print the full sweep, not just the winner). Shared by all five
/// synthesis classes; fields that don't apply to a class stay at their
/// defaults.
struct CandidateReport {
  std::string description;
  size_t stage2 = 0;          // range: leaf models; point: primary slots
  size_t size_bytes = 0;
  double lookup_ns = 0.0;
  double model_ns = 0.0;      // model/hash/classifier execution only
  int64_t max_abs_err = 0;    // range: |err| bound; point: overflow entries
  double fpr = 0.0;           // filters: measured FPR on the eval set
  double valid_fpr = 0.0;     // filters: FPR on the validation split
                              // (the qualification gate)
  double mixed_ns = 0.0;      // writable: ns/op over the read/write stream
                              // (the qualification metric for that class)
  bool within_budget = true;
};

/// The synthesized range index: whichever candidate won the grid search,
/// held through the type-erased index::AnyRangeIndex so LIF can enumerate
/// any RangeIndex implementation — not just RMIs — without changing this
/// API.
class SynthesizedIndex {
 public:
  SynthesizedIndex() = default;

  size_t Lookup(uint64_t key) const { return winner_.Lookup(key); }
  size_t LowerBound(uint64_t key) const { return winner_.Lookup(key); }
  index::Approx ApproxPos(uint64_t key) const {
    return winner_.ApproxPos(key);
  }
  void LookupBatch(std::span<const uint64_t> keys,
                   std::span<size_t> out) const {
    winner_.LookupBatch(keys, out);
  }
  size_t SizeBytes() const { return winner_.SizeBytes(); }
  const std::string& description() const { return description_; }
  const std::vector<CandidateReport>& reports() const { return reports_; }

  /// Runs the grid search over `keys` (sorted; caller owns the data).
  Status Synthesize(std::span<const uint64_t> keys, const SynthesisSpec& spec);

  // ---- Persistence (docs/PERSISTENCE.md) ----
  // The expensive part of LIF is the grid search; persisting the winner
  // makes it a build-once artifact. The file carries the winner's
  // snapshot-kind tag ("lif/kind") next to its sections ("w/..."), so
  // OpenSnapshot can dispatch back to the concrete index type without
  // the caller knowing which candidate won. Winners without a flat
  // snapshot format (NN / multivariate tops) return Unimplemented —
  // re-synthesize those on restart.

  Status WriteSnapshot(const std::string& path) const;
  static Result<SynthesizedIndex> OpenSnapshot(
      const std::string& path, const snapshot::OpenOptions& opts = {});

 private:
  index::AnyRangeIndex winner_;
  std::string description_;
  std::vector<CandidateReport> reports_;
};

struct PointSynthesisSpec {
  /// Primary-slot budgets for the separate-chaining family, as percent of
  /// the record count — Figure 11's 75 / 100 / 125 sweep.
  std::vector<int> slot_percents = {75, 100, 125};
  bool try_random_hash = true;
  bool try_learned_hash = true;
  bool try_chained = true;
  bool try_inplace = true;
  bool try_cuckoo = true;
  double cuckoo_load_factor = 0.99;
  size_t cdf_leaf_models = 0;  // 0 = auto (min(100k, n/10), §4.2)
  size_t size_budget_bytes = std::numeric_limits<size_t>::max();
  size_t eval_queries = 20'000;
  uint64_t seed = 99;
};

/// The synthesized point index: fastest probe within the size budget,
/// erased into index::AnyPointIndex.
class SynthesizedPointIndex {
 public:
  SynthesizedPointIndex() = default;

  const hash::Record* Find(uint64_t key) const { return winner_.Find(key); }
  void FindBatch(std::span<const uint64_t> keys,
                 std::span<const hash::Record*> out) const {
    winner_.FindBatch(keys, out);
  }
  size_t SizeBytes() const { return winner_.SizeBytes(); }
  index::PointIndexStats Stats() const { return winner_.Stats(); }
  const std::string& description() const { return description_; }
  const std::vector<CandidateReport>& reports() const { return reports_; }

  /// Runs the grid search over `records` (caller owns the data during
  /// Synthesize only).
  Status Synthesize(std::span<const hash::Record> records,
                    const PointSynthesisSpec& spec);

 private:
  index::AnyPointIndex winner_;
  std::string description_;
  std::vector<CandidateReport> reports_;
};

struct ExistenceSynthesisSpec {
  double target_fpr = 0.01;
  /// A candidate qualifies if its measured FPR on the validation split is
  /// at most target_fpr * fpr_slack (measured FPRs wobble with the split).
  double fpr_slack = 2.0;
  /// Classifier capacity sweep: hashed n-gram feature-table sizes.
  std::vector<size_t> ngram_buckets = {1024, 4096, 16384};
  bool try_plain_bloom = true;
  bool try_learned = true;
  bool try_model_hash = true;
  /// Model-hash bitmap sizes, in bits per key.
  std::vector<double> bitmap_bits_per_key = {0.3, 0.6};
  size_t size_budget_bytes = std::numeric_limits<size_t>::max();
  uint64_t seed = 99;
};

/// Range-filter synthesis: grid over the two range-filter constructions
/// (src/rangefilter/) at several bitmap budgets, qualified on measured
/// range-FPR over generated guaranteed-empty ranges — the same
/// smallest-qualifying-bytes objective as the existence sweep, with
/// MightContain the degenerate [k, k+1) case.
struct RangeFilterSynthesisSpec {
  double target_range_fpr = 0.05;
  /// Qualification gate: validation-split range-FPR must be at most
  /// target_range_fpr * fpr_slack.
  double fpr_slack = 2.0;
  /// Bitmap budget sweep, in block bits per distinct key.
  std::vector<double> bits_per_key = {8.0, 16.0, 32.0};
  /// Segment-granularity sweep for the learned construction.
  std::vector<size_t> keys_per_segment = {128, 256};
  bool try_learned = true;
  bool try_interval = true;
  size_t size_budget_bytes = std::numeric_limits<size_t>::max();
  /// Empty-query splits generated per candidate set: validation (the
  /// qualification gate) and eval (the unbiased reported FPR), plus the
  /// present-range witness set every candidate must answer true on.
  size_t valid_queries = 8'000;
  size_t eval_queries = 8'000;
  size_t witness_queries = 4'000;
  /// Correlated (adjacent-gap) fraction of the generated empty queries;
  /// the rest are uniform over the domain. See rangefilter/workload.h.
  double correlated_fraction = 0.5;
  uint64_t max_query_width = 1024;
  uint64_t seed = 99;
};

/// The synthesized existence index: the *smallest* qualifying candidate
/// (the paper's §5 metric is memory at a fixed FPR, not latency), erased
/// into index::AnyExistenceIndex. Classifier ownership is folded into the
/// erased winner, so the handle is self-contained.
class SynthesizedExistenceIndex {
 public:
  SynthesizedExistenceIndex() = default;

  bool MightContain(std::string_view key) const {
    return winner_.MightContain(key);
  }
  size_t SizeBytes() const { return winner_.SizeBytes(); }
  double MeasuredFpr(std::span<const std::string> non_keys) const {
    return winner_.MeasuredFpr(non_keys);
  }
  const std::string& description() const { return description_; }
  const std::vector<CandidateReport>& reports() const { return reports_; }

  /// Trains classifiers on (keys, train_non_keys), calibrates thresholds
  /// and qualifies candidates on valid_non_keys, and reports the winner's
  /// unbiased FPR on eval_non_keys — the §5.2 train / validation / test
  /// protocol. All spans are caller-owned and only read during Synthesize.
  Status Synthesize(std::span<const std::string> keys,
                    std::span<const std::string> train_non_keys,
                    std::span<const std::string> valid_non_keys,
                    std::span<const std::string> eval_non_keys,
                    const ExistenceSynthesisSpec& spec);

 private:
  index::AnyExistenceIndex winner_;
  std::string description_;
  std::vector<CandidateReport> reports_;
};

/// The synthesized range filter: the *smallest* candidate qualifying on
/// validation range-FPR, erased into index::AnyRangeFilter. It satisfies
/// the index::RangeFilter contract itself; until a successful Synthesize
/// it is the filter over the empty set (every query answers false).
/// Independent of SynthesizedExistenceIndex — an LSM table typically
/// wants both a point filter over string keys and a range filter over
/// its integer key column.
class SynthesizedRangeFilter {
 public:
  SynthesizedRangeFilter() = default;

  /// Half-open [lo, hi) over the synthesized winner.
  bool MightContainRange(uint64_t lo, uint64_t hi) const {
    return winner_.MightContainRange(lo, hi);
  }
  bool MightContain(uint64_t key) const { return winner_.MightContain(key); }
  size_t SizeBytes() const { return winner_.SizeBytes(); }
  double MeasuredRangeFpr(
      std::span<const index::RangeQuery> empty_queries) const {
    return winner_.MeasuredRangeFpr(empty_queries);
  }
  const std::string& description() const { return description_; }
  const std::vector<CandidateReport>& reports() const { return reports_; }

  /// Sweeps the range-filter grid over `keys` (any order, duplicates
  /// collapse; caller owns the data during the call only). Queries are
  /// generated internally from the key set's gap structure (validation /
  /// eval empty-range splits plus a present-range witness set); a false
  /// negative on any witness range fails the whole sweep with Internal.
  Status Synthesize(std::span<const uint64_t> keys,
                    const RangeFilterSynthesisSpec& spec);

 private:
  index::AnyRangeFilter winner_;
  std::string description_;
  std::vector<CandidateReport> reports_;
};

/// Mixed read/write synthesis (the Appendix-D.1 workload class): which
/// delta-wrapped base serves a given insert ratio fastest?
struct WritableSynthesisSpec {
  /// RMI leaf-model counts for delta-wrapped RMI candidates.
  std::vector<size_t> stage2_sizes = {10'000, 50'000};
  bool try_delta_rmi = true;
  /// Delta-wrapped read-only B-Tree candidates (page sizes in keys).
  bool try_delta_btree = true;
  std::vector<size_t> btree_pages = {128};
  /// Fraction of evaluated ops that are inserts of previously-unseen keys;
  /// the rest are rank lookups.
  double insert_ratio = 0.10;
  size_t eval_ops = 40'000;
  dynamic::MergePolicy policy{};
  search::Strategy strategy = search::Strategy::kBiasedBinary;
  size_t size_budget_bytes = std::numeric_limits<size_t>::max();
  uint64_t seed = 99;
};

/// The synthesized writable index: every candidate is built over a split
/// of the keys, driven through a deterministic interleaved insert/lookup
/// stream, and scored on mixed ns/op; the winning configuration is then
/// rebuilt over the *full* key set and erased into AnyWritableRangeIndex.
class SynthesizedWritableIndex {
 public:
  SynthesizedWritableIndex() = default;

  bool Insert(uint64_t key) { return winner_.Insert(key); }
  bool Erase(uint64_t key) { return winner_.Erase(key); }
  bool Contains(uint64_t key) const { return winner_.Contains(key); }
  size_t Lookup(uint64_t key) const { return winner_.Lookup(key); }
  size_t LowerBound(uint64_t key) const { return winner_.Lookup(key); }
  void LookupBatch(std::span<const uint64_t> keys,
                   std::span<size_t> out) const {
    winner_.LookupBatch(keys, out);
  }
  std::vector<uint64_t> Scan(uint64_t from, size_t limit) const {
    return winner_.Scan(from, limit);
  }
  Status Merge() { return winner_.Merge(); }
  size_t size() const { return winner_.size(); }
  size_t SizeBytes() const { return winner_.SizeBytes(); }
  index::WritableIndexStats Stats() const { return winner_.Stats(); }
  const std::string& description() const { return description_; }
  const std::vector<CandidateReport>& reports() const { return reports_; }

  /// Runs the grid search over `keys` (sorted, strictly increasing;
  /// caller owns the data during Synthesize only).
  Status Synthesize(std::span<const uint64_t> keys,
                    const WritableSynthesisSpec& spec);

 private:
  index::AnyWritableRangeIndex winner_;
  std::string description_;
  std::vector<CandidateReport> reports_;
};

}  // namespace li::lif

#endif  // LI_LIF_SYNTHESIZER_H_
