// The Learning Index Framework (LIF, §3.1): "an index synthesis system;
// given an index specification, LIF generates different index
// configurations, optimizes them, and tests them automatically."
//
// The synthesizer covers five index classes. Each is one free function
// that fills a Synthesis<Handle>, whose winner is the class's
// library-wide erased handle:
//
//  * SynthesizeRange       (range, §3)    — grid-searches top-model
//    families (linear, multivariate with auto feature selection, NNs with
//    0-2 hidden layers and widths 4..32, the §3.7.1 space) crossed with
//    second-stage model counts; the fastest wins, as an AnyRangeIndex.
//  * SynthesizePoint       (point, §4)    — grid-searches
//    {random, learned-CDF} hash x slot-count sweep x map family
//    (separate-chaining, in-place chained, bucketized cuckoo); the
//    fastest wins, as an AnyPointIndex.
//  * SynthesizeExistence   (existence, §5) — searches classifier
//    capacity x construction (plain Bloom, classifier + overflow,
//    model-hash sandwich) x bitmap sizes at a fixed target FPR; the
//    smallest qualifying filter wins, as an AnyExistenceIndex.
//  * SynthesizeRangeFilter (range filter, §5 lifted to ranges) —
//    searches the src/rangefilter/ constructions x bitmap budgets x
//    segment sizes at a fixed target range-FPR; the smallest qualifying
//    filter wins, as an AnyRangeFilter.
//  * SynthesizeWritable    (writable, App. D.1) — grid-searches
//    delta-wrapped bases (RMI, read-only B-Tree) under a mixed
//    insert/lookup stream; the fastest wins, rebuilt over the full key
//    set, as an AnyWritableRangeIndex.
//
// Each class is a grid plus an objective. Every grid point is built,
// measured on a sampled workload with the measure.h harness and offered
// to one shared sweep, which reports it as a CandidateReport (so benches
// can print the full sweep, not just the winner), applies the size budget
// and the class gate, and keeps the winner. Callers query the winner
// through its handle (`s.winner.Lookup(k)`); measured FPR is
// index::MeasureFprOver / index::MeasureRangeFprOver over it.
//
// Every function validates its inputs before touching `*out`. On success
// it replaces `winner` and `description`; on any failure both keep their
// previous values. `reports` always holds the rows of the last sweep
// that started (cleared at its start), so a NotFound still shows what
// was tried. A default Synthesis holds the empty handle, which answers
// as documented on the handle (e.g. the empty filter answers false).

#ifndef LI_LIF_SYNTHESIZER_H_
#define LI_LIF_SYNTHESIZER_H_

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "snapshot/snapshot.h"
#include "index/any_range_index.h"
#include "index/existence_index.h"
#include "index/point_index.h"
#include "index/range_filter.h"
#include "index/writable_range_index.h"
#include "rmi/rmi.h"

namespace li::lif {

/// Range synthesis: a linear top at every leaf count, plus the optional
/// multivariate and NN tops below. Every candidate searches with the
/// RMI's default last-mile strategy (biased binary).
struct SynthesisSpec {
  std::vector<size_t> stage2_sizes = {10'000, 50'000, 100'000, 200'000};
  bool try_multivariate_top = true;
  std::vector<std::vector<int>> nn_hidden = {{8}, {16}, {16, 16}};
  int nn_epochs = 20;
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

/// What a synthesis call hands back: the winning candidate behind its
/// erased `Handle`, the winner's report description, and every
/// candidate's report row from the last sweep.
template <typename Handle>
struct Synthesis {
  Handle winner;
  std::string description;
  std::vector<CandidateReport> reports;
};

/// Runs the range grid search over `keys` (sorted; caller owns the data).
/// The winner is held through the type-erased index::AnyRangeIndex, so
/// LIF can enumerate any RangeIndex implementation, not just RMIs.
Status SynthesizeRange(std::span<const uint64_t> keys,
                       const SynthesisSpec& spec,
                       Synthesis<index::AnyRangeIndex>* out);

// ---- Persistence of a range winner (docs/PERSISTENCE.md) ----
// The expensive part of LIF is the grid search; persisting the winner
// makes it a build-once artifact. The file carries the winner's
// snapshot-kind tag ("lif/kind") and description ("lif/desc") next to
// its sections ("w/..."), so OpenRangeSynthesis can dispatch back to the
// concrete index type without the caller knowing which candidate won.
// Winners without a flat snapshot format (NN / multivariate tops) return
// Unimplemented: re-synthesize those on restart. An opened Synthesis has
// no reports.

Status WriteRangeSynthesis(const Synthesis<index::AnyRangeIndex>& s,
                           const std::string& path);
Result<Synthesis<index::AnyRangeIndex>> OpenRangeSynthesis(
    const std::string& path, const snapshot::OpenOptions& opts = {});

/// Point synthesis: the random hash and (optionally) the learned CDF
/// hash, each under the separate-chaining and in-place chained maps, plus
/// (optionally) the two cuckoo baselines at load 0.99 and 0.95.
struct PointSynthesisSpec {
  /// Primary-slot budgets for the separate-chaining family, as percent of
  /// the record count — Figure 11's 75 / 100 / 125 sweep.
  std::vector<int> slot_percents = {75, 100, 125};
  bool try_learned_hash = true;
  bool try_cuckoo = true;
  size_t cdf_leaf_models = 0;  // 0 = auto (min(100k, n/10), §4.2)
  size_t size_budget_bytes = std::numeric_limits<size_t>::max();
  size_t eval_queries = 20'000;
  uint64_t seed = 99;
};

/// Runs the point grid search over `records` (caller owns the data
/// during the call only). The fastest probe within the size budget wins.
Status SynthesizePoint(std::span<const hash::Record> records,
                       const PointSynthesisSpec& spec,
                       Synthesis<index::AnyPointIndex>* out);

/// Existence synthesis: the plain Bloom filter, then per classifier size
/// the classifier + overflow Bloom filter and the model-hash sandwich at
/// 0.3 and 0.6 bitmap bits per key.
struct ExistenceSynthesisSpec {
  double target_fpr = 0.01;
  /// A candidate qualifies if its measured FPR on the validation split is
  /// at most target_fpr * fpr_slack (measured FPRs wobble with the split).
  double fpr_slack = 2.0;
  /// Classifier capacity sweep: hashed n-gram feature-table sizes.
  std::vector<size_t> ngram_buckets = {1024, 4096, 16384};
  size_t size_budget_bytes = std::numeric_limits<size_t>::max();
  uint64_t seed = 99;
};

/// Range-filter synthesis: grid over the two range-filter constructions
/// (src/rangefilter/) at several bitmap budgets, qualified on measured
/// range-FPR over generated guaranteed-empty ranges — the same
/// smallest-qualifying-bytes objective as the existence sweep, with
/// MightContain the degenerate [k, k+1) case. Each sweep generates 8,000
/// validation and 8,000 eval empty ranges (half wedged into adjacent-key
/// gaps, widths up to 1024) and 4,000 present-range witnesses.
struct RangeFilterSynthesisSpec {
  double target_range_fpr = 0.05;
  /// Qualification gate: validation-split range-FPR must be at most
  /// target_range_fpr * fpr_slack.
  double fpr_slack = 2.0;
  /// Bitmap budget sweep, in block bits per distinct key.
  std::vector<double> bits_per_key = {8.0, 16.0, 32.0};
  /// Segment-granularity sweep for the learned construction.
  std::vector<size_t> keys_per_segment = {128, 256};
  size_t size_budget_bytes = std::numeric_limits<size_t>::max();
  uint64_t seed = 99;
};

/// Existence synthesis: the *smallest* qualifying candidate wins (the
/// paper's §5 metric is memory at a fixed FPR, not latency). Trains
/// classifiers on (keys, train_non_keys), calibrates thresholds and
/// qualifies candidates on valid_non_keys, and reports each candidate's
/// unbiased FPR on eval_non_keys: the §5.2 train / validation / test
/// protocol. All spans are caller-owned and only read during the call.
/// Classifier ownership is folded into the erased winner, so the handle
/// is self-contained.
Status SynthesizeExistence(std::span<const std::string> keys,
                           std::span<const std::string> train_non_keys,
                           std::span<const std::string> valid_non_keys,
                           std::span<const std::string> eval_non_keys,
                           const ExistenceSynthesisSpec& spec,
                           Synthesis<index::AnyExistenceIndex>* out);

/// Range-filter synthesis: the *smallest* candidate qualifying on
/// validation range-FPR wins. Sweeps the range-filter grid over `keys`
/// (any order, duplicates collapse; caller owns the data during the call
/// only). Queries are generated internally from the key set's gap
/// structure (validation / eval empty-range splits plus a present-range
/// witness set); a false negative on any witness range fails the whole
/// sweep with Internal. Independent of SynthesizeExistence: an LSM table
/// typically wants both a point filter over string keys and a range
/// filter over its integer key column.
Status SynthesizeRangeFilter(std::span<const uint64_t> keys,
                             const RangeFilterSynthesisSpec& spec,
                             Synthesis<index::AnyRangeFilter>* out);

/// Mixed read/write synthesis (the Appendix-D.1 workload class): which
/// delta-wrapped base serves a given insert ratio fastest? Every
/// candidate runs the default merge policy, and its RMI base the default
/// last-mile strategy.
struct WritableSynthesisSpec {
  /// RMI leaf-model counts for delta-wrapped RMI candidates.
  std::vector<size_t> stage2_sizes = {10'000, 50'000};
  /// Delta-wrapped read-only B-Tree candidates (page sizes in keys).
  std::vector<size_t> btree_pages = {128};
  /// Fraction of evaluated ops that are inserts of previously-unseen keys;
  /// the rest are rank lookups.
  double insert_ratio = 0.10;
  size_t eval_ops = 40'000;
  size_t size_budget_bytes = std::numeric_limits<size_t>::max();
  uint64_t seed = 99;
};

/// Runs the writable grid search over `keys` (sorted, strictly
/// increasing; caller owns the data during the call only). Every
/// candidate is built over a split of the keys, driven through a
/// deterministic interleaved insert/lookup stream, and scored on mixed
/// ns/op; the winning configuration is then rebuilt over the *full* key
/// set.
Status SynthesizeWritable(std::span<const uint64_t> keys,
                          const WritableSynthesisSpec& spec,
                          Synthesis<index::AnyWritableRangeIndex>* out);

}  // namespace li::lif

#endif  // LI_LIF_SYNTHESIZER_H_
