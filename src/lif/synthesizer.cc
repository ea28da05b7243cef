#include "lif/synthesizer.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>

#include "bloom/bloom_filter.h"
#include "bloom/learned_bloom.h"
#include "bloom/model_hash_bloom.h"
#include "btree/readonly_btree.h"
#include "classifier/ngram_logistic.h"
#include "data/datasets.h"
#include "dynamic/delta_range_index.h"
#include "hash/chained_hash_map.h"
#include "hash/cuckoo_map.h"
#include "hash/inplace_chained_map.h"
#include "lif/measure.h"
#include "rangefilter/interval_bitmap_filter.h"
#include "rangefilter/learned_range_filter.h"
#include "rangefilter/workload.h"

namespace li::lif {

namespace {

/// The one LIF loop (§3.1) every synthesis class runs on. A class builds
/// and measures each grid point, then offers it here with its report.
/// The sweep records every report into the caller's Synthesis (cleared
/// when the sweep starts), marks it against the size budget, applies the
/// class gate (validation FPR at most `fpr_cap`; no gate by default) and
/// keeps the qualifying candidate with the lowest objective, erased into
/// `Handle`. Finish hands the winner and its description over, or
/// returns NotFound and leaves both outputs untouched.
template <typename Handle>
class Sweep {
 public:
  using Objective = double (*)(const CandidateReport&);

  Sweep(std::vector<CandidateReport>* reports, size_t size_budget_bytes,
        Objective objective,
        double fpr_cap = std::numeric_limits<double>::infinity())
      : reports_(reports),
        size_budget_bytes_(size_budget_bytes),
        objective_(objective),
        fpr_cap_(fpr_cap) {
    reports_->clear();
  }

  template <typename Candidate>
  void Offer(Candidate&& candidate, CandidateReport report) {
    report.within_budget = report.size_bytes <= size_budget_bytes_;
    reports_->push_back(report);
    if (!report.within_budget || report.valid_fpr > fpr_cap_) return;
    const double score = objective_(report);
    if (!(score < best_)) return;
    best_ = score;
    winner_ = Handle(std::forward<Candidate>(candidate));
    description_ = std::move(report.description);
    found_ = true;
  }

  Status Finish(std::string not_found, Handle* winner,
                std::string* description) {
    if (!found_) return Status::NotFound(std::move(not_found));
    *winner = std::move(winner_);
    *description = std::move(description_);
    return Status::OK();
  }

 private:
  std::vector<CandidateReport>* reports_;
  size_t size_budget_bytes_;
  Objective objective_;
  double fpr_cap_;
  double best_ = std::numeric_limits<double>::infinity();
  bool found_ = false;
  Handle winner_;
  std::string description_;
};

double ByLookupNs(const CandidateReport& r) { return r.lookup_ns; }
double BySize(const CandidateReport& r) {
  return static_cast<double>(r.size_bytes);
}
double ByMixedNs(const CandidateReport& r) { return r.mixed_ns; }

/// Cuckoo baselines of Table 1: the AVX-style table runs at load 0.99,
/// the careful (commercial) one at 0.95.
constexpr double kCuckooLoadFactor = 0.99;
constexpr double kCuckooCarefulLoadFactor = 0.95;
/// Model-hash Bloom bitmap sizes, in bits per key.
constexpr double kModelHashBitsPerKey[] = {0.3, 0.6};
/// Range-filter query sets per sweep: validation (the qualification
/// gate), eval (the unbiased reported FPR) and the present-range
/// witnesses every candidate must answer true on. Widths and the
/// correlated share are rangefilter::EmptyQueryConfig's defaults.
constexpr size_t kRangeValidQueries = 8'000;
constexpr size_t kRangeEvalQueries = 8'000;
constexpr size_t kRangeWitnessQueries = 4'000;

/// Builds one RMI configuration, measures it on the sampled queries and
/// offers it to the range sweep.
template <typename TopModel>
Status OfferRmi(std::span<const uint64_t> keys, const rmi::RmiConfig& rc,
                std::string description, const std::vector<uint64_t>& queries,
                Sweep<index::AnyRangeIndex>* sweep) {
  rmi::Rmi<TopModel> idx;
  LI_RETURN_IF_ERROR(idx.Build(keys, rc));
  CandidateReport report;
  report.description = std::move(description);
  report.stage2 = rc.num_leaf_models;
  report.size_bytes = idx.SizeBytes();
  report.max_abs_err = idx.MaxAbsError();
  report.model_ns = MeasureNsPerOp(
      queries, 1, [&](uint64_t q) { return idx.Predict(q).pos; });
  report.lookup_ns =
      MeasureNsPerOp(queries, 1, [&](uint64_t q) { return idx.LowerBound(q); });
  sweep->Offer(std::move(idx), std::move(report));
  return Status::OK();
}

}  // namespace

Status SynthesizeRange(std::span<const uint64_t> keys,
                       const SynthesisSpec& spec,
                       Synthesis<index::AnyRangeIndex>* out) {
  if (keys.empty()) {
    return Status::InvalidArgument("SynthesizeRange: empty key set");
  }
  const std::vector<uint64_t> key_vec(keys.begin(), keys.end());
  const std::vector<uint64_t> queries =
      data::SampleKeys(key_vec, spec.eval_queries, spec.seed);

  // Candidates are built concretely (Build is config-specific), then
  // type-erased into the uniform contract — the §3.1 "generate different
  // index configurations ... test them automatically" seam.
  Sweep<index::AnyRangeIndex> sweep(&out->reports, spec.size_budget_bytes,
                                    ByLookupNs);
  for (const size_t m : spec.stage2_sizes) {
    rmi::RmiConfig rc;
    rc.num_leaf_models = m;

    LI_RETURN_IF_ERROR(OfferRmi<models::LinearModel>(
        keys, rc, "linear top / " + std::to_string(m) + " leaves", queries,
        &sweep));
    if (spec.try_multivariate_top) {
      LI_RETURN_IF_ERROR(OfferRmi<models::MultivariateModel>(
          keys, rc, "multivariate top / " + std::to_string(m) + " leaves",
          queries, &sweep));
    }
    for (const auto& hidden : spec.nn_hidden) {
      rmi::RmiConfig nn_rc = rc;
      nn_rc.train.nn.hidden = hidden;
      nn_rc.train.nn.epochs = spec.nn_epochs;
      std::string desc = "nn[";
      for (size_t i = 0; i < hidden.size(); ++i) {
        if (i) desc += 'x';
        desc += std::to_string(hidden[i]);
      }
      desc += "] top / " + std::to_string(m) + " leaves";
      LI_RETURN_IF_ERROR(OfferRmi<models::NeuralNet>(
          keys, nn_rc, std::move(desc), queries, &sweep));
    }
  }
  return sweep.Finish("SynthesizeRange: no candidate fits the size budget",
                      &out->winner, &out->description);
}

Status WriteRangeSynthesis(const Synthesis<index::AnyRangeIndex>& s,
                           const std::string& path) {
  const std::string kind = s.winner.SnapshotKind();
  if (kind.empty()) {
    return Status::Unimplemented("WriteRangeSynthesis: winner '" +
                                 s.description +
                                 "' has no flat snapshot format");
  }
  snapshot::SnapshotWriter writer;
  LI_RETURN_IF_ERROR(writer.AddSection("lif/kind",
                                       snapshot::SectionKind::kMeta,
                                       kind.data(), kind.size()));
  LI_RETURN_IF_ERROR(writer.AddSection("lif/desc",
                                       snapshot::SectionKind::kMeta,
                                       s.description.data(),
                                       s.description.size()));
  LI_RETURN_IF_ERROR(s.winner.WriteSections(writer, "w/"));
  return writer.WriteFile(path);
}

Result<Synthesis<index::AnyRangeIndex>> OpenRangeSynthesis(
    const std::string& path, const snapshot::OpenOptions& opts) {
  auto reader = snapshot::SnapshotReader::Open(path, opts);
  if (!reader.ok()) return reader.status();
  auto kind_bytes = reader.value().Get("lif/kind");
  if (!kind_bytes.ok()) return kind_bytes.status();
  auto desc_bytes = reader.value().Get("lif/desc");
  if (!desc_bytes.ok()) return desc_bytes.status();
  const std::string kind(
      reinterpret_cast<const char*>(kind_bytes.value().data()),
      kind_bytes.value().size());
  Synthesis<index::AnyRangeIndex> out;
  out.description.assign(
      reinterpret_cast<const char*>(desc_bytes.value().data()),
      desc_bytes.value().size());
  // The kind-tag registry: one entry per candidate type with a flat
  // snapshot format. New snapshottable candidates add a case here.
  if (kind == "rmi.linear.u64") {
    rmi::LinearRmi idx;
    LI_RETURN_IF_ERROR(idx.LoadSections(reader.value(), "w/"));
    out.winner = index::AnyRangeIndex(std::move(idx));
  } else {
    return Status::Unimplemented("OpenRangeSynthesis: snapshot kind '" +
                                 kind + "' has no registered loader");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Point-index synthesis (§4): {random, learned-CDF} x slot sweep x family.
// ---------------------------------------------------------------------------

Status SynthesizePoint(std::span<const hash::Record> records,
                       const PointSynthesisSpec& spec,
                       Synthesis<index::AnyPointIndex>* out) {
  if (records.empty()) {
    return Status::InvalidArgument("SynthesizePoint: empty record set");
  }
  std::vector<uint64_t> keys;
  keys.reserve(records.size());
  for (const hash::Record& r : records) keys.push_back(r.key);
  const std::vector<uint64_t> queries =
      data::SampleKeys(keys, spec.eval_queries, spec.seed);

  Sweep<index::AnyPointIndex> sweep(&out->reports, spec.size_budget_bytes,
                                    ByLookupNs);

  // Every map family shares the measurement recipe; the hash-only cost
  // (model_ns) is measured once per hash config below.
  auto measure = [&](const auto& map, CandidateReport* report) {
    report->size_bytes = map.SizeBytes();
    const index::PointIndexStats stats = map.Stats();
    report->stage2 = stats.num_slots;
    report->max_abs_err = static_cast<int64_t>(stats.overflow);
    report->lookup_ns = MeasureNsPerOp(
        queries, 1, [&](uint64_t q) { return map.Find(q) != nullptr; });
  };

  std::vector<hash::HashConfig> hash_configs = {
      {.kind = hash::HashKind::kRandom, .seed = spec.seed}};
  if (spec.try_learned_hash) {
    hash::HashConfig hc;
    hc.kind = hash::HashKind::kLearnedCdf;
    hc.seed = spec.seed;
    hc.cdf_leaf_models = spec.cdf_leaf_models;
    hash_configs.push_back(hc);
  }

  for (const hash::HashConfig& hc : hash_configs) {
    const bool learned = hc.kind == hash::HashKind::kLearnedCdf;
    const std::string hash_name = learned ? "learned-cdf" : "random";
    // Train the hash once per family (the learned CDF model depends only
    // on the keys); every candidate below copies + retargets it to its
    // own slot count instead of sorting and retraining per grid point.
    hash::PointHash fn;
    LI_RETURN_IF_ERROR(
        hash::BuildRecordHash(records, records.size(), hc, &fn));
    // Hash-only execution cost (the Figure-8 "model execution" column).
    const double hash_ns =
        MeasureNsPerOp(queries, 1, [&](uint64_t q) { return fn(q); });

    for (const int pct : spec.slot_percents) {
      hash::ChainedHashMapConfig mc;
      mc.num_slots = std::max<uint64_t>(
          1, records.size() * static_cast<uint64_t>(pct) / 100);
      mc.hash = hc;
      hash::ChainedHashMap map;
      if (!map.Build(records, mc, fn).ok()) continue;
      CandidateReport report;
      report.description = "chained / " + hash_name + " / " +
                           std::to_string(pct) + "% slots";
      report.model_ns = hash_ns;
      measure(map, &report);
      sweep.Offer(std::move(map), std::move(report));
    }
    hash::InplaceChainedMapConfig mc;
    mc.hash = hc;
    hash::InplaceChainedMap map;
    if (map.Build(records, mc, fn).ok()) {
      CandidateReport report;
      report.description = "inplace-chained / " + hash_name;
      report.model_ns = hash_ns;
      measure(map, &report);
      sweep.Offer(std::move(map), std::move(report));
    }
  }

  if (spec.try_cuckoo) {
    // The cuckoo family hashes internally (two random choices); it
    // contributes the high-utilization baselines of Table 1 in both
    // careful modes.
    struct {
      double load_factor;
      bool careful;
      const char* name;
    } variants[] = {
        {kCuckooLoadFactor, false, "cuckoo / avx-style"},
        {kCuckooCarefulLoadFactor, true, "cuckoo / commercial (careful)"},
    };
    for (const auto& v : variants) {
      hash::CuckooMapConfig mc;
      mc.load_factor = v.load_factor;
      mc.careful = v.careful;
      mc.seed = spec.seed | 1;
      hash::CuckooMap<hash::Record> map;
      if (!map.Build(records, mc).ok()) continue;
      CandidateReport report;
      report.description = v.name;
      measure(map, &report);
      sweep.Offer(std::move(map), std::move(report));
    }
  }

  return sweep.Finish("SynthesizePoint: no candidate fits the size budget",
                      &out->winner, &out->description);
}

// ---------------------------------------------------------------------------
// Existence-index synthesis (§5): classifier capacity x construction x
// bitmap size, optimizing memory at a fixed target FPR.
// ---------------------------------------------------------------------------

namespace {

/// Classifier-owning wrappers: the erased winner must be self-contained,
/// so the trained model travels with the filter it calibrates.
struct OwnedLearnedBloom {
  std::shared_ptr<classifier::NgramLogistic> model;
  bloom::LearnedBloomFilter<classifier::NgramLogistic> filter;

  bool MightContain(std::string_view key) const {
    return filter.MightContain(key);
  }
  size_t SizeBytes() const { return filter.SizeBytes(); }
};

struct OwnedModelHashBloom {
  std::shared_ptr<classifier::NgramLogistic> model;
  bloom::ModelHashBloomFilter<classifier::NgramLogistic> filter;

  bool MightContain(std::string_view key) const {
    return filter.MightContain(key);
  }
  size_t SizeBytes() const { return filter.SizeBytes(); }
};

static_assert(index::ExistenceIndex<OwnedLearnedBloom>);
static_assert(index::ExistenceIndex<OwnedModelHashBloom>);

}  // namespace

Status SynthesizeExistence(std::span<const std::string> keys,
                           std::span<const std::string> train_non_keys,
                           std::span<const std::string> valid_non_keys,
                           std::span<const std::string> eval_non_keys,
                           const ExistenceSynthesisSpec& spec,
                           Synthesis<index::AnyExistenceIndex>* out) {
  if (keys.empty()) {
    return Status::InvalidArgument("SynthesizeExistence: empty key set");
  }
  if (valid_non_keys.empty() || eval_non_keys.empty()) {
    return Status::InvalidArgument(
        "SynthesizeExistence: need validation and eval non-key sets");
  }
  if (spec.target_fpr <= 0.0 || spec.target_fpr >= 1.0) {
    return Status::InvalidArgument("SynthesizeExistence: bad target FPR");
  }
  const std::vector<std::string> probes(eval_non_keys.begin(),
                                        eval_non_keys.end());

  // Winner = smallest qualifying candidate: the §5 objective is memory at
  // a fixed FPR; a candidate whose measured FPR blows past the target is
  // not the same index, however small. Qualification uses the FPR on the
  // *validation* split so the eval split stays an unbiased test set
  // (report.fpr); picking by eval FPR would let the test set select the
  // winner.
  Sweep<index::AnyExistenceIndex> sweep(&out->reports,
                                        spec.size_budget_bytes, BySize,
                                        spec.target_fpr * spec.fpr_slack);

  // Fills the report: eval-split FPR + probe latency for reporting, plus
  // the validation-split FPR the sweep qualifies on.
  auto measure = [&](const auto& filter, CandidateReport* report) {
    report->size_bytes = filter.SizeBytes();
    report->fpr = index::MeasureFprOver(filter, probes);
    report->valid_fpr = index::MeasureFprOver(filter, valid_non_keys);
    report->lookup_ns = MeasureNsPerOp(probes, 1, [&](const std::string& q) {
      return filter.MightContain(std::string_view(q));
    });
  };

  bloom::BloomFilter plain;
  if (plain.Init(keys.size(), spec.target_fpr).ok()) {
    for (const auto& k : keys) plain.Add(std::string_view(k));
    CandidateReport report;
    report.description = "plain bloom";
    measure(plain, &report);
    sweep.Offer(std::move(plain), std::move(report));
  }

  for (const size_t buckets : spec.ngram_buckets) {
    classifier::NgramConfig ncfg;
    ncfg.num_buckets = buckets;
    ncfg.seed = spec.seed;
    auto model = std::make_shared<classifier::NgramLogistic>();
    if (!model->Train(keys, train_non_keys, ncfg).ok()) continue;
    const double model_ns =
        MeasureNsPerOp(probes, 1, [&](const std::string& q) {
          return model->Predict(q) > 0.5;
        });

    {
      OwnedLearnedBloom cand;
      cand.model = model;
      if (cand.filter
              .Build(cand.model.get(), keys, valid_non_keys, spec.target_fpr)
              .ok()) {
        CandidateReport report;
        report.description =
            "ngram(" + std::to_string(buckets) + ") + overflow bloom";
        report.stage2 = buckets;
        report.model_ns = model_ns;
        measure(cand, &report);
        sweep.Offer(std::move(cand), std::move(report));
      }
    }
    for (const double bpk : kModelHashBitsPerKey) {
      const uint64_t m = std::max<uint64_t>(
          1024,
          static_cast<uint64_t>(bpk * static_cast<double>(keys.size())));
      OwnedModelHashBloom cand;
      cand.model = model;
      if (!cand.filter
               .Build(cand.model.get(), keys, valid_non_keys,
                      spec.target_fpr, m)
               .ok()) {
        continue;
      }
      CandidateReport report;
      report.description = "ngram(" + std::to_string(buckets) +
                           ") model-hash m=" + std::to_string(m);
      report.stage2 = buckets;
      report.model_ns = model_ns;
      measure(cand, &report);
      sweep.Offer(std::move(cand), std::move(report));
    }
  }

  return sweep.Finish(
      "SynthesizeExistence: no candidate meets the FPR target within the "
      "size budget",
      &out->winner, &out->description);
}

// ---------------------------------------------------------------------------
// Range-filter synthesis: construction x bitmap budget x segment size,
// optimizing memory at a fixed target range-FPR.
// ---------------------------------------------------------------------------

Status SynthesizeRangeFilter(std::span<const uint64_t> keys,
                             const RangeFilterSynthesisSpec& spec,
                             Synthesis<index::AnyRangeFilter>* out) {
  if (keys.empty()) {
    return Status::InvalidArgument("SynthesizeRangeFilter: empty key set");
  }
  if (spec.target_range_fpr <= 0.0 || spec.target_range_fpr >= 1.0) {
    return Status::InvalidArgument(
        "SynthesizeRangeFilter: bad target range-FPR");
  }
  std::vector<uint64_t> sorted(keys.begin(), keys.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  // Validation / eval empty-range splits from disjoint seeds, so the
  // qualification gate and the reported FPR never share queries, plus
  // the witness set every candidate must answer true on (zero false
  // negatives is a contract, not a metric).
  rangefilter::EmptyQueryConfig qcfg;
  qcfg.count = kRangeValidQueries;
  const std::vector<index::RangeQuery> valid_queries =
      rangefilter::GenEmptyRanges(sorted, spec.seed * 3 + 1, qcfg);
  qcfg.count = kRangeEvalQueries;
  const std::vector<index::RangeQuery> eval_queries =
      rangefilter::GenEmptyRanges(sorted, spec.seed * 3 + 2, qcfg);
  const std::vector<index::RangeQuery> witnesses =
      rangefilter::GenWitnessRanges(sorted, spec.seed * 3 + 3,
                                    kRangeWitnessQueries, qcfg.max_width);
  if (valid_queries.empty() || eval_queries.empty()) {
    return Status::InvalidArgument(
        "SynthesizeRangeFilter: key set has no gaps to generate empty "
        "ranges from");
  }
  Sweep<index::AnyRangeFilter> sweep(&out->reports, spec.size_budget_bytes,
                                     BySize,
                                     spec.target_range_fpr * spec.fpr_slack);

  // Same shape as the point-probe existence sweep: measure fills the
  // report after the witness oracle, which fails the whole sweep on any
  // false negative.
  auto measure = [&](const auto& filter, CandidateReport* report) -> Status {
    for (const index::RangeQuery& w : witnesses) {
      if (!filter.MightContainRange(w.lo, w.hi)) {
        return Status::Internal(
            "SynthesizeRangeFilter oracle: false negative (" +
            report->description + ")");
      }
    }
    report->size_bytes = filter.SizeBytes();
    report->valid_fpr = index::MeasureRangeFprOver(filter, valid_queries);
    report->fpr = index::MeasureRangeFprOver(filter, eval_queries);
    report->lookup_ns =
        MeasureNsPerOp(eval_queries, 1, [&](const index::RangeQuery& q) {
          return filter.MightContainRange(q.lo, q.hi);
        });
    return Status::OK();
  };

  for (const double bpk : spec.bits_per_key) {
    for (const size_t kps : spec.keys_per_segment) {
      rangefilter::LearnedRangeFilterConfig cfg;
      cfg.bits_per_key = bpk;
      cfg.keys_per_segment = kps;
      rangefilter::LearnedRangeFilter f;
      if (!f.Build(sorted, cfg).ok()) continue;
      CandidateReport report;
      report.description = "learned-segmented bpk=" + std::to_string(bpk) +
                           " kps=" + std::to_string(kps);
      report.stage2 = f.num_segments();
      LI_RETURN_IF_ERROR(measure(f, &report));
      sweep.Offer(std::move(f), std::move(report));
    }
    rangefilter::IntervalBitmapFilterConfig cfg;
    cfg.bits_per_key = bpk;
    rangefilter::IntervalBitmapFilter f;
    if (!f.Build(sorted, cfg).ok()) continue;
    CandidateReport report;
    report.description = "interval-bitmap bpk=" + std::to_string(bpk);
    report.stage2 = 1;
    LI_RETURN_IF_ERROR(measure(f, &report));
    sweep.Offer(std::move(f), std::move(report));
  }

  return sweep.Finish(
      "SynthesizeRangeFilter: no candidate meets the range-FPR target "
      "within the size budget",
      &out->winner, &out->description);
}

// ---------------------------------------------------------------------------
// Writable synthesis (Appendix D.1): which delta-wrapped base serves a
// mixed insert/lookup workload fastest?
// ---------------------------------------------------------------------------

namespace {

/// Builds a candidate over the base split, drives it through the op
/// stream via the shared harness (one thread: the sequential stream),
/// and fills the report (mixed_ns is the qualification metric;
/// lookup_ns is measured after the stream, delta populated).
template <typename Idx>
Status EvaluateWritableCandidate(const ReadWriteWorkload& w,
                                 const typename Idx::Config& cfg,
                                 const std::string& description,
                                 CandidateReport* report) {
  Idx idx;
  LI_RETURN_IF_ERROR(idx.Build(std::span<const uint64_t>(w.base), cfg));
  report->description = description;
  report->mixed_ns = RunMixedStreamNs(idx, w, 1);
  report->lookup_ns = MeasureNsPerOp(w.lookups, 1,
                                     [&](uint64_t q) { return idx.Lookup(q); });
  report->size_bytes = idx.SizeBytes();
  return Status::OK();
}

/// The writable sweep's Handle. The measured instance absorbed the
/// held-out insert stream, so each candidate is offered as a closure that
/// rebuilds its configuration over the *full* key set into `*winner`
/// (the caller's Synthesis); only the winner's runs, once, after the
/// sweep, and it leaves `*winner` as it was if the build fails.
using Rebuild = std::function<Status()>;

template <typename Idx>
Rebuild RebuildOnFullKeys(std::span<const uint64_t> keys,
                          const typename Idx::Config& cfg,
                          index::AnyWritableRangeIndex* winner) {
  return [keys, cfg, winner] {
    Idx full;
    LI_RETURN_IF_ERROR(full.Build(keys, cfg));
    *winner = index::AnyWritableRangeIndex(std::move(full));
    return Status::OK();
  };
}

}  // namespace

Status SynthesizeWritable(std::span<const uint64_t> keys,
                          const WritableSynthesisSpec& spec,
                          Synthesis<index::AnyWritableRangeIndex>* out) {
  if (keys.empty()) {
    return Status::InvalidArgument("SynthesizeWritable: empty key set");
  }
  if (spec.insert_ratio < 0.0 || spec.insert_ratio > 1.0) {
    return Status::InvalidArgument("SynthesizeWritable: bad insert ratio");
  }
  const ReadWriteWorkload w = MakeReadWriteWorkload(
      keys, spec.eval_ops, spec.insert_ratio, spec.eval_ops, spec.seed);

  Sweep<Rebuild> sweep(&out->reports, spec.size_budget_bytes, ByMixedNs);

  using DeltaRmi = dynamic::DeltaRangeIndex<rmi::LinearRmi>;
  for (const size_t m : spec.stage2_sizes) {
    DeltaRmi::Config cfg;
    cfg.base.num_leaf_models = m;
    CandidateReport report;
    report.stage2 = m;
    LI_RETURN_IF_ERROR(EvaluateWritableCandidate<DeltaRmi>(
        w, cfg, "delta[rmi linear / " + std::to_string(m) + " leaves]",
        &report));
    sweep.Offer(RebuildOnFullKeys<DeltaRmi>(keys, cfg, &out->winner),
                std::move(report));
  }
  using DeltaBtree = dynamic::DeltaRangeIndex<btree::ReadOnlyBTree>;
  for (const size_t page : spec.btree_pages) {
    DeltaBtree::Config cfg;
    cfg.base.keys_per_page = page;
    CandidateReport report;
    report.stage2 = page;
    LI_RETURN_IF_ERROR(EvaluateWritableCandidate<DeltaBtree>(
        w, cfg, "delta[btree / " + std::to_string(page) + " keys/page]",
        &report));
    sweep.Offer(RebuildOnFullKeys<DeltaBtree>(keys, cfg, &out->winner),
                std::move(report));
  }

  Rebuild rebuild_winner;
  std::string description;
  LI_RETURN_IF_ERROR(
      sweep.Finish("SynthesizeWritable: no candidate fits the size budget",
                   &rebuild_winner, &description));
  LI_RETURN_IF_ERROR(rebuild_winner());
  out->description = std::move(description);
  return Status::OK();
}

}  // namespace li::lif
