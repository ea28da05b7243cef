#include "lif/measure.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <unordered_set>
#include <utility>

#include "common/random.h"
#include "data/datasets.h"

namespace li::lif {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  rows_.push_back(Row{false, "", std::move(cells)});
}

void Table::AddSection(std::string label) {
  rows_.push_back(Row{true, std::move(label), {}});
}

void Table::Print() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const Row& row : rows_) {
    if (row.is_section) continue;
    for (size_t c = 0; c < row.cells.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row.cells[c].size());
    }
  }
  auto rule = [&] {
    size_t total = 1;
    for (const size_t w : widths) total += w + 3;
    for (size_t i = 0; i < total; ++i) putchar('-');
    putchar('\n');
  };
  rule();
  printf("|");
  for (size_t c = 0; c < headers_.size(); ++c) {
    printf(" %-*s |", static_cast<int>(widths[c]), headers_[c].c_str());
  }
  printf("\n");
  rule();
  for (const Row& row : rows_) {
    if (row.is_section) {
      printf("| %s\n", row.section.c_str());
      continue;
    }
    printf("|");
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.cells.size() ? row.cells[c] : "";
      printf(" %*s |", static_cast<int>(widths[c]), cell.c_str());
    }
    printf("\n");
  }
  rule();
}

std::string Table::WithFactor(double value, double factor, int precision) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.*f (%.2fx)", precision, value, factor);
  return buf;
}

std::string Table::WithPercent(double value, double pct, int precision) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.*f (%.1f%%)", precision, value, pct);
  return buf;
}

size_t BenchScaleKeys(size_t default_millions) {
  size_t millions = default_millions;
  if (const char* env = std::getenv("REPRO_SCALE_M")) {
    const long v = atol(env);
    if (v > 0) millions = static_cast<size_t>(v);
  }
  return millions * 1'000'000;
}

namespace {

/// Deterministic interleaved op schedule at the target insert ratio.
/// Fine-grained (2^-20) ratio resolution so small ratios still schedule
/// inserts; the budget guard keeps the stream honest when the held-out
/// pool is smaller than ratio * ops.
void FillSchedule(ReadWriteWorkload& w, size_t ops, double ratio,
                  uint64_t seed) {
  Xorshift128Plus rng(seed ^ 0x9E3779B97F4A7C15ULL);
  w.is_insert.resize(ops);
  size_t budget = w.inserts.size();
  for (size_t i = 0; i < ops; ++i) {
    const bool ins = budget > 0 &&
                     static_cast<double>(rng.NextBounded(1u << 20)) <
                         ratio * static_cast<double>(1u << 20);
    if (ins) --budget;
    w.is_insert[i] = ins ? 1 : 0;
  }
}

}  // namespace

ReadWriteWorkload MakeReadWriteWorkload(std::span<const uint64_t> keys,
                                        size_t ops, double insert_ratio,
                                        size_t lookup_probes, uint64_t seed) {
  ReadWriteWorkload w;
  const double ratio = std::clamp(insert_ratio, 0.0, 1.0);
  const size_t want =
      std::min(keys.size() / 2,
               static_cast<size_t>(static_cast<double>(ops) * ratio));
  const size_t stride =
      want == 0 ? 0 : std::max<size_t>(2, keys.size() / want);
  w.base.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    if (stride != 0 && i % stride == 1 && w.inserts.size() < want) {
      w.inserts.push_back(keys[i]);
    } else {
      w.base.push_back(keys[i]);
    }
  }
  w.lookups =
      data::SampleKeys(w.base, std::max<size_t>(lookup_probes, 1), seed);
  FillSchedule(w, ops, ratio, seed);
  return w;
}

ReadWriteWorkload MakeSkewedReadWriteWorkload(std::span<const uint64_t> keys,
                                              size_t ops, double insert_ratio,
                                              size_t lookup_probes,
                                              uint64_t seed,
                                              const InsertSkew& skew) {
  if (skew.kind == InsertSkew::Kind::kUniform) {
    return MakeReadWriteWorkload(keys, ops, insert_ratio, lookup_probes, seed);
  }
  ReadWriteWorkload w;
  const double ratio = std::clamp(insert_ratio, 0.0, 1.0);
  w.base.assign(keys.begin(), keys.end());
  const size_t want =
      static_cast<size_t>(static_cast<double>(ops) * ratio);
  // Fresh keys synthesized into the targeted gaps; a used-set keeps the
  // stream duplicate-free, with sequential keys past the max as the
  // fallback when a drawn gap has no room left.
  std::unordered_set<uint64_t> used;
  used.reserve(want * 2);
  Xorshift128Plus rng(seed ^ 0xA5A5A5A5A5A5A5A5ULL);
  // The CDF table costs O(n) pow() calls — only build it when the zipf
  // path will actually draw from it.
  std::optional<ZipfGenerator> zipf;
  if (skew.kind == InsertSkew::Kind::kZipf) {
    zipf.emplace(keys.size() > 1 ? keys.size() - 1 : 1, skew.zipf_s,
                 seed ^ 0x5bd1e995ULL);
  }
  uint64_t overflow_next = keys.empty() ? 1 : keys.back() + 1;
  const double frac = std::clamp(skew.hotspot_fraction, 1e-4, 1.0);
  const size_t gaps = keys.size() > 1 ? keys.size() - 1 : 0;
  const size_t window = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(gaps) * frac));
  w.inserts.reserve(want);
  for (size_t i = 0; i < want; ++i) {
    uint64_t k = 0;
    bool ok = false;
    for (int attempt = 0; attempt < 8 && gaps > 0 && !ok; ++attempt) {
      size_t gi;
      if (skew.kind == InsertSkew::Kind::kZipf) {
        gi = zipf->Next();  // rank 0 = the lowest gap: head shards heat up
      } else {
        // Hotspot window slides across the gap range with stream
        // position, so the hot shard keeps changing.
        const size_t lo = gaps > window
                              ? static_cast<size_t>(
                                    static_cast<double>(i) /
                                    static_cast<double>(want) *
                                    static_cast<double>(gaps - window))
                              : 0;
        gi = lo + rng.NextBounded(window);
      }
      if (gi + 1 >= keys.size()) continue;
      const uint64_t a = keys[gi], b = keys[gi + 1];
      if (b - a < 2) continue;  // no fresh key fits this gap
      k = a + 1 + rng.NextBounded(b - a - 1);
      ok = used.insert(k).second;
    }
    if (!ok) {
      while (!used.insert(overflow_next).second) ++overflow_next;
      k = overflow_next++;
    }
    w.inserts.push_back(k);
  }
  w.lookups =
      data::SampleKeys(w.base, std::max<size_t>(lookup_probes, 1), seed);
  FillSchedule(w, ops, ratio, seed);
  return w;
}

}  // namespace li::lif
