#include "paging/paged_index.h"

#include <algorithm>

#include "common/random.h"
#include "search/search.h"

namespace li::paging {

Status SimulatedDisk::Store(std::span<const uint64_t> keys,
                            size_t keys_per_page, uint64_t seed) {
  if (keys_per_page == 0) {
    return Status::InvalidArgument("SimulatedDisk: keys_per_page == 0");
  }
  if (!std::is_sorted(keys.begin(), keys.end())) {
    return Status::InvalidArgument("SimulatedDisk: keys must be sorted");
  }
  keys_per_page_ = keys_per_page;
  const size_t num_pages = (keys.size() + keys_per_page - 1) / keys_per_page;
  pages_.assign(num_pages, {});
  logical_to_physical_.resize(num_pages);
  first_keys_.resize(num_pages);

  // Random physical placement.
  std::vector<uint32_t> perm(num_pages);
  for (size_t i = 0; i < num_pages; ++i) perm[i] = static_cast<uint32_t>(i);
  Xorshift128Plus rng(seed);
  for (size_t i = num_pages; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.NextBounded(i)]);
  }
  for (size_t lp = 0; lp < num_pages; ++lp) {
    const size_t begin = lp * keys_per_page;
    const size_t end = std::min(begin + keys_per_page, keys.size());
    logical_to_physical_[lp] = perm[lp];
    first_keys_[lp] = keys[begin];
    pages_[perm[lp]].assign(keys.begin() + begin, keys.begin() + end);
  }
  page_reads_ = 0;
  bytes_read_ = 0;
  return Status::OK();
}

std::span<const uint64_t> SimulatedDisk::ReadPage(uint32_t page_id) const {
  ++page_reads_;
  const auto& page = pages_[page_id];
  bytes_read_ += page.size() * sizeof(uint64_t);
  return page;
}

std::span<const uint64_t> SimulatedDisk::ReadPageSlice(uint32_t page_id,
                                                       size_t from,
                                                       size_t to) const {
  ++page_reads_;
  const auto& page = pages_[page_id];
  from = std::min(from, page.size());
  to = std::clamp(to, from, page.size());
  bytes_read_ += (to - from) * sizeof(uint64_t);
  return std::span<const uint64_t>(page).subspan(from, to - from);
}

Status PagedLearnedIndex::Build(std::span<const uint64_t> keys,
                                const SimulatedDisk* disk,
                                size_t num_leaf_models) {
  if (disk == nullptr) {
    return Status::InvalidArgument("PagedLearnedIndex: null disk");
  }
  disk_ = disk;
  fence_copy_.assign(keys.begin(), keys.end());
  rmi::RmiConfig config;
  config.num_leaf_models = std::max<size_t>(16, num_leaf_models);
  LI_RETURN_IF_ERROR(rmi_.Build(fence_copy_, config));
  translation_.resize(disk->num_logical_pages());
  for (size_t lp = 0; lp < translation_.size(); ++lp) {
    translation_[lp] = {disk->FirstKeyOfLogicalPage(lp),
                        disk->PhysicalPageOf(lp)};
  }
  return Status::OK();
}

std::optional<size_t> PagedLearnedIndex::Find(uint64_t key) const {
  if (translation_.empty()) return std::nullopt;
  const size_t kpp = disk_->keys_per_page();
  const index::Approx pred = rmi_.ApproxPos(key);

  // Candidate logical pages from the error window, then pick the page
  // whose fence key covers `key` (at most a handful of fence compares).
  size_t lp0 = pred.lo / kpp;
  size_t lp1 = std::min((pred.hi == 0 ? 0 : pred.hi - 1) / kpp,
                        translation_.size() - 1);
  // Fence check: last page in [lp0, lp1] with first_key <= key; extend
  // left if even lp0's fence is above the key (window undershoot).
  while (lp0 > 0 && translation_[lp0].first_key > key) --lp0;
  while (lp1 + 1 < translation_.size() &&
         translation_[lp1 + 1].first_key <= key) {
    ++lp1;
  }
  size_t lp = lp0;
  for (size_t cand = lp0; cand <= lp1; ++cand) {
    if (translation_[cand].first_key <= key) {
      lp = cand;
    } else {
      break;
    }
  }

  // Bounded in-page read: intersect the error window with the page.
  const size_t page_base = lp * kpp;
  size_t from = pred.lo > page_base ? pred.lo - page_base : 0;
  size_t to = pred.hi > page_base ? pred.hi - page_base : 0;
  to = std::min(to, kpp);
  std::span<const uint64_t> slice =
      disk_->ReadPageSlice(translation_[lp].physical_page, from, to);
  size_t idx = search::BinarySearch(slice.data(), 0, slice.size(), key);
  if (idx < slice.size() && slice[idx] == key) {
    return page_base + from + idx;
  }
  // Window may have clipped the key (absent keys, or bound mismatch):
  // fall back to the full page.
  std::span<const uint64_t> page =
      disk_->ReadPage(translation_[lp].physical_page);
  idx = search::BinarySearch(page.data(), 0, page.size(), key);
  if (idx < page.size() && page[idx] == key) {
    return page_base + idx;
  }
  return std::nullopt;
}

size_t PagedLearnedIndex::CountRange(uint64_t lo_key, uint64_t hi_key) const {
  if (translation_.empty() || lo_key >= hi_key) return 0;
  const size_t kpp = disk_->keys_per_page();
  // Locate the starting page via the model window + fences.
  const index::Approx pred = rmi_.ApproxPos(lo_key);
  size_t lp = std::min(pred.lo / kpp, translation_.size() - 1);
  while (lp > 0 && translation_[lp].first_key > lo_key) --lp;
  while (lp + 1 < translation_.size() &&
         translation_[lp + 1].first_key <= lo_key) {
    ++lp;
  }
  size_t count = 0;
  for (; lp < translation_.size(); ++lp) {
    if (translation_[lp].first_key >= hi_key && count > 0) break;
    std::span<const uint64_t> page =
        disk_->ReadPage(translation_[lp].physical_page);
    for (const uint64_t k : page) {
      count += (k >= lo_key && k < hi_key);
    }
    if (!page.empty() && page.back() >= hi_key) break;
  }
  return count;
}

}  // namespace li::paging
