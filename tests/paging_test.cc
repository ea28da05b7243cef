// Tests for the Appendix-D.2 paged index: the simulated disk's page and
// slice accounting, and the learned index that reads only the
// error-bounded slice of one page per probe.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/random.h"
#include "data/datasets.h"
#include "paging/paged_index.h"

namespace li {
namespace {

TEST(SimulatedDiskTest, StoreAndReadBack) {
  const auto keys = data::GenUniform(10'000, 11);
  paging::SimulatedDisk disk;
  ASSERT_TRUE(disk.Store(keys, 256).ok());
  EXPECT_EQ(disk.num_pages(), (keys.size() + 255) / 256);
  // Logical page p starts at keys[p * 256].
  for (size_t lp = 0; lp < disk.num_logical_pages(); ++lp) {
    EXPECT_EQ(disk.FirstKeyOfLogicalPage(lp), keys[lp * 256]);
    const auto page = disk.ReadPage(disk.PhysicalPageOf(lp));
    ASSERT_FALSE(page.empty());
    EXPECT_EQ(page.front(), keys[lp * 256]);
  }
  EXPECT_EQ(disk.page_reads(), disk.num_logical_pages());
}

TEST(SimulatedDiskTest, SliceAccounting) {
  const auto keys = data::GenUniform(1024, 12);
  paging::SimulatedDisk disk;
  ASSERT_TRUE(disk.Store(keys, 256).ok());
  disk.ResetCounters();
  const auto slice = disk.ReadPageSlice(disk.PhysicalPageOf(0), 10, 20);
  EXPECT_EQ(slice.size(), 10u);
  EXPECT_EQ(disk.bytes_read(), 10 * sizeof(uint64_t));
  EXPECT_EQ(disk.page_reads(), 1u);
}

TEST(PagedIndexTest, FindsEveryKeyWithOnePageRead) {
  const auto keys = data::GenWeblog(100'000, 13);
  paging::SimulatedDisk disk;
  ASSERT_TRUE(disk.Store(keys, 512).ok());
  paging::PagedLearnedIndex index;
  ASSERT_TRUE(index.Build(keys, &disk, 2048).ok());
  disk.ResetCounters();
  size_t probes = 0;
  for (size_t i = 0; i < keys.size(); i += 7) {
    const auto pos = index.Find(keys[i]);
    ASSERT_TRUE(pos.has_value()) << i;
    EXPECT_EQ(*pos, i);
    ++probes;
  }
  // The error-bounded slice should almost always hit on the first read.
  EXPECT_LT(static_cast<double>(disk.page_reads()),
            static_cast<double>(probes) * 1.2);
}

TEST(PagedIndexTest, SliceReadsBeatFullPages) {
  // Appendix D.2: the min/max error window shrinks the bytes read.
  const auto keys = data::GenMaps(100'000, 14);
  paging::SimulatedDisk disk;
  ASSERT_TRUE(disk.Store(keys, 1024).ok());
  paging::PagedLearnedIndex index;
  ASSERT_TRUE(index.Build(keys, &disk, 4096).ok());
  disk.ResetCounters();
  const size_t probes = 5000;
  for (size_t i = 0; i < probes; ++i) {
    index.Find(keys[(i * 37) % keys.size()]);
  }
  const double bytes_per_probe =
      static_cast<double>(disk.bytes_read()) / probes;
  EXPECT_LT(bytes_per_probe, 1024 * sizeof(uint64_t) / 4.0);
}

TEST(PagedIndexTest, AbsentKeysReturnNullopt) {
  const auto keys = data::GenUniform(20'000, 15, uint64_t{1} << 40);
  paging::SimulatedDisk disk;
  ASSERT_TRUE(disk.Store(keys, 256).ok());
  paging::PagedLearnedIndex index;
  ASSERT_TRUE(index.Build(keys, &disk, 1024).ok());
  std::set<uint64_t> keyset(keys.begin(), keys.end());
  Xorshift128Plus rng(16);
  for (int i = 0; i < 10'000; ++i) {
    const uint64_t probe = rng.Next();
    if (!keyset.count(probe)) {
      EXPECT_FALSE(index.Find(probe).has_value());
    }
  }
}

TEST(PagedIndexTest, CountRangeMatchesBruteForce) {
  const auto keys = data::GenLognormal(50'000, 17);
  paging::SimulatedDisk disk;
  ASSERT_TRUE(disk.Store(keys, 256).ok());
  paging::PagedLearnedIndex index;
  ASSERT_TRUE(index.Build(keys, &disk, 1024).ok());
  Xorshift128Plus rng(18);
  for (int trial = 0; trial < 200; ++trial) {
    const uint64_t a = keys[rng.NextBounded(keys.size())];
    const uint64_t b = keys[rng.NextBounded(keys.size())];
    const uint64_t lo = std::min(a, b), hi = std::max(a, b);
    size_t expect = 0;
    for (const uint64_t k : keys) expect += (k >= lo && k < hi);
    ASSERT_EQ(index.CountRange(lo, hi), expect) << trial;
  }
}

}  // namespace
}  // namespace li
