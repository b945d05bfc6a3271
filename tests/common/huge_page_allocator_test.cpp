#include "common/huge_page_allocator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/state_io.h"

namespace ppssd {
namespace {

bool huge_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kHugePageBytes == 0;
}

/// VmFlags of the /proc/self/smaps mapping that contains `p`, or "" when
/// smaps is unavailable.
std::string vm_flags_of(const void* p) {
  std::ifstream smaps("/proc/self/smaps");
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  std::string line;
  bool inside = false;
  while (std::getline(smaps, line)) {
    unsigned long lo = 0;
    unsigned long hi = 0;
    if (std::sscanf(line.c_str(), "%lx-%lx ", &lo, &hi) == 2) {
      inside = lo <= addr && addr < hi;
    } else if (inside && line.rfind("VmFlags:", 0) == 0) {
      return line;
    }
  }
  return "";
}

TEST(HugePageAllocator, LargeAllocationsAreHugePageAligned) {
  HugePageAllocator<std::uint32_t> alloc;
  // Exactly one huge page, and a size that needs rounding up.
  for (const std::size_t n :
       {kHugePageBytes / 4, kHugePageBytes / 4 + 3, 3 * kHugePageBytes / 4}) {
    std::uint32_t* p = alloc.allocate(n);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(huge_aligned(p)) << n;
    // The whole requested range is writable.
    for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::uint32_t>(i);
    EXPECT_EQ(p[n - 1], n - 1);
    alloc.deallocate(p, n);
  }
}

TEST(HugePageAllocator, LargeAllocationsAreAdvisedHugePages) {
  std::ifstream thp("/sys/kernel/mm/transparent_hugepage/enabled");
  if (!thp) GTEST_SKIP() << "kernel without transparent huge pages";
  HugePageAllocator<char> alloc;
  char* p = alloc.allocate(kHugePageBytes);
  const std::string flags = vm_flags_of(p);
  if (flags.empty()) {
    alloc.deallocate(p, kHugePageBytes);
    GTEST_SKIP() << "/proc/self/smaps unavailable";
  }
  // "hg" is the VmFlags spelling of MADV_HUGEPAGE.
  EXPECT_NE(flags.find(" hg"), std::string::npos) << flags;
  alloc.deallocate(p, kHugePageBytes);
}

TEST(HugePageAllocator, SmallAllocationsUseTheDefaultAllocator) {
  HugePageAllocator<std::uint64_t> alloc;
  const std::size_t n = kHugePageBytes / sizeof(std::uint64_t) - 1;
  std::uint64_t* p = alloc.allocate(n);
  p[0] = 1;
  p[n - 1] = 2;
  // Below the threshold the buffer is the default allocator's, so the
  // default allocator can release it.
  std::allocator<std::uint64_t>().deallocate(p, n);
}

TEST(HugePageAllocator, VectorGrowthMoveAndCopy) {
  HugeVector<std::uint32_t> v;
  // Grow through the threshold one element at a time: the early buffers
  // are default-allocated, the later ones huge-page mapped.
  const std::size_t n = 3 * kHugePageBytes / sizeof(std::uint32_t) / 2;
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back(static_cast<std::uint32_t>(i * 7));
  }
  ASSERT_EQ(v.size(), n);
  EXPECT_TRUE(huge_aligned(v.data()));
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(v[i], static_cast<std::uint32_t>(i * 7)) << i;
  }

  const HugeVector<std::uint32_t> copy = v;
  EXPECT_EQ(copy, v);
  EXPECT_NE(copy.data(), v.data());
  EXPECT_TRUE(huge_aligned(copy.data()));

  const std::uint32_t* buffer = v.data();
  HugeVector<std::uint32_t> moved = std::move(v);
  EXPECT_EQ(moved.data(), buffer);
  EXPECT_EQ(moved, copy);

  // Shrinking reallocates below the threshold and keeps the contents.
  moved.resize(16);
  moved.shrink_to_fit();
  EXPECT_EQ(moved.size(), 16u);
  EXPECT_EQ(moved[15], 15u * 7);

  HugeVector<std::uint8_t> zeroed(kHugePageBytes + 1, 0);
  EXPECT_TRUE(huge_aligned(zeroed.data()));
  EXPECT_EQ(std::accumulate(zeroed.begin(), zeroed.end(), 0u), 0u);
}

TEST(HugePageAllocator, StateRowsRoundTripThroughTheAllocator) {
  HugeVector<std::uint16_t> rows(kHugePageBytes / sizeof(std::uint16_t) + 5);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i] = static_cast<std::uint16_t>(i * 31);
  }
  const std::vector<std::uint16_t> plain(rows.begin(), rows.end());

  // The checkpoint bytes depend only on the elements, not the allocator.
  io::StateSink huge_sink;
  huge_sink.vec(rows);
  io::StateSink plain_sink;
  plain_sink.vec(plain);
  EXPECT_EQ(huge_sink.buffer(), plain_sink.buffer());

  // vec_into restores in place into a pre-sized huge-page table...
  HugeVector<std::uint16_t> back(rows.size());
  io::StateSource src(huge_sink.buffer());
  ASSERT_TRUE(src.vec_into(back));
  EXPECT_TRUE(src.exhausted());
  EXPECT_EQ(back, rows);

  // ...and sticky-fails on a length mismatch, leaving the table untouched.
  HugeVector<std::uint16_t> wrong(rows.size() - 1, 9);
  io::StateSource bad(huge_sink.buffer());
  EXPECT_FALSE(bad.vec_into(wrong));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(wrong.front(), 9u);

  // A plain-vector read of the same stream sees the same elements.
  io::StateSource as_plain(huge_sink.buffer());
  EXPECT_EQ(as_plain.vec<std::uint16_t>(), plain);
}

}  // namespace
}  // namespace ppssd
