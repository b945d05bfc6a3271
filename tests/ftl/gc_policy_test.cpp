#include "ftl/gc_policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/units.h"
#include "nand/flash_array.h"

namespace ppssd::ftl {
namespace {

SsdConfig small_config() { return SsdConfig::scaled(1024); }

nand::SlotWrite w(SubpageId slot, Lsn lsn) {
  return nand::SlotWrite{slot, lsn};
}

/// Fill `pages` pages of a block with 4 valid subpages each at time `t`.
void fill_block(nand::FlashArray& arr, BlockId b, std::uint32_t pages,
                SimTime t, Lsn base = 0) {
  for (std::uint32_t p = 0; p < pages; ++p) {
    const nand::SlotWrite ws[] = {w(0, base + p * 4), w(1, base + p * 4 + 1),
                                  w(2, base + p * 4 + 2),
                                  w(3, base + p * 4 + 3)};
    arr.program(b, static_cast<PageId>(p), ws, t);
  }
}

/// Advance a block's state so it counts as a GC candidate.
struct Fixture {
  Fixture() : arr(small_config()), bm(arr) {}

  /// Take `n` blocks out of the free list and close them.
  std::vector<BlockId> make_candidates(std::uint32_t n) {
    std::vector<BlockId> out;
    const std::uint32_t pages = arr.geometry().pages_per_block(CellMode::kSlc);
    for (std::uint32_t i = 0; i <= n; ++i) {
      for (std::uint32_t p = 0; p < pages; ++p) {
        const auto alloc = bm.allocate_page(0, BlockLevel::kWork);
        const nand::SlotWrite ws[] = {w(0, 100000 + i * pages * 4 + p)};
        arr.program(alloc->block, alloc->page, ws, 0);
        if (p == 0 && out.size() < n) out.push_back(alloc->block);
      }
    }
    // Drop the helper fills so candidate blocks start clean for tests:
    // invalidate everything in the returned blocks and erase them, then
    // re-program per test. Simpler: return blocks as-is; tests overwrite
    // via invalidate patterns on the one filled subpage per page.
    return out;
  }

  nand::FlashArray arr;
  BlockManager bm;
};

TEST(GreedyPolicy, PicksMostInvalid) {
  Fixture f;
  const auto blocks = f.make_candidates(2);
  ASSERT_EQ(blocks.size(), 2u);
  // blocks[0]: invalidate 10 subpages; blocks[1]: invalidate 20.
  for (std::uint32_t p = 0; p < 10; ++p) {
    f.arr.invalidate(blocks[0], static_cast<PageId>(p), 0);
  }
  for (std::uint32_t p = 0; p < 20; ++p) {
    f.arr.invalidate(blocks[1], static_cast<PageId>(p), 0);
  }
  GreedyPolicy greedy;
  EXPECT_EQ(greedy.select_victim(f.arr, f.bm, 0, CellMode::kSlc, 0),
            blocks[1]);
}

TEST(GreedyPolicy, NoVictimWhenNothingInvalid) {
  Fixture f;
  f.make_candidates(2);
  GreedyPolicy greedy;
  EXPECT_EQ(greedy.select_victim(f.arr, f.bm, 0, CellMode::kSlc, 0),
            kInvalidBlock);
}

TEST(IsrPolicy, ColdWeightZeroForEmptyBlock) {
  const nand::FlashArray arr(small_config());
  EXPECT_EQ(IsrPolicy::cold_weight(arr, 0, ms_to_ns(1000), 100.0), 0.0);
  EXPECT_EQ(IsrPolicy::isr(arr, 0, ms_to_ns(1000), 100.0), 0.0);
  EXPECT_EQ(IsrPolicy::age_sum(arr.block(0), ms_to_ns(1000)).second, 0u);
}

TEST(IsrPolicy, ColdWeightGrowsWithAge) {
  // Two identical blocks; one written long ago.
  nand::FlashArray arr(small_config());
  fill_block(arr, 0, 8, /*t=*/0);
  const BlockId b2 = arr.geometry().slc_block_at(1);
  fill_block(arr, b2, 8, /*t=*/ms_to_ns(90'000));

  // Normalised by the fleet-wide mean age, the older block weighs more.
  const SimTime now = ms_to_ns(100'000);
  const auto [s1, c1] = IsrPolicy::age_sum(arr.block(0), now);
  const auto [s2, c2] = IsrPolicy::age_sum(arr.block(b2), now);
  const double mean = (s1 + s2) / static_cast<double>(c1 + c2);
  EXPECT_GT(IsrPolicy::cold_weight(arr, 0, now, mean),
            IsrPolicy::cold_weight(arr, b2, now, mean));
}

TEST(IsrPolicy, UpdatedPagesExcludedFromColdWeight) {
  nand::FlashArray arr(small_config());
  fill_block(arr, 0, 4, 0);
  const double before =
      IsrPolicy::cold_weight(arr, 0, ms_to_ns(1000), 500.0);

  // Same fill but every page receives a partial program ("updated").
  const BlockId b2 = arr.geometry().slc_block_at(1);
  for (std::uint32_t p = 0; p < 4; ++p) {
    const nand::SlotWrite first[] = {w(0, 5000 + p * 4), w(1, 5001 + p * 4)};
    arr.program(b2, static_cast<PageId>(p), first, 0);
    const nand::SlotWrite upd[] = {w(2, 5002 + p * 4)};
    arr.program(b2, static_cast<PageId>(p), upd, 0);
  }
  EXPECT_GT(before, 0.0);
  EXPECT_EQ(IsrPolicy::cold_weight(arr, b2, ms_to_ns(1000), 500.0),
            0.0);
}

TEST(IsrPolicy, IsrCombinesInvalidAndColdTerms) {
  // Paper's Figure 4 example: a block with fewer invalid subpages but
  // cold valid data can beat a hotter block with slightly more invalids.
  nand::FlashArray arr(small_config());

  // Candidate A: 6 invalid subpages, remaining data "hot" (updated).
  fill_block(arr, 0, 4, ms_to_ns(99'000));  // recent data
  for (std::uint32_t i = 0; i < 6; ++i) {
    arr.invalidate(0, static_cast<PageId>(i / 4),
                   static_cast<SubpageId>(i % 4));
  }

  // Candidate B: 6 invalid subpages + very old never-updated data.
  const BlockId b2 = arr.geometry().slc_block_at(1);
  fill_block(arr, b2, 4, /*t=*/0, /*base=*/4000);
  for (std::uint32_t i = 0; i < 6; ++i) {
    arr.invalidate(b2, static_cast<PageId>(i / 4),
                   static_cast<SubpageId>(i % 4));
  }

  const SimTime now = ms_to_ns(100'000);
  const auto [s1, c1] = IsrPolicy::age_sum(arr.block(0), now);
  const auto [s2, c2] = IsrPolicy::age_sum(arr.block(b2), now);
  const double mean = (s1 + s2) / static_cast<double>(c1 + c2);
  EXPECT_GT(IsrPolicy::isr(arr, b2, now, mean),
            IsrPolicy::isr(arr, 0, now, mean));
}

TEST(IsrPolicy, IsrBounded) {
  nand::FlashArray arr(small_config());
  fill_block(arr, 0, 16, 0);
  const double isr = IsrPolicy::isr(arr, 0, ms_to_ns(1'000'000), 10.0);
  // IS=0, IS' <= valid count: ISR <= used/total <= 1.
  EXPECT_GE(isr, 0.0);
  EXPECT_LE(isr, 1.0);
}

TEST(IsrPolicy, SelectsColdBlockOverHotBlock) {
  Fixture f;
  const auto blocks = f.make_candidates(2);
  ASSERT_EQ(blocks.size(), 2u);
  // Equal invalid counts; blocks hold equal data but blocks[0]'s pages are
  // "updated" (partial-programmed), blocks[1]'s are not.
  for (std::uint32_t p = 20; p < 40; ++p) {
    const nand::SlotWrite upd[] = {w(1, 777000 + p)};
    f.arr.program(blocks[0], static_cast<PageId>(p), upd, ms_to_ns(10.0));
  }
  for (std::uint32_t p = 0; p < 5; ++p) {
    f.arr.invalidate(blocks[0], static_cast<PageId>(p), 0);
    f.arr.invalidate(blocks[1], static_cast<PageId>(p), 0);
  }
  IsrPolicy isr;
  EXPECT_EQ(isr.select_victim(f.arr, f.bm, 0, CellMode::kSlc,
                              ms_to_ns(50'000)),
            blocks[1]);
}

/// Property sweep: ISR is monotone in the number of invalid subpages.
class IsrMonotonicity : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(IsrMonotonicity, MoreInvalidNeverLowersIsr) {
  nand::FlashArray arr(small_config());
  fill_block(arr, 0, 8, 0);
  const SimTime now = ms_to_ns(10'000);
  double prev = IsrPolicy::isr(arr, 0, now, 5000.0);
  const std::uint32_t invalidate = GetParam();
  for (std::uint32_t i = 0; i < invalidate; ++i) {
    arr.invalidate(0, static_cast<PageId>(i / 4),
                   static_cast<SubpageId>(i % 4));
    const double cur = IsrPolicy::isr(arr, 0, now, 5000.0);
    EXPECT_GE(cur + 1e-9, prev);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, IsrMonotonicity,
                         ::testing::Values(4u, 12u, 32u));

/// Build a plane of candidates with staggered write times, scattered
/// updates and invalidations — a miniature of steady-state GC input.
struct EquivalenceFixture : Fixture {
  EquivalenceFixture() {
    blocks = make_candidates(4);
    const std::uint32_t pages = arr.geometry().pages_per_block(CellMode::kSlc);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const BlockId b = blocks[i];
      for (std::uint32_t p = 0; p < pages; ++p) {
        // Stagger extra writes over time; update every third page.
        const SimTime t = ms_to_ns(100.0 * static_cast<double>(i * pages + p));
        const nand::SlotWrite extra[] = {w(1, 900000 + i * pages * 4 + p)};
        arr.program(b, static_cast<PageId>(p), extra, t);
        if (p % 3 == 0) {
          const nand::SlotWrite upd[] = {w(2, 950000 + i * pages * 4 + p)};
          arr.program(b, static_cast<PageId>(p), upd, t + ms_to_ns(1.0));
        }
      }
      // Invalidate a block-dependent share of the first subpages.
      for (std::uint32_t p = 0; p < pages / (i + 1); ++p) {
        arr.invalidate(b, static_cast<PageId>(p), 0);
      }
    }
  }

  std::vector<BlockId> blocks;
};

TEST(GcEquivalence, AggregateAgeSumMatchesExactWalk) {
  EquivalenceFixture f;
  const SimTime now = ms_to_ns(500'000);
  for (const BlockId b : f.blocks) {
    const auto [opt_sum, opt_n] = IsrPolicy::age_sum(f.arr.block(b), now);
    const auto [ref_sum, ref_n] = IsrPolicy::age_sum_exact(f.arr, b, now);
    EXPECT_EQ(opt_n, ref_n);
    EXPECT_NEAR(opt_sum, ref_sum, 1e-6 * std::max(1.0, ref_sum));
  }
}

TEST(GcEquivalence, BucketedColdWeightTracksExact) {
  EquivalenceFixture f;
  const SimTime now = ms_to_ns(500'000);
  for (const BlockId b : f.blocks) {
    const auto [sum, n] = IsrPolicy::age_sum_exact(f.arr, b, now);
    const double mean = n ? sum / static_cast<double>(n) : 0.0;
    const double opt = IsrPolicy::cold_weight(f.arr, b, now, mean);
    const double ref = IsrPolicy::cold_weight_exact(f.arr, b, now, mean);
    // The bucketed fold evaluates the concave kernel at per-bucket mean
    // write times; with sub-octave buckets the error stays well under 1%.
    EXPECT_NEAR(opt, ref, 0.01 * std::max(1.0, ref));
  }
}

TEST(GcEquivalence, SelectVictimMatchesReference) {
  EquivalenceFixture f;
  const SimTime now = ms_to_ns(500'000);
  const GreedyPolicy greedy;
  EXPECT_EQ(greedy.select_victim(f.arr, f.bm, 0, CellMode::kSlc, now),
            greedy.select_victim_reference(f.arr, f.bm, 0, CellMode::kSlc));
  const IsrPolicy isr;
  EXPECT_EQ(isr.select_victim(f.arr, f.bm, 0, CellMode::kSlc, now),
            isr.select_victim_reference(f.arr, f.bm, 0, CellMode::kSlc, now));
}

}  // namespace
}  // namespace ppssd::ftl
