#include "ftl/block_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "nand/flash_array.h"

namespace ppssd::ftl {
namespace {

SsdConfig small_config() { return SsdConfig::scaled(1024); }

nand::SlotWrite w(SubpageId slot, Lsn lsn) {
  return nand::SlotWrite{slot, lsn};
}

/// Program the allocated page so its frontier advances (alloc contract).
void commit(nand::FlashArray& arr, const PageAlloc& alloc, Lsn lsn) {
  const nand::SlotWrite ws[] = {w(0, lsn)};
  arr.program(alloc.block, alloc.page, ws, 0);
}

TEST(BlockManager, InitialFreeCounts) {
  nand::FlashArray arr(small_config());
  BlockManager bm(arr);
  const auto& geom = arr.geometry();
  for (std::uint32_t p = 0; p < geom.planes(); ++p) {
    EXPECT_EQ(bm.free_blocks(p, CellMode::kSlc), geom.slc_blocks_per_plane());
    EXPECT_EQ(bm.free_blocks(p, CellMode::kMlc),
              geom.blocks_per_plane() - geom.slc_blocks_per_plane());
  }
}

TEST(BlockManager, AllocatesSequentialPages) {
  nand::FlashArray arr(small_config());
  BlockManager bm(arr);
  Lsn lsn = 0;
  BlockId first_block = kInvalidBlock;
  for (PageId expect = 0; expect < 3; ++expect) {
    const auto alloc = bm.allocate_page(0, BlockLevel::kWork);
    ASSERT_TRUE(alloc.has_value());
    EXPECT_EQ(alloc->page, expect);
    if (first_block == kInvalidBlock) {
      first_block = alloc->block;
    } else {
      EXPECT_EQ(alloc->block, first_block);  // same open block
    }
    commit(arr, *alloc, lsn++);
  }
  EXPECT_TRUE(bm.is_open(first_block));
  // One block consumed from the free list.
  EXPECT_EQ(bm.free_blocks(0, CellMode::kSlc),
            arr.geometry().slc_blocks_per_plane() - 1);
}

TEST(BlockManager, OpensNewBlockWhenFull) {
  nand::FlashArray arr(small_config());
  BlockManager bm(arr);
  const std::uint32_t pages = arr.geometry().pages_per_block(CellMode::kSlc);
  Lsn lsn = 0;
  BlockId first = kInvalidBlock;
  for (std::uint32_t i = 0; i < pages; ++i) {
    const auto alloc = bm.allocate_page(0, BlockLevel::kWork);
    ASSERT_TRUE(alloc.has_value());
    first = alloc->block;
    commit(arr, *alloc, lsn++);
  }
  const auto alloc = bm.allocate_page(0, BlockLevel::kWork);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_NE(alloc->block, first);
  EXPECT_EQ(alloc->page, 0);
  // The filled block was closed: it is now a GC candidate.
  EXPECT_TRUE(bm.is_candidate(first));
}

TEST(BlockManager, LevelLabelsApplied) {
  nand::FlashArray arr(small_config());
  BlockManager bm(arr);
  const auto alloc = bm.allocate_page(0, BlockLevel::kHot);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(alloc->level, BlockLevel::kHot);
  EXPECT_EQ(arr.block(alloc->block).level(), BlockLevel::kHot);
  EXPECT_EQ(bm.level_count(0, BlockLevel::kHot), 1u);
}

TEST(BlockManager, LevelCapDegradesAllocation) {
  SsdConfig cfg = small_config();
  cfg.cache.hot_ratio = 0.05;  // cap: max(1, 26*0.05) = 1 Hot block
  nand::FlashArray arr(cfg);
  BlockManager bm(arr);
  const std::uint32_t pages = arr.geometry().pages_per_block(CellMode::kSlc);
  Lsn lsn = 0;
  // Fill the single allowed Hot block.
  for (std::uint32_t i = 0; i < pages; ++i) {
    const auto alloc = bm.allocate_page(0, BlockLevel::kHot);
    ASSERT_TRUE(alloc.has_value());
    EXPECT_EQ(alloc->level, BlockLevel::kHot);
    commit(arr, *alloc, lsn++);
  }
  // Next Hot allocation must degrade (cap reached).
  const auto alloc = bm.allocate_page(0, BlockLevel::kHot);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_NE(alloc->level, BlockLevel::kHot);
}

TEST(BlockManager, MlcAllocationsSeparate) {
  nand::FlashArray arr(small_config());
  BlockManager bm(arr);
  const auto slc = bm.allocate_page(0, BlockLevel::kWork);
  const auto mlc = bm.allocate_page(0, BlockLevel::kHighDensity);
  ASSERT_TRUE(slc && mlc);
  EXPECT_EQ(arr.block(slc->block).mode(), CellMode::kSlc);
  EXPECT_EQ(arr.block(mlc->block).mode(), CellMode::kMlc);
}

TEST(BlockManager, ExhaustionReturnsNullopt) {
  nand::FlashArray arr(small_config());
  BlockManager bm(arr);
  const auto& geom = arr.geometry();
  const std::uint64_t total_pages =
      static_cast<std::uint64_t>(geom.slc_blocks_per_plane()) *
      geom.pages_per_block(CellMode::kSlc);
  Lsn lsn = 0;
  for (std::uint64_t i = 0; i < total_pages; ++i) {
    const auto alloc = bm.allocate_page(0, BlockLevel::kWork);
    ASSERT_TRUE(alloc.has_value());
    commit(arr, *alloc, lsn++);
  }
  EXPECT_FALSE(bm.allocate_page(0, BlockLevel::kWork).has_value());
  EXPECT_EQ(bm.free_blocks(0, CellMode::kSlc), 0u);
}

TEST(BlockManager, ReleaseRecyclesBlock) {
  nand::FlashArray arr(small_config());
  BlockManager bm(arr);
  const std::uint32_t pages = arr.geometry().pages_per_block(CellMode::kSlc);
  Lsn lsn = 0;
  // Fill one block completely, then allocate once more to close it.
  BlockId filled = kInvalidBlock;
  for (std::uint32_t i = 0; i < pages; ++i) {
    const auto alloc = bm.allocate_page(0, BlockLevel::kWork);
    ASSERT_TRUE(alloc.has_value());
    filled = alloc->block;
    commit(arr, *alloc, lsn++);
  }
  commit(arr, *bm.allocate_page(0, BlockLevel::kWork), lsn++);
  ASSERT_TRUE(bm.is_candidate(filled));

  // Retire all its data, erase, release.
  for (std::uint32_t p = 0; p < pages; ++p) {
    arr.invalidate(filled, static_cast<PageId>(p), 0);
  }
  const auto before = bm.free_blocks(0, CellMode::kSlc);
  arr.erase(filled, 0);
  bm.release_block(filled);
  EXPECT_EQ(bm.free_blocks(0, CellMode::kSlc), before + 1);
  EXPECT_TRUE(bm.is_free(filled));
}

TEST(BlockManager, WearAwareAllocationPrefersLowErase) {
  nand::FlashArray arr(small_config());
  BlockManager bm(arr);
  const std::uint32_t pages = arr.geometry().pages_per_block(CellMode::kSlc);
  Lsn lsn = 0;
  // Fill + close one block, then wear it with two erases and release it.
  BlockId worn = kInvalidBlock;
  for (std::uint32_t i = 0; i < pages; ++i) {
    const auto alloc = bm.allocate_page(0, BlockLevel::kWork);
    worn = alloc->block;
    commit(arr, *alloc, lsn++);
  }
  commit(arr, *bm.allocate_page(0, BlockLevel::kWork), lsn++);
  for (std::uint32_t p = 0; p < pages; ++p) {
    arr.invalidate(worn, static_cast<PageId>(p), 0);
  }
  arr.erase(worn, 0);
  arr.erase(worn, 0);  // extra wear
  bm.release_block(worn);
  EXPECT_EQ(arr.block(worn).erase_count(), 2u);

  // Fresh (0-erase) blocks must be preferred over the worn one until the
  // free list holds nothing else.
  std::uint32_t remaining = bm.free_blocks(0, CellMode::kSlc);
  for (std::uint32_t i = 0; i + 1 < remaining; ++i) {
    const auto alloc = bm.allocate_page(0, BlockLevel::kMonitor);
    ASSERT_TRUE(alloc.has_value());
    EXPECT_NE(alloc->block, worn) << "worn block allocated too early";
    // Fill it to force the next allocation to open a new block.
    commit(arr, *alloc, lsn++);
    for (std::uint32_t p = 1; p < pages; ++p) {
      commit(arr, *bm.allocate_page(0, BlockLevel::kMonitor), lsn++);
    }
  }
}

TEST(BlockManager, GcThresholdBlocks) {
  nand::FlashArray arr(small_config());
  BlockManager bm(arr);
  // 26 SLC blocks/plane * 5% -> ceil = 2; floor of 2 enforced.
  EXPECT_GE(bm.gc_threshold_blocks(CellMode::kSlc), 2u);
  EXPECT_GE(bm.gc_threshold_blocks(CellMode::kMlc), 2u);
  EXPECT_FALSE(bm.needs_gc(0, CellMode::kSlc));
}

TEST(BlockManager, ForEachCandidateSkipsFreeAndOpen) {
  nand::FlashArray arr(small_config());
  BlockManager bm(arr);
  int candidates = 0;
  bm.for_each_candidate(0, CellMode::kSlc, [&](BlockId) { ++candidates; });
  EXPECT_EQ(candidates, 0);  // everything free initially
  const auto alloc = bm.allocate_page(0, BlockLevel::kWork);
  commit(arr, *alloc, 0);
  bm.for_each_candidate(0, CellMode::kSlc, [&](BlockId) { ++candidates; });
  EXPECT_EQ(candidates, 0);  // open block is not a candidate
}

/// Fill and close `n` SLC blocks on plane 0; returns the closed blocks.
std::vector<BlockId> make_closed_blocks(nand::FlashArray& arr,
                                        BlockManager& bm, std::uint32_t n) {
  const std::uint32_t pages = arr.geometry().pages_per_block(CellMode::kSlc);
  std::vector<BlockId> out;
  Lsn lsn = 0;
  for (std::uint32_t i = 0; i <= n; ++i) {
    for (std::uint32_t p = 0; p < pages; ++p) {
      const auto alloc = bm.allocate_page(0, BlockLevel::kWork);
      commit(arr, *alloc, lsn++);
      if (p == 0 && out.size() < n) out.push_back(alloc->block);
    }
  }
  // The (n+1)-th block stays open, so the first n are closed candidates.
  return out;
}

/// Reference implementation of the victim query: full candidate scan.
BlockId scan_max_invalid(const nand::FlashArray& arr, const BlockManager& bm,
                         std::uint32_t plane, CellMode mode) {
  BlockId best = kInvalidBlock;
  std::uint32_t best_invalid = 0;
  bm.for_each_candidate(plane, mode, [&](BlockId b) {
    const std::uint32_t invalid = arr.block(b).invalid_subpages();
    if (invalid > best_invalid) {
      best = b;
      best_invalid = invalid;
    }
  });
  return best;
}

TEST(BlockManagerVictimIndex, TracksInvalidationsAndReleases) {
  nand::FlashArray arr(small_config());
  BlockManager bm(arr);
  const auto blocks = make_closed_blocks(arr, bm, 3);
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(bm.max_invalid_candidate(0, CellMode::kSlc), kInvalidBlock);

  // Invalidations bubble candidates up; the query always agrees with a
  // full scan.
  arr.invalidate(blocks[1], 0, 0);
  EXPECT_EQ(bm.max_invalid_candidate(0, CellMode::kSlc), blocks[1]);
  arr.invalidate(blocks[2], 0, 0);
  arr.invalidate(blocks[2], 1, 0);
  EXPECT_EQ(bm.max_invalid_candidate(0, CellMode::kSlc), blocks[2]);
  EXPECT_EQ(bm.max_invalid_candidate(0, CellMode::kSlc),
            scan_max_invalid(arr, bm, 0, CellMode::kSlc));
  bm.check_victim_index();

  // Erase + release removes the front-runner; the watermark falls back.
  // (Pages 0 and 1 of blocks[2] are already invalid from above.)
  const std::uint32_t pages = arr.geometry().pages_per_block(CellMode::kSlc);
  for (std::uint32_t p = 2; p < pages; ++p) {
    arr.invalidate(blocks[2], static_cast<PageId>(p), 0);
  }
  arr.erase(blocks[2], 0);
  bm.release_block(blocks[2]);
  EXPECT_EQ(bm.max_invalid_candidate(0, CellMode::kSlc), blocks[1]);
  bm.check_victim_index();
}

TEST(BlockManagerVictimIndex, TieBreaksOnLowestBlockId) {
  nand::FlashArray arr(small_config());
  BlockManager bm(arr);
  const auto blocks = make_closed_blocks(arr, bm, 3);
  // Equal invalid counts everywhere: the lowest BlockId must win, exactly
  // as the pre-index linear scan behaved.
  for (const BlockId b : blocks) {
    arr.invalidate(b, 0, 0);
    arr.invalidate(b, 1, 0);
  }
  const BlockId lowest = *std::min_element(blocks.begin(), blocks.end());
  EXPECT_EQ(bm.max_invalid_candidate(0, CellMode::kSlc), lowest);
}

TEST(BlockManagerVictimIndex, OpenBlockInvalidationsCapturedAtClose) {
  nand::FlashArray arr(small_config());
  BlockManager bm(arr);
  const std::uint32_t pages = arr.geometry().pages_per_block(CellMode::kSlc);
  // Invalidate subpages of the block while it is still open...
  const auto first = bm.allocate_page(0, BlockLevel::kWork);
  commit(arr, *first, 0);
  arr.invalidate(first->block, first->page, 0);
  for (std::uint32_t p = 1; p < pages; ++p) {
    commit(arr, *bm.allocate_page(0, BlockLevel::kWork), p);
  }
  EXPECT_EQ(bm.max_invalid_candidate(0, CellMode::kSlc), kInvalidBlock);
  // ...then close it (next allocation opens a fresh block): the index
  // must file it under its full invalid count.
  commit(arr, *bm.allocate_page(0, BlockLevel::kWork), pages);
  EXPECT_EQ(bm.max_invalid_candidate(0, CellMode::kSlc), first->block);
  bm.check_victim_index();
}

}  // namespace
}  // namespace ppssd::ftl
