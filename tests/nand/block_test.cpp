// Block-level invariants (frontier rule, running aggregates, erase
// lifecycle) driven through the FlashArray — program/invalidate live on
// the array since the SoA refactor — plus the AgeHistogram unit tests.
#include "nand/block.h"

#include <gtest/gtest.h>

#include "common/config.h"
#include "common/units.h"
#include "nand/flash_array.h"

namespace ppssd::nand {
namespace {

SlotWrite w(SubpageId slot, Lsn lsn) { return SlotWrite{slot, lsn}; }

SsdConfig small_config() {
  SsdConfig cfg = SsdConfig::scaled(1024);
  cfg.cache.max_partial_programs = 4;
  return cfg;
}

TEST(Block, Construction) {
  Block slc(CellMode::kSlc, 64, 4);
  EXPECT_EQ(slc.mode(), CellMode::kSlc);
  EXPECT_EQ(slc.page_count(), 64u);
  EXPECT_EQ(slc.total_subpages(), 256u);
  EXPECT_EQ(slc.level(), BlockLevel::kWork);

  Block mlc(CellMode::kMlc, 128, 4);
  EXPECT_EQ(mlc.level(), BlockLevel::kHighDensity);
}

TEST(Block, SequentialFrontierAdvances) {
  FlashArray arr(small_config());
  EXPECT_EQ(arr.block(0).write_frontier(), 0u);
  const SlotWrite ws[] = {w(0, 1)};
  arr.program(0, 0, ws, 0);
  EXPECT_EQ(arr.block(0).write_frontier(), 1u);
  const SlotWrite ws2[] = {w(0, 2)};
  arr.program(0, 1, ws2, 0);
  EXPECT_EQ(arr.block(0).write_frontier(), 2u);
  EXPECT_TRUE(arr.block(0).has_free_page());
}

TEST(BlockDeathTest, OutOfOrderFirstProgramAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  FlashArray arr(small_config());
  const SlotWrite ws[] = {w(0, 1)};
  EXPECT_DEATH(arr.program(0, 2, ws, 0), "out-of-order");
}

TEST(Block, PartialProgramDoesNotAdvanceFrontier) {
  FlashArray arr(small_config());
  const SlotWrite first[] = {w(0, 1)};
  arr.program(0, 0, first, 0);
  const SlotWrite second[] = {w(1, 2)};
  EXPECT_TRUE(arr.program(0, 0, second, 0));  // partial
  EXPECT_EQ(arr.block(0).write_frontier(), 1u);
}

TEST(Block, ValidInvalidCounters) {
  FlashArray arr(small_config());
  const SlotWrite ws[] = {w(0, 1), w(1, 2), w(2, 3)};
  arr.program(0, 0, ws, 0);
  EXPECT_EQ(arr.block(0).valid_subpages(), 3u);
  EXPECT_EQ(arr.block(0).invalid_subpages(), 0u);
  arr.invalidate(0, 0, 1);
  EXPECT_EQ(arr.block(0).valid_subpages(), 2u);
  EXPECT_EQ(arr.block(0).invalid_subpages(), 1u);
  EXPECT_EQ(arr.block(0).programmed_subpages(), 3u);
}

TEST(Block, EraseResetsAndCounts) {
  FlashArray arr(small_config());
  const SlotWrite ws[] = {w(0, 1)};
  arr.program(0, 0, ws, 0);
  arr.invalidate(0, 0, 0);
  EXPECT_EQ(arr.block(0).erase_count(), 0u);
  arr.erase(0, ms_to_ns(5.0));
  EXPECT_EQ(arr.block(0).erase_count(), 1u);
  EXPECT_EQ(arr.block(0).write_frontier(), 0u);
  EXPECT_EQ(arr.block(0).valid_subpages(), 0u);
  EXPECT_EQ(arr.block(0).invalid_subpages(), 0u);
  EXPECT_EQ(arr.block(0).last_erase_time(), ms_to_ns(5.0));
  // Page 0 is programmable again.
  arr.program(0, 0, ws, ms_to_ns(5.0));
  EXPECT_EQ(arr.block(0).valid_subpages(), 1u);
}

TEST(Block, LevelLabelRoundTrip) {
  Block b(CellMode::kSlc, 4, 4);
  b.set_level(BlockLevel::kHot);
  EXPECT_EQ(b.level(), BlockLevel::kHot);
}

TEST(Block, FullBlockHasNoFreePage) {
  FlashArray arr(small_config());
  const std::uint32_t pages = arr.block(0).page_count();
  for (PageId p = 0; p < pages; ++p) {
    const SlotWrite ws[] = {w(0, p + 1)};
    arr.program(0, p, ws, 0);
  }
  EXPECT_FALSE(arr.block(0).has_free_page());
}

TEST(AgeHistogram, AddRemoveFold) {
  AgeHistogram h;
  h.add(10, 2);
  h.add(1000);
  EXPECT_EQ(h.total(), 3u);
  // Identity fold recovers the exact count; mean-write-time fold recovers
  // the exact sum because each bucket keeps its true sum.
  EXPECT_DOUBLE_EQ(h.fold([](double) { return 1.0; }), 3.0);
  EXPECT_DOUBLE_EQ(h.fold([](double m) { return m; }), 10.0 + 10.0 + 1000.0);
  h.remove(10);
  h.remove(1000);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_DOUBLE_EQ(h.fold([](double m) { return m; }), 10.0);
}

TEST(AgeHistogram, RebasedBucketsAreBaseRelative) {
  AgeHistogram h;
  h.clear(/*base_ms=*/1'000'000);
  // Same offsets from different bases land in the same buckets.
  AgeHistogram h0;
  EXPECT_EQ(h.bucket_of(1'000'000 + 37), h0.bucket_of(37));
  EXPECT_EQ(h.bucket_of(1'000'000), h0.bucket_of(0));
}

TEST(AgeHistogram, SubBucketsSeparateSameOctave) {
  // Offsets sharing a bit-width but differing in the next two significant
  // bits must not share a bucket (the width/8 error bound depends on it).
  AgeHistogram h;
  EXPECT_NE(h.bucket_of(0b100000), h.bucket_of(0b111000));
  EXPECT_NE(h.bucket_of(0b100000), h.bucket_of(0b101000));
}

class BlockAggregates : public ::testing::TestWithParam<CellMode> {};

TEST_P(BlockAggregates, MaintainedAcrossLifecycle) {
  FlashArray arr(small_config());
  const BlockId b = GetParam() == CellMode::kSlc
                        ? BlockId{0}
                        : arr.geometry().slc_blocks_per_plane();
  ASSERT_EQ(arr.block(b).mode(), GetParam());
  const Block& blk = arr.block(b);
  // Only SLC-mode blocks keep write times: the cold-population histogram
  // and the write-time sum. An MLC block holds no histogram, its sum
  // stays 0 and its slots read write time 0; its counts behave
  // identically.
  const AgeHistogram* hist = arr.age_histogram(b);
  ASSERT_EQ(hist != nullptr, GetParam() == CellMode::kSlc);
  const auto expect_cold = [hist](std::uint32_t n) {
    if (hist != nullptr) {
      EXPECT_EQ(hist->total(), n);
    }
  };
  const std::uint64_t slc = hist != nullptr ? 1 : 0;
  const auto expect_sum = [&blk, slc](std::uint64_t ms) {
    EXPECT_EQ(blk.sum_write_time_ms(), slc * ms);
  };

  // First program: both subpages enter the sum and (SLC) the cold
  // histogram.
  const SlotWrite first[] = {w(0, 1), w(1, 2)};
  arr.program(b, 0, first, ms_to_ns(2.0));
  expect_sum(4u);  // 2 * 2 ms
  expect_cold(2u);
  EXPECT_EQ(arr.subpage(b, 0, 1).write_time_ms, slc * 2);
  EXPECT_EQ(blk.valid_subpages(), 2u);

  // Partial program: the page becomes "updated", so its valid subpages
  // leave the cold population but stay in the age sum.
  const SlotWrite upd[] = {w(2, 3)};
  arr.program(b, 0, upd, ms_to_ns(7.0));
  expect_sum(11u);  // 2 + 2 + 7
  expect_cold(0u);

  // A fresh page keeps its own subpages cold.
  const SlotWrite second[] = {w(0, 4), w(1, 5), w(2, 6), w(3, 7)};
  arr.program(b, 1, second, ms_to_ns(9.0));
  expect_sum(11u + 4 * 9);
  expect_cold(4u);

  // Invalidation drops the subpage from the sum; only never-updated pages
  // also shed a histogram entry.
  arr.invalidate(b, 0, 0);  // updated page: histogram untouched
  expect_sum(9u + 4 * 9);
  expect_cold(4u);
  arr.invalidate(b, 1, 3);  // never-updated page
  expect_sum(9u + 3 * 9);
  expect_cold(3u);
  EXPECT_EQ(blk.valid_subpages(), 5u);
  EXPECT_EQ(blk.invalid_subpages(), 2u);

  // Erase zeroes everything and rebases the histogram on the erase time.
  for (SubpageId s = 0; s < 3; ++s) arr.invalidate(b, 1, s);
  arr.invalidate(b, 0, 1);
  arr.invalidate(b, 0, 2);
  arr.erase(b, ms_to_ns(50.0));
  expect_sum(0u);
  expect_cold(0u);
  if (hist != nullptr) {
    EXPECT_EQ(hist->base_ms(), 50u);
  }

  // Reprogram after erase: aggregates restart from the new base.
  const SlotWrite again[] = {w(0, 8)};
  arr.program(b, 0, again, ms_to_ns(60.0));
  expect_sum(60u);
  expect_cold(1u);
  EXPECT_EQ(arr.subpage(b, 0, 0).write_time_ms, slc * 60);
}

INSTANTIATE_TEST_SUITE_P(BothModes, BlockAggregates,
                         ::testing::Values(CellMode::kSlc, CellMode::kMlc));

}  // namespace
}  // namespace ppssd::nand
