// DisturbSnapshot assembly (FlashArray::disturb_of): in-page and
// neighbour disturb counts relative to each subpage's write, and P/E
// cycles from configured initial wear plus block erases.
#include "nand/disturb.h"

#include <gtest/gtest.h>

#include "common/config.h"
#include "nand/flash_array.h"

namespace ppssd::nand {
namespace {

SlotWrite w(SubpageId slot, Lsn lsn) { return SlotWrite{slot, lsn}; }

SsdConfig worn_config(std::uint64_t initial_pe) {
  SsdConfig cfg = SsdConfig::scaled(1024);
  cfg.cache.max_partial_programs = 4;
  cfg.wear.initial_pe_cycles = initial_pe;
  return cfg;
}

TEST(Disturb, SnapshotTracksPartialPrograms) {
  FlashArray arr(worn_config(4000));
  const SlotWrite first[] = {w(0, 10)};
  const SlotWrite second[] = {w(1, 11)};
  const SlotWrite third[] = {w(2, 12)};
  arr.program(0, 0, first, 0);
  arr.program(0, 0, second, 0);
  arr.program(0, 0, third, 0);

  EXPECT_EQ(arr.disturb_of(0, 0, 0).in_page_disturbs, 2u);
  EXPECT_EQ(arr.disturb_of(0, 0, 2).in_page_disturbs, 0u);
}

TEST(Disturb, PeIncludesBlockErases) {
  FlashArray arr(worn_config(1000));
  const BlockId mlc = arr.geometry().slc_blocks_per_plane();
  ASSERT_EQ(arr.block(mlc).mode(), CellMode::kMlc);
  const SlotWrite a[] = {w(0, 1)};
  arr.program(mlc, 0, a, 0);
  arr.invalidate(mlc, 0, 0);
  arr.erase(mlc, 0);
  arr.program(mlc, 0, a, 0);
  const auto snap = arr.disturb_of(mlc, 0, 0);
  EXPECT_EQ(snap.pe_cycles, 1001u);
  EXPECT_EQ(snap.mode, CellMode::kMlc);
}

TEST(Disturb, NeighborCountsRelativeToWrite) {
  FlashArray arr(worn_config(0));
  const SlotWrite a[] = {w(0, 1)};
  arr.program(0, 0, a, 0);
  // Two programs of the adjacent wordline disturb page 0's stored data.
  const SlotWrite n1[] = {w(0, 2)};
  const SlotWrite n2[] = {w(1, 3)};
  arr.program(0, 1, n1, 0);
  arr.program(0, 1, n2, 0);
  EXPECT_EQ(arr.disturb_of(0, 0, 0).neighbor_disturbs, 2u);
}

}  // namespace
}  // namespace ppssd::nand
