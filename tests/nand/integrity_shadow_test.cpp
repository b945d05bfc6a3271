// The test-side data-integrity check (tests/support/integrity_shadow.h)
// must bite: a FlashArray history with a lost write, a stale copy or a
// copy out of another LSN's slot is reported, while the same history done
// right is clean. These are the faults the library's former per-LSN
// version table caught as "stored version is stale".
#include <gtest/gtest.h>

#include "common/config.h"
#include "nand/flash_array.h"
#include "support/integrity_shadow.h"

namespace ppssd::nand {
namespace {

struct Fixture {
  FlashArray arr{SsdConfig::scaled(1024)};
  test::IntegrityShadow shadow{arr};
  BlockId slc = 0;
  BlockId mlc = arr.geometry().slc_blocks_per_plane();

  Fixture() {
    // lsn 5 written twice (the first copy superseded), lsn 6 once.
    host(slc, 0, 0, 5);
    host(slc, 0, 1, 6);
    arr.invalidate(slc, 0, 0);
    host(slc, 1, 0, 5);
  }
  void host(BlockId b, PageId p, SubpageId s, Lsn lsn) {
    const SlotWrite w[] = {{s, lsn}};
    arr.program(b, p, w, 0);
  }
  /// GC-style copy of `lsn` into MLC page `p`, slot 0, naming `from` as
  /// the source; the LSN's current copy at (cb, cp, cs) retires first.
  void copy(Lsn lsn, std::uint32_t from, PageId p, BlockId cb, PageId cp,
            SubpageId cs) {
    arr.invalidate(cb, cp, cs);
    const SlotWrite w[] = {{0, lsn, from}};
    arr.program(mlc, p, w, 0);
  }
};

TEST(IntegrityShadow, CorrectHistoryIsClean) {
  Fixture f;
  EXPECT_EQ(f.shadow.host_writes(5), 2u);
  EXPECT_EQ(f.shadow.host_writes(6), 1u);
  f.copy(5, f.arr.source_slot(f.slc, 1, 0), 0, f.slc, 1, 0);
  f.copy(6, f.arr.source_slot(f.slc, 0, 1), 1, f.slc, 0, 1);
  EXPECT_EQ(f.shadow.token(f.mlc, 0, 0), f.shadow.latest(5));
  EXPECT_EQ(f.shadow.violation(), "");
  // The emptied SLC block erases cleanly; the copies stay the latest.
  f.arr.erase(f.slc, 0);
  EXPECT_EQ(f.shadow.violation(), "");
}

TEST(IntegrityShadow, CatchesLostWrite) {
  Fixture f;
  // A host write of lsn 6 supersedes its copy but never reaches flash.
  f.arr.invalidate(f.slc, 0, 1);
  const std::string v = f.shadow.violation();
  EXPECT_NE(v.find("lsn 6"), std::string::npos) << v;
  EXPECT_NE(v.find("lost"), std::string::npos) << v;
}

TEST(IntegrityShadow, CatchesStaleCopy) {
  Fixture f;
  // GC relocates lsn 5 but copies the retired first version.
  f.copy(5, f.arr.source_slot(f.slc, 0, 0), 0, f.slc, 1, 0);
  const std::string v = f.shadow.violation();
  EXPECT_NE(v.find("stale or foreign copy"), std::string::npos) << v;
  EXPECT_NE(v.find("lsn 5"), std::string::npos) << v;
}

TEST(IntegrityShadow, CatchesCopyOfAnotherLsn) {
  Fixture f;
  // GC relocates lsn 5 out of the slot that holds lsn 6.
  f.copy(5, f.arr.source_slot(f.slc, 0, 1), 0, f.slc, 1, 0);
  const std::string v = f.shadow.violation();
  EXPECT_NE(v.find("stale or foreign copy"), std::string::npos) << v;
  EXPECT_NE(v.find("lsn 5"), std::string::npos) << v;
}

TEST(IntegrityShadow, CatchesSourceOutOfRange) {
  Fixture f;
  const SlotWrite w[] = {{0, 5, kHostData - 1}};
  f.arr.program(f.mlc, 0, w, 0);
  EXPECT_NE(f.shadow.violation().find("out of range"), std::string::npos);
}

}  // namespace
}  // namespace ppssd::nand
