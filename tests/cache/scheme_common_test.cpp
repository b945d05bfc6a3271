// Shared Scheme machinery: read path, eviction, MLC GC, prefill,
// consistency checking. Exercised through the Baseline scheme (simplest
// placement) unless noted.
#include <gtest/gtest.h>

#include "cache/scheme.h"
#include "common/units.h"
#include "support/integrity_shadow.h"

namespace ppssd::cache {
namespace {

SsdConfig small_config() {
  SsdConfig cfg = SsdConfig::scaled(1024);
  cfg.cache.gc_interleave_ops = 0;
  return cfg;
}

struct Harness {
  explicit Harness(const char* name = "Baseline",
                   SsdConfig cfg = small_config())
      : scheme(make_scheme(name, cfg)) {}

  void write(Lsn lsn, std::uint32_t count) {
    ops.clear();
    scheme->host_write(lsn, count, clock(), ops);
  }
  void read(Lsn lsn, std::uint32_t count) {
    ops.clear();
    scheme->host_read(lsn, count, clock(), ops);
  }
  SimTime clock() { return now += ms_to_ns(1.0); }

  std::unique_ptr<Scheme> scheme;
  test::IntegrityShadow shadow{scheme->array()};
  std::vector<PhysOp> ops;
  SimTime now = 0;
};

TEST(SchemeCommon, WriteThenReadRoundTrip) {
  Harness h;
  h.write(100, 2);
  EXPECT_EQ(h.shadow.host_writes(100), 1u);
  EXPECT_EQ(h.shadow.host_writes(101), 1u);
  EXPECT_TRUE(h.scheme->cached_in_slc(100));

  h.read(100, 2);
  ASSERT_EQ(h.ops.size(), 1u);  // both subpages in one SLC page
  EXPECT_EQ(h.ops[0].kind, PhysOp::Kind::kRead);
  EXPECT_EQ(h.ops[0].mode, CellMode::kSlc);
  EXPECT_EQ(h.ops[0].subpages, 2u);
  EXPECT_EQ(h.scheme->metrics().host_reads_slc, 2u);
  h.scheme->check_consistency();
  h.shadow.check(*h.scheme);
}

TEST(SchemeCommon, UnmappedReadIsFree) {
  Harness h;
  h.read(500, 3);
  EXPECT_TRUE(h.ops.empty());
  EXPECT_EQ(h.scheme->metrics().host_reads_unmapped, 3u);
  EXPECT_EQ(h.scheme->metrics().read_ber.count(), 0u);
}

TEST(SchemeCommon, OverwriteInvalidatesOldVersion) {
  Harness h;
  h.write(10, 1);
  const auto first = h.scheme->device_map().lookup(10);
  h.write(10, 1);
  const auto second = h.scheme->device_map().lookup(10);
  EXPECT_NE(first, second);
  EXPECT_EQ(h.shadow.host_writes(10), 2u);
  // The old slot is invalid now.
  EXPECT_EQ(h.scheme->array().subpage_state(first.block, first.page,
                                            first.subpage),
            nand::SubpageState::kInvalid);
  h.scheme->check_consistency();
  h.shadow.check(*h.scheme);
}

TEST(SchemeCommon, WriteEmitsForegroundProgram) {
  Harness h;
  h.write(0, 4);
  ASSERT_GE(h.ops.size(), 1u);
  EXPECT_EQ(h.ops[0].kind, PhysOp::Kind::kProgram);
  EXPECT_FALSE(h.ops[0].background);
  EXPECT_EQ(h.ops[0].subpages, 4u);
}

TEST(SchemeCommon, PrefillPopulatesMlc) {
  Harness h;
  const auto filled = h.scheme->prefill_mlc(10'000, 2);
  EXPECT_EQ(filled, 10'000u);
  EXPECT_FALSE(h.scheme->cached_in_slc(0));
  EXPECT_TRUE(h.scheme->device_map().mapped(9'999));
  EXPECT_FALSE(h.scheme->device_map().mapped(10'000));
  // Prefill resets the metric counters.
  EXPECT_EQ(h.scheme->metrics().mlc_subpages_written, 0u);

  h.read(0, 4);
  ASSERT_EQ(h.ops.size(), 1u);
  EXPECT_EQ(h.ops[0].mode, CellMode::kMlc);
  EXPECT_EQ(h.scheme->metrics().host_reads_mlc, 4u);
  h.scheme->check_consistency();
  h.shadow.check(*h.scheme);
}

TEST(SchemeCommon, PrefillRespectsFreeFloor) {
  Harness h;
  const auto& geom = h.scheme->array().geometry();
  const std::uint32_t floor = 100;
  h.scheme->prefill_mlc(geom.logical_subpages(), floor);
  for (std::uint32_t p = 0; p < geom.planes(); ++p) {
    EXPECT_LE(h.scheme->blocks().free_blocks(p, CellMode::kMlc), floor + 1);
    EXPECT_GE(h.scheme->blocks().free_blocks(p, CellMode::kMlc), floor);
  }
}

TEST(SchemeCommon, UpdateOfMlcDataEntersCacheAndInvalidatesMlc) {
  Harness h;
  h.scheme->prefill_mlc(1'000, 2);
  const auto old_addr = h.scheme->device_map().lookup(40);
  h.write(40, 1);
  EXPECT_TRUE(h.scheme->cached_in_slc(40));
  EXPECT_EQ(h.scheme->array().subpage_state(old_addr.block, old_addr.page,
                                            old_addr.subpage),
            nand::SubpageState::kInvalid);
  h.scheme->check_consistency();
  h.shadow.check(*h.scheme);
}

TEST(SchemeCommon, SlcGcTriggersWhenCacheFills) {
  Harness h;
  // Write far more than the SLC cache (26 blocks * 2 planes * 64 pages
  // * 16KiB = 52 MiB) at 2 subpages per write.
  for (Lsn lsn = 0; lsn < 60'000; lsn += 2) {
    h.write(lsn, 2);
  }
  const auto& m = h.scheme->metrics();
  EXPECT_GT(m.slc_gc_count, 0u);
  EXPECT_GT(m.evicted_subpages, 0u);
  EXPECT_GT(h.scheme->array().counters().slc_erases, 0u);
  // Evicted data is readable from MLC.
  h.read(0, 2);
  EXPECT_EQ(h.scheme->metrics().host_reads_unmapped, 0u);
  h.scheme->check_consistency();
  h.shadow.check(*h.scheme);
}

TEST(SchemeCommon, GcEmitsBackgroundOps) {
  Harness h;
  bool saw_bg_program = false;
  bool saw_erase = false;
  for (Lsn lsn = 0; lsn < 60'000 && !(saw_bg_program && saw_erase);
       lsn += 2) {
    h.write(lsn, 2);
    for (const auto& op : h.ops) {
      if (op.background && op.kind == PhysOp::Kind::kProgram) {
        saw_bg_program = true;
      }
      if (op.kind == PhysOp::Kind::kErase) saw_erase = true;
    }
  }
  EXPECT_TRUE(saw_bg_program);
  EXPECT_TRUE(saw_erase);
}

TEST(SchemeCommon, MlcGcReclaimsSpace) {
  Harness h;
  const auto& geom = h.scheme->array().geometry();
  // Nearly fill MLC, then rewrite a slice repeatedly so invalid pages
  // accumulate and evictions force MLC GC.
  h.scheme->prefill_mlc(geom.logical_subpages(),
                        h.scheme->blocks().gc_threshold_blocks(
                            CellMode::kMlc) + 2);
  for (int round = 0; round < 6; ++round) {
    for (Lsn lsn = 0; lsn < 40'000; lsn += 2) {
      h.write(lsn, 2);
    }
  }
  EXPECT_GT(h.scheme->metrics().mlc_gc_count, 0u);
  EXPECT_GT(h.scheme->array().counters().mlc_erases, 0u);
  h.scheme->check_consistency();
  h.shadow.check(*h.scheme);
}

TEST(SchemeCommon, ReadBerGrowsWithDeviceWear) {
  SsdConfig young = small_config();
  young.wear.initial_pe_cycles = 1000;
  SsdConfig old_cfg = small_config();
  old_cfg.wear.initial_pe_cycles = 8000;

  Harness hy("Baseline", young);
  Harness ho("Baseline", old_cfg);
  hy.write(0, 4);
  ho.write(0, 4);
  hy.read(0, 4);
  ho.read(0, 4);
  EXPECT_GT(ho.scheme->metrics().read_ber.mean(),
            hy.scheme->metrics().read_ber.mean());
}

TEST(SchemeCommon, VersionsSurviveEviction) {
  Harness h;
  h.write(7, 1);
  h.write(7, 1);
  h.write(7, 1);
  // Force eviction pressure.
  for (Lsn lsn = 1000; lsn < 60'000; lsn += 2) {
    h.write(lsn, 2);
  }
  EXPECT_EQ(h.shadow.host_writes(7), 3u);
  h.scheme->check_consistency();
  h.shadow.check(*h.scheme);  // stored data is the latest write everywhere
}

TEST(SchemeCommon, FootprintMatchesKind) {
  Harness base("Baseline");
  Harness mga("MGA");
  Harness ipu("IPU");
  EXPECT_EQ(base.scheme->footprint().scheme_extra, 0u);
  EXPECT_GT(mga.scheme->footprint().scheme_extra,
            ipu.scheme->footprint().scheme_extra);
}

}  // namespace
}  // namespace ppssd::cache
