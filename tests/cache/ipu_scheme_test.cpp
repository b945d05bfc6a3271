#include "cache/ipu_scheme.h"

#include <gtest/gtest.h>

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
  explicit Harness(SsdConfig cfg = small_config()) : scheme(cfg) {}

  void write(Lsn lsn, std::uint32_t count) {
    ops.clear();
    scheme.host_write(lsn, count, now += ms_to_ns(1.0), ops);
  }

  IpuScheme scheme;
  test::IntegrityShadow shadow{scheme.array()};
  std::vector<PhysOp> ops;
  SimTime now = 0;
};

TEST(IpuScheme, FirstWriteLandsInWorkBlock) {
  Harness h;
  h.write(100, 1);
  const auto addr = h.scheme.device_map().lookup(100);
  ASSERT_TRUE(addr.valid());
  EXPECT_EQ(h.scheme.array().block(addr.block).level(), BlockLevel::kWork);
  EXPECT_EQ(h.scheme.metrics().level_subpages[1], 1u);
}

TEST(IpuScheme, UpdateStaysInSamePage) {
  Harness h;
  h.write(100, 1);
  const auto v1 = h.scheme.device_map().lookup(100);
  h.write(100, 1);  // intra-page update
  const auto v2 = h.scheme.device_map().lookup(100);
  EXPECT_EQ(v1.block, v2.block);
  EXPECT_EQ(v1.page, v2.page);
  EXPECT_NE(v1.subpage, v2.subpage);
  EXPECT_EQ(h.scheme.metrics().intra_page_updates, 1u);
  // The page now shows one partial program.
  EXPECT_EQ(h.scheme.array().block(v1.block).page(v1.page).program_ops(), 2);
  h.scheme.check_consistency();
  h.shadow.check(h.scheme);
}

TEST(IpuScheme, InPageDisturbHitsOnlyInvalidData) {
  // The core claim of Section 3.1: after an intra-page update, the latest
  // version has absorbed zero in-page disturb.
  Harness h;
  h.write(100, 1);
  h.write(100, 1);
  h.write(100, 1);
  const auto addr = h.scheme.device_map().lookup(100);
  const auto snap =
      h.scheme.array().disturb_of(addr.block, addr.page, addr.subpage);
  EXPECT_EQ(snap.in_page_disturbs, 0u);
}

TEST(IpuScheme, FourthVersionClimbsToMonitor) {
  // A 1-subpage extent: v1 + 3 in-place updates exhaust the page (4
  // program ops); the next update relocates one level up.
  Harness h;
  for (int i = 0; i < 4; ++i) h.write(100, 1);
  const auto before = h.scheme.device_map().lookup(100);
  EXPECT_EQ(h.scheme.array().block(before.block).level(), BlockLevel::kWork);

  h.write(100, 1);  // 5th version: upgrade
  const auto after = h.scheme.device_map().lookup(100);
  EXPECT_NE(before.block, after.block);
  EXPECT_EQ(h.scheme.array().block(after.block).level(),
            BlockLevel::kMonitor);
  EXPECT_EQ(h.scheme.metrics().level_subpages[2], 1u);
  h.scheme.check_consistency();
  h.shadow.check(h.scheme);
}

TEST(IpuScheme, HotDataReachesHotLevelAndStays) {
  Harness h;
  for (int i = 0; i < 30; ++i) h.write(100, 1);
  const auto addr = h.scheme.device_map().lookup(100);
  EXPECT_EQ(h.scheme.array().block(addr.block).level(), BlockLevel::kHot);
  EXPECT_GT(h.scheme.metrics().level_subpages[3], 0u);
}

TEST(IpuScheme, TwoSubpageExtentAlternatesInPlaceAndRelocate) {
  Harness h;
  h.write(200, 2);  // page: 2 used, 2 free
  const auto v1 = h.scheme.device_map().lookup(200);
  h.write(200, 2);  // fits: in-place
  const auto v2 = h.scheme.device_map().lookup(200);
  EXPECT_EQ(v1.page, v2.page);
  h.write(200, 2);  // page full: relocate
  const auto v3 = h.scheme.device_map().lookup(200);
  EXPECT_FALSE(v3.block == v2.block && v3.page == v2.page);
  EXPECT_EQ(h.scheme.metrics().intra_page_updates, 2u);
}

TEST(IpuScheme, PagesHoldSingleExtent) {
  // IPU's no-second-level-table invariant: a page only ever contains
  // versions of one extent.
  Harness h;
  for (Lsn lsn = 0; lsn < 400; lsn += 4) {
    h.write(lsn, 1);
  }
  for (int round = 0; round < 2; ++round) {
    for (Lsn lsn = 0; lsn < 400; lsn += 8) {
      h.write(lsn, 1);
    }
  }
  const auto& geom = h.scheme.array().geometry();
  for (std::uint32_t ord = 0; ord < geom.slc_block_count(); ++ord) {
    const auto& blk = h.scheme.array().block(geom.slc_block_at(ord));
    for (std::uint32_t p = 0; p < blk.write_frontier(); ++p) {
      const auto& tag = h.scheme.offsets().lookup(
          geom, geom.slc_block_at(ord), static_cast<PageId>(p));
      for (std::uint32_t s = 0; s < 4; ++s) {
        const nand::Subpage sp = h.scheme.array().subpage(
            geom.slc_block_at(ord), static_cast<PageId>(p),
            static_cast<SubpageId>(s));
        if (sp.state == nand::SubpageState::kFree) continue;
        ASSERT_NE(tag.extent_base, kInvalidLsn);
        EXPECT_GE(sp.owner_lsn, tag.extent_base);
        EXPECT_LT(sp.owner_lsn, tag.extent_base + tag.extent_len);
      }
    }
  }
}

TEST(IpuScheme, OffsetTableTracksLatestVersion) {
  Harness h;
  h.write(100, 1);
  const auto addr = h.scheme.device_map().lookup(100);
  EXPECT_EQ(h.scheme.offsets()
                .lookup(h.scheme.array().geometry(), addr.block, addr.page)
                .latest_offset,
            0);
  h.write(100, 1);
  const auto addr2 = h.scheme.device_map().lookup(100);
  EXPECT_EQ(h.scheme.offsets()
                .lookup(h.scheme.array().geometry(), addr2.block, addr2.page)
                .latest_offset,
            addr2.subpage);
}

TEST(IpuScheme, MisalignedOverlapTreatedAsNewData) {
  // A write overlapping only part of a cached extent takes the new-data
  // path (Algorithm 1 resolves whole requests).
  Harness h;
  h.write(300, 2);  // extent [300, 302)
  h.write(301, 2);  // overlaps the tail + one fresh subpage
  EXPECT_EQ(h.scheme.metrics().intra_page_updates, 0u);
  EXPECT_EQ(h.shadow.host_writes(301), 2u);
  EXPECT_EQ(h.shadow.host_writes(302), 1u);
  h.scheme.check_consistency();
  h.shadow.check(h.scheme);
}

TEST(IpuScheme, ColdDataSinksOnGcAndHotSurvives) {
  Harness h;
  // A hot extent updated repeatedly between cold floods: each flood turns
  // the cache over, but the extent is updated often enough to stay
  // protected (its page is "updated" in every GC generation).
  for (int round = 0; round < 10; ++round) {
    for (int u = 0; u < 6; ++u) h.write(4, 1);
    for (Lsn lsn = 1000 + static_cast<Lsn>(round) * 8'000;
         lsn < 1000 + static_cast<Lsn>(round + 1) * 8'000; lsn += 2) {
      h.write(lsn, 2);
      if (lsn % 512 == 0) h.write(4, 1);  // keep the hot extent hot
    }
  }
  ASSERT_GT(h.scheme.metrics().slc_gc_count, 0u);
  ASSERT_GT(h.scheme.metrics().evicted_subpages, 0u);
  // The hot extent is still cached; early cold data was ejected to MLC.
  EXPECT_TRUE(h.scheme.cached_in_slc(4));
  EXPECT_TRUE(h.scheme.device_map().mapped(1000));
  EXPECT_FALSE(h.scheme.cached_in_slc(1000));
  h.scheme.check_consistency();
  h.shadow.check(h.scheme);
}

TEST(IpuScheme, AblationFlagsChangeBehaviour) {
  SsdConfig cfg = small_config();
  Harness no_ipp(cfg);
  no_ipp.scheme.set_options({true, true, false});
  no_ipp.write(100, 1);
  no_ipp.write(100, 1);
  EXPECT_EQ(no_ipp.scheme.metrics().intra_page_updates, 0u);

  Harness no_levels(cfg);
  no_levels.scheme.set_options({true, false, true});
  for (int i = 0; i < 12; ++i) no_levels.write(100, 1);
  EXPECT_EQ(no_levels.scheme.metrics().level_subpages[2], 0u);
  EXPECT_EQ(no_levels.scheme.metrics().level_subpages[3], 0u);
}

TEST(IpuScheme, CombineColdSharesPagesAcrossRequests) {
  Harness h;
  h.scheme.set_options({true, true, true, /*combine_cold=*/true});
  // Two first-seen 1-subpage writes issued back-to-back: with 2 planes
  // they rotate; the third lands in the first plane's shared page.
  h.write(100, 1);
  h.write(500, 1);
  h.write(900, 1);
  const auto a = h.scheme.device_map().lookup(100);
  const auto c = h.scheme.device_map().lookup(900);
  EXPECT_TRUE(a.block == c.block && a.page == c.page)
      << "cold data should aggregate into the shared page";
  EXPECT_GT(h.scheme.array().counters().partial_program_ops, 0u);
  h.scheme.check_consistency();
  h.shadow.check(h.scheme);
}

TEST(IpuScheme, CombineColdStillUpdatesInPlace) {
  Harness h;
  h.scheme.set_options({true, true, true, /*combine_cold=*/true});
  h.write(100, 1);   // first write: combined as cold
  h.write(100, 1);   // second write: known data, update path
  EXPECT_TRUE(h.scheme.cached_in_slc(100));
  EXPECT_EQ(h.shadow.host_writes(100), 2u);
  h.scheme.check_consistency();
  h.shadow.check(h.scheme);
}

TEST(IpuScheme, CombineColdImprovesGcUtilization) {
  SsdConfig cfg = small_config();
  Harness plain(cfg);
  Harness combined(cfg);
  combined.scheme.set_options({true, true, true, true});
  for (Harness* h : {&plain, &combined}) {
    for (Lsn lsn = 0; lsn < 120'000; lsn += 2) {
      h->write(lsn, 2);
    }
  }
  ASSERT_GT(plain.scheme.metrics().slc_gc_count, 0u);
  ASSERT_GT(combined.scheme.metrics().slc_gc_count, 0u);
  EXPECT_GT(combined.scheme.metrics().gc_utilization.mean(),
            plain.scheme.metrics().gc_utilization.mean());
  combined.scheme.check_consistency();
  combined.shadow.check(combined.scheme);
}

TEST(IpuScheme, WorksAcrossFullWorkload) {
  Harness h;
  // A working set that fits the cache, rewritten with consistent extent
  // sizes (in-place updates engage), then a cold flood (GC engages).
  for (int round = 0; round < 4; ++round) {
    for (Lsn lsn = 0; lsn < 8'000; lsn += 4) {
      h.write(lsn, 1 + (lsn / 4) % 2);
    }
  }
  const auto& m = h.scheme.metrics();
  EXPECT_GT(m.intra_page_updates, 0u);
  for (Lsn lsn = 100'000; lsn < 160'000; lsn += 2) {
    h.write(lsn, 2);
  }
  h.scheme.check_consistency();
  h.shadow.check(h.scheme);
  EXPECT_GT(m.slc_gc_count, 0u);
  EXPECT_GT(m.evicted_subpages, 0u);
}

}  // namespace
}  // namespace ppssd::cache
