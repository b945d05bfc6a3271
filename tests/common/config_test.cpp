#include "common/config.h"

#include <gtest/gtest.h>

namespace ppssd {
namespace {

TEST(SsdConfig, PaperDefaultsMatchTable2) {
  const SsdConfig cfg = SsdConfig::paper();
  EXPECT_EQ(cfg.geometry.total_blocks, 65536u);
  EXPECT_EQ(cfg.geometry.page_bytes, 16u * 1024u);
  EXPECT_EQ(cfg.geometry.pages_per_slc_block, 64u);
  EXPECT_EQ(cfg.geometry.pages_per_mlc_block, 128u);
  EXPECT_DOUBLE_EQ(cfg.cache.slc_ratio, 0.05);
  EXPECT_DOUBLE_EQ(cfg.cache.gc_threshold, 0.05);
  EXPECT_EQ(cfg.timing.slc_read, ms_to_ns(0.025));
  EXPECT_EQ(cfg.timing.mlc_read, ms_to_ns(0.05));
  EXPECT_EQ(cfg.timing.slc_write, ms_to_ns(0.3));
  EXPECT_EQ(cfg.timing.mlc_write, ms_to_ns(0.9));
  EXPECT_EQ(cfg.timing.erase, ms_to_ns(10.0));
  EXPECT_EQ(cfg.ecc.min_decode, ms_to_ns(0.0005));
  EXPECT_EQ(cfg.ecc.max_decode, ms_to_ns(0.0968));
  EXPECT_EQ(cfg.wear.initial_pe_cycles, 4000u);
  EXPECT_EQ(cfg.cache.max_partial_programs, 4u);
  EXPECT_TRUE(cfg.validate().empty()) << cfg.validate();
}

TEST(SsdConfig, ScaledKeepsBlocksPerPlane) {
  for (const std::uint32_t blocks : {2048u, 8192u, 16384u, 32768u}) {
    const SsdConfig cfg = SsdConfig::scaled(blocks);
    EXPECT_TRUE(cfg.validate().empty()) << cfg.validate();
    EXPECT_EQ(cfg.geometry.total_blocks, blocks);
    EXPECT_EQ(cfg.geometry.total_blocks / cfg.geometry.planes(), 512u)
        << "scaled() should preserve the paper's 512 blocks/plane";
  }
}

TEST(SsdConfig, SubpagesPerPage) {
  const SsdConfig cfg;
  EXPECT_EQ(cfg.geometry.subpages_per_page(), 4u);
}

TEST(SsdConfig, SlcBlockCount) {
  const SsdConfig cfg = SsdConfig::paper();
  EXPECT_EQ(cfg.slc_block_count(), 3276u);  // 5% of 65536
}

TEST(SsdConfig, ValidateCatchesBadGeometry) {
  SsdConfig cfg;
  cfg.geometry.total_blocks = 100;  // not a multiple of 128 planes
  EXPECT_FALSE(cfg.validate().empty());
}

TEST(SsdConfig, ValidateCatchesBadRatios) {
  SsdConfig cfg;
  cfg.cache.slc_ratio = 0.0;
  EXPECT_FALSE(cfg.validate().empty());

  cfg = SsdConfig{};
  cfg.cache.gc_threshold = 1.5;
  EXPECT_FALSE(cfg.validate().empty());

  cfg = SsdConfig{};
  cfg.cache.monitor_ratio = 0.6;
  cfg.cache.hot_ratio = 0.6;
  EXPECT_FALSE(cfg.validate().empty());
}

TEST(SsdConfig, ValidateCatchesBadEcc) {
  SsdConfig cfg;
  cfg.ecc.min_decode = cfg.ecc.max_decode + 1;
  EXPECT_FALSE(cfg.validate().empty());

  cfg = SsdConfig{};
  cfg.ecc.t_per_codeword = 0;
  EXPECT_FALSE(cfg.validate().empty());
}

TEST(SsdConfig, ValidateCatchesBadPageSplit) {
  SsdConfig cfg;
  cfg.geometry.page_bytes = 10000;  // not a whole number of 4K subpages
  EXPECT_FALSE(cfg.validate().empty());
}

// A page with more subpages than the NAND layer's fixed slot arrays hold
// would abort in the block constructor; validate() must refuse it first.
TEST(SsdConfig, ValidateRejectsMoreSubpagesThanAPageHolds) {
  SsdConfig cfg = SsdConfig::scaled(1024);
  cfg.geometry.page_bytes = 64 * kKiB;  // 16 subpages
  EXPECT_NE(cfg.validate().find("subpages"), std::string::npos)
      << cfg.validate();
  cfg.geometry.page_bytes = 32 * kKiB;  // 8 subpages: the largest accepted
  EXPECT_TRUE(cfg.validate().empty()) << cfg.validate();
}

TEST(Units, Conversions) {
  EXPECT_EQ(ms_to_ns(1.0), 1'000'000u);
  EXPECT_EQ(ms_to_ns(0.0005), 500u);
  EXPECT_EQ(us_to_ns(2.5), 2500u);
  EXPECT_DOUBLE_EQ(ns_to_ms(1'500'000), 1.5);
  EXPECT_EQ(bytes_to_subpages(1), 1u);
  EXPECT_EQ(bytes_to_subpages(4096), 1u);
  EXPECT_EQ(bytes_to_subpages(4097), 2u);
  EXPECT_EQ(bytes_to_subpages(16384), 4u);
}

}  // namespace
}  // namespace ppssd
