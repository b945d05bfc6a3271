// Randomized property testing: drive every scheme with adversarial
// random workloads and verify the DESIGN.md §5 invariants plus full
// read-your-writes data integrity: the driver counts the writes it
// issued, and an IntegrityShadow on the array (DESIGN.md §7) checks that
// every stored copy is its LSN's latest write.
#include <gtest/gtest.h>

#include <unordered_map>

#include "common/rng.h"
#include "common/units.h"
#include "sim/ssd.h"
#include "support/integrity_shadow.h"

namespace ppssd {
namespace {

struct Shadow {
  // lsn -> host writes issued.
  std::unordered_map<Lsn, std::uint32_t> versions;
};

struct FuzzParams {
  const char* kind;
  std::uint64_t seed;
  std::uint64_t footprint_subpages;  // address locality knob
  double write_ratio;
};

class SchemeFuzz
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SchemeFuzz, RandomWorkloadKeepsAllInvariants) {
  const auto [scheme_idx, variant] = GetParam();
  static constexpr const char* kSchemes[] = {"Baseline", "MGA", "IPU", "IPS"};
  const char* kind = kSchemes[scheme_idx];

  SsdConfig cfg = SsdConfig::scaled(1024);
  cfg.cache.gc_interleave_ops = static_cast<std::uint32_t>(variant);  // 0,1,2
  sim::Ssd ssd(cfg, kind);
  const test::IntegrityShadow data(ssd.scheme().array());

  // Tight footprint for variant 0 (heavy update/GC churn), wide for
  // others (heavy cold flow).
  const std::uint64_t footprint =
      variant == 0 ? 20'000 : ssd.scheme()
                                      .array()
                                      .geometry()
                                      .logical_subpages() /
                                  2;
  Rng rng(1000 + scheme_idx * 10 + static_cast<std::uint64_t>(variant));
  Shadow shadow;
  SimTime now = 0;

  for (int iter = 0; iter < 12'000; ++iter) {
    now += static_cast<SimTime>(rng.exponential(us_to_ns(150.0)));
    const Lsn lsn = rng.next_below(footprint);
    const auto count =
        static_cast<std::uint32_t>(1 + rng.next_below(6));  // up to 24 KiB
    if (rng.chance(0.7)) {
      ssd.submit(OpType::kWrite, lsn * kSubpageBytes, count * kSubpageBytes,
                 now);
      for (std::uint32_t i = 0; i < count; ++i) {
        ++shadow.versions[lsn + i];
      }
    } else {
      ssd.submit(OpType::kRead, lsn * kSubpageBytes, count * kSubpageBytes,
                 now);
    }

    if (iter % 4000 == 3999) {
      ssd.scheme().check_consistency();
      data.check(ssd.scheme());
    }
  }
  ssd.drain_background(now);
  ssd.scheme().check_consistency();
  data.check(ssd.scheme());

  // Read-your-writes: every written subpage is mapped, every issued write
  // reached flash exactly once, and the stored copy is the latest write
  // (data.check ties it to the count).
  for (const auto& [lsn, version] : shadow.versions) {
    EXPECT_TRUE(ssd.scheme().device_map().mapped(lsn)) << "lsn " << lsn;
    EXPECT_EQ(data.host_writes(lsn), version) << "lsn " << lsn;
  }

  // Per-page partial-program limit held everywhere.
  const auto& geom = ssd.scheme().array().geometry();
  for (BlockId b = 0; b < geom.total_blocks(); ++b) {
    const auto& blk = ssd.scheme().array().block(b);
    for (std::uint32_t p = 0; p < blk.write_frontier(); ++p) {
      EXPECT_LE(blk.page(static_cast<PageId>(p)).program_ops(),
                cfg.cache.max_partial_programs);
    }
  }
}

std::string fuzz_name(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static constexpr const char* kNames[] = {"Baseline", "MGA", "IPU", "IPS"};
  return std::string(kNames[std::get<0>(info.param)]) + "_interleave" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesAndGcModes, SchemeFuzz,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),  // registry order
                       ::testing::Values(0, 1, 2)),    // gc interleave
    fuzz_name);

TEST(Invariants, SequentialOverwriteStress) {
  // Repeated sequential overwrite of one region: maximal update pressure.
  SsdConfig cfg = SsdConfig::scaled(1024);
  cfg.cache.gc_interleave_ops = 0;
  sim::Ssd ssd(cfg, "IPU");
  const test::IntegrityShadow data(ssd.scheme().array());
  SimTime now = 0;
  for (int round = 0; round < 30; ++round) {
    for (Lsn lsn = 0; lsn < 4096; lsn += 4) {
      ssd.submit(OpType::kWrite, lsn * kSubpageBytes, 4 * kSubpageBytes,
                 now += ms_to_ns(0.4));
    }
  }
  ssd.scheme().check_consistency();
  data.check(ssd.scheme());
  for (Lsn lsn = 0; lsn < 4096; ++lsn) {
    EXPECT_EQ(data.host_writes(lsn), 30u);
  }
}

TEST(Invariants, WearAccumulatesOnlyThroughErase) {
  SsdConfig cfg = SsdConfig::scaled(1024);
  cfg.cache.gc_interleave_ops = 0;
  sim::Ssd ssd(cfg, "Baseline");
  SimTime now = 0;
  for (Lsn lsn = 0; lsn < 60'000; lsn += 2) {
    ssd.submit(OpType::kWrite, lsn * kSubpageBytes, 2 * kSubpageBytes,
               now += ms_to_ns(0.2));
  }
  const auto& geom = ssd.scheme().array().geometry();
  std::uint64_t total_block_erases = 0;
  for (BlockId b = 0; b < geom.total_blocks(); ++b) {
    total_block_erases += ssd.scheme().array().block(b).erase_count();
  }
  const auto& c = ssd.scheme().array().counters();
  EXPECT_EQ(total_block_erases, c.slc_erases + c.mlc_erases);
  EXPECT_GT(c.slc_erases, 0u);
}

TEST(Invariants, MixedSchemesAgreeOnStoredData) {
  // The same workload through every scheme must produce identical
  // logical contents (versions), whatever the physical layout.
  SsdConfig cfg = SsdConfig::scaled(1024);
  cfg.cache.gc_interleave_ops = 1;
  std::vector<std::unique_ptr<sim::Ssd>> devices;
  std::vector<std::unique_ptr<test::IntegrityShadow>> data;
  for (const auto kind : {"Baseline", "MGA", "IPU", "IPS"}) {
    devices.push_back(std::make_unique<sim::Ssd>(cfg, kind));
    data.push_back(std::make_unique<test::IntegrityShadow>(
        devices.back()->scheme().array()));
  }
  Rng rng(77);
  SimTime now = 0;
  for (int iter = 0; iter < 8000; ++iter) {
    now += us_to_ns(200.0);
    const Lsn lsn = rng.next_below(30'000);
    const auto count = static_cast<std::uint32_t>(1 + rng.next_below(4));
    for (auto& dev : devices) {
      dev->submit(OpType::kWrite, lsn * kSubpageBytes,
                  count * kSubpageBytes, now);
    }
  }
  for (Lsn lsn = 0; lsn < 30'000; ++lsn) {
    const auto v = data[0]->host_writes(lsn);
    for (std::size_t d = 1; d < devices.size(); ++d) {
      EXPECT_EQ(data[d]->host_writes(lsn), v);
    }
  }
  for (std::size_t d = 0; d < devices.size(); ++d) {
    devices[d]->scheme().check_consistency();
    data[d]->check(devices[d]->scheme());
  }
}

}  // namespace
}  // namespace ppssd
