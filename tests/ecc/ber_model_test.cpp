#include "ecc/ber_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/config.h"

namespace ppssd::ecc {
namespace {

BerModel default_model() { return BerModel(SsdConfig{}.ber); }

TEST(BerModel, Figure2AnchorsMatch) {
  const BerModel model = default_model();
  // Paper/Zhang [19]: at 4000 P/E, conventional 2.8e-4, partial 3.8e-4.
  EXPECT_NEAR(model.conventional_ber(4000), 2.8e-4, 1e-6);
  EXPECT_NEAR(model.partial_ber(4000, 4), 3.8e-4, 0.1e-4);
}

TEST(BerModel, MonotoneInPeCycles) {
  const BerModel model = default_model();
  double prev = 0.0;
  for (std::uint32_t pe = 0; pe <= 12000; pe += 500) {
    const double ber = model.conventional_ber(pe);
    EXPECT_GT(ber, prev);
    prev = ber;
  }
}

TEST(BerModel, PartialGapWidensWithWear) {
  const BerModel model = default_model();
  double prev_gap = 0.0;
  for (std::uint32_t pe = 1000; pe <= 12000; pe += 1000) {
    const double gap =
        model.partial_ber(pe, 4) - model.conventional_ber(pe);
    EXPECT_GT(gap, prev_gap) << "pe=" << pe;
    prev_gap = gap;
  }
}

TEST(BerModel, SlcFactorScalesSlcModePages) {
  // Default: SLC-mode pages are MLC cells in one-bit mode; equal base BER.
  const BerModel model = default_model();
  nand::DisturbSnapshot slc{CellMode::kSlc, 4000, 0, 0};
  nand::DisturbSnapshot mlc{CellMode::kMlc, 4000, 0, 0};
  EXPECT_DOUBLE_EQ(model.raw_ber(slc), model.raw_ber(mlc));

  // A non-unit factor scales only the SLC-mode curve.
  BerConfig cfg = SsdConfig{}.ber;
  cfg.slc_factor = 0.25;
  const BerModel scaled(cfg);
  EXPECT_DOUBLE_EQ(scaled.raw_ber(slc), 0.25 * scaled.raw_ber(mlc));
  EXPECT_DOUBLE_EQ(scaled.raw_ber(mlc), model.raw_ber(mlc));
}

TEST(BerModel, DisturbIncreasesBer) {
  const BerModel model = default_model();
  nand::DisturbSnapshot base{CellMode::kSlc, 4000, 0, 0};
  nand::DisturbSnapshot in_page{CellMode::kSlc, 4000, 2, 0};
  nand::DisturbSnapshot neighbor{CellMode::kSlc, 4000, 0, 5};
  EXPECT_GT(model.raw_ber(in_page), model.raw_ber(base));
  EXPECT_GT(model.raw_ber(neighbor), model.raw_ber(base));
}

TEST(BerModel, InPageDisturbDominatesNeighbor) {
  // One in-page disturb event must hurt more than one neighbour event —
  // the core of the paper's argument for intra-page update.
  const BerModel model = default_model();
  nand::DisturbSnapshot in_page{CellMode::kSlc, 4000, 1, 0};
  nand::DisturbSnapshot neighbor{CellMode::kSlc, 4000, 0, 1};
  EXPECT_GT(model.raw_ber(in_page), model.raw_ber(neighbor));
}

TEST(BerModel, BerNeverExceedsHalf) {
  const BerModel model = default_model();
  nand::DisturbSnapshot extreme{CellMode::kMlc, 4'000'000, 200, 60000};
  EXPECT_LE(model.raw_ber(extreme), 0.5);
}

TEST(BerModel, FreshDeviceHasFloor) {
  const BerModel model = default_model();
  EXPECT_GT(model.conventional_ber(0), 0.0);
}

/// The closed form of ber_model.h evaluated directly, one std::pow per
/// term per call: the reference the memoised BerModel must match bit for
/// bit. direct_mlc_base is the (uncapped) conventional curve.
double direct_mlc_base(const BerConfig& c, std::uint32_t pe) {
  const double rel = static_cast<double>(pe) / c.anchor_pe;
  return c.mlc_anchor_ber * (c.fresh_fraction + (1.0 - c.fresh_fraction) *
                                                    std::pow(rel, c.pe_exponent));
}

double direct_ber(const BerConfig& c, const nand::DisturbSnapshot& snap) {
  const double rel = static_cast<double>(snap.pe_cycles) / c.anchor_pe;
  const double scale = std::pow(rel, c.disturb_pe_exponent);
  const double mlc = direct_mlc_base(c, snap.pe_cycles);
  const double base = snap.mode == CellMode::kSlc ? c.slc_factor * mlc : mlc;
  const double a = c.in_page_disturb_factor * scale;
  const double b = c.neighbor_disturb_factor * scale;
  const double r = snap.reprogrammed ? c.reprogram_penalty : 0.0;
  return std::min(base * (1.0 + r + a * snap.in_page_disturbs +
                          b * snap.neighbor_disturbs),
                  0.5);
}

TEST(BerModel, MemoisedValuesAreBitIdenticalToDirectEvaluation) {
  BerConfig scaled_cfg = SsdConfig{}.ber;
  scaled_cfg.slc_factor = 0.25;
  for (const BerConfig& cfg : {SsdConfig{}.ber, scaled_cfg}) {
    const BerModel model(cfg);
    // Out-of-order P/E counts (the memo fills lazily and grows), counts
    // past the memo's direct-evaluation limit, and a repeat pass that is
    // served from the filled memo.
    std::vector<std::uint32_t> pes = {4000, 0, 1, 3999, 12000, 65535,
                                      65536, 70000, 4'000'000};
    for (std::uint32_t pe = 0; pe <= 9000; pe += 97) pes.push_back(pe);
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::uint32_t pe : pes) {
        for (const CellMode mode : {CellMode::kSlc, CellMode::kMlc}) {
          for (const bool reprogrammed : {false, true}) {
            for (std::uint32_t in_page = 0; in_page < 4; ++in_page) {
              for (const std::uint32_t nb : {0u, 1u, 5u, 300u}) {
                const nand::DisturbSnapshot snap{mode, pe, in_page, nb,
                                                 reprogrammed};
                ASSERT_EQ(model.raw_ber(snap), direct_ber(cfg, snap))
                    << "pe=" << pe << " mode=" << static_cast<int>(mode)
                    << " in_page=" << in_page << " nb=" << nb
                    << " reprogrammed=" << reprogrammed;
              }
            }
          }
        }
        ASSERT_EQ(model.conventional_ber(pe), direct_mlc_base(cfg, pe)) << pe;
        const nand::DisturbSnapshot worst{CellMode::kMlc, pe, 3, 0};
        ASSERT_EQ(model.partial_ber(pe, 4), direct_ber(cfg, worst)) << pe;
      }
    }
  }
}

}  // namespace
}  // namespace ppssd::ecc
