// Raw bit-error-rate model.
//
// Calibrated to the paper's Figure 2 (MLC statistical data from Zhang et
// al., FAST'16): at the 4000 P/E anchor, conventional programming shows a
// raw BER of 2.8e-4 and a fully partially-programmed page 3.8e-4, with the
// gap widening as P/E grows.
//
// Functional form:
//   base(pe)  = anchor_ber * (f + (1-f) * (pe/anchor)^e)        [MLC]
//   base_slc  = slc_factor * base(pe)
//   ber(snap) = base * (1 + a(pe) * in_page + b(pe) * neighbor)
// where a(pe) = in_page_disturb_factor * (pe/anchor)^d and likewise b(pe).
// With the default a(4000) = 0.12 and the manufacturer limit of 4 programs
// per page, a first-written subpage absorbs up to 3 in-page disturbs:
// 2.8e-4 * (1 + 3*0.12) ≈ 3.8e-4, matching the Figure 2 anchor.
//
// The two P/E-dependent terms, base(pe) and (pe/anchor)^d, each cost a
// std::pow, and raw_ber runs once per mapped read subpage and once per
// valid subpage a GC pass scans. They depend on the P/E count alone, so
// they are memoised in a table indexed by P/E count and filled lazily;
// every result is bit-identical to evaluating the formulas directly. The
// table makes a BerModel single-threaded: each Scheme owns its own.
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.h"
#include "nand/disturb.h"

namespace ppssd::ecc {

class BerModel {
 public:
  explicit BerModel(const BerConfig& cfg) : cfg_(cfg) {}

  /// Raw BER of a stored subpage given its disturb snapshot.
  [[nodiscard]] double raw_ber(const nand::DisturbSnapshot& snap) const;

  /// Conventional-programming curve (Figure 2 lower series) for MLC pages.
  [[nodiscard]] double conventional_ber(std::uint32_t pe_cycles) const;

  /// Worst-case partial-programming curve (Figure 2 upper series): a
  /// subpage that absorbed `max_partials - 1` in-page disturbs.
  [[nodiscard]] double partial_ber(std::uint32_t pe_cycles,
                                   std::uint32_t max_partials) const;

  [[nodiscard]] const BerConfig& config() const { return cfg_; }

 private:
  /// The P/E-dependent factors: the MLC base(pe) and the disturb wear
  /// scale (pe/anchor)^d. A negative scale marks an unfilled memo entry
  /// (a real scale is a power of a non-negative ratio).
  struct WearTerms {
    double mlc_base = 0.0;
    double scale = -1.0;
  };

  /// P/E counts at or above this are evaluated directly, so an absurd
  /// count cannot grow the memo without bound.
  static constexpr std::uint32_t kMemoLimit = 1u << 16;

  [[nodiscard]] WearTerms wear_terms(std::uint32_t pe) const;
  [[nodiscard]] WearTerms compute_wear_terms(std::uint32_t pe) const;

  BerConfig cfg_;
  mutable std::vector<WearTerms> memo_;
};

}  // namespace ppssd::ecc
