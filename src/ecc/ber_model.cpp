#include "ecc/ber_model.h"

#include <algorithm>
#include <cmath>

namespace ppssd::ecc {

BerModel::WearTerms BerModel::compute_wear_terms(std::uint32_t pe) const {
  const double rel = static_cast<double>(pe) / cfg_.anchor_pe;
  WearTerms t;
  t.mlc_base = cfg_.mlc_anchor_ber *
               (cfg_.fresh_fraction +
                (1.0 - cfg_.fresh_fraction) * std::pow(rel, cfg_.pe_exponent));
  t.scale = std::pow(rel, cfg_.disturb_pe_exponent);
  return t;
}

BerModel::WearTerms BerModel::wear_terms(std::uint32_t pe) const {
  if (pe >= kMemoLimit) return compute_wear_terms(pe);
  if (pe >= memo_.size()) memo_.resize(pe + 1);
  WearTerms& t = memo_[pe];
  if (t.scale < 0.0) t = compute_wear_terms(pe);
  return t;
}

double BerModel::raw_ber(const nand::DisturbSnapshot& snap) const {
  const WearTerms w = wear_terms(snap.pe_cycles);
  const double a = cfg_.in_page_disturb_factor * w.scale;
  const double b = cfg_.neighbor_disturb_factor * w.scale;
  const double r = snap.reprogrammed ? cfg_.reprogram_penalty : 0.0;
  const double base =
      snap.mode == CellMode::kSlc ? cfg_.slc_factor * w.mlc_base : w.mlc_base;
  const double ber =
      base * (1.0 + r + a * snap.in_page_disturbs + b * snap.neighbor_disturbs);
  return std::min(ber, 0.5);
}

double BerModel::conventional_ber(std::uint32_t pe_cycles) const {
  return wear_terms(pe_cycles).mlc_base;
}

double BerModel::partial_ber(std::uint32_t pe_cycles,
                             std::uint32_t max_partials) const {
  nand::DisturbSnapshot snap;
  snap.mode = CellMode::kMlc;
  snap.pe_cycles = pe_cycles;
  snap.in_page_disturbs = max_partials > 0 ? max_partials - 1 : 0;
  snap.neighbor_disturbs = 0;
  return raw_ber(snap);
}

}  // namespace ppssd::ecc
