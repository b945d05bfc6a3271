#include "ftl/gc_policy.h"

#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/units.h"

namespace ppssd::ftl {

void GcPolicy::attach_telemetry(telemetry::MetricsRegistry& registry,
                                telemetry::Labels labels) {
  labels.push_back({"policy", name()});
  selected_ = registry.counter("gc_victims_selected", labels);
  exhausted_ = registry.counter("gc_victims_exhausted", labels);
}

BlockId GreedyPolicy::select_victim(const nand::FlashArray& /*array*/,
                                    const BlockManager& bm,
                                    std::uint32_t plane, CellMode mode,
                                    SimTime /*now*/) const {
  // The index files every candidate under its invalid count and keeps the
  // max watermark; a victim must reclaim at least one subpage, and the
  // index returns kInvalidBlock when no candidate has any.
  const BlockId best = bm.max_invalid_candidate(plane, mode);
  count_selection(best != kInvalidBlock);
  return best;
}

BlockId GreedyPolicy::select_victim_reference(const nand::FlashArray& array,
                                              const BlockManager& bm,
                                              std::uint32_t plane,
                                              CellMode mode) const {
  BlockId best = kInvalidBlock;
  std::uint32_t best_invalid = 0;
  bm.for_each_candidate(plane, mode, [&](BlockId b) {
    const auto& blk = array.block(b);
    // A victim must reclaim at least one subpage, otherwise GC would churn.
    const std::uint32_t invalid = blk.invalid_subpages();
    if (invalid > best_invalid ||
        (invalid == best_invalid && invalid > 0 && b < best)) {
      best = b;
      best_invalid = invalid;
    }
  });
  if (best_invalid == 0) best = kInvalidBlock;
  return best;
}

std::pair<double, std::uint64_t> IsrPolicy::age_sum(const nand::Block& block,
                                                    SimTime now) {
  // sum_j (now - wt_j) over valid subpages == valid * now - sum_j wt_j,
  // and the block maintains sum_j wt_j incrementally.
  const std::uint64_t valid = block.valid_subpages();
  return {static_cast<double>(valid) * ns_to_ms(now) -
              static_cast<double>(block.sum_write_time_ms()),
          valid};
}

std::pair<double, std::uint64_t> IsrPolicy::age_sum_exact(
    const nand::FlashArray& array, BlockId block, SimTime now) {
  const nand::Block& blk = array.block(block);
  const double now_ms = ns_to_ms(now);
  const std::uint32_t spp = blk.subpages_per_page();
  double sum = 0.0;
  std::uint64_t valid = 0;
  for (std::uint32_t p = 0; p < blk.write_frontier(); ++p) {
    for (std::uint32_t s = 0; s < spp; ++s) {
      const nand::Subpage sp = array.subpage(
          block, static_cast<PageId>(p), static_cast<SubpageId>(s));
      if (sp.state == nand::SubpageState::kValid) {
        sum += now_ms - sp.write_time_ms;
        ++valid;
      }
    }
  }
  return {sum, valid};
}

double IsrPolicy::cold_weight(const nand::FlashArray& array, BlockId block,
                              SimTime now, double mean_age_ms) {
  const nand::AgeHistogram* hist = array.age_histogram(block);
  PPSSD_CHECK_MSG(hist != nullptr, "ISR scores SLC-mode blocks only");
  if (mean_age_ms <= 0.0) return 0.0;
  const double now_ms = ns_to_ms(now);
  // One exp per occupied histogram bucket, each bucket's subpages
  // evaluated at their mean write time. The kernel is concave in the
  // write time, so this overestimates the exact sum by at most
  // count * (bucket width) / (2 * T) per bucket (see DESIGN.md).
  return hist->fold([&](double mean_wt_ms) {
    return 1.0 - std::exp(-(now_ms - mean_wt_ms) / mean_age_ms);
  });
}

double IsrPolicy::cold_weight_exact(const nand::FlashArray& array,
                                    BlockId block, SimTime now,
                                    double mean_age_ms) {
  if (mean_age_ms <= 0.0) return 0.0;
  const nand::Block& blk = array.block(block);
  const double now_ms = ns_to_ms(now);
  const std::uint32_t spp = blk.subpages_per_page();

  // IS' sums the age weight of valid subpages in never-updated pages.
  double weight = 0.0;
  for (std::uint32_t p = 0; p < blk.write_frontier(); ++p) {
    if (page_updated(blk.page(static_cast<PageId>(p)))) continue;
    for (std::uint32_t s = 0; s < spp; ++s) {
      const nand::Subpage sp = array.subpage(
          block, static_cast<PageId>(p), static_cast<SubpageId>(s));
      if (sp.state == nand::SubpageState::kValid) {
        const double age = now_ms - sp.write_time_ms;
        weight += 1.0 - std::exp(-age / mean_age_ms);
      }
    }
  }
  return weight;
}

double IsrPolicy::isr(const nand::FlashArray& array, BlockId block,
                      SimTime now, double mean_age_ms) {
  const nand::Block& blk = array.block(block);
  const double total = blk.total_subpages();
  return (blk.invalid_subpages() +
          cold_weight(array, block, now, mean_age_ms)) /
         total;
}

double IsrPolicy::isr_exact(const nand::FlashArray& array, BlockId block,
                            SimTime now, double mean_age_ms) {
  const nand::Block& blk = array.block(block);
  const double total = blk.total_subpages();
  return (blk.invalid_subpages() +
          cold_weight_exact(array, block, now, mean_age_ms)) /
         total;
}

BlockId IsrPolicy::select_victim(const nand::FlashArray& array,
                                 const BlockManager& bm, std::uint32_t plane,
                                 CellMode mode, SimTime now) const {
  // Pass 1: T = mean valid-subpage age over the plane's candidates.
  // age_sum() is O(1) per block, so this pass is O(candidates).
  scratch_.clear();
  double age_total = 0.0;
  std::uint64_t valid_total = 0;
  bm.for_each_candidate(plane, mode, [&](BlockId b) {
    scratch_.push_back(b);
    const auto [sum, count] = age_sum(array.block(b), now);
    age_total += sum;
    valid_total += count;
  });
  const double mean_age =
      valid_total > 0 ? age_total / static_cast<double>(valid_total) : 0.0;

  // Pass 2: score by Equation 1, O(kBuckets) per block.
  BlockId best = kInvalidBlock;
  double best_isr = 0.0;
  for (const BlockId b : scratch_) {
    // Nothing to reclaim in a block that was never programmed.
    if (array.block(b).programmed_subpages() == 0) continue;
    const double v = isr(array, b, now, mean_age);
    if (v > best_isr) {
      best = b;
      best_isr = v;
    }
  }
  count_selection(best != kInvalidBlock);
  return best;
}

BlockId IsrPolicy::select_victim_reference(const nand::FlashArray& array,
                                           const BlockManager& bm,
                                           std::uint32_t plane, CellMode mode,
                                           SimTime now) const {
  // Pass 1: T = mean valid-subpage age over the plane's candidates.
  double age_total = 0.0;
  std::uint64_t valid_total = 0;
  std::vector<BlockId> candidates;
  bm.for_each_candidate(plane, mode, [&](BlockId b) {
    candidates.push_back(b);
    const auto [sum, count] = age_sum_exact(array, b, now);
    age_total += sum;
    valid_total += count;
  });
  const double mean_age =
      valid_total > 0 ? age_total / static_cast<double>(valid_total) : 0.0;

  // Pass 2: score by Equation 1.
  BlockId best = kInvalidBlock;
  double best_isr = 0.0;
  for (const BlockId b : candidates) {
    const auto& blk = array.block(b);
    if (blk.programmed_subpages() == 0) continue;  // nothing to reclaim
    const double v = isr_exact(array, b, now, mean_age);
    if (v > best_isr) {
      best = b;
      best_isr = v;
    }
  }
  return best;
}

}  // namespace ppssd::ftl
