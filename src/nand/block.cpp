#include "nand/block.h"

#include "common/check.h"

namespace ppssd::nand {

Block::Block(CellMode mode, std::uint32_t pages,
             std::uint32_t subpages_per_page)
    : pages_(pages),
      mode_(mode),
      level_(mode == CellMode::kMlc ? BlockLevel::kHighDensity
                                    : BlockLevel::kWork),
      subpages_per_page_(subpages_per_page) {
  PPSSD_CHECK(pages > 0);
  PPSSD_CHECK(subpages_per_page >= 1 &&
              subpages_per_page <= kMaxSubpagesPerPage);
}

void Block::erase(SimTime now) {
  for (auto& pg : pages_) {
    pg.reset();
  }
  frontier_ = 0;
  valid_ = 0;
  invalid_ = 0;
  sum_write_time_ms_ = 0;
  ++erase_count_;
  last_erase_time_ = now;
}

}  // namespace ppssd::nand
