// Per-LSN write-frequency tracking.
//
// IPU's hot/cold separation is *implicit* (block levels encode hotness),
// but the simulator still tracks per-LSN write statistics for three
// consumers: trace characterisation (Table 3's "Hot write" column),
// metric reports, and the single-level ablation scheme which needs an
// explicit hotness oracle to compare against IPU's implicit one.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/huge_page_allocator.h"
#include "common/state_io.h"
#include "common/types.h"

namespace ppssd::ftl {

class UpdateTracker {
 public:
  /// Threshold of accesses after which an address counts as hot (the
  /// paper's Table 3 uses >= 4).
  static constexpr std::uint8_t kHotThreshold = 4;

  explicit UpdateTracker(std::uint64_t logical_subpages)
      : counts_(logical_subpages, 0), last_write_ms_(logical_subpages, 0) {}

  void record_write(Lsn lsn, SimTime now) {
    PPSSD_CHECK(lsn < counts_.size());
    if (counts_[lsn] < 255) ++counts_[lsn];
    last_write_ms_[lsn] = static_cast<std::uint32_t>(now / 1'000'000);
  }

  [[nodiscard]] bool ever_written(Lsn lsn) const { return counts_[lsn] > 0; }
  [[nodiscard]] bool is_hot(Lsn lsn) const {
    return counts_[lsn] >= kHotThreshold;
  }
  [[nodiscard]] std::uint8_t write_count(Lsn lsn) const {
    return counts_[lsn];
  }
  [[nodiscard]] std::uint32_t last_write_ms(Lsn lsn) const {
    return last_write_ms_[lsn];
  }

  /// Fraction of written addresses with >= kHotThreshold writes.
  [[nodiscard]] double hot_fraction() const;

  /// Warm-start checkpointing (DESIGN.md §14).
  void save(io::StateSink& sink) const {
    sink.vec(counts_);
    sink.vec(last_write_ms_);
  }
  void restore(io::StateSource& src) {
    // In place: both rows are sized by the LSN space, and vec_into
    // sticky-fails on a length mismatch.
    (void)src.vec_into(counts_);
    (void)src.vec_into(last_write_ms_);
    PPSSD_CHECK_MSG(src.ok(),
                    "warm-start checkpoint does not match tracker shape");
  }

 private:
  HugeVector<std::uint8_t> counts_;
  HugeVector<std::uint32_t> last_write_ms_;
};

}  // namespace ppssd::ftl
