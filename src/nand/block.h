// Flash block: the erase unit.
//
// A block operates in a fixed cell mode (SLC-mode cache block or native
// MLC block). Pages within a block must be programmed in ascending order
// for the *first* program (NAND sequential-program rule); partial programs
// may later revisit a page's free subpage slots, bounded by the per-page
// partial-program limit enforced by the caller.
//
// GC support: the block maintains running aggregates over its subpage
// population so victim scoring never walks pages:
//  * sum_write_time_ms() — sum of write times over *valid* subpages, so a
//    policy can form sum-of-ages as valid * now_ms - sum_write_time_ms.
//  * For SLC-mode blocks only, an AgeHistogram of the valid subpages
//    living in never-updated pages (the Eq. 2 cold-movement candidates),
//    bucketed by log2(write time - last erase time) so an age-weighted sum
//    is O(buckets). It is the one aggregate that is large (1616 B), and
//    only ISR GC — which scores SLC victims only — reads it, so it lives
//    in a FlashArray side table indexed by the block's SLC ordinal
//    (FlashArray::age_histogram) instead of inline in every block.
// Both are maintained incrementally at program / invalidate / erase time
// and always equal a full rescan of the pages (see the invariant walk in
// cache::Scheme::check_consistency).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/state_io.h"
#include "common/types.h"
#include "nand/page.h"

namespace ppssd::nand {

/// Log-spaced histogram of subpage write times (milliseconds). Write
/// times are bucketed by their offset from a per-block base — the owning
/// block's last erase time — so resolution tracks the block's own fill
/// window instead of absolute sim time: bucket k holds offsets with
/// bit-width k (i.e. [2^(k-1), 2^k); bucket 0 is offset 0). Each bucket
/// keeps the exact count and absolute write-time sum, so an age-weighted
/// fold evaluates its kernel once per bucket at the bucket's true mean
/// write time instead of once per subpage. Each octave is split into
/// 2^kSubBits linear sub-buckets (HDR-histogram style), so the bucket
/// width — the kernel's within-bucket error bound — is at most 1/8 of the
/// subpage's time-since-erase.
class AgeHistogram {
 public:
  /// Linear sub-buckets per octave: 2^kSubBits.
  static constexpr std::uint32_t kSubBits = 2;
  /// 33 possible bit-widths of a 32-bit offset, each split in sub-buckets
  /// (small offsets with fewer than kSubBits significant bits collapse
  /// into their octave's first sub-buckets, which are then exact).
  static constexpr std::uint32_t kBuckets = 33u << kSubBits;

  [[nodiscard]] std::uint32_t bucket_of(std::uint32_t wt_ms) const {
    const std::uint32_t offset = wt_ms - base_ms_;
    const auto bw = static_cast<std::uint32_t>(std::bit_width(offset));
    // Sub-bucket index: the kSubBits bits below the leading bit.
    const std::uint32_t sub =
        bw > kSubBits ? (offset >> (bw - 1 - kSubBits)) & ((1u << kSubBits) - 1)
                      : offset;
    return (bw << kSubBits) | sub;
  }

  void add(std::uint32_t wt_ms, std::uint32_t n = 1) {
    const std::uint32_t b = bucket_of(wt_ms);
    count_[b] += n;
    sum_[b] += static_cast<std::uint64_t>(wt_ms) * n;
    total_ += n;
    occupied_[b / 64] |= 1ull << (b % 64);
  }

  void remove(std::uint32_t wt_ms) {
    const std::uint32_t b = bucket_of(wt_ms);
    count_[b] -= 1;
    sum_[b] -= wt_ms;
    total_ -= 1;
    if (count_[b] == 0) occupied_[b / 64] &= ~(1ull << (b % 64));
  }

  /// Empty the histogram and rebase it. Every subsequent add/remove must
  /// carry a write time >= base_ms (writes follow the erase that sets it).
  void clear(std::uint32_t base_ms = 0) {
    count_.fill(0);
    sum_.fill(0);
    occupied_.fill(0);
    total_ = 0;
    base_ms_ = base_ms;
  }

  [[nodiscard]] std::uint32_t base_ms() const { return base_ms_; }

  [[nodiscard]] std::uint32_t total() const { return total_; }
  [[nodiscard]] std::uint32_t count(std::uint32_t bucket) const {
    return count_[bucket];
  }
  [[nodiscard]] std::uint64_t sum(std::uint32_t bucket) const {
    return sum_[bucket];
  }

  /// Fold count * f(bucket mean write time) over non-empty buckets,
  /// walking the occupancy bitmap so cost is O(occupied buckets).
  template <typename Fn>
  [[nodiscard]] double fold(Fn&& f) const {
    double acc = 0.0;
    for (std::uint32_t w = 0; w < occupied_.size(); ++w) {
      std::uint64_t bits = occupied_[w];
      while (bits != 0) {
        const auto b =
            w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits));
        const double mean = static_cast<double>(sum_[b]) /
                            static_cast<double>(count_[b]);
        acc += static_cast<double>(count_[b]) * f(mean);
        bits &= bits - 1;
      }
    }
    return acc;
  }

  bool operator==(const AgeHistogram&) const = default;

  /// Checkpoint serialization: the sparse set of occupied buckets (the
  /// dense arrays are ~1.6 KB/block, but post-warm-up blocks occupy only
  /// a handful of buckets). restore() reproduces exact equality; totals
  /// are rebuilt from the bucket counts.
  void save(io::StateSink& sink) const {
    sink.u32(base_ms_);
    std::uint32_t n = 0;
    for (const std::uint64_t w : occupied_) n += std::popcount(w);
    sink.u32(n);
    for (std::uint32_t w = 0; w < occupied_.size(); ++w) {
      std::uint64_t bits = occupied_[w];
      while (bits != 0) {
        const auto b =
            w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits));
        sink.u16(static_cast<std::uint16_t>(b));
        sink.u32(count_[b]);
        sink.u64(sum_[b]);
        bits &= bits - 1;
      }
    }
  }

  /// Inverse of save(). The caller (FlashArray::restore) has already
  /// checksum-validated the stream, so shape violations are hard errors.
  void restore(io::StateSource& src) {
    clear(src.u32());
    const std::uint32_t n = src.u32();
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t b = src.u16();
      const std::uint32_t count = src.u32();
      const std::uint64_t sum = src.u64();
      PPSSD_CHECK_MSG(b < kBuckets && count > 0,
                      "age histogram bucket out of range in checkpoint");
      count_[b] = count;
      sum_[b] = sum;
      occupied_[b / 64] |= 1ull << (b % 64);
      total_ += count;
    }
  }

 private:
  std::array<std::uint32_t, kBuckets> count_{};
  std::array<std::uint64_t, kBuckets> sum_{};
  std::array<std::uint64_t, (kBuckets + 63) / 64> occupied_{};
  std::uint32_t total_ = 0;
  std::uint32_t base_ms_ = 0;
};

class Block {
 public:
  Block(CellMode mode, std::uint32_t pages, std::uint32_t subpages_per_page);

  [[nodiscard]] CellMode mode() const { return mode_; }
  [[nodiscard]] std::uint32_t page_count() const {
    return static_cast<std::uint32_t>(pages_.size());
  }
  [[nodiscard]] std::uint32_t subpages_per_page() const {
    return subpages_per_page_;
  }
  [[nodiscard]] std::uint32_t total_subpages() const {
    return page_count() * subpages_per_page_;
  }

  /// IPU block level (Work/Monitor/Hot, or HighDensity for MLC blocks).
  [[nodiscard]] BlockLevel level() const { return level_; }
  void set_level(BlockLevel level) { level_ = level; }

  [[nodiscard]] std::uint32_t erase_count() const { return erase_count_; }
  [[nodiscard]] SimTime last_erase_time() const { return last_erase_time_; }

  /// Next page that has never been programmed (append point), or
  /// page_count() when the block is fully opened.
  [[nodiscard]] std::uint32_t write_frontier() const { return frontier_; }
  [[nodiscard]] bool has_free_page() const { return frontier_ < page_count(); }

  [[nodiscard]] std::uint32_t valid_subpages() const { return valid_; }
  [[nodiscard]] std::uint32_t invalid_subpages() const { return invalid_; }
  [[nodiscard]] std::uint32_t programmed_subpages() const {
    return valid_ + invalid_;
  }

  /// Sum of write_time_ms over the block's valid subpages.
  [[nodiscard]] std::uint64_t sum_write_time_ms() const {
    return sum_write_time_ms_;
  }

  [[nodiscard]] const Page& page(PageId p) const { return pages_[p]; }
  [[nodiscard]] Page& page(PageId p) { return pages_[p]; }

  /// Erase: clears all pages, bumps the P/E counter. Subpage slot contents
  /// live in the FlashArray SoA rows; FlashArray::erase clears those.
  void erase(SimTime now);

 private:
  /// The fused array-level paths update frontier and counters directly in
  /// one pass over the touched slots.
  friend class FlashArray;

  /// slc_ordinal_ of a block that is not in the SLC-mode region.
  static constexpr std::uint32_t kNoSlcOrdinal = 0xffffffffu;

  std::vector<Page> pages_;
  CellMode mode_;
  BlockLevel level_;
  std::uint32_t subpages_per_page_;
  /// Geometry::slc_ordinal of an SLC-mode block (its age-histogram index
  /// in the owning FlashArray), kNoSlcOrdinal otherwise. Cached here so
  /// the invalidate path finds the histogram without re-deriving it.
  std::uint32_t slc_ordinal_ = kNoSlcOrdinal;
  std::uint32_t frontier_ = 0;
  std::uint32_t valid_ = 0;
  std::uint32_t invalid_ = 0;
  std::uint32_t erase_count_ = 0;
  std::uint64_t sum_write_time_ms_ = 0;
  SimTime last_erase_time_ = 0;
};
static_assert(sizeof(Block) <= 80, "Block should stay a small hot record");

}  // namespace ppssd::nand
