// Scheme-native second-level mapping structures for the SLC-mode cache.
//
// Partial programming breaks the 1-page = 1-logical-page assumption, so a
// scheme that shares pages between requests needs per-subpage translation:
//
//  * MGA keeps a two-level table: the first level locates the physical
//    page, the second level (SecondLevelTable here) records which logical
//    subpage occupies each slot of each SLC page. This is the memory cost
//    Figure 11 charges MGA for.
//  * IPU needs no per-slot table: a page only ever holds versions of a
//    single small extent, so a 2-bit "offset of the latest version" per
//    page (IpuOffsetTable) suffices — the paper's +0.84% memory claim.
//
// Both tables are indexed densely by (SLC block ordinal, page).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/huge_page_allocator.h"
#include "common/state_io.h"
#include "common/types.h"
#include "nand/geometry.h"

namespace ppssd::ftl {

/// MGA's second-level table: per SLC page, per slot, the logical subpage
/// stored there (or kInvalidLsn).
class SecondLevelTable {
 public:
  SecondLevelTable(const nand::Geometry& geom);

  void set(const nand::Geometry& geom, const PhysicalAddress& addr, Lsn lsn);
  void clear(const nand::Geometry& geom, const PhysicalAddress& addr);
  /// Clear every slot of a block (erase).
  void clear_block(const nand::Geometry& geom, BlockId block);

  [[nodiscard]] Lsn lookup(const nand::Geometry& geom,
                           const PhysicalAddress& addr) const;

  /// Number of live (occupied) slot entries.
  [[nodiscard]] std::uint64_t live_entries() const { return live_; }
  /// Total slot capacity of the table.
  [[nodiscard]] std::uint64_t capacity() const { return slots_.size(); }

  /// Warm-start checkpointing (DESIGN.md §14).
  void save(io::StateSink& sink) const {
    sink.vec(slots_);
    sink.u64(live_);
  }
  void restore(io::StateSource& src) {
    // In place: the table is sized by the geometry, and vec_into
    // sticky-fails on a length mismatch.
    (void)src.vec_into(slots_);
    const std::uint64_t live = src.u64();
    PPSSD_CHECK_MSG(src.ok(),
                    "warm-start checkpoint does not match MGA table shape");
    live_ = live;
  }

 private:
  [[nodiscard]] std::size_t index(const nand::Geometry& geom,
                                  const PhysicalAddress& addr) const;

  std::uint32_t subpages_per_page_;
  std::uint32_t pages_per_block_;
  HugeVector<Lsn> slots_;
  std::uint64_t live_ = 0;
};

/// IPU's per-page tag: the extent (first LSN of the single request stored
/// in the page) plus the slot offset of the latest version.
class IpuOffsetTable {
 public:
  struct Tag {
    Lsn extent_base = kInvalidLsn;  // first LSN of the extent in this page
    std::uint8_t latest_offset = 0; // slot of the newest version
    std::uint8_t extent_len = 0;    // subpages per version of the extent
  };

  explicit IpuOffsetTable(const nand::Geometry& geom);

  /// Record the page's extent on first program.
  void open_page(const nand::Geometry& geom, BlockId block, PageId page,
                 Lsn extent_base, std::uint8_t extent_len,
                 std::uint8_t offset);

  /// Record an intra-page update: the latest version now starts at `offset`.
  void update_offset(const nand::Geometry& geom, BlockId block, PageId page,
                     std::uint8_t offset);

  void clear_page(const nand::Geometry& geom, BlockId block, PageId page);
  void clear_block(const nand::Geometry& geom, BlockId block);

  [[nodiscard]] const Tag& lookup(const nand::Geometry& geom, BlockId block,
                                  PageId page) const;

  /// Number of pages with a live tag.
  [[nodiscard]] std::uint64_t live_pages() const { return live_; }
  [[nodiscard]] std::uint64_t capacity() const { return tags_.size(); }

  /// Warm-start checkpointing (DESIGN.md §14). Tags are written
  /// field-wise: the struct has padding bytes, and a memcpy'd vector
  /// would leak indeterminate padding into the checkpoint stream.
  void save(io::StateSink& sink) const {
    sink.u64(tags_.size());
    for (const Tag& t : tags_) {
      sink.u64(t.extent_base);
      sink.u8(t.latest_offset);
      sink.u8(t.extent_len);
    }
    sink.u64(live_);
  }
  void restore(io::StateSource& src) {
    PPSSD_CHECK_MSG(src.u64() == tags_.size(),
                    "warm-start checkpoint does not match IPU table shape");
    for (Tag& t : tags_) {
      t.extent_base = src.u64();
      t.latest_offset = src.u8();
      t.extent_len = src.u8();
    }
    live_ = src.u64();
    PPSSD_CHECK_MSG(src.ok(), "warm-start checkpoint truncated");
  }

 private:
  [[nodiscard]] std::size_t index(const nand::Geometry& geom, BlockId block,
                                  PageId page) const;

  std::uint32_t pages_per_block_;
  HugeVector<Tag> tags_;
  std::uint64_t live_ = 0;
};

}  // namespace ppssd::ftl
