// Page metadata and subpage value types.
//
// A 16 KiB page holds four 4 KiB subpages — the partial-programming unit.
// Each program operation writes one or more subpage slots of a page; the
// first program of a page is "conventional", every later one is a partial
// program (Figure 1). Disturb bookkeeping is snapshot-based: every subpage
// remembers how many program operations and neighbouring-page programs the
// page had seen when the subpage was written, so the disturb *it* has
// absorbed since is a subtraction, not a per-event fan-out.
//
// Storage layout (DESIGN.md §14, §16): per-subpage fields live in
// structure-of-arrays rows owned by FlashArray — the fused program/
// invalidate paths and the GC oracles walk one field's row each instead of
// striding over interleaved structs. `Subpage` survives as the *value*
// type those rows gather into (accessors, tests, BER snapshots); `Page`
// keeps only the per-page counters the disturb model subtracts against.
//
// The rows hold only what a library decision reads. Write times exist on
// SLC-mode slots alone (ISR GC ages SLC victims only), and no slot stores
// a data version: which write a slot's data came from is reported to an
// attached SlotObserver through SlotWrite::source and tracked, where a
// test wants it, by tests/support/IntegrityShadow (DESIGN.md §7).
#pragma once

#include <cstdint>
#include <limits>

#include "common/types.h"

namespace ppssd::nand {

enum class SubpageState : std::uint8_t {
  kFree = 0,
  kValid = 1,
  kInvalid = 2,
};

/// One 4 KiB subpage slot, materialized from the FlashArray SoA rows.
struct Subpage {
  /// Logical subpage stored here (valid only when state == kValid).
  std::uint32_t owner_lsn = 0;
  /// Sim write time, milliseconds. Used by the IS' age model, which scores
  /// SLC-mode blocks only, so it is kept on SLC slots alone and reads 0 on
  /// every dense slot.
  std::uint32_t write_time_ms = 0;
  SubpageState state = SubpageState::kFree;
  /// Page program-op count when this subpage was written.
  std::uint8_t programs_before = 0;
  /// Page neighbour-program count when this subpage was written.
  std::uint16_t neighbors_before = 0;

  bool operator==(const Subpage&) const = default;
};

/// Maximum subpages per page supported without heap allocation.
inline constexpr std::uint32_t kMaxSubpagesPerPage = 8;

/// SlotWrite::source of data that comes from the host, not from a slot.
inline constexpr std::uint32_t kHostData = 0xffffffffu;

/// One subpage slot to fill in a program operation.
struct SlotWrite {
  SubpageId slot = 0;
  Lsn lsn = kInvalidLsn;
  /// Where the data comes from: the flat slot index (FlashArray::
  /// slot_index) it is copied out of by GC, eviction or reprogram, or
  /// kHostData for a host write. Passed to the SlotObserver only; never
  /// stored in a row.
  std::uint32_t source = kHostData;
};

/// Per-page counters. Subpage slot contents live in the FlashArray rows;
/// what remains here is the page-granular state the disturb subtractions
/// and the hot/cold split (page_updated) read.
class Page {
 public:
  /// Number of program operations applied since the last erase.
  [[nodiscard]] std::uint8_t program_ops() const { return program_ops_; }
  /// True if at least one program has been applied (page not fully free).
  [[nodiscard]] bool programmed() const { return program_ops_ > 0; }
  /// Number of programs on wordline-adjacent pages since this page's erase.
  [[nodiscard]] std::uint16_t neighbor_programs() const {
    return neighbor_programs_;
  }

  /// True when this page's data was produced by an in-place reprogram
  /// (ISPP continuation from SLC frontier state, IPS promotion) rather
  /// than a fresh program. Reprogrammed cells carry a retention/disturb
  /// BER penalty; cleared by erase.
  [[nodiscard]] bool reprogrammed() const { return reprogrammed_; }

  /// Called when a wordline-adjacent page is programmed.
  void absorb_neighbor_program() {
    if (neighbor_programs_ < std::numeric_limits<std::uint16_t>::max()) {
      ++neighbor_programs_;
    }
  }

  /// Reset to the erased state.
  void reset() { *this = Page{}; }

 private:
  /// The fused array-level paths stamp page counters directly (one pass
  /// over the touched slots instead of one per layer).
  friend class FlashArray;

  // Widest field first: in declaration order (u8, u16, bool) the u16's
  // alignment padded the page to 6 bytes.
  std::uint16_t neighbor_programs_ = 0;
  std::uint8_t program_ops_ = 0;
  bool reprogrammed_ = false;
};
static_assert(sizeof(Page) == 4, "Page counters should pack into 4 bytes");

}  // namespace ppssd::nand
