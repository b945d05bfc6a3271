// The flash array: owns every block and enforces NAND physics.
//
// This is the bottom layer of the simulator. It knows nothing about
// logical addresses or caching policy; the FTL and cache schemes above it
// decide *where* to program, the array enforces *how* programming behaves:
// write-once subpages, page-sequential first programs, the per-page
// partial-program limit, disturb propagation to wordline neighbours, and
// erase/wear accounting.
//
// Hot-path layout (DESIGN.md §10, §14): program() and invalidate() are
// *fused* single-pass implementations, and the per-subpage fields they
// walk are stored as structure-of-arrays rows (one flat vector per field,
// indexed by a precomputed per-block slot base) so a state scan touches
// one densely packed row instead of striding over interleaved structs.
// Every per-slot and per-block table sits on 2 MiB pages (HugeVector,
// DESIGN.md §16): the write path hits them in random order. A row exists
// only where a library decision reads it: write times are kept for SLC
// slots alone (indexed by the block's SLC ordinal, like the age
// histograms), and no row stores a data version — a null-by-default
// SlotObserver sees every program's SlotWrite::source instead, which is
// how the test-side integrity shadow tracks provenance (DESIGN.md §7).
// The layer-by-layer chains survive as program_reference()/
// invalidate_reference() oracles, held state-identical by
// tests/nand/fused_path_test.cpp. Contract invariants (write-once,
// frontier order, partial-program limit, valid-state) stay PPSSD_CHECK in
// every build; bounds and secondary state checks are PPSSD_DCHECK and
// compile out of Release.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/config.h"
#include "common/huge_page_allocator.h"
#include "common/types.h"
#include "nand/block.h"
#include "nand/chip.h"
#include "nand/disturb.h"
#include "nand/geometry.h"
#include "nand/plane.h"

namespace ppssd::io {
class StateSink;
class StateSource;
}  // namespace ppssd::io

namespace ppssd::nand {

/// Raw operation counters, split by region.
struct ArrayCounters {
  std::uint64_t slc_program_ops = 0;
  std::uint64_t mlc_program_ops = 0;
  std::uint64_t partial_program_ops = 0;
  std::uint64_t slc_subpages_written = 0;
  std::uint64_t mlc_subpages_written = 0;
  std::uint64_t slc_erases = 0;
  std::uint64_t mlc_erases = 0;
  std::uint64_t read_ops = 0;
  /// In-place SLC→dense reprogram operations (IPS promotion path).
  std::uint64_t reprogram_ops = 0;
  std::uint64_t reprogrammed_subpages = 0;
};

/// Observer of block bookkeeping changes. The FTL's victim index hangs
/// off this so per-block scores stay incrementally maintained without the
/// array knowing anything about GC policy.
class BlockObserver {
 public:
  virtual ~BlockObserver() = default;
  /// One subpage of `b` went valid -> invalid; `invalid` is the block's
  /// new invalid-subpage count.
  virtual void on_subpage_invalidated(BlockId b, std::uint32_t invalid) = 0;
};

/// Observer of slot contents: every program (with the slot writes as
/// given, so a copy's SlotWrite::source is visible), invalidation and
/// erase. The array keeps no per-slot provenance itself; the test-side
/// integrity shadow (tests/support/integrity_shadow.h) rebuilds it from
/// these calls. While none is attached each operation pays one pointer
/// test.
class SlotObserver {
 public:
  virtual ~SlotObserver() = default;
  /// Page (b, p) was programmed with `writes` (program, prefill_page, and
  /// the destination of reprogram).
  virtual void on_program(BlockId b, PageId p,
                          std::span<const SlotWrite> writes) = 0;
  /// Slot (b, p, s) went valid -> invalid.
  virtual void on_invalidate(BlockId b, PageId p, SubpageId s) = 0;
  /// Block `b` was erased.
  virtual void on_erase(BlockId b) = 0;
};

/// Immutable physical coordinates of a block, precomputed once at
/// construction so the per-operation paths (and the schemes' op-emission
/// helpers) never pay the plane_of/chip_of/channel_of divisions.
struct BlockStatic {
  std::uint32_t plane = 0;
  std::uint16_t chip = 0;
  std::uint16_t channel = 0;
  CellMode mode = CellMode::kSlc;
};

class FlashArray {
 public:
  explicit FlashArray(const SsdConfig& cfg);

  [[nodiscard]] const Geometry& geometry() const { return geom_; }
  [[nodiscard]] const SsdConfig& config() const { return cfg_; }

  [[nodiscard]] const Block& block(BlockId b) const { return blocks_[b]; }
  [[nodiscard]] Block& block(BlockId b) { return blocks_[b]; }

  /// Precomputed plane/chip/channel/mode of a block (no divisions).
  [[nodiscard]] const BlockStatic& block_static(BlockId b) const {
    PPSSD_DCHECK(b < statics_.size());
    return statics_[b];
  }

  [[nodiscard]] const Plane& plane(std::uint32_t p) const { return planes_[p]; }
  [[nodiscard]] Chip& chip(std::uint32_t c) { return chips_[c]; }
  [[nodiscard]] std::uint32_t chip_count() const {
    return static_cast<std::uint32_t>(chips_.size());
  }

  /// Subpages per page — uniform across cell modes; the SoA rows rely on
  /// that uniformity for their fixed per-page stride.
  [[nodiscard]] std::uint32_t subpages_per_page() const { return spp_; }

  /// Flat SoA slot index of subpage (b, p, s).
  [[nodiscard]] std::size_t slot_index(BlockId b, PageId p,
                                       SubpageId s) const {
    PPSSD_DCHECK(b < blocks_.size());
    PPSSD_DCHECK(p < blocks_[b].page_count());
    PPSSD_DCHECK(s < spp_);
    return slot_base_[b] + static_cast<std::size_t>(p) * spp_ + s;
  }

  /// slot_index() as a SlotWrite::source: validate() keeps every device's
  /// slot count below kHostData.
  [[nodiscard]] std::uint32_t source_slot(BlockId b, PageId p,
                                          SubpageId s) const {
    return static_cast<std::uint32_t>(slot_index(b, p, s));
  }

  [[nodiscard]] SubpageState subpage_state(BlockId b, PageId p,
                                           SubpageId s) const {
    return static_cast<SubpageState>(sp_state_[slot_index(b, p, s)]);
  }

  /// Materialized copy of one subpage's stored fields (SoA gather). The
  /// write time reads 0 on a dense slot, which keeps none.
  [[nodiscard]] Subpage subpage(BlockId b, PageId p, SubpageId s) const {
    const std::size_t i = slot_index(b, p, s);
    Subpage sp;
    sp.owner_lsn = sp_owner_[i];
    if (const std::uint32_t* wt = slc_wtime_row(blocks_[b], p)) {
      sp.write_time_ms = wt[s];
    }
    sp.state = static_cast<SubpageState>(sp_state_[i]);
    sp.programs_before = sp_programs_before_[i];
    sp.neighbors_before = sp_neighbors_before_[i];
    return sp;
  }

  /// Count of page (b, p)'s subpages in state `st`.
  [[nodiscard]] std::uint32_t page_count_state(BlockId b, PageId p,
                                               SubpageState st) const {
    const std::size_t base = slot_index(b, p, 0);
    std::uint32_t c = 0;
    for (std::uint32_t s = 0; s < spp_; ++s) {
      if (sp_state_[base + s] == static_cast<std::uint8_t>(st)) ++c;
    }
    return c;
  }

  /// Index of the first free slot of page (b, p), or kInvalidSubpage.
  /// Slots are consumed in order and invalidation never frees them, so
  /// the free slots of a page always form a suffix.
  [[nodiscard]] SubpageId page_first_free(BlockId b, PageId p) const {
    const std::size_t base = slot_index(b, p, 0);
    for (std::uint32_t s = 0; s < spp_; ++s) {
      if (sp_state_[base + s] ==
          static_cast<std::uint8_t>(SubpageState::kFree)) {
        return static_cast<SubpageId>(s);
      }
    }
    return kInvalidSubpage;
  }

  /// In-page disturb events absorbed by (b, p, s) since it was written:
  /// the number of partial programs applied to the page afterwards.
  [[nodiscard]] std::uint32_t in_page_disturbs(BlockId b, PageId p,
                                               SubpageId s) const {
    const std::size_t i = slot_index(b, p, s);
    PPSSD_DCHECK(sp_state_[i] !=
                 static_cast<std::uint8_t>(SubpageState::kFree));
    return blocks_[b].pages_[p].program_ops_ - sp_programs_before_[i] - 1;
  }

  /// Neighbour disturb events absorbed by (b, p, s) since it was written.
  [[nodiscard]] std::uint32_t neighbor_disturbs(BlockId b, PageId p,
                                                SubpageId s) const {
    const std::size_t i = slot_index(b, p, s);
    PPSSD_DCHECK(sp_state_[i] !=
                 static_cast<std::uint8_t>(SubpageState::kFree));
    return blocks_[b].pages_[p].neighbor_programs_ -
           sp_neighbors_before_[i];
  }

  /// Apply one program operation to block `b`, page `p`, filling the given
  /// slots. Enforces the per-page partial-program limit and propagates
  /// neighbour disturb. Returns true if it was a partial program.
  ///
  /// Fused single-pass implementation: subpage rows, page counters, block
  /// aggregates, the write times and age histogram (SLC blocks) and array
  /// counters update in one walk over `writes`.
  bool program(BlockId b, PageId p, std::span<const SlotWrite> writes,
               SimTime now) {
    PPSSD_DCHECK(b < blocks_.size());
    PPSSD_DCHECK(!writes.empty());
    Block& blk = blocks_[b];
    PPSSD_DCHECK(p < blk.page_count());
    Page& pg = blk.pages_[p];
    const std::size_t base = slot_base_[b] + static_cast<std::size_t>(p) * spp_;
    AgeHistogram* hist = slc_histogram(blk);
    std::uint32_t* wtime = slc_wtime_row(blk, p);  // null iff hist is
    const std::uint8_t pre_ops = pg.program_ops_;
    if (pre_ops == 0) {
      // First program of a page must land on the write frontier: NAND
      // blocks are programmed page-sequentially after an erase.
      PPSSD_CHECK_MSG(p == blk.frontier_,
                      "out-of-order first program of a page");
      ++blk.frontier_;
    } else {
      PPSSD_CHECK_MSG(pre_ops < cfg_.cache.max_partial_programs,
                      "partial-program limit exceeded or no free slot");
      if (pre_ops == 1 && hist != nullptr) {
        // The page transitions to "updated": its valid subpages leave the
        // cold (never-updated) population tracked by the age histogram.
        for (std::uint32_t s = 0; s < spp_; ++s) {
          if (sp_state_[base + s] ==
              static_cast<std::uint8_t>(SubpageState::kValid)) {
            hist->remove(wtime[s]);
          }
        }
      }
    }
    PPSSD_DCHECK_MSG(pg.program_ops_ <
                         std::numeric_limits<std::uint8_t>::max(),
                     "page program-op counter overflow");
    const auto wt = static_cast<std::uint32_t>(now / 1'000'000);
    for (const SlotWrite& w : writes) {
      PPSSD_DCHECK(w.slot < spp_);
      const std::size_t i = base + w.slot;
      PPSSD_CHECK_MSG(sp_state_[i] ==
                          static_cast<std::uint8_t>(SubpageState::kFree),
                      "programming a non-free subpage (NAND write-once rule)");
      sp_state_[i] = static_cast<std::uint8_t>(SubpageState::kValid);
      sp_owner_[i] = static_cast<std::uint32_t>(w.lsn);
      if (wtime != nullptr) wtime[w.slot] = wt;
      sp_programs_before_[i] = pre_ops;
      sp_neighbors_before_[i] = pg.neighbor_programs_;
    }
    pg.program_ops_ = static_cast<std::uint8_t>(pre_ops + 1);

    const auto n = static_cast<std::uint32_t>(writes.size());
    blk.valid_ += n;
    if (hist != nullptr) {
      blk.sum_write_time_ms_ += static_cast<std::uint64_t>(wt) * n;
      if (pre_ops == 0) hist->add(wt, n);
    }

    // Wordline adjacency: programming page p disturbs pages p-1 and p+1
    // of the same block if they already hold data (Figure 1).
    if (p > 0 && blk.pages_[p - 1].program_ops_ > 0) {
      blk.pages_[p - 1].absorb_neighbor_program();
    }
    const auto next = static_cast<PageId>(p + 1);
    if (next < blk.page_count() && blk.pages_[next].program_ops_ > 0) {
      blk.pages_[next].absorb_neighbor_program();
    }

    const BlockStatic& bs = statics_[b];
    if (bs.mode == CellMode::kSlc) {
      ++counters_.slc_program_ops;
      counters_.slc_subpages_written += n;
    } else {
      ++counters_.mlc_program_ops;
      counters_.mlc_subpages_written += n;
    }
    if (pre_ops > 0) ++counters_.partial_program_ops;
    planes_[bs.plane].count_program();
    if (slot_observer_ != nullptr) slot_observer_->on_program(b, p, writes);
    return pre_ops > 0;
  }

  /// Layer-by-layer program chain (checks, then per-slot stamping, then
  /// aggregate updates as separate passes), kept as the equivalence
  /// oracle for the fused program().
  bool program_reference(BlockId b, PageId p,
                         std::span<const SlotWrite> writes, SimTime now);

  /// In-place switch (IPS, arXiv 2409.14360): promote an SLC-mode cache
  /// page to a dense-mode destination by continuing the ISPP sequence on
  /// the cells instead of read-migrate-program. The destination page's
  /// resulting state is identical to program(dst_b, dst_p, writes, now) —
  /// the caller supplies the surviving slot writes — plus a sticky
  /// `reprogrammed` mark that the BER model prices as a retention/disturb
  /// penalty. The mark clears on erase.
  ///
  /// The source page must be in SLC frontier state: exactly one program
  /// since erase (a single-pulse SLC write, never partially programmed).
  /// Reprogramming from any other state is physically meaningless and is
  /// rejected by an always-on check, as is a non-SLC source or a non-dense
  /// destination. The caller invalidates the source slots itself (they
  /// are superseded data after the switch, exactly as after a migration).
  void reprogram(BlockId src_b, PageId src_p, BlockId dst_b, PageId dst_p,
                 std::span<const SlotWrite> writes, SimTime now) {
    PPSSD_DCHECK(src_b < blocks_.size());
    const Block& src = blocks_[src_b];
    PPSSD_DCHECK(src_p < src.page_count());
    PPSSD_CHECK_MSG(statics_[src_b].mode == CellMode::kSlc,
                    "reprogram source must be an SLC-mode page");
    PPSSD_CHECK_MSG(src.page(src_p).program_ops() == 1,
                    "reprogram source not in SLC frontier state (exactly one "
                    "program since erase required)");
    PPSSD_CHECK_MSG(statics_[dst_b].mode == CellMode::kMlc,
                    "reprogram destination must be a dense-mode page");
    program(dst_b, dst_p, writes, now);
    blocks_[dst_b].pages_[dst_p].reprogrammed_ = true;
    ++counters_.reprogram_ops;
    counters_.reprogrammed_subpages += writes.size();
  }

  /// Bulk first-program entry point for setup (Scheme prefill): programs
  /// the write frontier of `b` at sim time 0. Skips the partial-program
  /// branches and the forward-neighbour probe — a frontier fill can only
  /// disturb the page behind it. State produced is identical to
  /// program(b, p, writes, 0) on a free frontier page.
  void prefill_page(BlockId b, PageId p, std::span<const SlotWrite> writes);

  /// True if page (b, p) may accept another program operation (partial-
  /// program limit not yet reached and free subpage slots remain).
  [[nodiscard]] bool can_partial_program(BlockId b, PageId p) const;

  /// Fused invalidate: one slot lookup updates the state row, block
  /// aggregates, the write-time sum and age histogram (SLC blocks) and the
  /// observers in a single pass.
  void invalidate(BlockId b, PageId p, SubpageId s) {
    PPSSD_DCHECK(b < blocks_.size());
    Block& blk = blocks_[b];
    PPSSD_DCHECK(p < blk.page_count());
    PPSSD_DCHECK(s < spp_);
    const std::size_t i =
        slot_base_[b] + static_cast<std::size_t>(p) * spp_ + s;
    PPSSD_CHECK_MSG(sp_state_[i] ==
                        static_cast<std::uint8_t>(SubpageState::kValid),
                    "invalidating a subpage that is not valid");
    sp_state_[i] = static_cast<std::uint8_t>(SubpageState::kInvalid);
    PPSSD_DCHECK(blk.valid_ > 0);
    --blk.valid_;
    ++blk.invalid_;
    if (AgeHistogram* hist = slc_histogram(blk)) {
      const std::uint32_t wt = slc_wtime_row(blk, p)[s];
      blk.sum_write_time_ms_ -= wt;
      if (blk.pages_[p].program_ops_ == 1) hist->remove(wt);
    }
    if (observer_ != nullptr) {
      observer_->on_subpage_invalidated(b, blk.invalid_);
    }
    if (slot_observer_ != nullptr) slot_observer_->on_invalidate(b, p, s);
  }

  /// Layer-by-layer invalidate chain, kept as the equivalence oracle for
  /// the fused invalidate().
  void invalidate_reference(BlockId b, PageId p, SubpageId s);

  /// Erase a block. All subpages must already be invalid or free — the
  /// caller (GC) is responsible for relocating valid data first.
  void erase(BlockId b, SimTime now);

  /// Count a read operation (timing handled by the service model).
  void count_read(BlockId b);

  /// Disturb snapshot of a stored subpage for the BER model.
  [[nodiscard]] DisturbSnapshot disturb_of(BlockId b, PageId p,
                                           SubpageId s) const {
    const Block& blk = blocks_[b];
    DisturbSnapshot snap;
    snap.mode = blk.mode();
    snap.pe_cycles = cfg_.wear.initial_pe_cycles + blk.erase_count();
    snap.in_page_disturbs = in_page_disturbs(b, p, s);
    snap.neighbor_disturbs = neighbor_disturbs(b, p, s);
    snap.reprogrammed = blk.pages_[p].reprogrammed_;
    return snap;
  }

  /// Write-time histogram over the never-updated valid subpages of SLC-mode
  /// block `b` (the Eq. 2 cold-movement candidates ISR GC weighs), or
  /// nullptr when `b` is an MLC block: no policy scores dense victims by
  /// age, so MLC blocks keep no histogram.
  [[nodiscard]] const AgeHistogram* age_histogram(BlockId b) const {
    PPSSD_DCHECK(b < blocks_.size());
    const std::uint32_t ord = blocks_[b].slc_ordinal_;
    return ord == Block::kNoSlcOrdinal ? nullptr : &slc_hist_[ord];
  }

  [[nodiscard]] const ArrayCounters& counters() const { return counters_; }

  /// Zero the aggregate operation counters (per-block wear is preserved).
  /// Used after warm-up so reports cover only the measured phase.
  void reset_counters() { counters_ = ArrayCounters{}; }

  /// Sum of erase counts over SLC-mode / MLC blocks (wear inspection).
  [[nodiscard]] std::uint64_t total_erases(CellMode mode) const;

  /// Register (or clear, with nullptr) the single block observer. The
  /// observer must outlive the array or unregister before destruction.
  void set_block_observer(BlockObserver* observer) { observer_ = observer; }

  /// Register (or clear, with nullptr) the single slot observer, under
  /// the same lifetime rule. Restore does not notify it: attach it to a
  /// device before that device's first program.
  void set_slot_observer(SlotObserver* observer) { slot_observer_ = observer; }

  /// Serialize the complete mutable array state (SoA rows, the SLC write
  /// times, per-page and per-block counters, wear, SLC histograms,
  /// operation counters) for the
  /// warm-start checkpoint. Geometry/config are not written — the restore
  /// target must be constructed from the same SsdConfig.
  void save(io::StateSink& sink) const;

  /// Inverse of save(). PPSSD_CHECKs that the checkpoint's shape matches
  /// this array's geometry; the caller validates checksum/version first.
  void restore(io::StateSource& src);

 private:
  [[nodiscard]] AgeHistogram* slc_histogram(const Block& blk) {
    return blk.slc_ordinal_ == Block::kNoSlcOrdinal
               ? nullptr
               : &slc_hist_[blk.slc_ordinal_];
  }

  /// Write times of page `p` of SLC-mode block `blk` (indexed by slot),
  /// or nullptr on a dense block, which keeps none.
  [[nodiscard]] std::uint32_t* slc_wtime_row(const Block& blk, PageId p) {
    return blk.slc_ordinal_ == Block::kNoSlcOrdinal
               ? nullptr
               : &slc_wtime_[static_cast<std::size_t>(blk.slc_ordinal_) *
                                 slc_slots_per_block_ +
                             static_cast<std::size_t>(p) * spp_];
  }
  [[nodiscard]] const std::uint32_t* slc_wtime_row(const Block& blk,
                                                   PageId p) const {
    return const_cast<FlashArray*>(this)->slc_wtime_row(blk, p);
  }

  SsdConfig cfg_;
  Geometry geom_;
  HugeVector<Block> blocks_;
  HugeVector<BlockStatic> statics_;
  /// Age histograms of the SLC-mode blocks, indexed by slc_ordinal.
  HugeVector<AgeHistogram> slc_hist_;
  std::vector<Plane> planes_;
  std::vector<Chip> chips_;
  ArrayCounters counters_;
  BlockObserver* observer_ = nullptr;
  SlotObserver* slot_observer_ = nullptr;

  // Structure-of-arrays subpage rows (DESIGN.md §14). Slot index =
  // slot_base_[b] + page * spp_ + slot; slot_base_ is precomputed per
  // block because pages-per-block differs between cell modes.
  std::uint32_t spp_ = 0;
  HugeVector<std::size_t> slot_base_;
  HugeVector<std::uint8_t> sp_state_;
  HugeVector<std::uint32_t> sp_owner_;
  // Write times of the SLC-mode slots only: slc_ordinal *
  // slc_slots_per_block_ + page * spp_ + slot (slc_wtime_row).
  std::size_t slc_slots_per_block_ = 0;
  HugeVector<std::uint32_t> slc_wtime_;
  HugeVector<std::uint8_t> sp_programs_before_;
  HugeVector<std::uint16_t> sp_neighbors_before_;
};

}  // namespace ppssd::nand
