#include "nand/flash_array.h"

#include <algorithm>

#include "common/check.h"
#include "common/state_io.h"

namespace ppssd::nand {

FlashArray::FlashArray(const SsdConfig& cfg)
    : cfg_(cfg), geom_(cfg.geometry, cfg.cache.slc_ratio) {
  const std::string err = cfg.validate();
  PPSSD_CHECK_MSG(err.empty(), err.c_str());

  spp_ = geom_.subpages_per_page();
  blocks_.reserve(geom_.total_blocks());
  statics_.reserve(geom_.total_blocks());
  slot_base_.reserve(geom_.total_blocks());
  std::size_t slots = 0;
  for (BlockId b = 0; b < geom_.total_blocks(); ++b) {
    const CellMode mode =
        geom_.is_slc_block(b) ? CellMode::kSlc : CellMode::kMlc;
    blocks_.emplace_back(mode, geom_.pages_per_block(mode),
                         geom_.subpages_per_page());
    if (mode == CellMode::kSlc) {
      blocks_.back().slc_ordinal_ = geom_.slc_ordinal(b);
    }
    statics_.push_back(BlockStatic{
        geom_.plane_of(b), static_cast<std::uint16_t>(geom_.chip_of(b)),
        static_cast<std::uint16_t>(geom_.channel_of(b)), mode});
    slot_base_.push_back(slots);
    slots += static_cast<std::size_t>(geom_.pages_per_block(mode)) * spp_;
  }
  sp_state_.assign(slots, 0);
  sp_owner_.assign(slots, 0);
  slc_slots_per_block_ =
      static_cast<std::size_t>(geom_.pages_per_block(CellMode::kSlc)) * spp_;
  slc_wtime_.assign(geom_.slc_block_count() * slc_slots_per_block_, 0);
  sp_programs_before_.assign(slots, 0);
  sp_neighbors_before_.assign(slots, 0);
  slc_hist_.resize(geom_.slc_block_count());

  planes_.reserve(geom_.planes());
  for (std::uint32_t p = 0; p < geom_.planes(); ++p) {
    const BlockId first = geom_.plane_first_block(p);
    planes_.emplace_back(p, first, geom_.blocks_per_plane(),
                         geom_.chip_of(first), geom_.channel_of(first));
  }
  chips_.resize(geom_.chips());
}

bool FlashArray::program_reference(BlockId b, PageId p,
                                   std::span<const SlotWrite> writes,
                                   SimTime now) {
  PPSSD_CHECK(b < blocks_.size());
  PPSSD_CHECK(!writes.empty());
  Block& blk = blocks_[b];
  PPSSD_CHECK(p < blk.page_count());
  Page& pg = blk.pages_[p];
  if (pg.programmed()) {
    PPSSD_CHECK_MSG(can_partial_program(b, p),
                    "partial-program limit exceeded or no free slot");
  }
  const std::size_t base = slot_base_[b] + static_cast<std::size_t>(p) * spp_;

  // Layer "block": frontier rule and the cold-population transition
  // (SLC-mode blocks only carry the cold-population histogram).
  const std::uint8_t pre_ops = pg.program_ops_;
  const bool slc = blk.mode() == CellMode::kSlc;
  std::uint32_t* wtime = slc_wtime_row(blk, p);
  if (pre_ops == 0) {
    PPSSD_CHECK_MSG(p == blk.frontier_, "out-of-order first program of a page");
    ++blk.frontier_;
  } else if (pre_ops == 1 && slc) {
    for (std::uint32_t s = 0; s < spp_; ++s) {
      if (sp_state_[base + s] ==
          static_cast<std::uint8_t>(SubpageState::kValid)) {
        slc_hist_[geom_.slc_ordinal(b)].remove(wtime[s]);
      }
    }
  }

  // Layer "page": write-once slot stamping in its own pass.
  PPSSD_CHECK_MSG(pre_ops < std::numeric_limits<std::uint8_t>::max(),
                  "page program-op counter overflow");
  const auto wt = static_cast<std::uint32_t>(now / 1'000'000);
  for (const SlotWrite& w : writes) {
    PPSSD_CHECK(w.slot < spp_);
    const std::size_t i = base + w.slot;
    PPSSD_CHECK_MSG(sp_state_[i] ==
                        static_cast<std::uint8_t>(SubpageState::kFree),
                    "programming a non-free subpage (NAND write-once rule)");
    sp_state_[i] = static_cast<std::uint8_t>(SubpageState::kValid);
    sp_owner_[i] = static_cast<std::uint32_t>(w.lsn);
    if (slc) wtime[w.slot] = wt;
    sp_programs_before_[i] = pre_ops;
    sp_neighbors_before_[i] = pg.neighbor_programs_;
  }
  pg.program_ops_ = static_cast<std::uint8_t>(pre_ops + 1);
  const bool partial = pre_ops > 0;

  // Layer "block" aggregates, separate pass.
  const auto n = static_cast<std::uint32_t>(writes.size());
  blk.valid_ += n;
  if (slc) {
    blk.sum_write_time_ms_ += static_cast<std::uint64_t>(wt) * n;
    if (pre_ops == 0) slc_hist_[geom_.slc_ordinal(b)].add(wt, n);
  }

  // Wordline adjacency: programming page p disturbs pages p-1 and p+1 of
  // the same block if they already hold data (Figure 1).
  if (p > 0 && blk.pages_[p - 1].programmed()) {
    blk.pages_[p - 1].absorb_neighbor_program();
  }
  const auto next = static_cast<PageId>(p + 1);
  if (next < blk.page_count() && blk.pages_[next].programmed()) {
    blk.pages_[next].absorb_neighbor_program();
  }

  if (blk.mode() == CellMode::kSlc) {
    ++counters_.slc_program_ops;
    counters_.slc_subpages_written += n;
  } else {
    ++counters_.mlc_program_ops;
    counters_.mlc_subpages_written += n;
  }
  if (partial) ++counters_.partial_program_ops;
  planes_[geom_.plane_of(b)].count_program();
  if (slot_observer_ != nullptr) slot_observer_->on_program(b, p, writes);
  return partial;
}

void FlashArray::prefill_page(BlockId b, PageId p,
                              std::span<const SlotWrite> writes) {
  PPSSD_DCHECK(b < blocks_.size());
  PPSSD_DCHECK(!writes.empty());
  Block& blk = blocks_[b];
  PPSSD_CHECK_MSG(p == blk.frontier_, "out-of-order first program of a page");
  ++blk.frontier_;
  const std::size_t base = slot_base_[b] + static_cast<std::size_t>(p) * spp_;
  for (const SlotWrite& w : writes) {
    PPSSD_DCHECK(w.slot < spp_);
    const std::size_t i = base + w.slot;
    PPSSD_CHECK_MSG(sp_state_[i] ==
                        static_cast<std::uint8_t>(SubpageState::kFree),
                    "programming a non-free subpage (NAND write-once rule)");
    sp_state_[i] = static_cast<std::uint8_t>(SubpageState::kValid);
    sp_owner_[i] = static_cast<std::uint32_t>(w.lsn);
    // write_time_ms, programs_before, neighbors_before stay 0: a frontier
    // fill at sim time 0 has seen no prior programs or neighbour disturbs.
  }
  blk.pages_[p].program_ops_ = 1;

  const auto n = static_cast<std::uint32_t>(writes.size());
  blk.valid_ += n;
  if (AgeHistogram* hist = slc_histogram(blk)) hist->add(0, n);

  // Only the page behind the frontier can absorb this program; the page
  // ahead has never been programmed.
  if (p > 0 && blk.pages_[p - 1].program_ops_ > 0) {
    blk.pages_[p - 1].absorb_neighbor_program();
  }

  const BlockStatic& bs = statics_[b];
  if (bs.mode == CellMode::kSlc) {
    ++counters_.slc_program_ops;
    counters_.slc_subpages_written += n;
  } else {
    ++counters_.mlc_program_ops;
    counters_.mlc_subpages_written += n;
  }
  planes_[bs.plane].count_program();
  if (slot_observer_ != nullptr) slot_observer_->on_program(b, p, writes);
}

bool FlashArray::can_partial_program(BlockId b, PageId p) const {
  const Block& blk = blocks_[b];
  if (blk.pages_[p].program_ops() >= cfg_.cache.max_partial_programs) {
    return false;
  }
  return page_first_free(b, p) != kInvalidSubpage;
}

void FlashArray::invalidate_reference(BlockId b, PageId p, SubpageId s) {
  PPSSD_CHECK(b < blocks_.size());
  Block& blk = blocks_[b];
  PPSSD_CHECK(p < blk.page_count());
  PPSSD_CHECK(s < spp_);
  const std::size_t i = slot_base_[b] + static_cast<std::size_t>(p) * spp_ + s;

  // Layer "page": the state flip.
  PPSSD_CHECK_MSG(sp_state_[i] ==
                      static_cast<std::uint8_t>(SubpageState::kValid),
                  "invalidating a subpage that is not valid");
  sp_state_[i] = static_cast<std::uint8_t>(SubpageState::kInvalid);

  // Layer "block": aggregates in a separate pass.
  PPSSD_CHECK(blk.valid_ > 0);
  --blk.valid_;
  ++blk.invalid_;
  if (blk.mode() == CellMode::kSlc) {
    const std::uint32_t wt = slc_wtime_row(blk, p)[s];
    blk.sum_write_time_ms_ -= wt;
    if (blk.pages_[p].program_ops() == 1) {
      slc_hist_[geom_.slc_ordinal(b)].remove(wt);
    }
  }
  if (observer_ != nullptr) {
    observer_->on_subpage_invalidated(b, blk.invalid_);
  }
  if (slot_observer_ != nullptr) slot_observer_->on_invalidate(b, p, s);
}

void FlashArray::erase(BlockId b, SimTime now) {
  PPSSD_CHECK(b < blocks_.size());
  Block& blk = blocks_[b];
  PPSSD_CHECK_MSG(blk.valid_subpages() == 0,
                  "erasing a block that still holds valid data");
  blk.erase(now);
  // Clear the block's slot range back to the erased state, and rebase the
  // histogram on this erase so bucket widths are log-spaced in the block's
  // own fill window (same ms truncation as the program path).
  const std::size_t base = slot_base_[b];
  const std::size_t n = static_cast<std::size_t>(blk.page_count()) * spp_;
  if (AgeHistogram* hist = slc_histogram(blk)) {
    hist->clear(static_cast<std::uint32_t>(now / 1'000'000));
    std::fill_n(slc_wtime_row(blk, 0), n, std::uint32_t{0});
  }
  std::fill_n(sp_state_.begin() + base, n, std::uint8_t{0});
  std::fill_n(sp_owner_.begin() + base, n, std::uint32_t{0});
  std::fill_n(sp_programs_before_.begin() + base, n, std::uint8_t{0});
  std::fill_n(sp_neighbors_before_.begin() + base, n, std::uint16_t{0});
  const BlockStatic& bs = statics_[b];
  if (bs.mode == CellMode::kSlc) {
    ++counters_.slc_erases;
  } else {
    ++counters_.mlc_erases;
  }
  planes_[bs.plane].count_erase();
  if (slot_observer_ != nullptr) slot_observer_->on_erase(b);
}

void FlashArray::count_read(BlockId b) {
  ++counters_.read_ops;
  planes_[statics_[b].plane].count_read();
}

std::uint64_t FlashArray::total_erases(CellMode mode) const {
  std::uint64_t sum = 0;
  for (const auto& blk : blocks_) {
    if (blk.mode() == mode) sum += blk.erase_count();
  }
  return sum;
}

void FlashArray::save(io::StateSink& sink) const {
  // Bump io::warmstart::kVersion on any layout change.
  //
  // Shape header: lets restore() reject a checkpoint whose geometry does
  // not match the constructed array (the container's key should already
  // guarantee this; the check is defense in depth).
  sink.u32(spp_);
  sink.u32(static_cast<std::uint32_t>(blocks_.size()));
  sink.u64(sp_state_.size());

  sink.vec(sp_state_);
  sink.vec(sp_owner_);
  sink.vec(sp_programs_before_);
  sink.vec(sp_neighbors_before_);
  sink.vec(slc_wtime_);

  // Page fields as three global SoA rows (block-major, page order), so
  // restore ingests them as three bulk copies instead of a per-page
  // scalar loop over the stream.
  std::size_t total_pages = 0;
  for (const Block& blk : blocks_) total_pages += blk.page_count();
  std::vector<std::uint8_t> pg_ops;
  std::vector<std::uint16_t> pg_neighbors;
  std::vector<std::uint8_t> pg_reprogrammed;
  pg_ops.reserve(total_pages);
  pg_neighbors.reserve(total_pages);
  pg_reprogrammed.reserve(total_pages);
  for (const Block& blk : blocks_) {
    for (const Page& pg : blk.pages_) {
      pg_ops.push_back(pg.program_ops_);
      pg_neighbors.push_back(pg.neighbor_programs_);
      pg_reprogrammed.push_back(pg.reprogrammed_ ? 1 : 0);
    }
  }
  sink.vec(pg_ops);
  sink.vec(pg_neighbors);
  sink.vec(pg_reprogrammed);

  // Per-block scalars *and* the running aggregates: the aggregates are
  // derivable from the rows above, but serializing them makes restore a
  // straight copy instead of a fold over every subpage slot — the
  // invariant walk (Scheme::check_consistency) still re-derives and
  // cross-checks them after every checkpoint round-trip in tests.
  for (const Block& blk : blocks_) {
    sink.u8(static_cast<std::uint8_t>(blk.level()));
    sink.u32(blk.erase_count());
    sink.u64(blk.last_erase_time());
    sink.u32(blk.frontier_);
    sink.u32(blk.valid_);
    sink.u32(blk.invalid_);
    sink.u64(blk.sum_write_time_ms_);
  }
  // The SLC blocks' age histograms, in SLC-ordinal order.
  for (const AgeHistogram& hist : slc_hist_) hist.save(sink);

  for (const Plane& pl : planes_) {
    sink.u64(pl.programs());
    sink.u64(pl.reads());
    sink.u64(pl.erases());
  }

  sink.pod(counters_);
}

void FlashArray::restore(io::StateSource& src) {
  PPSSD_CHECK_MSG(src.u32() == spp_ &&
                      src.u32() == static_cast<std::uint32_t>(blocks_.size()) &&
                      src.u64() == sp_state_.size(),
                  "warm-start checkpoint does not match device geometry");

  // In-place row reads: the arrays are already sized by the constructor
  // (the geometry check above passed), so each row is one bulk copy;
  // vec_into sticky-fails on any length mismatch.
  (void)src.vec_into(sp_state_);
  (void)src.vec_into(sp_owner_);
  (void)src.vec_into(sp_programs_before_);
  (void)src.vec_into(sp_neighbors_before_);
  (void)src.vec_into(slc_wtime_);
  PPSSD_CHECK_MSG(src.ok(), "warm-start checkpoint rows truncated");

  const std::vector<std::uint8_t> pg_ops = src.vec<std::uint8_t>();
  const std::vector<std::uint16_t> pg_neighbors = src.vec<std::uint16_t>();
  const std::vector<std::uint8_t> pg_reprogrammed = src.vec<std::uint8_t>();
  std::size_t total_pages = 0;
  for (const Block& blk : blocks_) total_pages += blk.page_count();
  PPSSD_CHECK_MSG(src.ok() && pg_ops.size() == total_pages &&
                      pg_neighbors.size() == total_pages &&
                      pg_reprogrammed.size() == total_pages,
                  "warm-start checkpoint page rows truncated");

  // Scatter the page rows back, then take the serialized aggregates as
  // is — they were read off a consistent device and the stream already
  // passed the container checksum; the cheap per-block shape checks
  // below catch writer/reader drift, and the invariant walk re-derives
  // the aggregates in full wherever tests call it.
  std::size_t cursor = 0;
  for (Block& blk : blocks_) {
    blk.level_ = static_cast<BlockLevel>(src.u8());
    blk.erase_count_ = src.u32();
    blk.last_erase_time_ = src.u64();
    for (Page& pg : blk.pages_) {
      pg.program_ops_ = pg_ops[cursor];
      pg.neighbor_programs_ = pg_neighbors[cursor];
      pg.reprogrammed_ = pg_reprogrammed[cursor] != 0;
      ++cursor;
    }
    blk.frontier_ = src.u32();
    blk.valid_ = src.u32();
    blk.invalid_ = src.u32();
    blk.sum_write_time_ms_ = src.u64();
    PPSSD_CHECK_MSG(
        blk.frontier_ <= blk.page_count() &&
            blk.valid_ + blk.invalid_ <=
                static_cast<std::uint64_t>(blk.frontier_) * spp_,
        "warm-start checkpoint block aggregates out of shape");
  }
  for (AgeHistogram& hist : slc_hist_) hist.restore(src);

  for (Plane& pl : planes_) {
    const std::uint64_t programs = src.u64();
    const std::uint64_t reads = src.u64();
    const std::uint64_t erases = src.u64();
    pl.restore_counters(programs, reads, erases);
  }

  counters_ = src.pod<ArrayCounters>();
  PPSSD_CHECK_MSG(src.ok(), "warm-start checkpoint truncated");
}

}  // namespace ppssd::nand
