#include "cache/mga_scheme.h"

#include <algorithm>
#include <array>
#include <utility>

#include "cache/registry.h"
#include "common/check.h"
#include "common/state_io.h"

namespace ppssd::cache {

namespace detail {
const SchemeRegistrar mga_registrar(SchemeInfo{
    "MGA",
    "mapping-granularity-adaptive aggregation into shared SLC pages",
    /*order=*/1,
    [](const SsdConfig& cfg,
       const SchemeOptions& opts) -> std::unique_ptr<Scheme> {
      PPSSD_CHECK_MSG(opts.empty(), "MGA scheme takes no options");
      return std::make_unique<MgaScheme>(cfg);
    },
    [](const ftl::MappingFootprint& fp) { return fp.mga(); },
});

// Called by SchemeRegistry::instance() to pin this translation unit (and
// with it the registrar above) into static-library consumers.
void mga_scheme_link() {}
}  // namespace detail

MgaScheme::MgaScheme(const SsdConfig& cfg)
    : Scheme(cfg),
      second_level_(array_.geometry()),
      open_pages_(array_.geometry().planes()) {}

void MgaScheme::inspect(telemetry::introspect::StateSink& sink) const {
  Scheme::inspect(sink);
  sink.value("second_level_entries", second_level_.live_entries());
  sink.value("second_level_capacity", second_level_.capacity());
  std::uint64_t open = 0;
  for (const OpenPage& p : open_pages_) {
    if (p.valid()) ++open;
  }
  sink.value("open_aggregation_pages", open);
}

std::uint32_t MgaScheme::append_to_plane(std::uint32_t plane, Lsn lsn,
                                         std::uint32_t max, SimTime now,
                                         std::vector<PhysOp>& ops) {
  OpenPage& open = open_pages_[plane];

  // Re-open when the current aggregation page can take no more programs.
  if (open.valid()) {
    const auto& blk = array_.block(open.block);
    const auto& page = blk.page(open.page);
    const bool usable = page.programmed()
                            ? array_.can_partial_program(open.block, open.page)
                            : true;
    if (!usable) open = OpenPage{};
  }
  if (!open.valid()) {
    const auto alloc = bm_.allocate_page(plane, BlockLevel::kWork);
    if (!alloc) return 0;
    open = OpenPage{alloc->block, alloc->page};
  }

  const auto& page = array_.block(open.block).page(open.page);
  const std::uint32_t free =
      array_.page_count_state(open.block, open.page, nand::SubpageState::kFree);
  PPSSD_CHECK(free > 0);
  const std::uint32_t n = std::min(max, free);
  const bool partial = page.programmed();

  // Fill free slots (a suffix: slots are consumed in order, invalidation
  // never frees them).
  std::array<nand::SlotWrite, nand::kMaxSubpagesPerPage> writes;
  const SubpageId first = array_.page_first_free(open.block, open.page);
  for (std::uint32_t k = 0; k < n; ++k) {
    const Lsn cur = lsn + k;
    invalidate_previous(cur);
    writes[k] = {static_cast<SubpageId>(first + k), cur, nand::kHostData};
  }
  array_.program(open.block, open.page,
                 std::span<const nand::SlotWrite>(writes.data(), n), now);
  for (std::uint32_t k = 0; k < n; ++k) {
    const PhysicalAddress addr{open.block, open.page, writes[k].slot};
    map_.set(writes[k].lsn, addr);
    second_level_.set(array_.geometry(), addr, writes[k].lsn);
  }

  metrics_.slc_subpages_written += n;
  metrics_.host_subpages_written += n;
  metrics_.level_subpages[static_cast<std::size_t>(BlockLevel::kWork)] += n;
  if (partial) count_partial_program(n);
  emit_program(open.block, n, /*background=*/false, ops);
  return n;
}

void MgaScheme::place_write(Lsn lsn, std::uint32_t count, SimTime now,
                            std::vector<PhysOp>& ops) {
  std::uint32_t i = 0;
  while (i < count) {
    const std::uint32_t plane = next_plane();
    const std::uint32_t wrote =
        append_to_plane(plane, lsn + i, count - i, now, ops);
    if (wrote == 0) {
      // SLC region exhausted: write the remainder through to MLC.
      direct_mlc_write(lsn + i, count - i, now, ops);
      return;
    }
    i += wrote;
  }
}

void MgaScheme::relocate_slc_page(BlockId victim, PageId page, SimTime now,
                                  std::vector<PhysOp>& ops) {
  evict_page_to_mlc(victim, page, now, ops);
}

void MgaScheme::on_slc_block_erased(BlockId block) {
  second_level_.clear_block(array_.geometry(), block);
  for (auto& open : open_pages_) {
    if (open.block == block) open = OpenPage{};
  }
}

void MgaScheme::on_slc_slot_invalidated(const PhysicalAddress& addr) {
  second_level_.clear(array_.geometry(), addr);
}

void MgaScheme::on_slc_page_programmed(BlockId block, PageId page,
                                       std::span<const Lsn> lsns,
                                       bool /*first_program*/) {
  // Defensive: the shared placement helper is not used on MGA's hot path,
  // but keep the second-level table consistent if it ever is.
  for (std::size_t i = 0; i < lsns.size(); ++i) {
    second_level_.set(
        array_.geometry(),
        PhysicalAddress{block, page, static_cast<SubpageId>(i)}, lsns[i]);
  }
}

void MgaScheme::save_scheme_state(io::StateSink& sink) const {
  second_level_.save(sink);
  sink.vec(open_pages_);
}

void MgaScheme::restore_scheme_state(io::StateSource& src) {
  second_level_.restore(src);
  std::vector<OpenPage> open = src.vec<OpenPage>();
  PPSSD_CHECK_MSG(src.ok() && open.size() == open_pages_.size(),
                  "warm-start checkpoint does not match MGA open-page shape");
  open_pages_ = std::move(open);
}

}  // namespace ppssd::cache
