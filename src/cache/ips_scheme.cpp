#include "cache/ips_scheme.h"

#include <algorithm>
#include <array>
#include <optional>
#include <vector>

#include "cache/registry.h"
#include "common/check.h"

namespace ppssd::cache {

namespace detail {
const SchemeRegistrar ips_registrar(SchemeInfo{
    "IPS",
    "in-place switch: SLC cache promoted to dense mode by reprogramming",
    /*order=*/3,
    [](const SsdConfig& cfg,
       const SchemeOptions& opts) -> std::unique_ptr<Scheme> {
      auto scheme = std::make_unique<IpsScheme>(cfg);
      if (!opts.empty()) {
        scheme->set_options(IpsScheme::Options::from_scheme_options(opts));
      }
      return scheme;
    },
    [](const ftl::MappingFootprint& fp) { return fp.ips(); },
});

// Called by SchemeRegistry::instance() to pin this translation unit (and
// with it the registrar above) into static-library consumers.
void ips_scheme_link() {}
}  // namespace detail

SchemeOptions IpsScheme::Options::to_scheme_options() const {
  SchemeOptions opts;
  opts.set("rpg", use_reprogram ? "1" : "0");
  return opts;
}

IpsScheme::Options IpsScheme::Options::from_scheme_options(
    const SchemeOptions& opts) {
  for (const auto& [key, value] : opts.entries) {
    PPSSD_CHECK_MSG(key == "rpg",
                    ("unknown IPS option '" + key + "'; known options: rpg")
                        .c_str());
  }
  Options out;
  out.use_reprogram = opts.flag("rpg", out.use_reprogram);
  return out;
}

void IpsScheme::on_attach_telemetry(telemetry::MetricsRegistry* registry,
                                    const telemetry::Labels& labels) {
  if (registry == nullptr) {
    tl_reprogrammed_ = tl_fallback_ = nullptr;
    return;
  }
  tl_reprogrammed_ = registry->counter("reprogrammed_subpages", labels);
  tl_fallback_ = registry->counter("reprogram_fallback_subpages", labels);
}

void IpsScheme::place_write(Lsn lsn, std::uint32_t count, SimTime now,
                            std::vector<PhysOp>& ops) {
  // Baseline-style placement: one request per fresh Work page, remainder
  // slots left unprogrammed. Never partial-programming is what keeps
  // every cached page in frontier state, i.e. reprogram-eligible.
  std::uint32_t i = 0;
  while (i < count) {
    // Falls back to MLC when even the Work level has no free SLC page.
    const std::uint32_t n = std::min(count - i, subpages_per_page());
    write_fresh_slc_page(lsn + i, n, BlockLevel::kWork, now, ops);
    i += n;
  }
}

void IpsScheme::relocate_slc_page(BlockId victim, PageId page, SimTime now,
                                  std::vector<PhysOp>& ops) {
  const auto& pg = array_.block(victim).page(page);

  // Surviving slots, positions preserved: the switch converts cells in
  // place, so slot i of the SLC page becomes slot i of the dense page.
  std::array<nand::SlotWrite, nand::kMaxSubpagesPerPage> writes;
  std::size_t n = 0;
  double max_ber = 0.0;
  for (std::uint32_t s = 0; s < subpages_per_page(); ++s) {
    const auto slot = static_cast<SubpageId>(s);
    const nand::Subpage sp = array_.subpage(victim, page, slot);
    if (sp.state != nand::SubpageState::kValid) continue;
    writes[n++] = {slot, sp.owner_lsn, array_.source_slot(victim, page, slot)};
    max_ber = std::max(max_ber, ber_of(PhysicalAddress{victim, page, slot}));
  }
  if (n == 0) return;

  // Defensive fallback: a page outside frontier state (cannot happen with
  // IPS placement, which never partial-programs) is not reprogram-eligible
  // and takes the conventional read-migrate path, including the page read
  // the fast path skipped.
  const bool reprogram = opts_.use_reprogram && pg.program_ops() == 1;
  if (opts_.use_reprogram && !reprogram) {
    emit_page_read(victim, page, static_cast<std::uint32_t>(n), max_ber,
                   /*background=*/true, ops);
    gc_read_dep_ = static_cast<std::uint32_t>(ops.size() - 1);
  }

  // Plane-local dense destination with the same GC-then-fallback loop as
  // the shared MLC placement helper.
  std::uint32_t plane = array_.block_static(victim).plane;
  std::optional<ftl::PageAlloc> alloc;
  for (std::uint32_t attempt = 0; attempt < array_.geometry().planes();
       ++attempt) {
    maybe_mlc_gc(plane, now, ops);
    alloc = bm_.allocate_page(plane, BlockLevel::kHighDensity);
    if (alloc) break;
    plane = next_plane();
  }
  PPSSD_CHECK_MSG(alloc.has_value(), "MLC region exhausted beyond recovery");

  for (std::size_t i = 0; i < n; ++i) {
    retire_slot(writes[i].lsn,
                PhysicalAddress{victim, page, writes[i].slot});
  }
  const std::span<const nand::SlotWrite> span(writes.data(), n);
  if (reprogram) {
    array_.reprogram(victim, page, alloc->block, alloc->page, span, now);
    const nand::BlockStatic& bs = array_.block_static(alloc->block);
    PhysOp op;
    op.chip = bs.chip;
    op.channel = bs.channel;
    op.kind = PhysOp::Kind::kReprogram;
    op.mode = bs.mode;
    op.subpages = static_cast<std::uint32_t>(n);
    op.background = true;
    op.origin = OpOrigin::kGc;
    ops.push_back(op);
    ++reprogrammed_pages_;
    reprogrammed_subpages_ += n;
    if (tl_reprogrammed_) tl_reprogrammed_->inc(n);
  } else {
    // Oracle / fallback: identical state mutation via a conventional
    // program (the source read was emitted by the GC driver or above).
    array_.program(alloc->block, alloc->page, span, now);
    emit_program(alloc->block, static_cast<std::uint32_t>(n),
                 /*background=*/true, ops);
    if (opts_.use_reprogram) {
      fallback_subpages_ += n;
      if (tl_fallback_) tl_fallback_->inc(n);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    map_.set(writes[i].lsn,
             PhysicalAddress{alloc->block, alloc->page, writes[i].slot});
  }
  metrics_.mlc_subpages_written += n;
  count_evicted(static_cast<std::uint32_t>(n));
}

}  // namespace ppssd::cache
