#include "cache/scheme.h"

#include <algorithm>
#include <array>
#include <utility>

#include "cache/registry.h"
#include "common/check.h"
#include "common/state_io.h"
#include "nand/page.h"

namespace ppssd::cache {

namespace {
/// Bound on GC passes triggered by a single host request, so one request
/// cannot stall forever on a pathological cache state (incremental GC).
constexpr std::uint32_t kMaxGcPassesPerRequest = 1;
}  // namespace

Scheme::Scheme(const SsdConfig& cfg)
    : cfg_(cfg),
      array_(cfg),
      bm_(array_),
      map_(array_.geometry().logical_subpages()),
      ber_model_(cfg.ber),
      ecc_model_(cfg.ecc),
      spp_(cfg.geometry.subpages_per_page()) {}

void Scheme::attach_telemetry(telemetry::Telemetry* telemetry) {
  flight_ = telemetry != nullptr ? telemetry->flight() : nullptr;
  if (telemetry == nullptr || !telemetry->instrumented()) {
    tlog_ = nullptr;
    tl_writes_hit_ = tl_writes_miss_ = tl_partial_programs_ = nullptr;
    tl_evicted_ = tl_gc_moved_ = tl_direct_mlc_ = nullptr;
    tl_reads_slc_ = tl_reads_mlc_ = tl_reads_unmapped_ = nullptr;
    tl_gc_slc_ = tl_gc_mlc_ = nullptr;
    tl_read_ber_ = tl_victim_util_ = nullptr;
    bm_.detach_telemetry();
    greedy_.detach_telemetry();
    on_attach_telemetry(nullptr, {});
    return;
  }
  auto& reg = telemetry->registry();
  tlog_ = telemetry->trace();
  const telemetry::Labels labels{{"scheme", name()}};
  const auto with = [&labels](const char* key, const char* value) {
    telemetry::Labels l = labels;
    l.push_back({key, value});
    return l;
  };
  tl_writes_hit_ = reg.counter("cache_writes", with("result", "hit"));
  tl_writes_miss_ = reg.counter("cache_writes", with("result", "miss"));
  tl_partial_programs_ = reg.counter("partial_program_subpages", labels);
  tl_evicted_ = reg.counter("evicted_subpages", labels);
  tl_gc_moved_ = reg.counter("gc_moved_subpages", labels);
  tl_direct_mlc_ = reg.counter("direct_mlc_subpages", labels);
  tl_reads_slc_ = reg.counter("host_reads", with("region", "slc"));
  tl_reads_mlc_ = reg.counter("host_reads", with("region", "mlc"));
  tl_reads_unmapped_ = reg.counter("host_reads", with("region", "unmapped"));
  tl_gc_slc_ = reg.counter("gc_episodes", with("region", "slc"));
  tl_gc_mlc_ = reg.counter("gc_episodes", with("region", "mlc"));
  tl_read_ber_ = reg.histogram("host_read_ber", labels, 1e-9, 1.0);
  // Victim utilisation lives in [0, 1]; headroom keeps 1.0 in-range.
  tl_victim_util_ = reg.histogram("gc_victim_utilization", labels, 1e-3, 2.0);
  reg.gauge_fn("write_amplification", labels, [this] {
    const auto host = metrics_.host_subpages_written;
    if (host == 0) return 1.0;
    return static_cast<double>(metrics_.slc_subpages_written +
                               metrics_.mlc_subpages_written) /
           static_cast<double>(host);
  });
  bm_.attach_telemetry(reg, labels);
  greedy_.attach_telemetry(reg, labels);
  on_attach_telemetry(&reg, labels);
}

std::uint32_t Scheme::next_plane() {
  const std::uint32_t p = rr_plane_;
  rr_plane_ = (rr_plane_ + 1) % array_.geometry().planes();
  return p;
}

double Scheme::ber_of(const PhysicalAddress& addr) const {
  return ber_model_.raw_ber(
      array_.disturb_of(addr.block, addr.page, addr.subpage));
}

void Scheme::emit_program(BlockId block, std::uint32_t subpages,
                          bool background, std::vector<PhysOp>& ops) {
  const nand::BlockStatic& bs = array_.block_static(block);
  PhysOp op;
  op.chip = bs.chip;
  op.channel = bs.channel;
  op.kind = PhysOp::Kind::kProgram;
  op.mode = bs.mode;
  op.subpages = subpages;
  op.background = background;
  op.origin = background ? OpOrigin::kGc : fg_origin_;
  // Relocation programs consume data produced by a GC page read earlier in
  // this request; host programs have no intra-request data dependency.
  if (background) op.depends_on = gc_read_dep_;
  ops.push_back(op);
}

void Scheme::emit_page_read(BlockId block, PageId /*page*/,
                            std::uint32_t subpages, double max_ber,
                            bool background, std::vector<PhysOp>& ops) {
  const nand::BlockStatic& bs = array_.block_static(block);
  PhysOp op;
  op.chip = bs.chip;
  op.channel = bs.channel;
  op.kind = PhysOp::Kind::kRead;
  op.mode = bs.mode;
  op.subpages = subpages;
  op.ber = max_ber;
  op.background = background;
  op.origin = background ? OpOrigin::kGc : fg_origin_;
  ops.push_back(op);
  array_.count_read(block);
}

void Scheme::emit_erase(BlockId block, std::vector<PhysOp>& ops) {
  const nand::BlockStatic& bs = array_.block_static(block);
  PhysOp op;
  op.chip = bs.chip;
  op.channel = bs.channel;
  op.kind = PhysOp::Kind::kErase;
  op.mode = bs.mode;
  op.subpages = 0;
  op.background = true;
  op.origin = OpOrigin::kGc;
  ops.push_back(op);
}

// ---- invalidation ----------------------------------------------------------

void Scheme::retire_slot(Lsn lsn, const PhysicalAddress& addr) {
  array_.invalidate(addr.block, addr.page, addr.subpage);
  map_.clear(lsn);
  if (array_.block_static(addr.block).mode == CellMode::kSlc) {
    on_slc_slot_invalidated(addr);
  }
}

void Scheme::invalidate_previous(Lsn lsn) {
  // Fused supersede: one mapping-table access resolves and unbinds the
  // old slot, then the fused array invalidate does the single page
  // lookup + bucket move (no per-layer re-resolution).
  const PhysicalAddress addr = map_.take(lsn);
  if (addr.valid()) {
    array_.invalidate(addr.block, addr.page, addr.subpage);
    if (array_.block_static(addr.block).mode == CellMode::kSlc) {
      on_slc_slot_invalidated(addr);
    }
  }
}

// ---- placement helpers -------------------------------------------------------

std::optional<ftl::PageAlloc> Scheme::program_new_slc_page(
    std::uint32_t plane, BlockLevel level, std::span<const Lsn> lsns,
    std::span<const std::uint32_t> sources, SimTime now, bool host,
    std::vector<PhysOp>& ops) {
  PPSSD_CHECK(!lsns.empty() && lsns.size() <= spp_);
  PPSSD_CHECK(host || lsns.size() == sources.size());
  const auto alloc = bm_.allocate_page(plane, level);
  if (!alloc) return std::nullopt;

  std::array<nand::SlotWrite, nand::kMaxSubpagesPerPage> writes;
  for (std::size_t i = 0; i < lsns.size(); ++i) {
    // Whether this is a host supersede or a GC move, the previous copy
    // retires first; the map transition is then a clean clear+set.
    invalidate_previous(lsns[i]);
    writes[i] = {static_cast<SubpageId>(i), lsns[i],
                 host ? nand::kHostData : sources[i]};
  }
  array_.program(alloc->block, alloc->page,
                 std::span<const nand::SlotWrite>(writes.data(), lsns.size()),
                 now);
  for (std::size_t i = 0; i < lsns.size(); ++i) {
    map_.set(lsns[i], PhysicalAddress{alloc->block, alloc->page,
                                      static_cast<SubpageId>(i)});
  }
  on_slc_page_programmed(alloc->block, alloc->page, lsns, /*first=*/true);

  metrics_.slc_subpages_written += lsns.size();
  if (host) {
    metrics_.host_subpages_written += lsns.size();
    metrics_.level_subpages[static_cast<std::size_t>(alloc->level)] +=
        lsns.size();
  } else {
    metrics_.gc_moved_subpages += lsns.size();
    if (tl_gc_moved_) tl_gc_moved_->inc(lsns.size());
  }
  emit_program(alloc->block, static_cast<std::uint32_t>(lsns.size()),
               /*background=*/!host, ops);
  return alloc;
}

void Scheme::program_mlc_page(std::span<const Lsn> lsns,
                              std::span<const std::uint32_t> sources,
                              SimTime now, bool host, bool background,
                              std::vector<PhysOp>& ops,
                              std::uint32_t plane_hint) {
  PPSSD_CHECK(!lsns.empty() && lsns.size() <= spp_);
  PPSSD_CHECK(host || lsns.size() == sources.size());
  // GC evictions stay plane-local (SSDsim-style copy out of the victim's
  // plane); host-path MLC writes stripe round-robin.
  std::uint32_t plane = plane_hint != UINT32_MAX ? plane_hint : next_plane();
  std::optional<ftl::PageAlloc> alloc;
  for (std::uint32_t attempt = 0; attempt < array_.geometry().planes();
       ++attempt) {
    maybe_mlc_gc(plane, now, ops);
    alloc = bm_.allocate_page(plane, BlockLevel::kHighDensity);
    if (alloc) break;
    plane = next_plane();
  }
  PPSSD_CHECK_MSG(alloc.has_value(), "MLC region exhausted beyond recovery");

  std::array<nand::SlotWrite, nand::kMaxSubpagesPerPage> writes;
  for (std::size_t i = 0; i < lsns.size(); ++i) {
    invalidate_previous(lsns[i]);
    writes[i] = {static_cast<SubpageId>(i), lsns[i],
                 host ? nand::kHostData : sources[i]};
  }
  array_.program(alloc->block, alloc->page,
                 std::span<const nand::SlotWrite>(writes.data(), lsns.size()),
                 now);
  for (std::size_t i = 0; i < lsns.size(); ++i) {
    map_.set(lsns[i], PhysicalAddress{alloc->block, alloc->page,
                                      static_cast<SubpageId>(i)});
  }
  metrics_.mlc_subpages_written += lsns.size();
  if (host) metrics_.host_subpages_written += lsns.size();
  emit_program(alloc->block, static_cast<std::uint32_t>(lsns.size()),
               background, ops);
}

void Scheme::evict_page_to_mlc(BlockId victim, PageId page, SimTime now,
                               std::vector<PhysOp>& ops) {
  // Stage and retire the page's valid data; the staged buffer flushes
  // into packed MLC pages at the end of the GC pass.
  for (std::uint32_t s = 0; s < spp_; ++s) {
    const auto slot = static_cast<SubpageId>(s);
    const nand::Subpage sp = array_.subpage(victim, page, slot);
    if (sp.state != nand::SubpageState::kValid) continue;
    staged_evictions_.push_back(
        {sp.owner_lsn, array_.source_slot(victim, page, slot)});
    retire_slot(sp.owner_lsn, PhysicalAddress{victim, page, slot});
  }
  if (staged_evictions_.size() >= 4 * spp_) {
    flush_evictions(array_.block_static(victim).plane, now, ops);
  }
}

void Scheme::flush_evictions(std::uint32_t plane, SimTime now,
                             std::vector<PhysOp>& ops) {
  std::size_t i = 0;
  std::array<Lsn, nand::kMaxSubpagesPerPage> lsns;
  std::array<std::uint32_t, nand::kMaxSubpagesPerPage> sources;
  while (i < staged_evictions_.size()) {
    std::size_t n = 0;
    while (n < spp_ && i < staged_evictions_.size()) {
      lsns[n] = staged_evictions_[i].lsn;
      sources[n] = staged_evictions_[i].source;
      ++n;
      ++i;
    }
    program_mlc_page(std::span<const Lsn>(lsns.data(), n),
                     std::span<const std::uint32_t>(sources.data(), n), now,
                     /*host=*/false, /*background=*/true, ops, plane);
    count_evicted(static_cast<std::uint32_t>(n));
  }
  if (i > 0 && tlog_ && tlog_->enabled(telemetry::TraceCategory::kMode)) {
    tlog_->instant(telemetry::TraceCategory::kMode, "evict_slc_to_mlc", now,
                   telemetry::kCacheLane,
                   {{"subpages", static_cast<double>(i)},
                    {"plane", static_cast<double>(plane)}});
  }
  staged_evictions_.clear();
}

void Scheme::write_fresh_slc_page(Lsn lsn, std::uint32_t n, BlockLevel level,
                                  SimTime now, std::vector<PhysOp>& ops) {
  PPSSD_CHECK(n > 0 && n <= spp_);
  std::array<Lsn, nand::kMaxSubpagesPerPage> lsns;
  for (std::uint32_t k = 0; k < n; ++k) lsns[k] = lsn + k;
  const auto alloc =
      program_new_slc_page(next_plane(), level,
                           std::span<const Lsn>(lsns.data(), n), {}, now,
                           /*host=*/true, ops);
  if (!alloc) direct_mlc_write(lsn, n, now, ops);
}

void Scheme::direct_mlc_write(Lsn lsn, std::uint32_t count, SimTime now,
                              std::vector<PhysOp>& ops) {
  if (tl_direct_mlc_) tl_direct_mlc_->inc(count);
  std::array<Lsn, nand::kMaxSubpagesPerPage> chunk;
  std::uint32_t i = 0;
  while (i < count) {
    const std::uint32_t n = std::min(count - i, spp_);
    for (std::uint32_t k = 0; k < n; ++k) chunk[k] = lsn + i + k;
    program_mlc_page(std::span<const Lsn>(chunk.data(), n), {}, now,
                     /*host=*/true, /*background=*/false, ops);
    i += n;
  }
}

std::uint64_t Scheme::prefill_mlc(std::uint64_t max_subpages,
                                  std::uint32_t free_floor_blocks) {
  const auto& geom = array_.geometry();
  max_subpages = std::min(max_subpages, geom.logical_subpages());
  std::uint64_t filled = 0;
  std::array<nand::SlotWrite, nand::kMaxSubpagesPerPage> writes;
  while (filled < max_subpages) {
    // Stop once the region is as full as an aged drive would run.
    std::uint32_t plane = next_plane();
    bool room = false;
    for (std::uint32_t attempts = 0; attempts < geom.planes(); ++attempts) {
      if (bm_.free_blocks(plane, CellMode::kMlc) > free_floor_blocks) {
        room = true;
        break;
      }
      plane = next_plane();
    }
    if (!room) break;

    const auto alloc = bm_.allocate_page(plane, BlockLevel::kHighDensity);
    PPSSD_CHECK(alloc.has_value());
    std::size_t n = 0;
    while (n < spp_ && filled < max_subpages) {
      const Lsn lsn = filled++;
      writes[n] = {static_cast<SubpageId>(n), lsn, nand::kHostData};
      ++n;
    }
    // Bulk setup entry point: frontier fill at sim time 0, skipping the
    // partial-program and forward-neighbour work of the general path.
    array_.prefill_page(alloc->block, alloc->page,
                        std::span<const nand::SlotWrite>(writes.data(), n));
    for (std::size_t i = 0; i < n; ++i) {
      map_.set(writes[i].lsn, PhysicalAddress{alloc->block, alloc->page,
                                              static_cast<SubpageId>(i)});
    }
  }
  reset_metrics();
  return filled;
}

// ---- garbage collection -----------------------------------------------------

void Scheme::maybe_slc_gc(std::uint32_t plane, SimTime now,
                          std::vector<PhysOp>& ops) {
  for (std::uint32_t pass = 0;
       pass < kMaxGcPassesPerRequest && bm_.needs_gc(plane, CellMode::kSlc);
       ++pass) {
    if (!slc_gc_once(plane, now, ops)) break;
  }
}

void Scheme::maybe_mlc_gc(std::uint32_t plane, SimTime now,
                          std::vector<PhysOp>& ops) {
  // Write-amplification guard: defer MLC GC until a victim reclaims a
  // worthwhile share of a block. The bar lowers as free space shrinks so
  // the region degrades gracefully instead of hitting a reclamation cliff.
  const std::uint32_t total_subpages =
      array_.geometry().pages_per_block(CellMode::kMlc) * spp_;
  const std::uint32_t free = bm_.free_blocks(plane, CellMode::kMlc);
  const std::uint32_t threshold = bm_.gc_threshold_blocks(CellMode::kMlc);
  std::uint32_t min_invalid = total_subpages / 4;
  if (free < threshold) {
    min_invalid = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(
               static_cast<std::uint64_t>(min_invalid) * free / threshold));
  }
  for (std::uint32_t pass = 0;
       pass < kMaxGcPassesPerRequest && bm_.needs_gc(plane, CellMode::kMlc);
       ++pass) {
    if (!mlc_gc_once(plane, now, ops, min_invalid)) break;
  }
}

bool Scheme::slc_gc_once(std::uint32_t plane, SimTime now,
                         std::vector<PhysOp>& ops) {
  BlockId victim =
      slc_policy().select_victim(array_, bm_, plane, CellMode::kSlc, now);
  if (victim == kInvalidBlock) {
    // The cache may be full of entirely-valid data (a pure cold flood):
    // no policy victim exists, but the cache must still drain. Fall back
    // to the block holding the oldest data (FIFO-ish eviction).
    double oldest = -1.0;
    bm_.for_each_candidate(plane, CellMode::kSlc, [&](BlockId b) {
      const auto& blk = array_.block(b);
      if (blk.programmed_subpages() == 0) return;
      const auto [sum, count] = ftl::IsrPolicy::age_sum(blk, now);
      const double age = count ? sum / static_cast<double>(count) : 0.0;
      if (age > oldest) {
        oldest = age;
        victim = b;
      }
    });
    if (victim == kInvalidBlock) return false;
  }
  if (gc_decision_hook_) {
    gc_decision_hook_(plane, CellMode::kSlc, victim, now);
  }
  if (flight_ != nullptr) {
    flight_->record(telemetry::introspect::FlightEvent{
        now, victim, plane, bm_.free_blocks(plane, CellMode::kSlc),
        telemetry::introspect::FlightEventKind::kGcDecision,
        static_cast<std::uint8_t>(CellMode::kSlc)});
  }

  nand::Block& blk = array_.block(victim);
  ++metrics_.slc_gc_count;
  const double util = static_cast<double>(blk.programmed_subpages()) /
                      blk.total_subpages();
  metrics_.gc_utilization.add(util);
  if (tl_gc_slc_) {
    tl_gc_slc_->inc();
    tl_victim_util_->observe(util);
  }
  if (tlog_ && tlog_->enabled(telemetry::TraceCategory::kGc)) {
    tlog_->instant(telemetry::TraceCategory::kGc, "slc_gc", now,
                   telemetry::kGcLane,
                   {{"victim", static_cast<double>(victim)},
                    {"plane", static_cast<double>(plane)},
                    {"utilization", util},
                    {"valid", static_cast<double>(blk.valid_subpages())}});
  }

  const std::size_t victim_ops_start = ops.size();
  for (std::uint32_t p = 0; p < blk.write_frontier(); ++p) {
    const auto page_id = static_cast<PageId>(p);
    std::uint32_t valid = 0;
    double max_ber = 0.0;
    for (std::uint32_t s = 0; s < spp_; ++s) {
      if (array_.subpage_state(victim, page_id, static_cast<SubpageId>(s)) ==
          nand::SubpageState::kValid) {
        ++valid;
        max_ber = std::max(
            max_ber,
            ber_of(PhysicalAddress{victim, page_id,
                                   static_cast<SubpageId>(s)}));
      }
    }
    if (valid == 0) continue;
    if (relocation_reads_source()) {
      emit_page_read(victim, page_id, valid, max_ber, /*background=*/true,
                     ops);
      gc_read_dep_ = static_cast<std::uint32_t>(ops.size() - 1);
    }
    relocate_slc_page(victim, page_id, now, ops);
    PPSSD_DCHECK_MSG(
        array_.page_count_state(victim, page_id, nand::SubpageState::kValid) ==
            0,
        "relocate_slc_page left valid data behind");
  }
  flush_evictions(array_.block_static(victim).plane, now, ops);
  gc_read_dep_ = PhysOp::kNoDependency;

  emit_erase(victim, ops);
  // The victim may be erased only after its valid data has been rewritten
  // elsewhere: chain the erase behind the last relocation op.
  if (ops.size() - 1 > victim_ops_start) {
    ops.back().depends_on = static_cast<std::uint32_t>(ops.size() - 2);
  }
  array_.erase(victim, now);
  on_slc_block_erased(victim);
  bm_.release_block(victim);
  return true;
}

bool Scheme::mlc_gc_once(std::uint32_t plane, SimTime now,
                         std::vector<PhysOp>& ops,
                         std::uint32_t min_invalid) {
  const BlockId victim =
      greedy_.select_victim(array_, bm_, plane, CellMode::kMlc, now);
  if (victim == kInvalidBlock) return false;

  nand::Block& blk = array_.block(victim);
  if (blk.invalid_subpages() < min_invalid) return false;
  if (gc_decision_hook_) {
    gc_decision_hook_(plane, CellMode::kMlc, victim, now);
  }
  if (flight_ != nullptr) {
    flight_->record(telemetry::introspect::FlightEvent{
        now, victim, plane, bm_.free_blocks(plane, CellMode::kMlc),
        telemetry::introspect::FlightEventKind::kGcDecision,
        static_cast<std::uint8_t>(CellMode::kMlc)});
  }
  ++metrics_.mlc_gc_count;
  if (tl_gc_mlc_) tl_gc_mlc_->inc();
  if (tlog_ && tlog_->enabled(telemetry::TraceCategory::kGc)) {
    tlog_->instant(telemetry::TraceCategory::kGc, "mlc_gc", now,
                   telemetry::kGcLane,
                   {{"victim", static_cast<double>(victim)},
                    {"plane", static_cast<double>(plane)},
                    {"invalid", static_cast<double>(blk.invalid_subpages())},
                    {"valid", static_cast<double>(blk.valid_subpages())}});
  }

  // MLC GC can run nested inside SLC victim processing (an eviction flush
  // below the free threshold triggers it); keep the outer read dependency
  // intact for the ops emitted after this pass returns.
  const std::uint32_t outer_read_dep = gc_read_dep_;
  const std::size_t victim_ops_start = ops.size();

  // Pack the victim's valid subpages into fresh MLC pages of the same
  // plane: one read per source page, one program per packed destination.
  std::array<nand::SlotWrite, nand::kMaxSubpagesPerPage> pack;
  std::size_t packed = 0;
  auto flush_pack = [&] {
    if (packed == 0) return;
    const auto alloc = bm_.allocate_page(plane, BlockLevel::kHighDensity);
    PPSSD_CHECK_MSG(alloc.has_value(),
                    "no MLC destination during GC (threshold too low)");
    for (std::size_t i = 0; i < packed; ++i) {
      pack[i].slot = static_cast<SubpageId>(i);
      invalidate_previous(pack[i].lsn);
    }
    array_.program(alloc->block, alloc->page,
                   std::span<const nand::SlotWrite>(pack.data(), packed),
                   now);
    for (std::size_t i = 0; i < packed; ++i) {
      map_.set(pack[i].lsn, PhysicalAddress{alloc->block, alloc->page,
                                            static_cast<SubpageId>(i)});
    }
    metrics_.mlc_subpages_written += packed;
    emit_program(alloc->block, static_cast<std::uint32_t>(packed),
                 /*background=*/true, ops);
    packed = 0;
  };

  for (std::uint32_t p = 0; p < blk.write_frontier(); ++p) {
    const auto page_id = static_cast<PageId>(p);
    std::uint32_t valid = 0;
    double max_ber = 0.0;
    for (std::uint32_t s = 0; s < spp_; ++s) {
      if (array_.subpage_state(victim, page_id, static_cast<SubpageId>(s)) !=
          nand::SubpageState::kValid) {
        continue;
      }
      ++valid;
      max_ber = std::max(
          max_ber, ber_of(PhysicalAddress{victim, page_id,
                                          static_cast<SubpageId>(s)}));
    }
    if (valid == 0) continue;
    emit_page_read(victim, page_id, valid, max_ber, /*background=*/true, ops);
    gc_read_dep_ = static_cast<std::uint32_t>(ops.size() - 1);
    for (std::uint32_t s = 0; s < spp_; ++s) {
      const auto slot = static_cast<SubpageId>(s);
      const nand::Subpage sp = array_.subpage(victim, page_id, slot);
      if (sp.state != nand::SubpageState::kValid) continue;
      pack[packed++] = {0, sp.owner_lsn,
                        array_.source_slot(victim, page_id, slot)};
      if (packed == spp_) flush_pack();
    }
  }
  flush_pack();

  emit_erase(victim, ops);
  if (ops.size() - 1 > victim_ops_start) {
    ops.back().depends_on = static_cast<std::uint32_t>(ops.size() - 2);
  }
  gc_read_dep_ = outer_read_dep;
  array_.erase(victim, now);
  bm_.release_block(victim);
  return true;
}

// ---- host entry points -------------------------------------------------------

void Scheme::host_write(Lsn lsn, std::uint32_t count, SimTime now,
                        std::vector<PhysOp>& ops) {
  PPSSD_CHECK(count > 0);
  PPSSD_CHECK(lsn + count <= array_.geometry().logical_subpages());
  if (tl_writes_hit_) {
    // Cache hit = this write supersedes data currently held in SLC.
    std::uint64_t hits = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      if (cached_in_slc(lsn + i)) ++hits;
    }
    tl_writes_hit_->inc(hits);
    tl_writes_miss_->inc(count - hits);
  }
  place_write(lsn, count, now, ops);
  // Algorithm 1: insert, then collect where thresholds are crossed. The
  // pressure bitmask makes this iterate-set-bits instead of an all-planes
  // scan; re-reading the mask after each plane's GC keeps the semantics of
  // the original ascending scan (a pass can flip later planes' bits, and
  // needs_gc is re-checked per region at visit time exactly as before).
  for (std::uint32_t p = bm_.next_pressured_plane(0);
       p != ftl::BlockManager::kNoPlane; p = bm_.next_pressured_plane(p + 1)) {
    if (bm_.needs_gc(p, CellMode::kSlc)) maybe_slc_gc(p, now, ops);
    if (bm_.needs_gc(p, CellMode::kMlc)) maybe_mlc_gc(p, now, ops);
  }
}

void Scheme::host_read(Lsn lsn, std::uint32_t count, SimTime now,
                       std::vector<PhysOp>& ops) {
  PPSSD_CHECK(count > 0);
  PPSSD_CHECK(lsn + count <= array_.geometry().logical_subpages());
  (void)now;

  // Resolve every subpage, then coalesce consecutive same-page hits into
  // single page reads.
  std::vector<ResolvedRead>& resolved = read_scratch_;
  resolved.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    const Lsn cur = lsn + i;
    const PhysicalAddress addr = map_.lookup(cur);
    if (!addr.valid()) {
      // Never written: the FTL answers from the mapping table (zero-fill)
      // without touching flash — no op, no error exposure.
      resolved.push_back({PhysicalAddress{}, 0.0});
      ++metrics_.host_reads_unmapped;
      if (tl_reads_unmapped_) tl_reads_unmapped_->inc();
      continue;
    }
    const double ber = ber_of(addr);
    resolved.push_back({addr, ber});
    metrics_.read_ber.add(ber);
    if (tl_read_ber_) tl_read_ber_->observe(ber);
    if (array_.block_static(addr.block).mode == CellMode::kSlc) {
      ++metrics_.host_reads_slc;
      if (tl_reads_slc_) tl_reads_slc_->inc();
    } else {
      ++metrics_.host_reads_mlc;
      if (tl_reads_mlc_) tl_reads_mlc_->inc();
    }
  }

  std::size_t i = 0;
  while (i < resolved.size()) {
    const auto& first = resolved[i];
    std::size_t j = i + 1;
    double max_ber = first.ber;
    if (first.addr.valid()) {
      while (j < resolved.size() && resolved[j].addr.valid() &&
             resolved[j].addr.block == first.addr.block &&
             resolved[j].addr.page == first.addr.page) {
        max_ber = std::max(max_ber, resolved[j].ber);
        ++j;
      }
      emit_page_read(first.addr.block, first.addr.page,
                     static_cast<std::uint32_t>(j - i), max_ber,
                     /*background=*/false, ops);
    } else {
      // Unmapped run: served from the mapping table, no flash work.
      while (j < resolved.size() && !resolved[j].addr.valid()) {
        ++j;
      }
    }
    i = j;
  }
}

// ---- introspection ------------------------------------------------------------

void Scheme::inspect(telemetry::introspect::StateSink& sink) const {
  sink.value("mapped_lsns", map_.mapped_count());
  sink.value("logical_subpages", map_.logical_subpages());
  const nand::Geometry& geom = array_.geometry();
  std::uint64_t slc_valid = 0;
  for (std::uint32_t i = 0; i < geom.slc_block_count(); ++i) {
    slc_valid += array_.block(geom.slc_block_at(i)).valid_subpages();
  }
  sink.value("slc_cached_subpages", slc_valid);
  sink.value("staged_evictions",
             static_cast<std::uint64_t>(staged_evictions_.size()));
}

void Scheme::read_frame(std::vector<telemetry::introspect::BlockState>& blocks,
                        std::vector<telemetry::introspect::PlaneState>& planes,
                        telemetry::introspect::StateSink& values) const {
  const nand::Geometry& geom = array_.geometry();
  blocks.resize(geom.total_blocks());
  for (BlockId b = 0; b < geom.total_blocks(); ++b) {
    const nand::Block& blk = array_.block(b);
    telemetry::introspect::BlockState& bs = blocks[b];
    bs.erase_count = blk.erase_count();
    bs.valid_subpages = blk.valid_subpages();
    bs.invalid_subpages = blk.invalid_subpages();
    bs.write_frontier = static_cast<std::uint16_t>(blk.write_frontier());
    bs.pages = static_cast<std::uint16_t>(blk.page_count());
    std::uint16_t reprogrammed = 0;
    for (PageId p = 0; p < blk.write_frontier(); ++p) {
      if (blk.page(p).reprogrammed()) ++reprogrammed;
    }
    bs.reprogrammed_pages = reprogrammed;
    bs.mode = static_cast<std::uint8_t>(blk.mode());
    bs.level = static_cast<std::uint8_t>(blk.level());
  }

  planes.resize(geom.planes());
  for (std::uint32_t p = 0; p < geom.planes(); ++p) {
    telemetry::introspect::PlaneState& ps = planes[p];
    ps.free_slc = bm_.free_blocks(p, CellMode::kSlc);
    ps.free_mlc = bm_.free_blocks(p, CellMode::kMlc);
    ps.pressure_slc = bm_.needs_gc(p, CellMode::kSlc) ? 1 : 0;
    ps.pressure_mlc = bm_.needs_gc(p, CellMode::kMlc) ? 1 : 0;
  }

  inspect(values);
}

telemetry::introspect::StreamInfo Scheme::stream_info() const {
  const nand::Geometry& geom = array_.geometry();
  telemetry::introspect::StreamInfo info;
  info.scheme = name();
  info.total_blocks = geom.total_blocks();
  info.planes = geom.planes();
  info.subpages_per_page = geom.subpages_per_page();
  info.slc_blocks_per_plane = geom.slc_blocks_per_plane();
  info.slc_gc_threshold = bm_.gc_threshold_blocks(CellMode::kSlc);
  info.mlc_gc_threshold = bm_.gc_threshold_blocks(CellMode::kMlc);
  return info;
}

// ---- warm-start checkpointing -------------------------------------------------

void Scheme::save(io::StateSink& sink) const {
  PPSSD_CHECK_MSG(staged_evictions_.empty(),
                  "checkpointing with staged evictions in flight");
  PPSSD_CHECK_MSG(gc_read_dep_ == PhysOp::kNoDependency,
                  "checkpointing inside GC victim processing");
  array_.save(sink);
  bm_.save(sink);
  map_.save(sink);
  sink.u32(rr_plane_);
  save_scheme_state(sink);
}

void Scheme::restore(io::StateSource& src) {
  // Order matters: the block manager's victim-index rebuild reads invalid
  // counts out of the restored array.
  array_.restore(src);
  bm_.restore(src);
  map_.restore(src);
  const std::uint32_t rr = src.u32();
  PPSSD_CHECK_MSG(src.ok(), "warm-start checkpoint truncated");
  rr_plane_ = rr;
  restore_scheme_state(src);
}

// ---- footprint & invariants ---------------------------------------------------

ftl::FootprintReport Scheme::footprint() const {
  const ftl::MappingFootprint fp(array_.geometry());
  return SchemeRegistry::instance().resolve(name()).footprint(fp);
}

void Scheme::check_consistency() const {
  const auto& geom = array_.geometry();

  // Physical walk: every valid subpage is the current mapping of its
  // owner and counters match. That the data is the owner's *latest* write
  // is a provenance question the library keeps no state for; the
  // test-side IntegrityShadow (tests/support) answers it (DESIGN.md §7).
  std::uint64_t valid_total = 0;
  for (BlockId b = 0; b < geom.total_blocks(); ++b) {
    const auto& blk = array_.block(b);
    std::uint32_t recount_valid = 0;
    std::uint32_t recount_invalid = 0;
    std::uint64_t recount_wt_sum = 0;
    // Only SLC-mode blocks keep an age histogram; rebuild it from the rows.
    const nand::AgeHistogram* hist = array_.age_histogram(b);
    PPSSD_CHECK_MSG((hist != nullptr) == geom.is_slc_block(b),
                    "age histogram present on an MLC block or missing on "
                    "an SLC block");
    nand::AgeHistogram recount_hist;
    if (hist != nullptr) recount_hist.clear(hist->base_ms());
    for (std::uint32_t p = 0; p < blk.page_count(); ++p) {
      const auto& page = blk.page(static_cast<PageId>(p));
      for (std::uint32_t s = 0; s < blk.subpages_per_page(); ++s) {
        const nand::Subpage sp = array_.subpage(b, static_cast<PageId>(p),
                                                static_cast<SubpageId>(s));
        if (sp.state == nand::SubpageState::kInvalid) ++recount_invalid;
        if (sp.state != nand::SubpageState::kValid) continue;
        recount_wt_sum += sp.write_time_ms;
        if (hist != nullptr && page.program_ops() == 1) {
          recount_hist.add(sp.write_time_ms);
        }
        ++recount_valid;
        ++valid_total;
        const Lsn lsn = sp.owner_lsn;
        const PhysicalAddress mapped = map_.lookup(lsn);
        PPSSD_CHECK_MSG(mapped.valid(),
                        "valid subpage whose owner is unmapped");
        PPSSD_CHECK_MSG(mapped.block == b &&
                            mapped.page == static_cast<PageId>(p) &&
                            mapped.subpage == static_cast<SubpageId>(s),
                        "valid subpage is not its owner's current mapping");
      }
    }
    PPSSD_CHECK(recount_valid == blk.valid_subpages());
    PPSSD_CHECK(recount_invalid == blk.invalid_subpages());
    // The GC-score aggregates must agree with a from-scratch rebuild. Only
    // SLC-mode blocks keep write times (§16): a dense block's sum and
    // recount both read 0.
    PPSSD_CHECK_MSG(recount_wt_sum == blk.sum_write_time_ms(),
                    "running write-time sum is stale");
    PPSSD_CHECK_MSG(hist == nullptr || recount_hist == *hist,
                    "age histogram disagrees with page state");
  }
  // Bijection: mapped LSNs == valid physical subpages (each valid subpage
  // points back at its unique mapping, counts close the loop).
  PPSSD_CHECK(valid_total == map_.mapped_count());
  // The GC victim index must mirror block states and invalid counts.
  bm_.check_victim_index();
}

}  // namespace ppssd::cache
