// Write-path microbenchmark: fused vs reference program/invalidate cost.
//
//   ./write_bench [report.json]          default: BENCH_perf.json
//
// For each device size (2048 / 8192 / 32768 blocks) and each cell mode the
// bench drives the same fill/drain cycle through both implementations of
// the two hottest array operations:
//
//   write/program/fused        FlashArray::program (single-pass, PR 5)
//   write/program/reference    FlashArray::program_reference (per-layer)
//   write/invalidate/fused     FlashArray::invalidate (single-pass)
//   write/invalidate/reference FlashArray::invalidate_reference
//
// plus the attribution-overhead pair — the full Ssd submit path with the
// per-request blame ledger detached (null-handle hot path) and attached:
//
//   write/attrib/off           Ssd::submit, ledger detached
//   write/attrib/on            Ssd::submit, ledger attached
//
// A cycle fills plane 0's region page by page through the real allocator
// (conventional program of all-but-one slot, partial program of the last
// slot on every other page), then drains it: every valid subpage is
// invalidated — exercising the BlockManager victim-index observer exactly
// like the simulator's supersede path — and the blocks are erased and
// released. Program timing covers the fill loop, invalidate timing the
// drain loop, so each figure is the operation in its realistic
// surroundings rather than a bare call in a cache-hot microloop.
//
// Results are merged into the report as the "write/..." cell family: any
// existing write/ cells are replaced, every other cell (perf_suite replay
// matrix, gc_bench) is preserved, so the three benches can regenerate one
// shared artifact in any order.
#include <array>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/config.h"
#include "common/units.h"
#include "core/report.h"
#include "ftl/block_manager.h"
#include "nand/flash_array.h"
#include "perf/bench_report.h"
#include "sim/ssd.h"
#include "telemetry/telemetry.h"

using namespace ppssd;
using bench::kMinMeasureSeconds;
using bench::Timing;
using core::Table;

namespace {

/// One fill/drain cycle over plane 0's region. Accumulates program timing
/// over the fill loop and invalidate timing over the drain loop.
template <bool kFused>
void run_cycle(nand::FlashArray& arr, ftl::BlockManager& bm, CellMode mode,
               SimTime& now, Timing& program, Timing& invalidate) {
  using clock = std::chrono::steady_clock;
  const BlockLevel level =
      mode == CellMode::kSlc ? BlockLevel::kWork : BlockLevel::kHighDensity;
  const std::uint32_t floor = bm.gc_threshold_blocks(mode) + 1;
  const std::uint32_t spp = arr.geometry().subpages_per_page();
  // Conventional programs fill all but the last slot; every other page
  // then takes a partial program, mirroring the cache's update pattern.
  const std::uint32_t head = spp > 1 ? spp - 1 : 1;

  Lsn lsn = 0;
  std::array<nand::SlotWrite, nand::kMaxSubpagesPerPage> writes;
  const auto fill_start = clock::now();
  while (bm.free_blocks(0, mode) > floor) {
    const auto alloc = bm.allocate_page(0, level);
    if (!alloc) break;
    now += ms_to_ns(1.0);
    for (std::uint32_t s = 0; s < head; ++s) {
      writes[s] = {static_cast<SubpageId>(s), lsn + s};
    }
    const std::span<const nand::SlotWrite> first(writes.data(), head);
    if constexpr (kFused) {
      arr.program(alloc->block, alloc->page, first, now);
    } else {
      arr.program_reference(alloc->block, alloc->page, first, now);
    }
    ++program.calls;
    if (spp > 1 && alloc->page % 2 == 0) {
      const nand::SlotWrite upd[] = {
          {static_cast<SubpageId>(spp - 1), lsn + spp - 1}};
      if constexpr (kFused) {
        arr.program(alloc->block, alloc->page, upd, now);
      } else {
        arr.program_reference(alloc->block, alloc->page, upd, now);
      }
      ++program.calls;
    }
    lsn += spp;
  }
  program.seconds +=
      std::chrono::duration<double>(clock::now() - fill_start).count();

  // Drain: invalidate every valid subpage of every closed block (through
  // the BlockManager observer, as the supersede path does), then erase.
  std::vector<BlockId> victims;
  bm.for_each_candidate(0, mode, [&](BlockId b) { victims.push_back(b); });
  const auto drain_start = clock::now();
  for (const BlockId b : victims) {
    const nand::Block& blk = arr.block(b);
    const std::uint32_t pages = blk.write_frontier();
    for (std::uint32_t p = 0; p < pages; ++p) {
      for (std::uint32_t s = 0; s < spp; ++s) {
        if (arr.subpage_state(b, static_cast<PageId>(p),
                              static_cast<SubpageId>(s)) !=
            nand::SubpageState::kValid) {
          continue;
        }
        if constexpr (kFused) {
          arr.invalidate(b, static_cast<PageId>(p),
                         static_cast<SubpageId>(s));
        } else {
          arr.invalidate_reference(b, static_cast<PageId>(p),
                                   static_cast<SubpageId>(s));
        }
        ++invalidate.calls;
      }
    }
  }
  invalidate.seconds +=
      std::chrono::duration<double>(clock::now() - drain_start).count();

  for (const BlockId b : victims) {
    arr.erase(b, now);
    bm.release_block(b);
  }
}

/// Repeat cycles on a fresh device until both loops have accrued enough
/// measured time.
template <bool kFused>
std::pair<Timing, Timing> run_variant(std::uint32_t blocks, CellMode mode) {
  nand::FlashArray arr(bench::single_plane_config(blocks));
  ftl::BlockManager bm(arr);

  Timing program;
  Timing invalidate;
  SimTime now = 0;
  while (program.seconds < kMinMeasureSeconds ||
         invalidate.seconds < kMinMeasureSeconds) {
    run_cycle<kFused>(arr, bm, mode, now, program, invalidate);
  }
  return {program, invalidate};
}

const char* mode_name(CellMode mode) {
  return mode == CellMode::kSlc ? "slc" : "mlc";
}

/// Attribution-overhead cell: the full host submit path (IPU scheme,
/// GC, the works) with the blame ledger detached vs attached. The
/// detached figure is the null-handle guarantee the perf gate enforces;
/// the attached figure prices the ledger for users who turn it on.
Timing run_attrib_variant(bool attached) {
  SsdConfig cfg = SsdConfig::scaled(2048);
  sim::Ssd ssd(cfg, "IPU");
  telemetry::Telemetry tel([] {
    telemetry::TelemetryOptions opts;
    opts.attribution = true;
    return opts;
  }());
  if (attached) ssd.attach_telemetry(&tel);

  using clock = std::chrono::steady_clock;
  Timing t;
  std::uint64_t lsn = 0;
  SimTime now = 0;
  while (t.seconds < kMinMeasureSeconds) {
    const auto start = clock::now();
    for (int i = 0; i < 2048; ++i) {
      // 3:1 write:read mix over a wrapping strided address pattern —
      // enough churn to keep GC (and thus interference blame) active.
      const OpType op = (i & 3) == 3 ? OpType::kRead : OpType::kWrite;
      ssd.submit(op, (lsn * 17) * kSubpageBytes, kSubpageBytes, now);
      now += us_to_ns(20.0);
      ++lsn;
      ++t.calls;
    }
    t.seconds +=
        std::chrono::duration<double>(clock::now() - start).count();
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = bench::report_path_from_args(argc, argv);
  perf::BenchReport report = bench::load_report_replacing(out_path, "write/");

  Table table({"cell", "ns/op", "ops/s"});
  for (const std::uint32_t blocks : bench::kMicroSizes) {
    for (const CellMode mode : {CellMode::kSlc, CellMode::kMlc}) {
      const auto [fused_prog, fused_inv] = run_variant<true>(blocks, mode);
      const auto [ref_prog, ref_inv] = run_variant<false>(blocks, mode);
      struct Cell {
        const char* family;
        const char* variant;
        const Timing& timing;
      } cells[] = {
          {"program", "fused", fused_prog},
          {"program", "reference", ref_prog},
          {"invalidate", "fused", fused_inv},
          {"invalidate", "reference", ref_inv},
      };
      for (const Cell& c : cells) {
        const std::string key = std::string("write/") + c.family + "/" +
                                c.variant + "/" + mode_name(mode) + "/" +
                                std::to_string(blocks);
        bench::add_micro_cell(report, key, "WritePath",
                              std::string(c.family) + "-" + c.variant + "@" +
                                  mode_name(mode) + std::to_string(blocks),
                              c.timing);
        table.add_row({key, Table::fmt(c.timing.ns_per_call(), 1),
                       Table::fmt(c.timing.calls_per_sec(), 0)});
      }
    }
  }

  for (const bool attached : {false, true}) {
    const Timing t = run_attrib_variant(attached);
    const std::string key =
        std::string("write/attrib/") + (attached ? "on" : "off");
    bench::add_micro_cell(report, key, "IPU",
                          std::string("attrib-") + (attached ? "on" : "off"),
                          t);
    table.add_row({key, Table::fmt(t.ns_per_call(), 1),
                   Table::fmt(t.calls_per_sec(), 0)});
  }

  std::printf("%s\n", table.render("Write-path program/invalidate").c_str());
  return bench::save_report(report, out_path, "write_bench", "write/");
}
