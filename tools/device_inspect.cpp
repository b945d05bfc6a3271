// Inspect device-state snapshot streams (the snapshot sink of
// PPSSD_OBSERVE writes one <cell>.snap.bin per experiment cell).
//
//   device_inspect <snapshots.bin> [options]
//
// The input (and the --diff operand) may also be a warm-start checkpoint
// written by PPSSD_WARMSTART (PPSSDWRM magic). Its cell's device is
// rebuilt from the header key, restored through the warm-start cache's
// own gate and walked once like a live device
// (core::load_checkpoint_as_snapshot): a one-frame stream at t=0, so
// heatmaps, diffs, timelines, and --verify apply unchanged — e.g. diff a checkpoint against a post-run snapshot,
// or two checkpoints against each other.
//
// Modes (combinable; default with no mode flag is the stream summary):
//
//   --verify           independently re-check conservation invariants in
//                      every frame of every stream (valid counts vs. the
//                      mapping total, frontier bounds, mode/region
//                      agreement, GC-pressure flags, monotone wear) and
//                      print "conservation: OK"/"FAILED" — the CI gate.
//   --heatmap wear|util
//                      per-plane block heatmap of the last frame: wear
//                      (erase counts) or utilization (valid subpages).
//   --timeline         per-frame occupancy timeline (sim time, cached
//                      subpages, free blocks, reprogrammed pages).
//   --csv              emit the timeline as CSV instead of a table.
//   --diff <other.bin> block-by-block diff of the last frames of two
//                      runs (wear and occupancy deltas, mode changes).
//   --flight <f.bin>   summarize a flight-recorder dump (event counts by
//                      kind, the trailing events before a crash).
//   --stream <i>       restrict heatmap/timeline to stream i (default:
//                      all streams).
//
// Exit status (also printed by --help):
//   0  success — and, with --verify, every invariant held
//   1  usage error
//   2  a --verify conservation invariant failed
//   3  unreadable or malformed input file
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/env.h"
#include "core/warmstart.h"
#include "telemetry/introspect/format.h"

namespace {

using namespace ppssd::telemetry::introspect;
using ppssd::SimTime;

constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitVerifyFailed = 2;
constexpr int kExitBadInput = 3;

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s <snapshots.bin|checkpoint.ckpt> [--verify]\n"
               "       [--heatmap wear|util] [--timeline] [--csv]\n"
               "       [--diff <other.bin|.ckpt>] [--flight <flight.bin>]\n"
               "       [--stream <i>] [--help]\n"
               "exit codes:\n"
               "  0  success (with --verify: all invariants held)\n"
               "  1  usage error\n"
               "  2  conservation invariant failed (--verify)\n"
               "  3  unreadable or malformed input file\n",
               argv0);
}

/// Dispatch on magic: a PPSSDWRM checkpoint loads as its restored
/// device's one frame, anything else through the stream loader.
bool load_any(const std::string& path, SnapshotFile* out,
              std::string* error) {
  if (ppssd::core::is_checkpoint_file(path)) {
    return ppssd::core::load_checkpoint_as_snapshot(path, out, error);
  }
  return load_snapshots(path, out, error);
}

std::uint64_t kv_or(const StateSink& values, const char* name,
                    std::uint64_t fallback) {
  const StateSink::Entry* e = values.find(name);
  return e != nullptr && !e->is_float ? e->u : fallback;
}

// ---- --verify -----------------------------------------------------------

struct VerifyStats {
  std::size_t frames = 0;
  std::size_t violations = 0;
};

void violation(VerifyStats& stats, std::size_t stream, std::uint32_t seq,
               const char* what, std::uint64_t got, std::uint64_t want) {
  ++stats.violations;
  if (stats.violations <= 20) {
    std::fprintf(stderr,
                 "violation: stream %zu frame %u: %s (got %llu, want %llu)\n",
                 stream, seq, what, static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(want));
  }
}

void verify_stream(const SnapshotStream& s, std::size_t index,
                   VerifyStats& stats) {
  const StreamInfo& info = s.info;
  const std::uint32_t blocks_per_plane =
      info.planes > 0 ? info.total_blocks / info.planes : 0;
  std::vector<std::uint32_t> prev_erase(info.total_blocks, 0);

  for (const SnapshotFrame& f : s.frames) {
    ++stats.frames;
    std::uint64_t valid_total = 0;
    std::uint64_t slc_valid = 0;
    for (std::uint32_t b = 0; b < f.blocks.size(); ++b) {
      const BlockState& bs = f.blocks[b];
      const bool slc_region =
          blocks_per_plane > 0 && b % blocks_per_plane < info.slc_blocks_per_plane;
      valid_total += bs.valid_subpages;
      if (slc_region) slc_valid += bs.valid_subpages;

      if (bs.write_frontier > bs.pages) {
        violation(stats, index, f.seq, "write frontier beyond page count",
                  bs.write_frontier, bs.pages);
      }
      const std::uint64_t programmed =
          static_cast<std::uint64_t>(bs.write_frontier) * info.subpages_per_page;
      if (bs.valid_subpages + bs.invalid_subpages > programmed) {
        violation(stats, index, f.seq,
                  "valid+invalid subpages exceed programmed slots",
                  bs.valid_subpages + bs.invalid_subpages, programmed);
      }
      if (bs.reprogrammed_pages > bs.write_frontier) {
        violation(stats, index, f.seq,
                  "reprogrammed pages exceed write frontier",
                  bs.reprogrammed_pages, bs.write_frontier);
      }
      // Mode is fixed by the block's region: within each plane the first
      // slc_blocks_per_plane blocks are the SLC cache (mode 0).
      const std::uint8_t want_mode = slc_region ? 0 : 1;
      if (bs.mode != want_mode) {
        violation(stats, index, f.seq, "block mode disagrees with region",
                  bs.mode, want_mode);
      }
      if (bs.erase_count < prev_erase[b]) {
        violation(stats, index, f.seq, "erase count decreased",
                  bs.erase_count, prev_erase[b]);
      }
      prev_erase[b] = bs.erase_count;
    }

    for (std::size_t p = 0; p < f.planes.size(); ++p) {
      const PlaneState& ps = f.planes[p];
      const std::uint8_t want_slc = ps.free_slc <= info.slc_gc_threshold ? 1 : 0;
      const std::uint8_t want_mlc = ps.free_mlc <= info.mlc_gc_threshold ? 1 : 0;
      if (ps.pressure_slc != want_slc) {
        violation(stats, index, f.seq, "SLC GC-pressure flag inconsistent",
                  ps.pressure_slc, want_slc);
      }
      if (ps.pressure_mlc != want_mlc) {
        violation(stats, index, f.seq, "MLC GC-pressure flag inconsistent",
                  ps.pressure_mlc, want_mlc);
      }
    }

    // The frame's own accounting must agree with a from-scratch recount:
    // every valid subpage is the current mapping of its owner, so the
    // device-wide valid total equals the mapping table's entry count.
    const std::uint64_t mapped = kv_or(f.values, "mapped_lsns", valid_total);
    if (mapped != valid_total) {
      violation(stats, index, f.seq,
                "mapping-table entries != device-wide valid subpages", mapped,
                valid_total);
    }
    const std::uint64_t cached = kv_or(f.values, "slc_cached_subpages", slc_valid);
    if (cached != slc_valid) {
      violation(stats, index, f.seq,
                "scheme's SLC occupancy != recounted SLC valid subpages",
                cached, slc_valid);
    }
    const std::uint64_t logical =
        kv_or(f.values, "logical_subpages", UINT64_MAX);
    if (mapped > logical) {
      violation(stats, index, f.seq, "mapped LSNs exceed logical capacity",
                mapped, logical);
    }
  }
}

// ---- --heatmap ----------------------------------------------------------

void print_heatmap(const SnapshotStream& s, std::size_t index, bool wear) {
  if (s.frames.empty()) return;
  const SnapshotFrame& f = s.frames.back();
  const StreamInfo& info = s.info;
  const std::uint32_t bpp =
      info.planes > 0 ? info.total_blocks / info.planes : info.total_blocks;

  std::uint32_t max_erase = 1;
  for (const BlockState& bs : f.blocks) {
    max_erase = std::max(max_erase, bs.erase_count);
  }
  std::printf("\nstream %zu (%s) %s heatmap at t=%.3f ms — one row per plane,\n"
              "one cell per block ('.' = 0, '9' = max%s), '|' splits SLC/MLC:\n",
              index, info.scheme.c_str(), wear ? "wear" : "utilization",
              static_cast<double>(f.time) / 1e6,
              wear ? " erase count" : " occupancy");
  for (std::uint32_t p = 0; p < info.planes; ++p) {
    std::string row;
    row.reserve(bpp + 1);
    for (std::uint32_t i = 0; i < bpp; ++i) {
      if (i == info.slc_blocks_per_plane) row.push_back('|');
      const BlockState& bs = f.blocks[p * bpp + i];
      double x;
      if (wear) {
        x = static_cast<double>(bs.erase_count) / max_erase;
      } else {
        const std::uint64_t cap =
            static_cast<std::uint64_t>(bs.pages) * info.subpages_per_page;
        x = cap > 0 ? static_cast<double>(bs.valid_subpages) /
                          static_cast<double>(cap)
                    : 0.0;
      }
      row.push_back(x <= 0.0 ? '.' : static_cast<char>(
          '0' + std::min(9, static_cast<int>(x * 10.0))));
    }
    std::printf("  plane %2u %s\n", p, row.c_str());
  }
  if (wear) std::printf("  max erase count: %u\n", max_erase);
}

// ---- --timeline ---------------------------------------------------------

void print_timeline(const SnapshotStream& s, std::size_t index, bool csv) {
  const StreamInfo& info = s.info;
  if (csv) {
    std::printf(
        "stream,scheme,time_ms,seq,slc_cached_subpages,mapped_lsns,"
        "free_slc_blocks,free_mlc_blocks,pressured_planes,slc_erases,"
        "mlc_erases,reprogrammed_pages\n");
  } else {
    std::printf("\nstream %zu (%s) occupancy timeline (%zu frames):\n"
                "%12s %6s %14s %12s %9s %9s %10s %10s %7s\n",
                index, info.scheme.c_str(), s.frames.size(), "time_ms", "seq",
                "slc_cached", "mapped", "free_slc", "free_mlc", "slc_erase",
                "mlc_erase", "reprog");
  }
  for (const SnapshotFrame& f : s.frames) {
    std::uint64_t free_slc = 0, free_mlc = 0, pressured = 0;
    for (const PlaneState& ps : f.planes) {
      free_slc += ps.free_slc;
      free_mlc += ps.free_mlc;
      pressured += (ps.pressure_slc || ps.pressure_mlc) ? 1 : 0;
    }
    std::uint64_t slc_erase = 0, mlc_erase = 0, reprog = 0;
    for (const BlockState& bs : f.blocks) {
      (bs.mode == 0 ? slc_erase : mlc_erase) += bs.erase_count;
      reprog += bs.reprogrammed_pages;
    }
    const std::uint64_t cached = kv_or(f.values, "slc_cached_subpages", 0);
    const std::uint64_t mapped = kv_or(f.values, "mapped_lsns", 0);
    const double time_ms = static_cast<double>(f.time) / 1e6;
    if (csv) {
      std::printf("%zu,%s,%.6f,%u,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu\n",
                  index, info.scheme.c_str(), time_ms, f.seq,
                  static_cast<unsigned long long>(cached),
                  static_cast<unsigned long long>(mapped),
                  static_cast<unsigned long long>(free_slc),
                  static_cast<unsigned long long>(free_mlc),
                  static_cast<unsigned long long>(pressured),
                  static_cast<unsigned long long>(slc_erase),
                  static_cast<unsigned long long>(mlc_erase),
                  static_cast<unsigned long long>(reprog));
    } else {
      std::printf("%12.3f %6u %14llu %12llu %9llu %9llu %10llu %10llu %7llu\n",
                  time_ms, f.seq, static_cast<unsigned long long>(cached),
                  static_cast<unsigned long long>(mapped),
                  static_cast<unsigned long long>(free_slc),
                  static_cast<unsigned long long>(free_mlc),
                  static_cast<unsigned long long>(slc_erase),
                  static_cast<unsigned long long>(mlc_erase),
                  static_cast<unsigned long long>(reprog));
    }
  }
}

// ---- --diff -------------------------------------------------------------

int diff_runs(const SnapshotFile& a, const SnapshotFile& b,
              const std::string& path_a, const std::string& path_b) {
  const std::size_t n = std::min(a.streams.size(), b.streams.size());
  if (a.streams.size() != b.streams.size()) {
    std::printf("diff: stream count differs (%zu vs %zu); comparing first "
                "%zu\n",
                a.streams.size(), b.streams.size(), n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const SnapshotStream& sa = a.streams[i];
    const SnapshotStream& sb = b.streams[i];
    if (sa.frames.empty() || sb.frames.empty()) continue;
    if (sa.info.total_blocks != sb.info.total_blocks) {
      std::printf("stream %zu: geometry differs (%u vs %u blocks) — skipped\n",
                  i, sa.info.total_blocks, sb.info.total_blocks);
      continue;
    }
    const SnapshotFrame& fa = sa.frames.back();
    const SnapshotFrame& fb = sb.frames.back();
    std::uint64_t wear_a = 0, wear_b = 0, valid_a = 0, valid_b = 0;
    std::uint32_t changed = 0, mode_changed = 0;
    std::uint32_t worst_block = 0;
    std::int64_t worst_delta = 0;
    for (std::uint32_t blk = 0; blk < sa.info.total_blocks; ++blk) {
      const BlockState& x = fa.blocks[blk];
      const BlockState& y = fb.blocks[blk];
      wear_a += x.erase_count;
      wear_b += y.erase_count;
      valid_a += x.valid_subpages;
      valid_b += y.valid_subpages;
      const std::int64_t delta = static_cast<std::int64_t>(y.erase_count) -
                                 static_cast<std::int64_t>(x.erase_count);
      if (delta != 0 || x.valid_subpages != y.valid_subpages) ++changed;
      if (x.mode != y.mode) ++mode_changed;
      if (std::abs(delta) > std::abs(worst_delta)) {
        worst_delta = delta;
        worst_block = blk;
      }
    }
    std::printf(
        "stream %zu (%s vs %s):\n"
        "  blocks differing: %u of %u (%u mode changes)\n"
        "  total erases: %llu -> %llu (delta %+lld)\n"
        "  total valid subpages: %llu -> %llu (delta %+lld)\n"
        "  largest per-block wear delta: %+lld at block %u\n",
        i, sa.info.scheme.c_str(), sb.info.scheme.c_str(), changed,
        sa.info.total_blocks, mode_changed,
        static_cast<unsigned long long>(wear_a),
        static_cast<unsigned long long>(wear_b),
        static_cast<long long>(wear_b) - static_cast<long long>(wear_a),
        static_cast<unsigned long long>(valid_a),
        static_cast<unsigned long long>(valid_b),
        static_cast<long long>(valid_b) - static_cast<long long>(valid_a),
        static_cast<long long>(worst_delta), worst_block);
  }
  std::printf("diffed %s vs %s\n", path_a.c_str(), path_b.c_str());
  return kExitOk;
}

// ---- --flight -----------------------------------------------------------

int summarize_flight(const std::string& path) {
  FlightFile flight;
  std::string error;
  if (!load_flight(path, &flight, &error)) {
    std::fprintf(stderr, "device_inspect: %s: %s\n", path.c_str(),
                 error.c_str());
    return kExitBadInput;
  }
  std::printf("\nflight: %s — version %u, capacity %u, %llu recorded, "
              "%zu retained\n",
              path.c_str(), flight.version, flight.capacity,
              static_cast<unsigned long long>(flight.recorded),
              flight.events.size());
  std::size_t by_kind[6] = {};
  for (const FlightEvent& ev : flight.events) {
    const auto k = static_cast<std::size_t>(ev.kind);
    if (k < 6) ++by_kind[k];
  }
  for (std::size_t k = 1; k < 6; ++k) {
    if (by_kind[k] == 0) continue;
    std::printf("  %-14s %zu\n",
                flight_event_name(static_cast<FlightEventKind>(k)), by_kind[k]);
  }
  const std::size_t tail = std::min<std::size_t>(flight.events.size(), 8);
  if (tail > 0) std::printf("  last %zu events:\n", tail);
  for (std::size_t i = flight.events.size() - tail; i < flight.events.size();
       ++i) {
    const FlightEvent& ev = flight.events[i];
    std::printf("    t=%.3fms %-14s id=%llu a=%u b=%u detail=0x%02x\n",
                static_cast<double>(ev.time) / 1e6, flight_event_name(ev.kind),
                static_cast<unsigned long long>(ev.id), ev.a, ev.b, ev.detail);
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string diff_path;
  std::string flight_path;
  std::string heatmap;  // "", "wear", "util"
  bool verify = false;
  bool timeline = false;
  bool csv = false;
  long stream_filter = -1;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      print_usage(stdout, argv[0]);
      return kExitOk;
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      verify = true;
    } else if (std::strcmp(argv[i], "--timeline") == 0) {
      timeline = true;
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else if (std::strcmp(argv[i], "--heatmap") == 0) {
      if (i + 1 >= argc) {
        print_usage(stderr, argv[0]);
        return kExitUsage;
      }
      heatmap = argv[++i];
      if (heatmap != "wear" && heatmap != "util") {
        std::fprintf(stderr, "device_inspect: --heatmap takes wear|util\n");
        return kExitUsage;
      }
    } else if (std::strcmp(argv[i], "--diff") == 0) {
      if (i + 1 >= argc) {
        print_usage(stderr, argv[0]);
        return kExitUsage;
      }
      diff_path = argv[++i];
    } else if (std::strcmp(argv[i], "--flight") == 0) {
      if (i + 1 >= argc) {
        print_usage(stderr, argv[0]);
        return kExitUsage;
      }
      flight_path = argv[++i];
    } else if (std::strcmp(argv[i], "--stream") == 0) {
      if (i + 1 >= argc) {
        print_usage(stderr, argv[0]);
        return kExitUsage;
      }
      const std::optional<long> n = ppssd::parse_number<long>(argv[++i]);
      if (!n || *n < 0) {
        std::fprintf(stderr,
                     "device_inspect: --stream takes a stream index, got "
                     "'%s'\n",
                     argv[i]);
        return kExitUsage;
      }
      stream_filter = *n;
    } else if (argv[i][0] == '-') {
      print_usage(stderr, argv[0]);
      return kExitUsage;
    } else if (path.empty()) {
      path = argv[i];
    } else {
      print_usage(stderr, argv[0]);
      return kExitUsage;
    }
  }
  if (path.empty()) {
    // Flight-only invocations are allowed: a crash dump may exist with
    // no snapshot stream (the flight sink without the snapshot sink).
    if (!flight_path.empty()) return summarize_flight(flight_path);
    print_usage(stderr, argv[0]);
    return kExitUsage;
  }

  SnapshotFile file;
  std::string error;
  if (!load_any(path, &file, &error)) {
    std::fprintf(stderr, "device_inspect: %s: %s\n", path.c_str(),
                 error.c_str());
    return kExitBadInput;
  }

  std::size_t total_frames = 0;
  for (const SnapshotStream& s : file.streams) total_frames += s.frames.size();
  std::printf("snapshots: %s — %zu streams, %zu frames%s\n", path.c_str(),
              file.streams.size(), total_frames,
              file.truncated_bytes > 0 ? " (truncated tail dropped)" : "");
  for (std::size_t i = 0; i < file.streams.size(); ++i) {
    const SnapshotStream& s = file.streams[i];
    std::printf("  stream %zu: %s — %u blocks, %u planes, %u subpages/page, "
                "%u SLC blocks/plane, %zu frames\n",
                i, s.info.scheme.c_str(), s.info.total_blocks, s.info.planes,
                s.info.subpages_per_page, s.info.slc_blocks_per_plane,
                s.frames.size());
  }

  const auto selected = [&](std::size_t i) {
    return stream_filter < 0 || static_cast<std::size_t>(stream_filter) == i;
  };

  if (!heatmap.empty()) {
    for (std::size_t i = 0; i < file.streams.size(); ++i) {
      if (selected(i)) print_heatmap(file.streams[i], i, heatmap == "wear");
    }
  }
  if (timeline || csv) {
    for (std::size_t i = 0; i < file.streams.size(); ++i) {
      if (selected(i)) print_timeline(file.streams[i], i, csv);
    }
  }
  if (!diff_path.empty()) {
    SnapshotFile other;
    if (!load_any(diff_path, &other, &error)) {
      std::fprintf(stderr, "device_inspect: %s: %s\n", diff_path.c_str(),
                   error.c_str());
      return kExitBadInput;
    }
    const int rc = diff_runs(file, other, path, diff_path);
    if (rc != kExitOk) return rc;
  }
  if (!flight_path.empty()) {
    const int rc = summarize_flight(flight_path);
    if (rc != kExitOk) return rc;
  }

  if (verify) {
    VerifyStats stats;
    for (std::size_t i = 0; i < file.streams.size(); ++i) {
      verify_stream(file.streams[i], i, stats);
    }
    if (stats.violations == 0) {
      std::printf("conservation: OK (%zu frames, %zu streams)\n", stats.frames,
                  file.streams.size());
    } else {
      std::printf("conservation: FAILED (%zu violations over %zu frames)\n",
                  stats.violations, stats.frames);
      return kExitVerifyFailed;
    }
  }
  return kExitOk;
}
