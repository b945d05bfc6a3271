// One experiment cell: a (scheme × trace × wear) trace-driven simulation,
// and the flat result record every bench derives its figures from.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "cache/registry.h"
#include "cache/scheme.h"
#include "common/config.h"
#include "perf/progress.h"

namespace ppssd::core {

/// Version of the ExperimentResult record layout. Bump whenever fields
/// are added/removed or their meaning changes: the runner keys its disk
/// cache by this version and deserialize() rejects other versions, so a
/// stale cache can never masquerade as a fresh result.
inline constexpr int kResultSchemaVersion = 4;

struct ExperimentSpec {
  std::string scheme = "IPU";        // registry name (cache/registry.h)
  std::string trace;                 // profile name (profiles.h)
  std::uint32_t pe_cycles = 4000;    // device wear at replay start
  std::uint32_t total_blocks = 16384;  // device scale
  double trace_scale = 0.15;         // fraction of the profile's requests
  /// Scheme-specific option bag, handed to the scheme's registry factory
  /// (ablation switches, design knobs). Participates in key().
  cache::SchemeOptions options;

  /// Stable identity string (cache key, log label).
  [[nodiscard]] std::string key() const;

  /// The inverse of key(): the spec whose key() is exactly `key`, or
  /// nullopt when `key` is not such a string. Option values must start
  /// with something other than a lowercase letter (every registered
  /// option is 0/1), so "-isr1" splits into name "isr" and value "1".
  /// Scheme names and option names are not checked against the
  /// registry here.
  [[nodiscard]] static std::optional<ExperimentSpec> from_key(
      std::string_view key);
};

struct ExperimentResult {
  ExperimentSpec spec;

  // Figure 5 / 13: response times (ms). Percentiles form the uniform
  // p50/p95/p99/p999 ladder the report layer exposes everywhere.
  double avg_read_ms = 0.0;
  double avg_write_ms = 0.0;
  double avg_overall_ms = 0.0;
  double p50_read_ms = 0.0;
  double p50_write_ms = 0.0;
  double p95_read_ms = 0.0;
  double p95_write_ms = 0.0;
  double p99_read_ms = 0.0;
  double p99_write_ms = 0.0;
  double p999_read_ms = 0.0;
  double p999_write_ms = 0.0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;

  // Figure 8 / 14: mean raw BER observed by host reads.
  double read_ber = 0.0;

  // Figure 6: completed subpage writes per region.
  std::uint64_t slc_subpages = 0;
  std::uint64_t mlc_subpages = 0;

  // Figure 7: host subpage writes per SLC level (index = BlockLevel).
  std::uint64_t level_subpages[4] = {0, 0, 0, 0};
  std::uint64_t intra_page_updates = 0;

  // Figure 9: mean used/total subpage ratio of GC victim blocks.
  double gc_utilization = 0.0;

  // Figure 10: erases per region.
  std::uint64_t slc_erases = 0;
  std::uint64_t mlc_erases = 0;

  // Figure 11: mapping-table model (bytes).
  std::uint64_t map_base_bytes = 0;
  std::uint64_t map_extra_bytes = 0;
  std::uint64_t map_aux_bytes = 0;

  // GC activity.
  std::uint64_t slc_gc_count = 0;
  std::uint64_t mlc_gc_count = 0;
  std::uint64_t evicted_subpages = 0;
  std::uint64_t gc_moved_subpages = 0;

  double avg_queue_depth = 0.0;             // time-weighted mean in-flight
  double avg_queue_depth_at_arrival = 0.0;  // legacy at-arrival sampling

  // Host-side (wall-clock) performance of the simulator itself. Every
  // serialized key here starts with "wall_" — the determinism checks
  // (tests + CI) filter that prefix, since only these fields may differ
  // between bit-identical replays. `ctrl_events` (flash commands the
  // controller scheduled during the measured phase) is deterministic.
  double wall_seconds = 0.0;          // whole cell, all phases
  double wall_setup_seconds = 0.0;    // config + scheme + workload build
  double wall_warmup_seconds = 0.0;   // prefill + cache warm replay
  double wall_measure_seconds = 0.0;  // measured replay
  double wall_report_seconds = 0.0;   // metric collection + assembly
  double wall_reqs_per_sec = 0.0;     // host requests / measured second
  double wall_ctrl_events_per_sec = 0.0;
  std::uint64_t ctrl_events = 0;

  // Chip-occupancy breakdown (seconds of array time) for diagnosis.
  double chip_fg_seconds = 0.0;   // host reads+programs
  double chip_bg_seconds = 0.0;   // GC/migration reads+programs
  double chip_erase_seconds = 0.0;

  [[nodiscard]] double map_normalized() const {
    return map_base_bytes == 0
               ? 0.0
               : static_cast<double>(map_base_bytes + map_extra_bytes) /
                     static_cast<double>(map_base_bytes);
  }

  /// Serialise to key=value lines / parse back (runner's disk cache).
  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] static std::optional<ExperimentResult> deserialize(
      const std::string& text);
};

/// Build the SsdConfig for a spec (scale + wear applied).
[[nodiscard]] SsdConfig config_for(const ExperimentSpec& spec);

/// Run the cell end-to-end (synthesise trace, replay, collect). The
/// optional sink receives begin/advance ticks over the measured replay
/// (the runner passes its live progress cell; null costs nothing).
[[nodiscard]] ExperimentResult run_experiment(
    const ExperimentSpec& spec, perf::ProgressSink* progress = nullptr);

}  // namespace ppssd::core
