// One benchmark cell: a (scheme x trace profile x seed x device) simulation
// driven from outside the library through its public functions, so the
// benchmark can choose the workload seed and time every layer boundary.
//
// A cell runs the same phases as core::run_experiment — scheme and device
// construction, MLC prefill, an SLC warm-up replay of ~1.2x the cache
// capacity, metric reset, measured replay, report — and fills the same
// core::ExperimentResult record, so at a profile's own seed its non-wall_
// fields equal run_experiment's (tests/cell_test.cpp checks this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/scheme.h"
#include "core/experiment.h"
#include "nand/flash_array.h"

namespace simbench {

struct CellSpec {
  std::string scheme;           // registry name ("IPU")
  std::string trace;            // profile name ("ts0")
  std::uint64_t seed = 0;       // workload seed (the profile's by default)
  std::uint32_t total_blocks = 16384;
  double trace_scale = 0.15;
  std::uint32_t pe_cycles = 4000;

  /// The run_experiment spec this cell reproduces (at the profile seed).
  [[nodiscard]] ppssd::core::ExperimentSpec experiment() const;
  [[nodiscard]] std::string label() const;
};

/// The seed a profile's figure cells use.
[[nodiscard]] std::uint64_t profile_seed(const std::string& trace);

/// How the measured replay is driven.
enum class Mode {
  kReplayer,  // sim::Replayer::replay, exactly as run_experiment does
  kTraced,    // the benchmark's own loop over Ssd::enqueue/drain_completions
              // with a span around each call (per-layer figures)
};

/// Host wall-clock spans of one cell, in seconds unless named _ns.
struct CellTimes {
  double make_scheme = 0.0;
  double ssd_ctor = 0.0;
  double workload_ctor = 0.0;
  double prefill = 0.0;
  double warm_replay = 0.0;
  double consistency_check = 0.0;
  // Traced mode only.
  double next_batch = 0.0;
  double enqueue = 0.0;
  double drain = 0.0;
  std::vector<std::uint32_t> enqueue_ns;  // one sample per host request

  [[nodiscard]] double setup() const {
    return make_scheme + ssd_ctor + workload_ctor;
  }
  [[nodiscard]] double warmup() const { return prefill + warm_replay; }
};

struct CellRun {
  CellSpec spec;
  /// The record run_experiment fills, wall_* fields included.
  ppssd::core::ExperimentResult result;
  ppssd::cache::SchemeMetrics metrics;
  ppssd::nand::ArrayCounters counters;
  CellTimes times;

  std::uint64_t expected_records = 0;  // the measured workload's length
  /// Flash ops the scheme emitted during the measured replay: ops the
  /// controller scheduled, minus the warm-up's deferred backlog it
  /// inherited, plus the backlog still deferred at the end.
  std::uint64_t emitted_ops = 0;
  std::uint64_t max_queue_depth = 0;
  std::uint64_t map_bytes = 0;  // host bytes of the logical-to-physical map

  double rss_before_mib = 0.0;
  double rss_after_setup_mib = 0.0;
  double rss_after_warmup_mib = 0.0;

  /// False when the cell aborted (a PPSSD_CHECK fired) or failed a check;
  /// `error` says which.
  bool ok = false;
  std::string error;

  [[nodiscard]] std::uint64_t completed() const {
    return result.reads + result.writes;
  }
};

/// Run one cell. Never throws: a simulator invariant failure inside the
/// cell is caught, reported in `error`, and leaves `ok` false. After the
/// measured replay the cell runs Scheme::check_consistency() and requires
/// every generated request to have completed.
[[nodiscard]] CellRun run_cell(const CellSpec& spec, Mode mode);

/// Scheme-only twin of a cell: the same prefill, warm-up and measured
/// request stream handed straight to Scheme::host_write/host_read with the
/// request's LSN, subpage count and arrival, with no device or controller.
/// The scheme never sees controller timing, so its end state equals the
/// full cell's; the spans here isolate host time inside the scheme.
struct TwinRun {
  ppssd::cache::SchemeMetrics metrics;
  ppssd::nand::ArrayCounters counters;
  std::uint64_t emitted_ops = 0;
  std::uint64_t requests = 0;
  double host_write_s = 0.0;
  double host_read_s = 0.0;
  double gc_write_s = 0.0;  // writes whose ops include background work
  std::uint64_t gc_write_calls = 0;
  std::vector<std::uint32_t> host_write_ns;  // one sample per host write
  bool ok = false;
  std::string error;
};
[[nodiscard]] TwinRun run_twin(const CellSpec& spec);

/// Every simulated (non-wall_) statistic of a cell as key=value lines:
/// the serialized ExperimentResult without its wall_ keys, followed by
/// the scheme metrics and op counts the record does not carry.
[[nodiscard]] std::string sim_stats_text(const CellRun& run);

/// The serialized ExperimentResult lines that do not start with wall_.
[[nodiscard]] std::string non_wall_lines(
    const ppssd::core::ExperimentResult& r);

/// 64-bit FNV-1a of a text, as 16 hex digits.
[[nodiscard]] std::string digest_of(const std::string& text);

/// Empty when the two match field for field, else the first difference.
[[nodiscard]] std::string compare_metrics(const ppssd::cache::SchemeMetrics& a,
                                          const ppssd::cache::SchemeMetrics& b);

/// Empty when the twin reached the full cell's scheme state, else why not.
[[nodiscard]] std::string compare_twin(const CellRun& full,
                                       const TwinRun& twin);

}  // namespace simbench
