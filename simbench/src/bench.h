// The benchmark's workloads and the metrics one repeat of a workload
// yields. main.cpp repeats a workload for the requested time and reports
// the median of each metric over the repeats.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cell.h"

namespace simbench {

struct Workload {
  std::string name;
  std::vector<CellSpec> cells;
};

/// Workload names, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Build a workload's cells. `seed` replaces every cell's profile seed
/// (absent: each profile's own, the figure binaries' cell). `smoke`
/// shrinks every cell to a 1024-block device and 1% of the trace, for
/// the benchmark's own tests. Nullopt for an unknown name.
[[nodiscard]] std::optional<Workload> find_workload(
    std::string_view name, std::optional<std::uint64_t> seed, bool smoke);

struct MetricInfo {
  const char* name;
  const char* unit;
};
/// Metrics of an untraced repeat (BENCHMARK.json "end_to_end").
[[nodiscard]] const std::vector<MetricInfo>& end_to_end_metrics();
/// Metrics of a traced repeat (BENCHMARK.json "per_layer").
[[nodiscard]] const std::vector<MetricInfo>& per_layer_metrics();

/// The host-speed figure every repeat records: the median of the memory
/// probes (memory_probe_ns) taken before and after each cell.
inline constexpr const char* kProbeMetric = "host.mem_probe_ns";

/// The end-to-end host times are scaled to a host whose probe reads this
/// many ns per load: each cell's times are multiplied by kReferenceProbeNs
/// over the geometric mean of the probes just before and after the cell,
/// which cancels most of a shared host's drift in speed between cells
/// (README.md). Each repeat also keeps the raw figures, under the same
/// names prefixed with kUnscaledPrefix.
inline constexpr double kReferenceProbeNs = 100.0;
inline constexpr const char* kUnscaledPrefix = "unscaled.";

/// What one repeat of a workload measured.
struct Repeat {
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;  // host requests of the measured replays
  std::uint64_t failed = 0;     // requests of cells that aborted or failed
  std::vector<std::string> digests;  // per cell, simulated-statistics digest
  std::vector<std::string> errors;   // one line per failed check
  double wall_seconds = 0.0;
};

/// Run every cell of the workload once, with a memory probe before and
/// after each cell. Untraced: each cell through sim::Replayer (end-to-end
/// metrics). Traced: each cell three times — through Replayer, as a
/// scheme-only twin, and through the span-timed loop — with the digests
/// and twin state cross-checked (per-layer metrics).
[[nodiscard]] Repeat run_repeat(const Workload& w, bool traced);

/// Median of a non-empty sample (mean of the middle pair when even).
[[nodiscard]] double median(std::vector<double> v);

}  // namespace simbench
