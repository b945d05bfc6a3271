// Experiment-matrix runner with a shared on-disk result cache.
//
// Every bench binary regenerates one paper table/figure; most need the
// same scheme × trace matrix. The runner memoises completed cells under
// $PPSSD_CACHE_DIR (default ".ppssd_cache" in the working directory), so
// the full bench suite re-simulates each cell exactly once.
//
// Environment knobs honoured by default_spec():
//   REPRO_FULL=1       paper-scale device (65536 blocks) and full traces
//   PPSSD_BLOCKS=n     device scale override
//   PPSSD_SCALE=f      trace-length fraction override
//   PPSSD_NO_CACHE=1   disable the disk cache
//
// Each cell's result is written atomically (temp file + rename), and a
// cache file that does not carry every field of the record is a miss. A
// runner whose cache cannot be written keeps running and prints one
// "ppssd: cannot write result cache <path>" line to stderr.
//
// Matrix-level knobs (run_all / run_matrix / paper_schemes):
//   PPSSD_JOBS=n       simulate up to n cells concurrently (default 1).
//                      Each cell owns its Ssd and deterministic RNG, so
//                      results are bit-identical at any job count; only
//                      wall_seconds varies.
//   PPSSD_SCHEMES=a,b  restrict paper_schemes() to a comma-separated
//                      subset of registered scheme names (case-
//                      insensitive). Unknown names abort with the list
//                      of known schemes.
//
// Knobs parse strictly (common/env.h): a number that does not parse in
// full, or a switch that is not 0 or 1, fails fast, naming the
// variable. PPSSD_OBSERVE (see
// telemetry/telemetry.h) makes every cell re-simulate and run
// sequentially.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "core/experiment.h"

namespace ppssd::core {

class Runner {
 public:
  /// Uses $PPSSD_CACHE_DIR or ".ppssd_cache"; empty string disables cache.
  Runner();
  explicit Runner(std::string cache_dir);

  /// Run (or load) one cell.
  ExperimentResult run(const ExperimentSpec& spec);

  /// Run every spec, up to `jobs` concurrently (0 = $PPSSD_JOBS, default
  /// 1). Results come back in spec order regardless of job count; cells
  /// are independent simulations, so the values are bit-identical at any
  /// parallelism. PPSSD_OBSERVE forces sequential execution (the
  /// check-failure hook the observers install is process-global).
  std::vector<ExperimentResult> run_all(
      const std::vector<ExperimentSpec>& specs, std::size_t jobs = 0);

  /// Run the full scheme × trace matrix at the default scale (delegates
  /// to run_all, honouring $PPSSD_JOBS).
  std::vector<ExperimentResult> run_matrix(
      const std::vector<std::string>& schemes,
      const std::vector<std::string>& traces, std::uint32_t pe_cycles = 4000);

  /// Spec template honouring the environment knobs.
  [[nodiscard]] static ExperimentSpec default_spec();

  /// All six paper trace names in Table 3 order.
  [[nodiscard]] static std::vector<std::string> paper_traces();

  /// Every registered scheme, in registry (paper) order — a newly
  /// registered scheme automatically appears in every figure matrix.
  /// $PPSSD_SCHEMES restricts the list (see header comment).
  [[nodiscard]] static std::vector<std::string> paper_schemes();

  [[nodiscard]] const std::string& cache_dir() const { return cache_dir_; }

 private:
  [[nodiscard]] std::string cache_path(const ExperimentSpec& spec) const;

  std::string cache_dir_;
  /// Set by the first cell whose result could not be cached.
  std::atomic<bool> cache_write_warned_{false};
};

}  // namespace ppssd::core
