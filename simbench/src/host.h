// Host facts the benchmark records next to its figures: memory use of
// this process, the machine and build it ran on, and the environment
// knobs it refused to inherit.
#pragma once

#include <string>
#include <vector>

namespace simbench {

/// Resident memory of this process now, in MiB (0 when unavailable).
[[nodiscard]] double current_rss_mib();

/// Peak resident memory of this process so far, in MiB.
[[nodiscard]] double peak_rss_mib();

/// Nanoseconds per dependent load of a pointer chase through a fresh
/// 8 MiB buffer: larger than a core's private caches, inside the shared
/// last-level cache. It runs none of the simulator's code, so it shows
/// how fast the host is at the moment. On a shared host its reading
/// rises and falls with the simulator's run time (README.md). The buffer
/// is freed before it returns.
[[nodiscard]] double memory_probe_ns();

struct HostRecord {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string compiler;
  bool optimized = false;  // built with optimisation (__OPTIMIZE__)
  bool dchecks = false;    // PPSSD_DCHECK hot-path assertions compiled in
  /// One-line warnings about a build unfit for timing (empty when fit).
  [[nodiscard]] std::vector<std::string> flags() const;
};
[[nodiscard]] HostRecord host_record();

/// Unset every simulator knob the library reads from the environment
/// (PPSSD_* and REPRO_FULL), so the benchmark always measures the default
/// sequential path. Returns the names it removed.
std::vector<std::string> scrub_environment();

}  // namespace simbench
