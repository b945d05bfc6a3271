// Live replay progress for the experiment runner: one serialized status
// channel for all concurrently-simulating matrix cells.
//
// PR 2 made `PPSSD_JOBS>1` runs common, and the runner's raw stderr
// prints interleaved garbled; this class is the single funnel. It owns a
// mutex around every write, tracks one ProgressCell per in-flight matrix
// cell, and — when live output is active — repaints a single `\r` status
// line with percent / reqs-per-second / ETA per active cell.
//
// Activation policy (the global() instance):
//   PPSSD_PROGRESS=0  force-silent, even on a TTY
//   PPSSD_PROGRESS=1  force-enabled, even when stderr is a pipe
//   (unset or empty)  enabled iff stderr is a TTY
// Any other value fails a PPSSD_CHECK naming the variable (env_flag).
// The live repaint (\r redraw) additionally requires a TTY — a forced
// non-TTY run gets plain sequential lines, never control characters.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ppssd::perf {

/// Minimal sink the replayer ticks; keeps sim code decoupled from the
/// reporter. `begin` fixes the denominator, `advance` is monotone.
class ProgressSink {
 public:
  virtual ~ProgressSink() = default;
  virtual void begin(std::uint64_t total_requests) = 0;
  virtual void advance(std::uint64_t done_requests) = 0;
};

class ProgressReporter;

/// One matrix cell's progress handle (owned by the reporter).
class ProgressCell final : public ProgressSink {
 public:
  void begin(std::uint64_t total_requests) override;
  void advance(std::uint64_t done_requests) override;

 private:
  friend class ProgressReporter;
  ProgressReporter* reporter_ = nullptr;
  std::size_t index_ = 0;
};

class ProgressReporter {
 public:
  struct Options {
    bool enabled = false;
    bool live = false;           // \r repaints (requires a real terminal)
    std::ostream* out = nullptr; // nullptr = std::cerr
    /// Minimum milliseconds between repaints (live mode).
    std::uint64_t repaint_ms = 100;
  };

  explicit ProgressReporter(Options opts);
  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;
  ~ProgressReporter();

  /// Process-wide reporter configured from PPSSD_PROGRESS + isatty(2).
  static ProgressReporter& global();

  [[nodiscard]] bool enabled() const { return opts_.enabled; }

  /// Serialized status line ("[ppssd] simulating …"). Swallowed when the
  /// reporter is disabled; never interleaves with the repaint line.
  void note(const std::string& text);

  /// Total cells the current matrix batch will run (shown as "k/n
  /// cells"); resets the finished count for the new batch.
  void set_expected_cells(std::size_t n);

  /// Register a cell; the returned sink stays valid until the reporter is
  /// destroyed (handles are stable — deque-like storage).
  ProgressCell* start_cell(std::string label);

  /// Mark a cell finished and print its one-line summary.
  void finish_cell(ProgressCell* cell, double wall_seconds,
                   std::uint64_t requests);

  /// Current status line, exactly as a repaint would draw it (tests).
  [[nodiscard]] std::string status_line();

  /// Render helpers (pure; exposed for tests).
  [[nodiscard]] static std::string format_rate(double reqs_per_sec);
  [[nodiscard]] static std::string format_eta(double seconds);

 private:
  friend class ProgressCell;

  struct CellState {
    std::string label;
    std::uint64_t total = 0;
    std::uint64_t done = 0;
    std::chrono::steady_clock::time_point start;
    bool begun = false;
    bool finished = false;
  };

  void cell_begin(std::size_t index, std::uint64_t total);
  void cell_advance(std::size_t index, std::uint64_t done);
  void maybe_repaint_locked();
  void clear_line_locked();
  [[nodiscard]] std::string status_line_locked() const;

  Options opts_;
  std::ostream* out_;
  std::mutex mu_;
  std::vector<std::unique_ptr<ProgressCell>> handles_;
  std::vector<CellState> cells_;
  std::size_t expected_cells_ = 0;
  std::size_t finished_cells_ = 0;
  std::size_t last_line_len_ = 0;
  std::chrono::steady_clock::time_point last_repaint_;
};

}  // namespace ppssd::perf
