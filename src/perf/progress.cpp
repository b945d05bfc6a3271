#include "perf/progress.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "common/env.h"

namespace ppssd::perf {

void ProgressCell::begin(std::uint64_t total_requests) {
  reporter_->cell_begin(index_, total_requests);
}

void ProgressCell::advance(std::uint64_t done_requests) {
  reporter_->cell_advance(index_, done_requests);
}

ProgressReporter::ProgressReporter(Options opts)
    : opts_(opts),
      out_(opts.out != nullptr ? opts.out : &std::cerr),
      last_repaint_(std::chrono::steady_clock::now() -
                    std::chrono::hours(1)) {}

ProgressReporter::~ProgressReporter() {
  std::lock_guard<std::mutex> lock(mu_);
  clear_line_locked();
}

ProgressReporter& ProgressReporter::global() {
  static ProgressReporter reporter = [] {
    Options opts;
    const bool tty = isatty(fileno(stderr)) != 0;
    opts.enabled = env_flag("PPSSD_PROGRESS", tty);
    opts.live = opts.enabled && tty;
    return ProgressReporter(opts);
  }();
  return reporter;
}

void ProgressReporter::note(const std::string& text) {
  if (!opts_.enabled) return;
  std::lock_guard<std::mutex> lock(mu_);
  clear_line_locked();
  *out_ << text << '\n';
  out_->flush();
}

void ProgressReporter::set_expected_cells(std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  // A new matrix batch starts counting from zero (bench binaries run
  // several run_all batches per process).
  expected_cells_ = n;
  finished_cells_ = 0;
}

ProgressCell* ProgressReporter::start_cell(std::string label) {
  std::lock_guard<std::mutex> lock(mu_);
  auto handle = std::make_unique<ProgressCell>();
  handle->reporter_ = this;
  handle->index_ = cells_.size();
  CellState state;
  state.label = std::move(label);
  state.start = std::chrono::steady_clock::now();
  cells_.push_back(std::move(state));
  handles_.push_back(std::move(handle));
  return handles_.back().get();
}

void ProgressReporter::finish_cell(ProgressCell* cell, double wall_seconds,
                                   std::uint64_t requests) {
  if (cell == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  CellState& state = cells_[cell->index_];
  state.finished = true;
  ++finished_cells_;
  if (!opts_.enabled) return;
  clear_line_locked();
  const double rate =
      wall_seconds > 0.0 ? static_cast<double>(requests) / wall_seconds : 0.0;
  char buf[192];
  std::snprintf(buf, sizeof buf, "[ppssd]   done %-28s %7.1fs  %s",
                state.label.c_str(), wall_seconds,
                format_rate(rate).c_str());
  *out_ << buf;
  if (expected_cells_ > 0) {
    *out_ << "  (" << finished_cells_ << '/' << expected_cells_ << " cells)";
  }
  *out_ << '\n';
  out_->flush();
}

void ProgressReporter::cell_begin(std::size_t index, std::uint64_t total) {
  std::lock_guard<std::mutex> lock(mu_);
  CellState& state = cells_[index];
  state.total = total;
  state.done = 0;
  state.begun = true;
  state.start = std::chrono::steady_clock::now();
}

void ProgressReporter::cell_advance(std::size_t index, std::uint64_t done) {
  std::lock_guard<std::mutex> lock(mu_);
  cells_[index].done = std::min(done, cells_[index].total);
  maybe_repaint_locked();
}

void ProgressReporter::maybe_repaint_locked() {
  if (!opts_.live) return;
  const auto now = std::chrono::steady_clock::now();
  if (now - last_repaint_ < std::chrono::milliseconds(opts_.repaint_ms)) {
    return;
  }
  last_repaint_ = now;
  const std::string line = status_line_locked();
  // Overwrite in place; pad with spaces when the new line is shorter.
  *out_ << '\r' << line;
  if (line.size() < last_line_len_) {
    *out_ << std::string(last_line_len_ - line.size(), ' ');
  }
  out_->flush();
  last_line_len_ = line.size();
}

void ProgressReporter::clear_line_locked() {
  if (last_line_len_ == 0) return;
  *out_ << '\r' << std::string(last_line_len_, ' ') << '\r';
  last_line_len_ = 0;
}

std::string ProgressReporter::status_line() {
  std::lock_guard<std::mutex> lock(mu_);
  return status_line_locked();
}

std::string ProgressReporter::status_line_locked() const {
  std::ostringstream os;
  os << "[ppssd] " << finished_cells_ << '/'
     << (expected_cells_ > 0 ? expected_cells_ : cells_.size()) << " cells";
  const auto now = std::chrono::steady_clock::now();
  int shown = 0;
  int active = 0;
  for (const CellState& c : cells_) {
    if (c.finished || !c.begun) continue;
    ++active;
    if (shown == 3) continue;  // keep the line terminal-width friendly
    ++shown;
    const double elapsed =
        std::chrono::duration<double>(now - c.start).count();
    const double rate =
        elapsed > 0.0 ? static_cast<double>(c.done) / elapsed : 0.0;
    os << " | " << c.label;
    if (c.total > 0) {
      os << ' '
         << static_cast<int>(100.0 * static_cast<double>(c.done) /
                             static_cast<double>(c.total))
         << '%';
    }
    os << ' ' << format_rate(rate);
    if (c.total > c.done && rate > 0.0) {
      os << " eta "
         << format_eta(static_cast<double>(c.total - c.done) / rate);
    }
  }
  if (active > shown) {
    os << " | +" << (active - shown) << " more";
  }
  return os.str();
}

std::string ProgressReporter::format_rate(double reqs_per_sec) {
  char buf[32];
  if (reqs_per_sec >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.2f Mreq/s", reqs_per_sec / 1e6);
  } else if (reqs_per_sec >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.1f kreq/s", reqs_per_sec / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0f req/s", reqs_per_sec);
  }
  return buf;
}

std::string ProgressReporter::format_eta(double seconds) {
  char buf[32];
  if (seconds >= 3600.0) {
    std::snprintf(buf, sizeof buf, "%.1fh", seconds / 3600.0);
  } else if (seconds >= 60.0) {
    std::snprintf(buf, sizeof buf, "%dm%02ds", static_cast<int>(seconds) / 60,
                  static_cast<int>(seconds) % 60);
  } else {
    std::snprintf(buf, sizeof buf, "%ds", static_cast<int>(seconds));
  }
  return buf;
}

}  // namespace ppssd::perf
