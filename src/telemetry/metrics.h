// MetricsRegistry: named, labeled counters / gauges / histograms.
//
// Design contract (the reason this file exists as infrastructure rather
// than ad-hoc members on every subsystem):
//
//  * Registration is the only allocating step. Instrumented code asks the
//    registry once — at attach time — for a handle (`Counter*`, `Gauge*`,
//    `Histogram*`) and the hot path is then a single pointer-guarded
//    add: `if (c) c->inc()`. Handles are stable for the registry's
//    lifetime (deque storage, no reallocation).
//  * Disabled telemetry costs one null-pointer test per site: subsystems
//    hold null handles until a registry is attached, so a replay without
//    telemetry runs the exact same code minus the arithmetic.
//  * Series identity is `name{key=value,...}` with labels sorted by key,
//    so label order at the call site does not create duplicate series.
//    Typical labels: scheme=IPU, region=slc, op=read, level=hot.
//
// Snapshots flatten every instrument into one or more scalar samples
// (histograms expand to the uniform count/mean/p50/p95/p99/p999/max
// ladder), which is what the TimeSeriesSampler windows and the
// end-of-run CSV dump serialize.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace ppssd::telemetry {

/// One label dimension of a series.
struct Label {
  std::string key;
  std::string value;
};
using Labels = std::vector<Label>;

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time level (pool sizes, queue depths).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double delta) { value_ += delta; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Log-bucketed distribution (latencies, BERs, ratios).
class Histogram {
 public:
  Histogram(double lo, double hi, std::uint32_t buckets)
      : hist_(lo, hi, buckets) {}

  void observe(double x) { hist_.add(x); }
  [[nodiscard]] std::uint64_t count() const { return hist_.count(); }
  [[nodiscard]] double mean() const { return hist_.mean(); }
  [[nodiscard]] double quantile(double q) const { return hist_.quantile(q); }
  [[nodiscard]] double max() const { return hist_.max(); }

 private:
  LogHistogram hist_;
};

/// Flattened view of one scalar sample of one series.
struct Sample {
  std::string series;  // "name{k=v,...}" plus ".p99"-style suffixes
  double value = 0.0;
  bool cumulative = false;  // true for counters / histogram counts
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. Repeated registration of the same name+labels returns
  /// the same handle regardless of label order.
  Counter* counter(const std::string& name, Labels labels = {});
  Gauge* gauge(const std::string& name, Labels labels = {});
  Histogram* histogram(const std::string& name, Labels labels, double lo,
                       double hi, std::uint32_t buckets = 64);

  /// A gauge whose value is polled at snapshot time (pool sizes that are
  /// cheaper to query than to maintain incrementally).
  void gauge_fn(const std::string& name, Labels labels,
                std::function<double()> fn);

  /// Canonical series id for name+labels (exposed for tests).
  [[nodiscard]] static std::string series_id(const std::string& name,
                                             Labels labels);

  /// Flatten every instrument, in registration order.
  [[nodiscard]] std::vector<Sample> snapshot() const;

  /// Number of registered instruments (histograms count once).
  [[nodiscard]] std::size_t instrument_count() const { return order_.size(); }

  /// `series,value` CSV of a full snapshot (end-of-run artifact). Rows
  /// are sorted by series id so exports diff cleanly across runs and
  /// platforms regardless of registration order.
  void write_csv(std::ostream& out) const;

  /// JSON snapshot: {"schema":1,"series":{"<id>":value,...}} with keys
  /// in sorted order (deterministic diffs). Selected by a `.json`
  /// TelemetryOptions::metrics_path. Non-finite values serialize as null.
  void write_json(std::ostream& out) const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram, kGaugeFn };

  struct Entry {
    std::string id;
    Kind kind;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
    std::function<double()> fn;
  };

  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::vector<Entry> order_;
  std::unordered_map<std::string, std::size_t> index_;
};

}  // namespace ppssd::telemetry
