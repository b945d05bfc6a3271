// Telemetry: the one observer bundle — metrics registry, trace log,
// time-series sampler, blame ledger, device-state snapshots and the
// crash flight recorder.
//
// This is the object the rest of the simulator sees. A subsystem that
// wants instrumentation implements an `attach_telemetry(Telemetry*)`
// hook that registers its handles once; the hot path then works through
// those (possibly null) handles. `Ssd::attach_telemetry` fans the bundle
// out to the scheme, block manager, GC policies and controller (flight
// recorder included) and binds the scheme as the snapshot frame source;
// the replayer's per-request on_request() tick drives both the sampler
// and the snapshot interval; finish() closes every artifact.
//
// Environment (read by from_env(); both optional):
//
//   PPSSD_OBSERVE=trace,attrib,...   sinks to switch on (unset or empty
//                                    = off); unknown names fail fast
//   PPSSD_OBSERVE_DIR=dir            output directory (default
//                                    ppssd_observe)
//
// Each sink writes <dir>/<stem>.<ext>, where the caller names the stem
// (run_experiment uses the cell's spec key):
//
//   trace       .trace.json      Chrome trace events, all categories
//   metrics     .metrics.csv     end-of-run registry dump
//   timeseries  .timeseries.csv  registry deltas every 1000 requests
//   attrib      .ledger.bin      per-request blame ledger
//                                (read with tools/latency_explain)
//   snapshot    .snap.bin        device-state frame every 10 ms of sim
//                                time (read with tools/device_inspect)
//   flight      .flight.bin      last 4096 controller/GC events, dumped
//                                at finish or on a failing PPSSD_CHECK
//
// Every file is opened truncating, so a rerun replaces it.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "telemetry/attribution/attribution.h"
#include "telemetry/introspect/format.h"
#include "telemetry/metrics.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace_log.h"

namespace ppssd::telemetry {

/// The sinks PPSSD_OBSERVE can name, as bits of a sink set.
enum Sink : std::uint32_t {
  kSinkTrace = 1u << 0,
  kSinkMetrics = 1u << 1,
  kSinkTimeseries = 1u << 2,
  kSinkAttrib = 1u << 3,
  kSinkSnapshot = 1u << 4,
  kSinkFlight = 1u << 5,
};

/// Parse a comma-separated sink list ("trace, attrib"); blank segments
/// are skipped, so "" is the empty set. An unknown name fails a
/// PPSSD_CHECK that lists the valid ones.
[[nodiscard]] std::uint32_t parse_sinks(std::string_view list);

/// parse_sinks($PPSSD_OBSERVE); 0 when the variable is unset or empty.
[[nodiscard]] std::uint32_t sinks_from_env();

/// Tuning of the sinks for_sinks() switches on.
inline constexpr SimTime kSnapshotEveryNs = 10'000'000;  // 10 ms sim time
inline constexpr std::uint32_t kFlightEvents = 4096;

struct TelemetryOptions {
  std::string trace_path;
  /// End-of-run registry dump; a .json extension selects JSON over CSV.
  std::string metrics_path;
  std::string timeseries_path;
  /// Time-series window in host requests (0 = the sampler's default).
  std::uint64_t sample_every_requests = 0;
  std::string attribution_path;
  /// Build the blame ledger even without a dump path (in-memory
  /// aggregates / test use; implied by attribution_path).
  bool attribution = false;
  /// Snapshot interval in sim time (0 = snapshots off) and stream file.
  SimTime snapshot_every_ns = 0;
  std::string snapshot_path;
  /// Flight-recorder ring size in events (0 = off) and dump file.
  std::uint32_t flight_capacity = 0;
  std::string flight_path;

  /// True when at least one sink is configured.
  [[nodiscard]] bool any() const {
    return instrumented() || snapshot_every_ns > 0 || flight_capacity > 0;
  }

  /// True when a sink reads the per-op instruments (trace spans,
  /// registry counters and histograms, blame ledger). Snapshots and the
  /// flight recorder read device state and their own ring instead.
  [[nodiscard]] bool instrumented() const {
    return !trace_path.empty() || !metrics_path.empty() ||
           !timeseries_path.empty() || !attribution_path.empty() ||
           attribution;
  }

  /// Every sink in `sinks` writing <dir>/<stem>.<ext> (see the header
  /// comment), with the kSnapshotEveryNs / kFlightEvents tuning.
  [[nodiscard]] static TelemetryOptions for_sinks(std::uint32_t sinks,
                                                  const std::string& dir,
                                                  const std::string& stem);

  /// for_sinks($PPSSD_OBSERVE, $PPSSD_OBSERVE_DIR or "ppssd_observe",
  /// stem).
  [[nodiscard]] static TelemetryOptions from_env(const std::string& stem);
};

class Telemetry {
 public:
  explicit Telemetry(const TelemetryOptions& opts);

  /// In-memory bundle: registry only, no artifacts (test / embedding use).
  Telemetry();

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;
  ~Telemetry();

  /// Build from PPSSD_OBSERVE / PPSSD_OBSERVE_DIR, creating the output
  /// directory; nullptr when no sink is named.
  [[nodiscard]] static std::unique_ptr<Telemetry> from_env(
      const std::string& stem);

  /// False for a bundle of only snapshot / flight sinks: attach hooks
  /// then register no instruments and the hot path skips their updates.
  [[nodiscard]] bool instrumented() const { return instrumented_; }

  [[nodiscard]] MetricsRegistry& registry() { return registry_; }
  [[nodiscard]] const MetricsRegistry& registry() const { return registry_; }
  /// Null when no trace output is configured.
  [[nodiscard]] TraceLog* trace() { return trace_.get(); }
  [[nodiscard]] TimeSeriesSampler* sampler() { return sampler_.get(); }
  /// Null unless attribution was requested.
  [[nodiscard]] attribution::AttributionLedger* attribution() {
    return attribution_.get();
  }
  /// Null unless the flight recorder was requested.
  [[nodiscard]] introspect::FlightRecorder* flight() { return flight_.get(); }

  /// Bind the device the snapshot sink walks (Ssd::attach_telemetry does
  /// this): starts a snapshot stream with the device's stream_info() and,
  /// when snapshots or the flight recorder are on, installs the
  /// PPSSD_CHECK failure hook that dumps the ring and flushes the stream.
  /// Null unbinds. The source must stay alive until finish() or unbind.
  void bind_device(const introspect::FrameSource* device);

  /// Host-request tick: advances the sampler window and writes a
  /// snapshot frame when `now` crossed the snapshot interval.
  void on_request(SimTime now) {
    if (sampler_) sampler_->on_request(now);
    if (now >= next_frame_) write_frame(now);
  }

  /// Close the current sampler window, dump the metrics, finalize the
  /// trace and ledger, write a final snapshot frame at `end` (so short
  /// runs still produce one), dump the flight ring and remove the
  /// failure hook. Idempotent; also runs from the destructor, minus the
  /// final frame (the device may already be gone).
  void finish(SimTime end);

  [[nodiscard]] std::uint64_t frames_written() const {
    return snapshots_.frames_written();
  }

 private:
  void write_frame(SimTime now);
  static void on_check_failure(void* ctx);

  TelemetryOptions opts_;
  MetricsRegistry registry_;
  std::unique_ptr<TraceLog> trace_;
  std::ofstream timeseries_file_;
  std::unique_ptr<TimeSeriesSampler> sampler_;
  // After registry_: attached gauges poll the ledger, so it must die
  // first (no snapshots run during destruction either way).
  std::unique_ptr<attribution::AttributionLedger> attribution_;
  std::unique_ptr<introspect::FlightRecorder> flight_;
  introspect::SnapshotWriter snapshots_;
  const introspect::FrameSource* device_ = nullptr;
  SimTime next_frame_ = kNoTime;  // kNoTime: no frame due (off / unbound)
  SimTime last_frame_ = 0;
  // Reused frame buffers (no per-frame allocation after the first).
  std::vector<introspect::BlockState> blocks_;
  std::vector<introspect::PlaneState> planes_;
  bool instrumented_ = true;
  bool hook_installed_ = false;
  bool finished_ = false;
};

}  // namespace ppssd::telemetry
