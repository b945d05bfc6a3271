// Event-driven flash controller: per-chip command lanes and
// dependency-aware command scheduling.
//
// The controller owns the device's timing resources. Each chip lane
// executes one array operation (read sense / program pulse) at a time;
// each channel serialises data transfers; ECC decoding happens
// controller-side after a read transfer and scales with the raw BER
// (ecc::EccLatencyModel). Erases run on a separate, suspendable per-chip
// horizon: a foreground (host) command suspends an in-progress erase and
// executes immediately, while background (GC) commands wait for the erase
// to finish — the paper's erase-suspend semantics.
//
// Commands are scheduled one at a time via schedule(op, ready): the op
// starts no earlier than `ready` (its arrival time joined with the
// completion of its dependency, resolved by the caller from
// PhysOp::depends_on), then queues FIFO behind the commands already
// claimed on its lane and channel. Because callers submit commands in
// arrival order, this eager per-command scheduling is exactly equivalent
// to a lazy event-driven dispatch with FIFO resource queues — while
// keeping the hot path allocation-free and bit-reproducible. Completion
// delivery to the host is the Ssd's host completion queue.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/scheme.h"
#include "common/config.h"
#include "ecc/latency_model.h"
#include "nand/timing.h"
#include "telemetry/telemetry.h"

namespace ppssd::sim {

class Controller {
 public:
  Controller(const SsdConfig& cfg, std::uint32_t chips,
             std::uint32_t channels);

  /// Price one command. The op may not start before `ready`; it then
  /// queues behind the commands already scheduled on its chip lane and
  /// channel. Returns the completion time (for reads: after the
  /// controller-side ECC decode).
  SimTime schedule(const cache::PhysOp& op, SimTime ready);

  /// Total commands scheduled since construction / reset(). This is the
  /// denominator-free "controller events" count the wall-clock perf layer
  /// divides by measured seconds (events/s); deterministic per replay.
  [[nodiscard]] std::uint64_t scheduled_ops() const { return scheduled_ops_; }

  [[nodiscard]] SimTime chip_free_at(std::uint32_t chip) const {
    return lanes_[chip].busy_until;
  }

  /// Decode latency the model charges for a read op (exposed for tests).
  [[nodiscard]] SimTime ecc_cost(const cache::PhysOp& op) const;

  /// Accumulated chip-occupancy by op kind (ns), foreground/background.
  /// In-place reprograms (IPS) fold into the program buckets: they occupy
  /// the lane exactly like a program pulse, just without the channel leg.
  struct Usage {
    SimTime read_fg = 0, read_bg = 0;
    SimTime program_fg = 0, program_bg = 0;
    SimTime erase_bg = 0;
    [[nodiscard]] SimTime total() const {
      return read_fg + read_bg + program_fg + program_bg + erase_bg;
    }
  };
  [[nodiscard]] const Usage& usage() const { return usage_; }

  /// Accumulated array-op occupancy per chip (ns) — load-balance probe.
  [[nodiscard]] const std::vector<SimTime>& chip_occupancy() const {
    return chip_occupancy_;
  }

  void reset();

  /// Register flash-op counters / wait histograms and adopt the bundle's
  /// trace log for per-op chip-lane spans and its flight recorder: every
  /// scheduled command records begin/finish events (ids match the
  /// attribution ledger's op sequence numbers), and a foreground command
  /// preempting an in-progress erase records a kEraseSuspend. A bundle
  /// that is not instrumented() hands over only its flight recorder. Pure
  /// observer; one branch per scheduled op and sink when detached; the
  /// handles survive reset(). Null detaches.
  void attach_telemetry(telemetry::Telemetry* telemetry);

 private:
  /// Per-chip command lane: the array horizon (one read/program at a
  /// time) and the suspendable-erase horizon.
  struct ChipLane {
    SimTime busy_until = 0;
    SimTime erase_until = 0;
  };

  /// Everything price() derives for one command: the horizons it
  /// consumed (for the attribution ledger's wait intervals) and the
  /// per-leg times commit() books into the instrumentation.
  struct OpOutcome {
    SimTime ready = 0;      // resolved start floor handed to price()
    SimTime lane_was = 0;   // lane busy horizon before this op claimed it
    SimTime erase_was = 0;  // erase horizon before this op
    SimTime svc_start = 0;  // array-occupancy start (sense/pulse/erase)
    SimTime sense_end = 0;  // reads: end of the array sense
    SimTime xfer_start = 0; // reads/programs: channel leg start
    SimTime xfer_end = 0;   // reads/programs: channel leg end
    SimTime ecc_ns = 0;     // reads: controller-side decode cost
    SimTime end = 0;        // completion time
  };

  /// Timing half of schedule(): advance the op's lane and channel
  /// horizons and fill `out`.
  void price(const cache::PhysOp& op, SimTime ready, OpOutcome& out);
  /// Bookkeeping half of schedule(): usage, occupancy, telemetry
  /// counters, blame ledger, trace spans and flight recorder.
  void commit(const cache::PhysOp& op, const OpOutcome& out);

  nand::TimingModel timing_;
  ecc::EccLatencyModel ecc_;
  std::vector<ChipLane> lanes_;
  std::vector<SimTime> channel_busy_;
  std::vector<SimTime> chip_occupancy_;
  Usage usage_;
  std::uint64_t scheduled_ops_ = 0;

  // Telemetry handles (null until attached). Counter index is
  // [kind][mode] for read/program, erase is mode-independent.
  telemetry::TraceLog* trace_ = nullptr;
  // Blame ledger (null when detached — the attribution hot path is one
  // pointer test per scheduled op). attach_telemetry() binds the
  // resource topology and seeds current horizons as prefill claims.
  telemetry::attribution::AttributionLedger* attrib_ = nullptr;
  // Flight recorder (null when detached; see attach_telemetry).
  telemetry::introspect::FlightRecorder* flight_ = nullptr;
  telemetry::Counter* tl_ops_[2][2] = {{nullptr, nullptr},
                                       {nullptr, nullptr}};
  telemetry::Counter* tl_erases_ = nullptr;
  telemetry::Counter* tl_reprograms_ = nullptr;
  telemetry::Counter* tl_ecc_decodes_ = nullptr;
  telemetry::Counter* tl_ecc_saturated_ = nullptr;
  telemetry::Histogram* tl_chip_wait_ = nullptr;
  telemetry::Histogram* tl_ecc_ns_ = nullptr;
};

}  // namespace ppssd::sim
