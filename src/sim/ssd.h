// The simulated SSD: cache scheme + flash array + event-driven controller,
// behind a byte-addressed host interface.
//
// Every request is priced the same way: the scheme turns it into
// physical ops, and do_submit() schedules them one at a time on the
// controller in issue order. Two entry points share that path:
//  * submit()  — synchronous: return the completion record immediately
//    (unit tests, warm-up helpers).
//  * enqueue() — pipelined: the completion is also pushed into a host
//    completion queue keyed by finish time, so the replayer can harvest
//    completions in *completion order* against later arrivals — true
//    device queue depth and out-of-order host completions (a short read
//    on an idle chip overtakes a long GC-laden write).
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "cache/scheme.h"
#include "common/config.h"
#include "common/types.h"
#include "sim/controller.h"
#include "sim/event_queue.h"
#include "telemetry/telemetry.h"

namespace ppssd::sim {

class Ssd {
 public:
  /// Construct with a scheme resolved from the registry by name.
  Ssd(const SsdConfig& cfg, std::string_view scheme_name);

  /// Take ownership of a pre-built scheme (used for ablation variants).
  Ssd(const SsdConfig& cfg, std::unique_ptr<cache::Scheme> scheme);

  struct Completion {
    std::uint64_t id = 0;  // submission order, unique per request
    SimTime start = 0;     // host submission time
    SimTime finish = 0;    // host-visible completion
    SimTime drained = 0;   // background work completion
    [[nodiscard]] SimTime latency() const { return finish - start; }
  };

  /// One harvested host completion (see drain_completions).
  struct HostCompletion {
    std::uint64_t id = 0;
    OpType op = OpType::kRead;
    SimTime arrival = 0;
    SimTime finish = 0;
    SimTime drained = 0;
    [[nodiscard]] SimTime latency() const { return finish - arrival; }
  };

  /// Submit one host request synchronously. `offset` and `size` are in
  /// bytes; addresses beyond the logical capacity wrap (size is clamped at
  /// the top).
  Completion submit(OpType op, std::uint64_t offset, std::uint32_t size,
                    SimTime arrival);

  /// Pipelined submission: like submit(), but the request is also entered
  /// into the host completion queue for later harvesting.
  Completion enqueue(OpType op, std::uint64_t offset, std::uint32_t size,
                     SimTime arrival);

  /// Pop every pending completion with finish <= cutoff, in completion
  /// order (ties by submission order), invoking fn(const HostCompletion&).
  template <typename Fn>
  void drain_completions(SimTime cutoff, Fn&& fn) {
    pending_.drain_until(cutoff, [&](auto ev) { fn(ev.payload); });
  }

  /// Requests enqueued but not yet harvested.
  [[nodiscard]] std::size_t in_flight() const { return pending_.size(); }
  /// Finish time of the earliest pending completion (kNoTime if none).
  [[nodiscard]] SimTime next_completion_time() const {
    return pending_.empty() ? kNoTime : pending_.top().time;
  }

  [[nodiscard]] const cache::Scheme& scheme() const { return *scheme_; }
  [[nodiscard]] cache::Scheme& scheme() { return *scheme_; }

  /// Clear chip/channel lanes (used between warm-up and measurement).
  void reset_timing();
  [[nodiscard]] Controller& controller() { return ctrl_; }
  [[nodiscard]] const Controller& controller() const { return ctrl_; }
  /// Same as controller(); the repository benchmark (simbench/) calls it.
  [[nodiscard]] const Controller& service_model() const { return ctrl_; }
  [[nodiscard]] const SsdConfig& config() const { return scheme_->config(); }
  [[nodiscard]] std::uint64_t logical_bytes() const;

  /// Background ops awaiting interleaved execution.
  [[nodiscard]] std::size_t deferred_background_ops() const {
    return deferred_.size() - deferred_head_;
  }

  /// Schedule every deferred background op now (end-of-replay flush).
  SimTime drain_background(SimTime now);

  /// Warm-start checkpointing (DESIGN.md §14): the scheme's full device
  /// state plus the host-interface bits that survive the warm-up boundary
  /// (request-id counter, deferred background-op queue). Call at a
  /// quiescent point — right after reset_timing(), with every completion
  /// harvested — so the timing layer is clean on both sides.
  void save(io::StateSink& sink) const;
  void restore(io::StateSource& src);

  /// Fan the bundle out to the scheme (placement/GC instruments, GC
  /// flight events) and the controller (flash-op spans and flight
  /// events), and bind the scheme as the bundle's snapshot frame source.
  /// Null detaches the device's handles. The bundle's finish() must run
  /// while this device is alive: its gauges poll the scheme and its
  /// final snapshot frame walks it.
  void attach_telemetry(telemetry::Telemetry* telemetry);

  /// The attached bundle, or null. The replayer uses this for host-level
  /// spans and the per-request sampler/snapshot tick.
  [[nodiscard]] telemetry::Telemetry* telemetry() const { return telemetry_; }

 private:
  static constexpr std::size_t kNoEntry = static_cast<std::size_t>(-1);

  /// A background op whose scheduling is deferred for GC interleaving.
  /// Its dependency is carried either as an already-known finish time
  /// (dep_finish) or as the index of an earlier deferred entry that will
  /// be scheduled first (dep_entry).
  struct Deferred {
    cache::PhysOp op;
    SimTime dep_finish = 0;
    std::size_t dep_entry = kNoEntry;
    SimTime finish = 0;  // set once scheduled
    bool scheduled = false;
  };

  Completion do_submit(OpType op, std::uint64_t offset, std::uint32_t size,
                       SimTime arrival);
  SimTime schedule_deferred(Deferred& d, SimTime now);

  std::unique_ptr<cache::Scheme> scheme_;
  Controller ctrl_;
  telemetry::Telemetry* telemetry_ = nullptr;
  // Blame ledger from the attached bundle (null when detached). do_submit
  // brackets every host request so the ledger can fold the request's
  // foreground ops into one conserved component vector.
  telemetry::attribution::AttributionLedger* attrib_ = nullptr;
  std::vector<cache::PhysOp> ops_;        // reused per request
  std::vector<SimTime> op_finish_;        // reused per request
  std::vector<std::size_t> op_deferred_;  // reused per request
  std::vector<Deferred> deferred_;        // background ops not yet scheduled
  std::size_t deferred_head_ = 0;
  EventQueue<HostCompletion> pending_;
  std::uint64_t next_request_id_ = 0;
};

}  // namespace ppssd::sim
