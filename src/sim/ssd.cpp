#include "sim/ssd.h"

#include <algorithm>

#include "common/check.h"
#include "common/state_io.h"
#include "common/units.h"

namespace ppssd::sim {

Ssd::Ssd(const SsdConfig& cfg, std::string_view scheme_name)
    : Ssd(cfg, cache::make_scheme(scheme_name, cfg)) {}

Ssd::Ssd(const SsdConfig& cfg, std::unique_ptr<cache::Scheme> scheme)
    : scheme_(std::move(scheme)),
      ctrl_(cfg, scheme_->array().chip_count(),
            scheme_->array().geometry().channels()) {
  PPSSD_CHECK(scheme_ != nullptr);
}

std::uint64_t Ssd::logical_bytes() const {
  return scheme_->array().geometry().logical_subpages() * kSubpageBytes;
}

void Ssd::attach_telemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry;
  attrib_ = telemetry ? telemetry->attribution() : nullptr;
  if (attrib_) {
    attrib_->attach_registry(&telemetry->registry(), scheme_->name());
  }
  scheme_->attach_telemetry(telemetry);
  ctrl_.attach_telemetry(telemetry);
  if (telemetry != nullptr) {
    telemetry->bind_device(scheme_.get());
  }
}

void Ssd::reset_timing() {
  ctrl_.reset();
  // Unharvested completions carry pre-reset finish times.
  pending_.drain_until(kNoTime, [](const auto&) {});
  // Pending deferred ops may reference finish times from before the reset;
  // those would distort post-reset scheduling. Dependencies on entries that
  // are themselves still pending stay intact — they resolve to post-reset
  // times when the dependency is scheduled.
  for (std::size_t i = deferred_head_; i < deferred_.size(); ++i) {
    Deferred& d = deferred_[i];
    d.dep_finish = 0;
    if (d.dep_entry != kNoEntry && deferred_[d.dep_entry].scheduled) {
      d.dep_entry = kNoEntry;
    }
  }
}

SimTime Ssd::schedule_deferred(Deferred& d, SimTime now) {
  SimTime ready = std::max(now, d.dep_finish);
  if (d.dep_entry != kNoEntry) {
    const Deferred& dep = deferred_[d.dep_entry];
    // Deferral is FIFO and dependencies only point backward, so the
    // dependency has always been scheduled by the time we get here.
    PPSSD_CHECK_MSG(dep.scheduled, "deferred dependency scheduled out of order");
    ready = std::max(ready, dep.finish);
  }
  d.finish = ctrl_.schedule(d.op, ready);
  d.scheduled = true;
  return d.finish;
}

Ssd::Completion Ssd::do_submit(OpType op, std::uint64_t offset,
                               std::uint32_t size, SimTime arrival) {
  PPSSD_CHECK(size > 0);
  const std::uint64_t total = scheme_->array().geometry().logical_subpages();

  // Subpage-align and wrap into the logical space.
  Lsn lsn = (offset / kSubpageBytes) % total;
  auto count = static_cast<std::uint32_t>(
      bytes_to_subpages(offset % kSubpageBytes + size));
  count = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(count, total - lsn));

  ops_.clear();
  if (op == OpType::kWrite) {
    scheme_->host_write(lsn, count, arrival, ops_);
  } else {
    scheme_->host_read(lsn, count, arrival, ops_);
  }

  Completion done;
  done.id = next_request_id_++;
  done.start = arrival;

  // Bracket the request for the blame ledger: every foreground op
  // scheduled until finish_request folds into this request's component
  // vector (background ops accrue to the interference matrix only).
  if (attrib_) attrib_->begin_request(done.id, op, arrival);

  // GC interleaving (gc_interleave_ops > 0): the controller gives host
  // commands priority and spreads background flash work across
  // subsequent requests rather than monopolising chips in one burst.
  // Logical state already advanced in the scheme; only the command
  // *scheduling* of background ops is deferred. Every other op is
  // scheduled now, in issue order.
  //
  // Dependency edges (PhysOp::depends_on, request-local indices) are
  // translated here: an edge to a scheduled op becomes a resolved finish
  // time, an edge to a deferred op becomes a deferred-queue index that
  // the FIFO drain resolves when the dependency is scheduled.
  const std::uint32_t interleave = config().cache.gc_interleave_ops;
  SimTime fg_end = arrival;
  SimTime bg_end = arrival;
  op_finish_.clear();
  op_deferred_.clear();
  for (const auto& o : ops_) {
    SimTime dep_finish = 0;
    std::size_t dep_entry = kNoEntry;
    if (o.depends_on != cache::PhysOp::kNoDependency) {
      PPSSD_CHECK_MSG(o.depends_on < op_finish_.size(),
                      "depends_on must reference an earlier op");
      dep_entry = op_deferred_[o.depends_on];
      if (dep_entry == kNoEntry) dep_finish = op_finish_[o.depends_on];
    }
    if (o.background && interleave > 0) {
      op_deferred_.push_back(deferred_.size());
      op_finish_.push_back(0);
      deferred_.push_back(Deferred{o, dep_finish, dep_entry});
    } else {
      PPSSD_CHECK_MSG(dep_entry == kNoEntry,
                      "foreground op cannot depend on a deferred op");
      const SimTime end = ctrl_.schedule(o, std::max(arrival, dep_finish));
      SimTime& until = o.background ? bg_end : fg_end;
      until = std::max(until, end);
      op_deferred_.push_back(kNoEntry);
      op_finish_.push_back(end);
    }
  }

  // Drain a bounded slice of the backlog (empty without interleaving).
  std::uint32_t budget = interleave;
  // Never let the backlog grow unboundedly: drain faster when it piles up.
  budget = std::max<std::uint32_t>(
      budget, static_cast<std::uint32_t>(deferred_background_ops() / 64));
  while (budget-- > 0 && deferred_head_ < deferred_.size()) {
    bg_end = std::max(bg_end, schedule_deferred(deferred_[deferred_head_],
                                                arrival));
    ++deferred_head_;
  }
  if (deferred_head_ == deferred_.size()) {
    deferred_.clear();
    deferred_head_ = 0;
  }

  done.finish = fg_end;
  done.drained = std::max(fg_end, bg_end);
  if (attrib_) attrib_->finish_request(done.finish);
  return done;
}

Ssd::Completion Ssd::submit(OpType op, std::uint64_t offset,
                            std::uint32_t size, SimTime arrival) {
  return do_submit(op, offset, size, arrival);
}

Ssd::Completion Ssd::enqueue(OpType op, std::uint64_t offset,
                             std::uint32_t size, SimTime arrival) {
  const Completion done = do_submit(op, offset, size, arrival);
  HostCompletion host;
  host.id = done.id;
  host.op = op;
  host.arrival = arrival;
  host.finish = done.finish;
  host.drained = done.drained;
  pending_.push(done.finish, host);
  return done;
}

SimTime Ssd::drain_background(SimTime now) {
  SimTime end = now;
  while (deferred_head_ < deferred_.size()) {
    end = std::max(end, schedule_deferred(deferred_[deferred_head_], now));
    ++deferred_head_;
  }
  deferred_.clear();
  deferred_head_ = 0;
  return end;
}

void Ssd::save(io::StateSink& sink) const {
  PPSSD_CHECK_MSG(pending_.empty(),
                  "checkpointing with unharvested host completions");
  scheme_->save(sink);
  sink.u64(next_request_id_);
  sink.u64(deferred_head_);
  // Field-wise (PhysOp and Deferred carry padding bytes; a memcpy'd
  // vector would leak indeterminate padding into the checkpoint stream).
  sink.u64(deferred_.size());
  for (const Deferred& d : deferred_) {
    sink.u32(d.op.chip);
    sink.u32(d.op.channel);
    sink.u8(static_cast<std::uint8_t>(d.op.kind));
    sink.u8(static_cast<std::uint8_t>(d.op.mode));
    sink.u32(d.op.subpages);
    sink.f64(d.op.ber);
    sink.boolean(d.op.background);
    sink.u8(static_cast<std::uint8_t>(d.op.origin));
    sink.u32(d.op.depends_on);
    sink.u64(d.dep_finish);
    sink.u64(d.dep_entry);
    sink.u64(d.finish);
    sink.boolean(d.scheduled);
  }
}

void Ssd::restore(io::StateSource& src) {
  scheme_->restore(src);
  next_request_id_ = src.u64();
  deferred_head_ = static_cast<std::size_t>(src.u64());
  deferred_.assign(static_cast<std::size_t>(src.u64()), Deferred{});
  for (Deferred& d : deferred_) {
    d.op.chip = src.u32();
    d.op.channel = src.u32();
    d.op.kind = static_cast<cache::PhysOp::Kind>(src.u8());
    d.op.mode = static_cast<CellMode>(src.u8());
    d.op.subpages = src.u32();
    d.op.ber = src.f64();
    d.op.background = src.boolean();
    d.op.origin = static_cast<cache::OpOrigin>(src.u8());
    d.op.depends_on = src.u32();
    d.dep_finish = src.u64();
    d.dep_entry = static_cast<std::size_t>(src.u64());
    d.finish = src.u64();
    d.scheduled = src.boolean();
  }
  PPSSD_CHECK_MSG(src.ok() && deferred_head_ <= deferred_.size(),
                  "warm-start checkpoint truncated at device level");
}

}  // namespace ppssd::sim
