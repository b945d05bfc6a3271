#include "sim/controller.h"

#include <algorithm>

#include "common/check.h"

namespace ppssd::sim {

namespace {

/// PhysOp -> attribution class: erases have their own suspendable
/// horizon; otherwise the scheme's origin tag decides, with background
/// ops defaulting to GC when a host-origin tag leaks onto one.
telemetry::attribution::OpClass classify(const cache::PhysOp& op) {
  using telemetry::attribution::OpClass;
  if (op.kind == cache::PhysOp::Kind::kErase) return OpClass::kErase;
  const bool read = op.kind == cache::PhysOp::Kind::kRead;
  switch (op.origin) {
    case cache::OpOrigin::kPrefill:
      return OpClass::kPrefill;
    case cache::OpOrigin::kGc:
      return read ? OpClass::kGcRead : OpClass::kGcProgram;
    case cache::OpOrigin::kHost:
      break;
  }
  if (op.background) return read ? OpClass::kGcRead : OpClass::kGcProgram;
  return OpClass::kHost;
}

}  // namespace

Controller::Controller(const SsdConfig& cfg, std::uint32_t chips,
                       std::uint32_t channels)
    : timing_(cfg.timing), ecc_(cfg.ecc) {
  PPSSD_CHECK(chips > 0 && channels > 0);
  lanes_.assign(chips, ChipLane{});
  channel_busy_.assign(channels, 0);
  chip_occupancy_.assign(chips, 0);
}

void Controller::reset() {
  std::fill(lanes_.begin(), lanes_.end(), ChipLane{});
  std::fill(channel_busy_.begin(), channel_busy_.end(), SimTime{0});
  std::fill(chip_occupancy_.begin(), chip_occupancy_.end(), SimTime{0});
  usage_ = Usage{};
  scheduled_ops_ = 0;
  // Horizons are zero again: stale claims would break interval coverage.
  if (attrib_) attrib_->reset_resources();
}

SimTime Controller::ecc_cost(const cache::PhysOp& op) const {
  return ecc_.decode_time(op.ber, op.subpages);
}

void Controller::attach_telemetry(telemetry::Telemetry* telemetry) {
  attrib_ = telemetry ? telemetry->attribution() : nullptr;
  if (attrib_) {
    attrib_->bind_resources(static_cast<std::uint32_t>(lanes_.size()),
                            static_cast<std::uint32_t>(channel_busy_.size()));
    // Mid-run attach: outstanding horizon state predates the ledger, so
    // seed it as prefill claims to keep wait intervals fully covered.
    for (std::uint32_t c = 0; c < lanes_.size(); ++c) {
      attrib_->seed_lane(c, lanes_[c].busy_until);
      attrib_->seed_erase(c, lanes_[c].erase_until);
    }
    for (std::uint32_t ch = 0; ch < channel_busy_.size(); ++ch) {
      attrib_->seed_channel(ch, channel_busy_[ch]);
    }
  }
  flight_ = telemetry != nullptr ? telemetry->flight() : nullptr;
  if (telemetry == nullptr || !telemetry->instrumented()) {
    trace_ = nullptr;
    tl_ops_[0][0] = tl_ops_[0][1] = tl_ops_[1][0] = tl_ops_[1][1] = nullptr;
    tl_erases_ = tl_reprograms_ = tl_ecc_decodes_ = tl_ecc_saturated_ =
        nullptr;
    tl_chip_wait_ = tl_ecc_ns_ = nullptr;
    return;
  }
  auto& reg = telemetry->registry();
  trace_ = telemetry->trace();
  const char* kinds[2] = {"read", "program"};
  const char* modes[2] = {"slc", "mlc"};
  for (int k = 0; k < 2; ++k) {
    for (int m = 0; m < 2; ++m) {
      tl_ops_[k][m] =
          reg.counter("flash_ops", {{"kind", kinds[k]}, {"mode", modes[m]}});
    }
  }
  tl_erases_ = reg.counter("flash_ops", {{"kind", "erase"}});
  tl_reprograms_ = reg.counter("flash_ops", {{"kind", "reprogram"}});
  tl_ecc_decodes_ = reg.counter("ecc_decodes");
  tl_ecc_saturated_ = reg.counter("ecc_decodes_saturated");
  // Chip queueing delay seen by array ops (ns): 100 ns .. 10 s.
  tl_chip_wait_ = reg.histogram("chip_wait_ns", {}, 1e2, 1e10);
  tl_ecc_ns_ = reg.histogram("ecc_decode_ns", {}, 1e2, 1e8);
}

SimTime Controller::schedule(const cache::PhysOp& op, SimTime ready) {
  PPSSD_CHECK(op.chip < lanes_.size());
  PPSSD_CHECK(op.channel < channel_busy_.size());
  OpOutcome out;
  price(op, ready, out);
  commit(op, out);
  return out.end;
}

void Controller::price(const cache::PhysOp& op, SimTime ready,
                       OpOutcome& out) {
  using Kind = cache::PhysOp::Kind;
  SimTime& lane_busy = lanes_[op.chip].busy_until;
  SimTime& lane_erase = lanes_[op.chip].erase_until;
  SimTime& chan_busy = channel_busy_[op.channel];
  out.ready = ready;
  // Horizons before this op claims them — the attribution ledger charges
  // wait intervals against the *previous* occupancy.
  out.lane_was = lane_busy;
  out.erase_was = lane_erase;

  switch (op.kind) {
    case Kind::kRead: {
      // Array sense, then transfer out, then controller-side ECC. A
      // background read must wait for an in-progress erase; a foreground
      // read suspends it.
      SimTime sense_start = std::max(ready, lane_busy);
      if (op.background) sense_start = std::max(sense_start, lane_erase);
      out.svc_start = sense_start;
      out.sense_end = sense_start + timing_.read_latency(op.mode);
      lane_busy = out.sense_end;
      out.xfer_start = std::max(out.sense_end, chan_busy);
      out.xfer_end = out.xfer_start + timing_.transfer_latency(op.subpages);
      chan_busy = out.xfer_end;
      out.ecc_ns = ecc_cost(op);
      out.end = out.xfer_end + out.ecc_ns;
      break;
    }
    case Kind::kProgram: {
      // Transfer in, then program pulse on the chip. Background programs
      // queue behind an in-progress erase; foreground programs suspend it.
      out.xfer_start = std::max(ready, chan_busy);
      out.xfer_end = out.xfer_start + timing_.transfer_latency(op.subpages);
      chan_busy = out.xfer_end;
      SimTime prog_start = std::max(out.xfer_end, lane_busy);
      if (op.background) prog_start = std::max(prog_start, lane_erase);
      out.svc_start = prog_start;
      out.end = prog_start + timing_.program_latency(op.mode);
      lane_busy = out.end;
      break;
    }
    case Kind::kReprogram: {
      // In-place SLC→dense switch (IPS): one continued-ISPP pulse sequence
      // on the chip — the data never leaves the array, so there is no
      // channel transfer and no controller-side ECC. Erase interaction
      // mirrors a program: background reprograms queue behind an
      // in-progress erase, foreground ones suspend it.
      SimTime start = std::max(ready, lane_busy);
      if (op.background) start = std::max(start, lane_erase);
      out.svc_start = start;
      out.end = start + timing_.reprogram_latency();
      lane_busy = out.end;
      break;
    }
    case Kind::kErase: {
      // Erase-suspend: the controller suspends a background erase when a
      // host command arrives, so erases occupy a *separate* per-chip
      // horizon that serialises only background work. Host ops see the
      // chip as available; the erase's wall-clock completion still gates
      // background progress on the lane.
      const SimTime start = std::max({ready, lane_erase, lane_busy});
      out.svc_start = start;
      out.end = start + timing_.erase_latency();
      lane_erase = out.end;
      break;
    }
  }
}

void Controller::commit(const cache::PhysOp& op, const OpOutcome& out) {
  using Kind = cache::PhysOp::Kind;
  const SimTime ready = out.ready;
  const SimTime end = out.end;
  switch (op.kind) {
    case Kind::kRead: {
      const SimTime sense_start = out.svc_start;
      (op.background ? usage_.read_bg : usage_.read_fg) +=
          out.sense_end - sense_start;
      chip_occupancy_[op.chip] += out.sense_end - sense_start;
      if (attrib_) {
        attrib_->op_begin(scheduled_ops_, classify(op), op.mode,
                          op.background, op.chip, op.channel, ready);
        const SimTime base = std::max(ready, out.lane_was);
        attrib_->wait_lane(op.chip, ready, base);
        if (op.background) {
          attrib_->wait_erase(op.chip, base, sense_start);
        } else if (out.erase_was > sense_start) {
          attrib_->note_suspend_saved(out.erase_was - sense_start);
        }
        attrib_->add_service(out.sense_end - sense_start);
        attrib_->claim_lane(op.chip, out.sense_end);
        attrib_->wait_channel(op.channel, out.sense_end, out.xfer_start);
        attrib_->add_service(out.xfer_end - out.xfer_start);
        attrib_->claim_channel(op.channel, out.xfer_end);
        attrib_->add_ecc(out.ecc_ns);
        attrib_->op_end(end);
      }
      if (tl_ecc_decodes_) {
        tl_ecc_decodes_->inc(op.subpages);
        if (ecc_.saturated(op.ber)) tl_ecc_saturated_->inc(op.subpages);
        tl_ecc_ns_->observe(static_cast<double>(out.ecc_ns));
        tl_ops_[0][static_cast<int>(op.mode)]->inc();
        tl_chip_wait_->observe(static_cast<double>(sense_start - ready));
      }
      if (trace_ && trace_->enabled(telemetry::TraceCategory::kFlash)) {
        trace_->span(telemetry::TraceCategory::kFlash,
                     op.mode == CellMode::kSlc ? "read_slc" : "read_mlc",
                     sense_start, end, op.chip,
                     {{"subpages", static_cast<double>(op.subpages)},
                      {"ber", op.ber},
                      {"bg", op.background ? 1.0 : 0.0}});
      }
      break;
    }
    case Kind::kProgram: {
      const SimTime prog_start = out.svc_start;
      (op.background ? usage_.program_bg : usage_.program_fg) +=
          end - prog_start;
      chip_occupancy_[op.chip] += end - prog_start;
      if (attrib_) {
        attrib_->op_begin(scheduled_ops_, classify(op), op.mode,
                          op.background, op.chip, op.channel, ready);
        attrib_->wait_channel(op.channel, ready, out.xfer_start);
        attrib_->add_service(out.xfer_end - out.xfer_start);
        attrib_->claim_channel(op.channel, out.xfer_end);
        const SimTime base = std::max(out.xfer_end, out.lane_was);
        attrib_->wait_lane(op.chip, out.xfer_end, base);
        if (op.background) {
          attrib_->wait_erase(op.chip, base, prog_start);
        } else if (out.erase_was > prog_start) {
          attrib_->note_suspend_saved(out.erase_was - prog_start);
        }
        attrib_->add_service(end - prog_start);
        attrib_->claim_lane(op.chip, end);
        attrib_->op_end(end);
      }
      if (tl_ops_[1][static_cast<int>(op.mode)]) {
        tl_ops_[1][static_cast<int>(op.mode)]->inc();
        tl_chip_wait_->observe(static_cast<double>(prog_start - ready));
      }
      if (trace_ && trace_->enabled(telemetry::TraceCategory::kFlash)) {
        trace_->span(telemetry::TraceCategory::kFlash,
                     op.mode == CellMode::kSlc ? "prog_slc" : "prog_mlc",
                     out.xfer_start, end, op.chip,
                     {{"subpages", static_cast<double>(op.subpages)},
                      {"bg", op.background ? 1.0 : 0.0}});
      }
      break;
    }
    case Kind::kReprogram: {
      const SimTime start = out.svc_start;
      (op.background ? usage_.program_bg : usage_.program_fg) += end - start;
      chip_occupancy_[op.chip] += end - start;
      if (attrib_) {
        attrib_->op_begin(scheduled_ops_, classify(op), op.mode,
                          op.background, op.chip, op.channel, ready);
        const SimTime base = std::max(ready, out.lane_was);
        attrib_->wait_lane(op.chip, ready, base);
        if (op.background) {
          attrib_->wait_erase(op.chip, base, start);
        } else if (out.erase_was > start) {
          attrib_->note_suspend_saved(out.erase_was - start);
        }
        attrib_->add_service(end - start);
        attrib_->claim_lane(op.chip, end);
        attrib_->op_end(end);
      }
      if (tl_reprograms_) {
        tl_reprograms_->inc();
        tl_chip_wait_->observe(static_cast<double>(start - ready));
      }
      if (trace_ && trace_->enabled(telemetry::TraceCategory::kFlash)) {
        trace_->span(telemetry::TraceCategory::kFlash, "reprog", start, end,
                     op.chip,
                     {{"subpages", static_cast<double>(op.subpages)},
                      {"bg", op.background ? 1.0 : 0.0}});
      }
      break;
    }
    case Kind::kErase: {
      const SimTime start = out.svc_start;
      usage_.erase_bg += end - start;
      chip_occupancy_[op.chip] += end - start;
      if (attrib_) {
        attrib_->op_begin(scheduled_ops_, classify(op), op.mode,
                          op.background, op.chip, op.channel, ready);
        const SimTime after_erase = std::max(ready, out.erase_was);
        attrib_->wait_erase(op.chip, ready, after_erase);
        attrib_->wait_lane(op.chip, after_erase, start);
        attrib_->add_service(end - start);
        attrib_->claim_erase(op.chip, end);
        attrib_->op_end(end);
      }
      if (tl_erases_) tl_erases_->inc();
      if (trace_ && trace_->enabled(telemetry::TraceCategory::kFlash)) {
        trace_->span(telemetry::TraceCategory::kFlash, "erase", start, end,
                     op.chip,
                     {{"mode", op.mode == CellMode::kSlc ? 0.0 : 1.0}});
      }
      break;
    }
  }

  if (flight_ != nullptr) [[unlikely]] {
    using telemetry::introspect::FlightEvent;
    using telemetry::introspect::FlightEventKind;
    const auto detail = static_cast<std::uint8_t>(
        (static_cast<std::uint8_t>(op.kind) << 2) |
        (static_cast<std::uint8_t>(op.mode) << 1) | (op.background ? 1 : 0));
    flight_->record(FlightEvent{ready, scheduled_ops_, op.chip, op.channel,
                                FlightEventKind::kOpBegin, detail});
    // A foreground array op starting under a pending erase horizon is
    // exactly the condition the attribution layer books as suspend
    // savings; record it with the saved nanoseconds.
    if (!op.background && op.kind != Kind::kErase &&
        out.erase_was > out.svc_start) {
      flight_->record(FlightEvent{
          out.svc_start, scheduled_ops_, op.chip,
          static_cast<std::uint32_t>(
              std::min<SimTime>(out.erase_was - out.svc_start, UINT32_MAX)),
          FlightEventKind::kEraseSuspend, detail});
    }
    flight_->record(FlightEvent{end, scheduled_ops_, op.chip, op.channel,
                                FlightEventKind::kOpFinish, detail});
  }

  ++scheduled_ops_;
}

}  // namespace ppssd::sim
