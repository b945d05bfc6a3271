#include "sim/controller.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "sim/event_queue.h"

namespace ppssd::sim {
namespace {

SsdConfig cfg() { return SsdConfig::scaled(1024); }

cache::PhysOp read_op(std::uint32_t chip, std::uint32_t channel = 0,
                      bool bg = false) {
  cache::PhysOp op;
  op.chip = chip;
  op.channel = channel;
  op.kind = cache::PhysOp::Kind::kRead;
  op.mode = CellMode::kSlc;
  op.subpages = 1;
  op.ber = 0.0;
  op.background = bg;
  return op;
}

cache::PhysOp program_op(std::uint32_t chip, std::uint32_t channel = 0,
                         bool bg = false) {
  cache::PhysOp op;
  op.chip = chip;
  op.channel = channel;
  op.kind = cache::PhysOp::Kind::kProgram;
  op.mode = CellMode::kSlc;
  op.subpages = 1;
  op.background = bg;
  return op;
}

cache::PhysOp erase_op(std::uint32_t chip) {
  cache::PhysOp op;
  op.chip = chip;
  op.channel = 0;
  op.kind = cache::PhysOp::Kind::kErase;
  op.background = true;
  return op;
}

cache::PhysOp sized_read(std::uint32_t chip, std::uint32_t subpages = 1,
                         double ber = 0.0, bool bg = false) {
  cache::PhysOp op = read_op(chip, 0, bg);
  op.subpages = subpages;
  op.ber = ber;
  return op;
}

cache::PhysOp sized_program(std::uint32_t chip, CellMode mode,
                            std::uint32_t subpages = 1, bool bg = false) {
  cache::PhysOp op = program_op(chip, 0, bg);
  op.mode = mode;
  op.subpages = subpages;
  return op;
}

/// Latest completions of one issued op sequence.
struct Issued {
  SimTime foreground_end = 0;  // completion of the host-visible ops
  SimTime background_end = 0;  // completion of everything
  std::uint32_t foreground_ops = 0;
  std::uint32_t background_ops = 0;
};

/// Schedule `ops` in issue order starting no earlier than `now`, resolving
/// each op's depends_on edge to the finish of the earlier op — the loop
/// Ssd runs for a request without GC interleaving.
Issued issue(Controller& ctrl, std::span<const cache::PhysOp> ops,
             SimTime now) {
  Issued out{now, now, 0, 0};
  std::vector<SimTime> ends;
  for (const auto& op : ops) {
    SimTime ready = now;
    if (op.depends_on != cache::PhysOp::kNoDependency) {
      ready = std::max(ready, ends.at(op.depends_on));
    }
    const SimTime end = ctrl.schedule(op, ready);
    ends.push_back(end);
    if (op.background) {
      out.background_end = std::max(out.background_end, end);
      ++out.background_ops;
    } else {
      out.foreground_end = std::max(out.foreground_end, end);
      ++out.foreground_ops;
    }
  }
  out.background_end = std::max(out.background_end, out.foreground_end);
  return out;
}

TEST(Controller, SingleReadLatency) {
  const SsdConfig c = cfg();
  Controller ctrl(c, 2, 2);
  const cache::PhysOp ops[] = {sized_read(0)};
  const auto out = issue(ctrl, ops, 0);
  // sense + transfer + min ECC decode (ber = 0).
  EXPECT_EQ(out.foreground_end, c.timing.slc_read +
                                    c.timing.transfer_per_subpage +
                                    c.ecc.min_decode);
}

TEST(Controller, SingleProgramLatency) {
  const SsdConfig c = cfg();
  Controller ctrl(c, 2, 2);
  const cache::PhysOp ops[] = {sized_program(0, CellMode::kSlc)};
  const auto out = issue(ctrl, ops, 1000);
  EXPECT_EQ(out.foreground_end,
            1000 + c.timing.transfer_per_subpage + c.timing.slc_write);
}

TEST(Controller, MlcOpsSlower) {
  const SsdConfig c = cfg();
  Controller slc_ctrl(c, 2, 2);
  Controller mlc_ctrl(c, 2, 2);
  const cache::PhysOp slc[] = {sized_program(0, CellMode::kSlc)};
  const cache::PhysOp mlc[] = {sized_program(0, CellMode::kMlc)};
  const auto s = issue(slc_ctrl, slc, 0);
  const auto m = issue(mlc_ctrl, mlc, 0);
  EXPECT_EQ(m.foreground_end - s.foreground_end,
            c.timing.mlc_write - c.timing.slc_write);
}

TEST(Controller, SameChipSerializes) {
  const SsdConfig c = cfg();
  Controller ctrl(c, 2, 2);
  const cache::PhysOp ops[] = {sized_program(0, CellMode::kSlc),
                               sized_program(0, CellMode::kSlc)};
  const auto out = issue(ctrl, ops, 0);
  EXPECT_GE(out.foreground_end, 2 * c.timing.slc_write);
}

TEST(Controller, DifferentChipsParallel) {
  const SsdConfig c = cfg();
  Controller ctrl(c, 2, 2);
  cache::PhysOp a = sized_program(0, CellMode::kSlc);
  cache::PhysOp b = sized_program(1, CellMode::kSlc);
  b.channel = 1;  // independent bus
  const cache::PhysOp ops[] = {a, b};
  const auto out = issue(ctrl, ops, 0);
  EXPECT_EQ(out.foreground_end,
            c.timing.transfer_per_subpage + c.timing.slc_write);
}

TEST(Controller, ChannelSerializesTransfers) {
  const SsdConfig c = cfg();
  Controller ctrl(c, 2, 1);
  // Two programs on different chips but one channel: transfers serialize.
  const cache::PhysOp ops[] = {sized_program(0, CellMode::kSlc, 4),
                               sized_program(1, CellMode::kSlc, 4)};
  const auto out = issue(ctrl, ops, 0);
  EXPECT_EQ(out.foreground_end,
            2 * 4 * c.timing.transfer_per_subpage + c.timing.slc_write);
}

TEST(Controller, EccCostScalesWithBer) {
  const SsdConfig c = cfg();
  Controller ctrl(c, 2, 2);
  const auto clean = ctrl.ecc_cost(sized_read(0, 1, 0.0));
  const auto noisy = ctrl.ecc_cost(sized_read(0, 1, 5e-4));
  EXPECT_GT(noisy, clean);
  const auto multi = ctrl.ecc_cost(sized_read(0, 4, 5e-4));
  EXPECT_EQ(multi, 4 * noisy);
}

TEST(Controller, EraseSuspendDoesNotBlockHostOps) {
  const SsdConfig c = cfg();
  Controller ctrl(c, 2, 2);
  const cache::PhysOp first[] = {erase_op(0)};
  issue(ctrl, first, 0);
  // A host program right after the (suspended) erase starts immediately.
  const cache::PhysOp host[] = {sized_program(0, CellMode::kSlc)};
  const auto out = issue(ctrl, host, 100);
  EXPECT_EQ(out.foreground_end,
            100 + c.timing.transfer_per_subpage + c.timing.slc_write);
}

TEST(Controller, ErasesSerializeWithEachOther) {
  const SsdConfig c = cfg();
  Controller ctrl(c, 2, 2);
  const cache::PhysOp ops[] = {erase_op(0), erase_op(0)};
  const auto out = issue(ctrl, ops, 0);
  EXPECT_EQ(out.background_end, 2 * c.timing.erase);
}

TEST(Controller, BackgroundOpsDoNotExtendForegroundEnd) {
  const SsdConfig c = cfg();
  Controller ctrl(c, 2, 2);
  const cache::PhysOp ops[] = {sized_program(0, CellMode::kSlc),
                               sized_program(1, CellMode::kMlc, 4, true)};
  const auto out = issue(ctrl, ops, 0);
  EXPECT_EQ(out.foreground_ops, 1u);
  EXPECT_EQ(out.background_ops, 1u);
  EXPECT_LT(out.foreground_end, out.background_end);
}

TEST(Controller, UsageAccounting) {
  const SsdConfig c = cfg();
  Controller ctrl(c, 2, 2);
  const cache::PhysOp ops[] = {sized_program(0, CellMode::kSlc),
                               sized_read(1, 1, 0.0, true), erase_op(0)};
  issue(ctrl, ops, 0);
  EXPECT_EQ(ctrl.usage().program_fg, c.timing.slc_write);
  EXPECT_EQ(ctrl.usage().read_bg, c.timing.slc_read);
  EXPECT_EQ(ctrl.usage().erase_bg, c.timing.erase);
  EXPECT_EQ(ctrl.usage().total(),
            c.timing.slc_write + c.timing.slc_read + c.timing.erase);
}

TEST(Controller, ResetClearsState) {
  const SsdConfig c = cfg();
  Controller ctrl(c, 2, 2);
  const cache::PhysOp ops[] = {sized_program(0, CellMode::kSlc)};
  issue(ctrl, ops, 0);
  EXPECT_GT(ctrl.chip_free_at(0), 0u);
  EXPECT_EQ(ctrl.scheduled_ops(), 1u);
  ctrl.reset();
  EXPECT_EQ(ctrl.chip_free_at(0), 0u);
  EXPECT_EQ(ctrl.usage().total(), 0u);
  EXPECT_EQ(ctrl.scheduled_ops(), 0u);
}

TEST(Controller, IdleChipStartsAtNow) {
  const SsdConfig c = cfg();
  Controller ctrl(c, 2, 2);
  const cache::PhysOp ops[] = {sized_program(0, CellMode::kSlc)};
  const auto out = issue(ctrl, ops, ms_to_ns(500.0));
  EXPECT_EQ(out.foreground_end, ms_to_ns(500.0) +
                                    c.timing.transfer_per_subpage +
                                    c.timing.slc_write);
}

// A dependency's completion gates the dependent op even when its own chip
// and channel are idle: the GC relocation program cannot start before the
// page read that sources its data.
TEST(Controller, DependencyReadyTimeGatesIdleChip) {
  const SsdConfig c = cfg();
  Controller ctrl(c, 2, 2);
  const SimTime read_end = ctrl.schedule(read_op(0, 0, true), 0);
  EXPECT_EQ(read_end,
            c.timing.slc_read + c.timing.transfer_per_subpage +
                c.ecc.min_decode);
  // Chip 1 / channel 1 are idle, yet the program starts only at read_end.
  const SimTime prog_end = ctrl.schedule(program_op(1, 1, true), read_end);
  EXPECT_EQ(prog_end,
            read_end + c.timing.transfer_per_subpage + c.timing.slc_write);
}

TEST(Controller, ForegroundSuspendsEraseBackgroundWaits) {
  const SsdConfig c = cfg();
  // Background case: the program queues behind the whole erase.
  {
    Controller ctrl(c, 2, 2);
    ctrl.schedule(erase_op(0), 0);
    const SimTime end = ctrl.schedule(program_op(0, 0, true), 100);
    EXPECT_EQ(end, c.timing.erase + c.timing.slc_write);
  }
  // Foreground case: the host program suspends the erase and runs as if
  // the chip were idle.
  {
    Controller ctrl(c, 2, 2);
    ctrl.schedule(erase_op(0), 0);
    const SimTime end = ctrl.schedule(program_op(0, 0, false), 100);
    EXPECT_EQ(end, 100 + c.timing.transfer_per_subpage + c.timing.slc_write);
  }
}

// The acceptance scenario for out-of-order host completions: chip 1 is
// mired in a GC chain (page read -> relocation program -> erase) when a
// host write lands on it; a short host read on idle chip 0, submitted
// later, finishes first. Delivering completions through the stable event
// queue hands the host the read before the write.
TEST(Controller, ShortReadOvertakesGcLadenWrite) {
  const SsdConfig c = cfg();
  Controller ctrl(c, 2, 2);

  // GC chain on chip 1 / channel 1.
  const SimTime gc_read = ctrl.schedule(read_op(1, 1, true), 0);
  const SimTime gc_prog = ctrl.schedule(program_op(1, 1, true), gc_read);
  ctrl.schedule(erase_op(1), gc_prog);

  EventQueue<char> completions;  // payload: which host request
  const SimTime w = ctrl.schedule(program_op(1, 1, false), 100);
  completions.push(w, 'W');
  const SimTime r = ctrl.schedule(read_op(0, 0, false), 200);
  completions.push(r, 'R');

  // The write queued behind the GC program on its lane (the erase was
  // suspended); the read ran on the idle chip.
  EXPECT_GE(w, gc_prog + c.timing.slc_write);
  EXPECT_EQ(r, 200 + c.timing.slc_read + c.timing.transfer_per_subpage +
                   c.ecc.min_decode);
  EXPECT_LT(r, w);
  EXPECT_EQ(completions.pop().payload, 'R');
  EXPECT_EQ(completions.pop().payload, 'W');
}

// ---- erase-suspend attribution edge cases --------------------------------
//
// Each test attaches an in-memory attribution ledger and asserts the
// suspend-remainder / suspend-savings ticks the controller reports for
// the paper's erase-suspend corner cases. Per-op conservation
// (components tile [ready, end] exactly) is asserted alongside.

namespace attr = telemetry::attribution;

constexpr std::size_t kEraseRem =
    static_cast<std::size_t>(attr::Component::kEraseRemainder);

TEST(Controller, BackToBackSuspendsOfOneEraseEachRecordShrinkingSavings) {
  const SsdConfig c = cfg();
  const SimTime T = c.timing.transfer_per_subpage;
  const SimTime W = c.timing.slc_write;
  const SimTime E = c.timing.erase;
  ASSERT_GT(E, 2 * T + W);  // the erase outlives both suspending writes

  Controller ctrl(c, 1, 1);
  telemetry::TelemetryOptions opts;
  opts.attribution = true;
  telemetry::Telemetry tel(opts);
  ctrl.attach_telemetry(&tel);
  attr::AttributionLedger* led = tel.attribution();
  ASSERT_NE(led, nullptr);

  ctrl.schedule(erase_op(0), 0);  // erase horizon [0, E)
  // First host write suspends: it runs as if the chip were idle, and the
  // ledger records how long it *would* have waited.
  const SimTime end1 = ctrl.schedule(program_op(0), 0);
  EXPECT_EQ(end1, T + W);
  EXPECT_EQ(led->suspend_saved_ns(), E - T);
  EXPECT_EQ(led->last_op().comp[kEraseRem], 0u);
  EXPECT_EQ(led->last_op().component_sum(), end1);
  // Second host write suspends the *same* still-pending erase; the saved
  // remainder shrank by exactly the simulated time that passed.
  const SimTime end2 = ctrl.schedule(program_op(0), end1);
  EXPECT_EQ(end2, end1 + T + W);
  EXPECT_EQ(led->suspend_saved_ns(), (E - T) + (E - (2 * T + W)));
  EXPECT_EQ(led->last_op().comp[kEraseRem], 0u);
  EXPECT_EQ(led->last_op().component_sum(), end2 - end1);
}

TEST(Controller, SuspendAtExactEraseCompletionTickSavesNothing) {
  const SsdConfig c = cfg();
  const SimTime T = c.timing.transfer_per_subpage;
  const SimTime W = c.timing.slc_write;
  const SimTime E = c.timing.erase;

  Controller ctrl(c, 1, 1);
  telemetry::TelemetryOptions opts;
  opts.attribution = true;
  telemetry::Telemetry tel(opts);
  ctrl.attach_telemetry(&tel);
  attr::AttributionLedger* led = tel.attribution();

  ctrl.schedule(erase_op(0), 0);
  // The program pulse starts exactly when the erase completes: there is
  // nothing to suspend, so no savings and no remainder.
  const SimTime end = ctrl.schedule(program_op(0), E - T);
  EXPECT_EQ(end, E + W);
  EXPECT_EQ(led->suspend_saved_ns(), 0u);
  EXPECT_EQ(led->last_op().comp[kEraseRem], 0u);
  EXPECT_EQ(led->last_op().component_sum(), T + W);

  // One tick earlier and the suspend is real: exactly one saved tick.
  Controller ctrl2(c, 1, 1);
  telemetry::Telemetry tel2(opts);
  ctrl2.attach_telemetry(&tel2);
  ctrl2.schedule(erase_op(0), 0);
  const SimTime end2 = ctrl2.schedule(program_op(0), E - T - 1);
  EXPECT_EQ(end2, E - 1 + W);
  EXPECT_EQ(tel2.attribution()->suspend_saved_ns(), 1u);
}

TEST(Controller, ResumeThenImmediateGcWaitsOutRemainderChargedToErase) {
  const SsdConfig c = cfg();
  const SimTime T = c.timing.transfer_per_subpage;
  const SimTime W = c.timing.slc_write;
  const SimTime E = c.timing.erase;
  ASSERT_GT(E, 2 * T + W);

  Controller ctrl(c, 1, 1);
  telemetry::TelemetryOptions opts;
  opts.attribution = true;
  telemetry::Telemetry tel(opts);
  ctrl.attach_telemetry(&tel);
  attr::AttributionLedger* led = tel.attribution();

  ctrl.schedule(erase_op(0), 0);
  // Host write suspends the erase...
  const SimTime end1 = ctrl.schedule(program_op(0), 0);
  EXPECT_EQ(end1, T + W);
  // ...the erase resumes, and a GC relocation program issued right after
  // the host write must wait out the remainder — charged tick-for-tick
  // to kEraseRemainder and blamed on the erase op.
  const SimTime end2 = ctrl.schedule(program_op(0, 0, true), end1);
  EXPECT_EQ(end2, E + W);
  const attr::OpBlame& op = led->last_op();
  EXPECT_EQ(op.comp[kEraseRem], E - (end1 + T));
  EXPECT_EQ(op.component_sum(), end2 - end1);
  EXPECT_EQ(op.blocker_cls, attr::OpClass::kErase);
  EXPECT_EQ(op.blocker_res, attr::Resource::kErase);
  EXPECT_EQ(led->wait_ns(attr::OpClass::kGcProgram, attr::OpClass::kErase,
                         attr::Resource::kErase, CellMode::kSlc),
            E - (end1 + T));
}

}  // namespace
}  // namespace ppssd::sim
