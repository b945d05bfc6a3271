// End-to-end checks of the device-state introspection layer: the
// Scheme::inspect() hook against an independent device recount, the
// snapshot sink's frames against the loader and the conservation rules
// device_inspect re-verifies, the flight recorder fed by the real
// controller, and the no-perturbation / near-zero-overhead guarantees
// for the detached configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "cache/scheme.h"
#include "common/rng.h"
#include "sim/ssd.h"
#include "telemetry/introspect/format.h"
#include "telemetry/telemetry.h"

namespace ppssd::sim {
namespace {

namespace intro = telemetry::introspect;

/// Mixed write-heavy churn, enough to trigger SLC GC on the scaled
/// device (mirrors the attribution e2e workload).
void churn(Ssd& ssd, int requests, SimTime* now,
           telemetry::Telemetry* tel = nullptr) {
  Rng rng(42);
  for (int i = 0; i < requests; ++i) {
    const OpType op = rng.next_below(4) == 3 ? OpType::kRead : OpType::kWrite;
    const std::uint64_t off = rng.next_below(4000) * kSubpageBytes;
    ssd.submit(op, off, kSubpageBytes, *now);
    *now += us_to_ns(15.0);
    if (tel != nullptr) tel->on_request(*now);
  }
}

/// Independent recount of the SLC-resident valid subpages straight from
/// the array, bypassing the scheme's own aggregates.
std::uint64_t recount_slc_valid(const cache::Scheme& scheme) {
  const auto& geom = scheme.array().geometry();
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < geom.slc_block_count(); ++i) {
    total += scheme.array().block(geom.slc_block_at(i)).valid_subpages();
  }
  return total;
}

std::string fresh_path(const char* name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

TEST(SchemeInspect, ValuesMatchIndependentDeviceRecount) {
  for (const char* name : {"Baseline", "MGA", "IPU", "IPS"}) {
    Ssd ssd(SsdConfig::scaled(2048), name);
    SimTime now = 0;
    churn(ssd, 3000, &now);

    intro::StateSink sink;
    ssd.scheme().inspect(sink);

    const auto* cached = sink.find("slc_cached_subpages");
    ASSERT_NE(cached, nullptr) << name;
    EXPECT_EQ(cached->u, recount_slc_valid(ssd.scheme())) << name;

    const auto* mapped = sink.find("mapped_lsns");
    const auto* logical = sink.find("logical_subpages");
    ASSERT_NE(mapped, nullptr) << name;
    ASSERT_NE(logical, nullptr) << name;
    EXPECT_GT(mapped->u, 0u) << name;
    EXPECT_LE(mapped->u, logical->u) << name;
  }

  // Scheme-specific extras ride on top of the base section.
  Ssd ips(SsdConfig::scaled(2048), "IPS");
  SimTime now = 0;
  churn(ips, 3000, &now);
  intro::StateSink sink;
  ips.scheme().inspect(sink);
  EXPECT_NE(sink.find("reprogrammed_pages"), nullptr);
  EXPECT_NE(sink.find("fallback_subpages"), nullptr);
}

TEST(Snapshotter, ProducesLoadableConservingFrames) {
  const std::string snap_path = fresh_path("introspect_e2e_snap.bin");
  const std::string flight_path = fresh_path("introspect_e2e_flight.bin");

  telemetry::TelemetryOptions opts;
  opts.snapshot_every_ns = ms_to_ns(20.0);
  opts.snapshot_path = snap_path;
  // Wide enough to retain GC decisions between cleaning bursts (steady
  // state fires one every few hundred requests).
  opts.flight_capacity = 4096;
  opts.flight_path = flight_path;

  Ssd ssd(SsdConfig::scaled(2048), "IPU");
  telemetry::Telemetry tel(opts);
  ssd.attach_telemetry(&tel);

  // Long enough to saturate the SLC regions and run steady-state GC
  // (free blocks reach the threshold around request ~20k at this scale).
  SimTime now = 0;
  churn(ssd, 30000, &now, &tel);
  tel.finish(now);
  ssd.attach_telemetry(nullptr);
  EXPECT_GE(tel.frames_written(), 2u);

  intro::SnapshotFile file;
  std::string error;
  ASSERT_TRUE(intro::load_snapshots(snap_path, &file, &error)) << error;
  ASSERT_EQ(file.streams.size(), 1u);
  const auto& stream = file.streams[0];
  EXPECT_EQ(stream.info.scheme, "IPU");
  const auto& geom = ssd.scheme().array().geometry();
  EXPECT_EQ(stream.info.total_blocks, geom.total_blocks());
  ASSERT_EQ(stream.frames.size(), tel.frames_written());

  // Re-verify the core conservation rules on every frame, independently
  // of device_inspect: per-block bounds, mode/region agreement, and the
  // scheme's cached-subpage figure against the per-block sum.
  for (const auto& frame : stream.frames) {
    ASSERT_EQ(frame.blocks.size(), geom.total_blocks());
    std::uint64_t slc_valid = 0;
    std::uint64_t mapped = 0;
    for (std::size_t b = 0; b < frame.blocks.size(); ++b) {
      const auto& blk = frame.blocks[b];
      const std::uint32_t spp = stream.info.subpages_per_page;
      ASSERT_LE(blk.write_frontier, blk.pages);
      ASSERT_LE(blk.valid_subpages + blk.invalid_subpages,
                static_cast<std::uint32_t>(blk.write_frontier) * spp);
      ASSERT_LE(blk.reprogrammed_pages, blk.write_frontier);
      const bool in_slc_region =
          b % geom.blocks_per_plane() < geom.slc_blocks_per_plane();
      ASSERT_EQ(blk.mode == static_cast<std::uint8_t>(CellMode::kSlc),
                in_slc_region);
      if (in_slc_region) slc_valid += blk.valid_subpages;
      mapped += blk.valid_subpages;
    }
    const auto* cached = frame.values.find("slc_cached_subpages");
    ASSERT_NE(cached, nullptr);
    ASSERT_EQ(cached->u, slc_valid);
    const auto* mapped_kv = frame.values.find("mapped_lsns");
    ASSERT_NE(mapped_kv, nullptr);
    ASSERT_EQ(mapped_kv->u, mapped);
  }
  // Frames advance in time and sequence.
  for (std::size_t i = 1; i < stream.frames.size(); ++i) {
    ASSERT_GE(stream.frames[i].time, stream.frames[i - 1].time);
    ASSERT_EQ(stream.frames[i].seq, stream.frames[i - 1].seq + 1);
  }

  // The flight ring saw real controller traffic and the finish() dump
  // loads back, op begins paired with finishes.
  intro::FlightFile flight;
  ASSERT_TRUE(intro::load_flight(flight_path, &flight, &error)) << error;
  EXPECT_GT(flight.recorded, 0u);
  ASSERT_FALSE(flight.events.empty());
  std::size_t begins = 0, finishes = 0, gc = 0;
  for (const auto& ev : flight.events) {
    if (ev.kind == intro::FlightEventKind::kOpBegin) ++begins;
    if (ev.kind == intro::FlightEventKind::kOpFinish) ++finishes;
    if (ev.kind == intro::FlightEventKind::kGcDecision) ++gc;
  }
  EXPECT_GT(begins, 0u);
  EXPECT_GT(finishes, 0u);
  EXPECT_GT(gc, 0u);  // the churn workload forces SLC GC

  std::remove(snap_path.c_str());
  std::remove(flight_path.c_str());
}

TEST(Snapshotter, AttachedObserverDoesNotPerturbCompletions) {
  const std::string snap_path = fresh_path("introspect_noperturb_snap.bin");
  const std::string flight_path = fresh_path("introspect_noperturb_flight.bin");
  const SsdConfig c = SsdConfig::scaled(2048);
  Ssd plain(c, "IPU");
  Ssd probed(c, "IPU");

  telemetry::TelemetryOptions opts;
  opts.snapshot_every_ns = ms_to_ns(2.0);
  opts.snapshot_path = snap_path;
  opts.flight_capacity = 256;
  opts.flight_path = flight_path;
  telemetry::Telemetry tel(opts);
  probed.attach_telemetry(&tel);

  Rng rng(7);
  SimTime now = 0;
  for (int i = 0; i < 2000; ++i) {
    const OpType op = rng.next_below(4) == 3 ? OpType::kRead : OpType::kWrite;
    const std::uint64_t off = rng.next_below(4000) * kSubpageBytes;
    const auto a = plain.submit(op, off, kSubpageBytes, now);
    const auto b = probed.submit(op, off, kSubpageBytes, now);
    ASSERT_EQ(a.finish, b.finish) << "request " << i;
    ASSERT_EQ(a.drained, b.drained) << "request " << i;
    now += us_to_ns(15.0);
    tel.on_request(now);
  }
  tel.finish(now);
  probed.attach_telemetry(nullptr);
  std::remove(snap_path.c_str());
  std::remove(flight_path.c_str());
}

// Snapshots and the flight recorder read device state and their own ring,
// so a bundle of only those sinks must not register (or, on the hot
// path, update) the per-op instruments of the other sinks.
TEST(Snapshotter, SnapshotAndFlightOnlyBundleRegistersNoInstruments) {
  const std::string snap_path = fresh_path("introspect_uninstr_snap.bin");
  const std::string flight_path = fresh_path("introspect_uninstr_flight.bin");
  telemetry::TelemetryOptions opts;
  opts.snapshot_every_ns = ms_to_ns(2.0);
  opts.snapshot_path = snap_path;
  opts.flight_capacity = 256;
  opts.flight_path = flight_path;
  ASSERT_FALSE(opts.instrumented());

  Ssd ssd(SsdConfig::scaled(2048), "IPU");
  telemetry::Telemetry tel(opts);
  EXPECT_FALSE(tel.instrumented());
  ssd.attach_telemetry(&tel);
  SimTime now = 0;
  churn(ssd, 2000, &now, &tel);
  EXPECT_EQ(tel.registry().instrument_count(), 0u);
  ASSERT_NE(tel.flight(), nullptr);
  EXPECT_GT(tel.flight()->recorded(), 0u);
  EXPECT_GE(tel.frames_written(), 1u);
  tel.finish(now);
  ssd.attach_telemetry(nullptr);

  // Any instrumented sink brings the full registration back.
  telemetry::TelemetryOptions with_attrib = opts;
  with_attrib.snapshot_every_ns = 0;
  with_attrib.flight_capacity = 0;
  with_attrib.attribution = true;
  telemetry::Telemetry instrumented(with_attrib);
  EXPECT_TRUE(instrumented.instrumented());
  Ssd other(SsdConfig::scaled(2048), "IPU");
  other.attach_telemetry(&instrumented);
  EXPECT_GT(instrumented.registry().instrument_count(), 0u);
  other.attach_telemetry(nullptr);
  std::remove(snap_path.c_str());
  std::remove(flight_path.c_str());
}

// The acceptance bar for the off configuration, mirroring the disabled-
// profiler test: a device with no snapshot bundle attached must not look
// like it is doing the attached device's work. A/B-time the same submit
// loop; generous 8x bound to shed CI noise (the attached run records
// two flight events per op and walks the device on interval crossings).
TEST(Snapshotter, DetachedSubmitPathIsFreeComparedToAttached) {
  const std::string snap_path = fresh_path("introspect_ab_snap.bin");
  const std::string flight_path = fresh_path("introspect_ab_flight.bin");
  constexpr int kRequests = 20000;

  auto time_run = [&](bool attached) {
    Ssd ssd(SsdConfig::scaled(2048), "IPU");
    telemetry::TelemetryOptions opts;
    opts.snapshot_every_ns = ms_to_ns(5.0);
    opts.snapshot_path = snap_path;
    opts.flight_capacity = 4096;
    opts.flight_path = flight_path;
    telemetry::Telemetry tel(opts);
    if (attached) ssd.attach_telemetry(&tel);

    Rng rng(3);
    SimTime now = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kRequests; ++i) {
      const OpType op =
          rng.next_below(4) == 3 ? OpType::kRead : OpType::kWrite;
      const std::uint64_t off = rng.next_below(4000) * kSubpageBytes;
      ssd.submit(op, off, kSubpageBytes, now);
      now += us_to_ns(15.0);
      if (attached) tel.on_request(now);
    }
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    if (attached) {
      tel.finish(now);
      ssd.attach_telemetry(nullptr);
    }
    return seconds;
  };

  auto best_of = [&](bool attached) {
    double best = time_run(attached);
    for (int i = 0; i < 2; ++i) best = std::min(best, time_run(attached));
    return best;
  };

  const double detached = best_of(false);
  const double attached = best_of(true);
  EXPECT_GT(attached, 0.0);
  EXPECT_LT(detached, attached * 8.0)
      << "detached=" << detached << "s attached=" << attached << "s";

  std::remove(snap_path.c_str());
  std::remove(flight_path.c_str());
}

}  // namespace
}  // namespace ppssd::sim
