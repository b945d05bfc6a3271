// Device-lifetime study: how the choice of cache scheme translates into
// device endurance, using the paper's Section 4.3.2 argument — SLC-mode
// blocks endure ~10x the P/E cycles of MLC blocks [8], so shifting erase
// traffic into the cache extends overall lifetime.
//
// Each scheme's replay runs with device-state snapshots on (DESIGN §13),
// so alongside the end-state totals the study prints a
// *time-resolved* wear trajectory recovered from the snapshot stream:
// cumulative SLC/MLC erases and life fractions at sampled sim times —
// when each region starts wearing, not just where it ends up.
//
//   ./wear_study [trace] [scale]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/report.h"
#include "sim/replayer.h"
#include "sim/ssd.h"
#include "telemetry/introspect/format.h"
#include "telemetry/telemetry.h"
#include "trace/profiles.h"
#include "trace/synthetic.h"

using namespace ppssd;

namespace {

namespace intro = telemetry::introspect;

struct TrajectoryPoint {
  double time_ms = 0.0;
  std::uint64_t slc_erases = 0;
  std::uint64_t mlc_erases = 0;
};

struct WearResult {
  std::uint64_t slc_erases;
  std::uint64_t mlc_erases;
  double slc_life_consumed;  // fraction of SLC endurance budget
  double mlc_life_consumed;
  double replays_to_death;  // how many such workloads until wear-out
  std::vector<TrajectoryPoint> trajectory;
};

WearResult run(const std::string& scheme, const std::string& trace,
               double scale) {
  const SsdConfig cfg = SsdConfig::scaled(4096);
  sim::Ssd ssd(cfg, scheme);
  trace::SyntheticWorkload workload(trace::profile_by_name(trace),
                                    ssd.logical_bytes(), scale);
  sim::Replayer replayer(ssd);

  // Snapshot the device every 100 ms of sim time into a scratch stream;
  // the trajectory below is recovered from these frames.
  const std::string snap_path = "wear_study_snapshots.bin";
  telemetry::TelemetryOptions opts;
  opts.snapshot_every_ns = ms_to_ns(100.0);
  opts.snapshot_path = snap_path;
  telemetry::Telemetry tel(opts);
  ssd.attach_telemetry(&tel);

  const auto res = replayer.replay(workload);
  const SimTime drained = ssd.drain_background(res.makespan);
  tel.finish(std::max(res.makespan, drained));
  ssd.attach_telemetry(nullptr);

  const auto& c = ssd.scheme().array().counters();
  const auto& geom = ssd.scheme().array().geometry();

  WearResult out{};
  out.slc_erases = c.slc_erases;
  out.mlc_erases = c.mlc_erases;
  // Endurance budget: erases the region can absorb in total.
  const double slc_budget = static_cast<double>(geom.slc_block_count()) *
                            cfg.wear.slc_endurance;
  const double mlc_budget = static_cast<double>(geom.mlc_block_count()) *
                            cfg.wear.mlc_endurance;
  out.slc_life_consumed = static_cast<double>(c.slc_erases) / slc_budget;
  out.mlc_life_consumed = static_cast<double>(c.mlc_erases) / mlc_budget;
  const double worst =
      std::max(out.slc_life_consumed, out.mlc_life_consumed);
  out.replays_to_death = worst > 0 ? 1.0 / worst : 0.0;

  // Recover the wear trajectory from the snapshot stream: per frame,
  // cumulative erases are the sum of the per-block erase counts in each
  // region (blocks start life at zero erases).
  intro::SnapshotFile file;
  std::string error;
  if (intro::load_snapshots(snap_path, &file, &error) &&
      !file.streams.empty()) {
    const auto& stream = file.streams.front();
    for (const auto& frame : stream.frames) {
      TrajectoryPoint pt;
      pt.time_ms = static_cast<double>(frame.time) / 1e6;
      for (std::size_t b = 0; b < frame.blocks.size(); ++b) {
        const bool slc = b % geom.blocks_per_plane() <
                         geom.slc_blocks_per_plane();
        (slc ? pt.slc_erases : pt.mlc_erases) +=
            frame.blocks[b].erase_count;
      }
      out.trajectory.push_back(pt);
    }
  } else if (!error.empty()) {
    std::fprintf(stderr, "wear_study: %s: %s\n", snap_path.c_str(),
                 error.c_str());
  }
  std::remove(snap_path.c_str());
  return out;
}

/// Up to `max_rows` evenly spaced trajectory points, always keeping the
/// last frame (the end state).
std::vector<TrajectoryPoint> sample(const std::vector<TrajectoryPoint>& pts,
                                    std::size_t max_rows) {
  if (pts.size() <= max_rows) return pts;
  std::vector<TrajectoryPoint> out;
  for (std::size_t i = 0; i < max_rows - 1; ++i) {
    out.push_back(pts[i * (pts.size() - 1) / (max_rows - 1)]);
  }
  out.push_back(pts.back());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string trace = argc > 1 ? argv[1] : "ts0";
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.05;

  std::printf("Endurance study on %s (scale %.2f): SLC endures %ux, MLC %ux "
              "P/E cycles\n\n",
              trace.c_str(), scale, SsdConfig{}.wear.slc_endurance,
              SsdConfig{}.wear.mlc_endurance);

  const SsdConfig cfg = SsdConfig::scaled(4096);
  std::vector<std::pair<std::string, WearResult>> results;
  core::Table table({"scheme", "SLC erases", "MLC erases", "SLC life used",
                     "MLC life used", "lifetime (replays)"});
  for (const auto& scheme : cache::SchemeRegistry::instance().names()) {
    const WearResult r = run(scheme, trace, scale);
    table.add_row({scheme, core::Table::count(r.slc_erases),
                   core::Table::count(r.mlc_erases),
                   core::Table::fmt(r.slc_life_consumed * 100.0, 4) + "%",
                   core::Table::fmt(r.mlc_life_consumed * 100.0, 4) + "%",
                   r.replays_to_death > 0
                       ? core::Table::fmt(r.replays_to_death, 0)
                       : std::string("unbounded")});
    results.emplace_back(scheme, r);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Reading the table: the binding constraint is whichever region's\n"
      "life fraction is larger. Schemes that absorb update traffic in the\n"
      "SLC-mode cache (IPU) spend the cheap 10x-endurance budget instead\n"
      "of the scarce MLC budget — the paper's Section 4.3.2 argument.\n\n");

  // Time-resolved view, from the snapshot streams: when the erase
  // traffic lands, not just its total.
  const auto& geom = sim::Ssd(cfg, "Baseline").scheme().array().geometry();
  const double slc_budget = static_cast<double>(geom.slc_block_count()) *
                            cfg.wear.slc_endurance;
  const double mlc_budget = static_cast<double>(geom.mlc_block_count()) *
                            cfg.wear.mlc_endurance;
  for (const auto& [scheme, r] : results) {
    if (r.trajectory.empty()) continue;
    core::Table traj({"sim time (ms)", "SLC erases", "MLC erases",
                      "SLC life used", "MLC life used"});
    for (const auto& pt : sample(r.trajectory, 8)) {
      traj.add_row(
          {core::Table::fmt(pt.time_ms, 1),
           core::Table::count(pt.slc_erases),
           core::Table::count(pt.mlc_erases),
           core::Table::fmt(100.0 * static_cast<double>(pt.slc_erases) /
                                slc_budget, 4) + "%",
           core::Table::fmt(100.0 * static_cast<double>(pt.mlc_erases) /
                                mlc_budget, 4) + "%"});
    }
    std::printf("%s\n",
                traj.render("wear trajectory: " + scheme).c_str());
  }
  return 0;
}
