// PPSSD_OBSERVE through the runner: every cell of a matrix keeps its own
// artifacts under <PPSSD_OBSERVE_DIR>/<spec key>.*, and a rerun replaces
// them instead of growing them.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/runner.h"
#include "telemetry/attribution/attribution.h"
#include "telemetry/introspect/format.h"

namespace ppssd::core {
namespace {

namespace fs = std::filesystem;
namespace intro = telemetry::introspect;

std::vector<ExperimentSpec> two_cells() {
  std::vector<ExperimentSpec> specs;
  for (const char* scheme : {"Baseline", "IPU"}) {
    ExperimentSpec s;
    s.scheme = scheme;
    s.trace = "ts0";
    s.total_blocks = 1024;
    s.trace_scale = 0.002;
    specs.push_back(s);
  }
  return specs;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(RunnerObserve, EveryCellKeepsItsOwnArtifacts) {
  const std::string dir = ::testing::TempDir() + "ppssd_runner_observe";
  const std::string cache = dir + "_cache";
  fs::remove_all(dir);
  fs::remove_all(cache);
  setenv("PPSSD_OBSERVE", "attrib,snapshot,flight,metrics", 1);
  setenv("PPSSD_OBSERVE_DIR", dir.c_str(), 1);

  const auto specs = two_cells();
  Runner runner(cache);
  std::vector<std::uintmax_t> snap_bytes;
  for (int run = 0; run < 2; ++run) {
    // The second run must re-simulate (a cache hit would write nothing)
    // and replace, not append to, the first run's files.
    const auto results = runner.run_all(specs, 2);
    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::string stem = dir + "/" + specs[i].key();
      SCOPED_TRACE(stem + " run " + std::to_string(run));

      telemetry::attribution::LedgerFile ledger;
      std::string error;
      ASSERT_TRUE(telemetry::attribution::load_ledger(stem + ".ledger.bin",
                                                      &ledger, &error))
          << error;
      EXPECT_EQ(ledger.records.size(), results[i].reads + results[i].writes);
      for (const auto& rec : ledger.records) {
        ASSERT_EQ(rec.component_sum(), rec.latency()) << "request " << rec.id;
      }

      intro::SnapshotFile snaps;
      ASSERT_TRUE(intro::load_snapshots(stem + ".snap.bin", &snaps, &error))
          << error;
      ASSERT_EQ(snaps.streams.size(), 1u);
      EXPECT_EQ(snaps.streams[0].info.scheme, specs[i].scheme);
      EXPECT_FALSE(snaps.streams[0].frames.empty());
      const auto bytes = fs::file_size(stem + ".snap.bin");
      if (run == 0) {
        snap_bytes.push_back(bytes);
      } else {
        EXPECT_EQ(bytes, snap_bytes[i]);
      }

      intro::FlightFile flight;
      ASSERT_TRUE(intro::load_flight(stem + ".flight.bin", &flight, &error))
          << error;
      EXPECT_GT(flight.recorded, 0u);

      const std::string metrics = slurp(stem + ".metrics.csv");
      EXPECT_NE(metrics.find("scheme=" + specs[i].scheme), std::string::npos);
      const std::string& other = specs[1 - i].scheme;
      EXPECT_EQ(metrics.find("scheme=" + other), std::string::npos);
    }
  }
  unsetenv("PPSSD_OBSERVE");
  unsetenv("PPSSD_OBSERVE_DIR");
  fs::remove_all(dir);
  fs::remove_all(cache);
}

}  // namespace
}  // namespace ppssd::core
