// The PPSSD_OBSERVE sink parser and the per-stem artifact naming the
// observer bundle is configured from.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/check.h"
#include "telemetry/telemetry.h"

namespace ppssd::telemetry {
namespace {

/// Thrown from the check-failure hook, so a failing PPSSD_CHECK unwinds
/// into the test instead of aborting it.
struct CheckFailed {};
void throw_check_failed(void* /*ctx*/) { throw CheckFailed{}; }

/// parse_sinks(list) with a throwing hook armed; returns what the
/// failing check printed, or "" when the list parsed.
std::string parse_failure(const char* list) {
  detail::set_check_failure_hook(&throw_check_failed, nullptr);
  ::testing::internal::CaptureStderr();
  bool failed = false;
  try {
    (void)parse_sinks(list);
  } catch (const CheckFailed&) {
    failed = true;
  }
  const std::string err = ::testing::internal::GetCapturedStderr();
  detail::set_check_failure_hook(nullptr, nullptr);
  return failed ? err : "";
}

TEST(ObserveSinks, ParsesEveryNameAndSkipsBlanks) {
  EXPECT_EQ(parse_sinks("trace"), kSinkTrace);
  EXPECT_EQ(parse_sinks(" attrib , trace,,"), kSinkAttrib | kSinkTrace);
  EXPECT_EQ(parse_sinks("trace,metrics,timeseries,attrib,snapshot,flight"),
            kSinkTrace | kSinkMetrics | kSinkTimeseries | kSinkAttrib |
                kSinkSnapshot | kSinkFlight);
  EXPECT_EQ(parse_sinks("flight,flight"), kSinkFlight);
}

TEST(ObserveSinks, EmptyOrUnsetMeansOff) {
  EXPECT_EQ(parse_sinks(""), 0u);
  EXPECT_EQ(parse_sinks(" , "), 0u);

  unsetenv("PPSSD_OBSERVE");
  EXPECT_EQ(sinks_from_env(), 0u);
  EXPECT_FALSE(TelemetryOptions::from_env("cell").any());
  EXPECT_EQ(Telemetry::from_env("cell"), nullptr);

  setenv("PPSSD_OBSERVE", "", 1);
  EXPECT_EQ(sinks_from_env(), 0u);
  EXPECT_EQ(Telemetry::from_env("cell"), nullptr);
  unsetenv("PPSSD_OBSERVE");
}

TEST(ObserveSinks, UnknownNameFailsListingTheValidOnes) {
  const std::string err = parse_failure("trace,snapshots");
  EXPECT_NE(err.find("unknown sink 'snapshots'"), std::string::npos) << err;
  EXPECT_NE(err.find("trace, metrics, timeseries, attrib, snapshot, flight"),
            std::string::npos)
      << err;
  // Names are exact: no case folding, no prefixes.
  EXPECT_FALSE(parse_failure("Trace").empty());
  EXPECT_FALSE(parse_failure("snap").empty());
  EXPECT_TRUE(parse_failure("trace").empty());
}

// An observe dir that cannot be created (here: below a regular file)
// must fail the run naming the knob, not lose every artifact silently.
TEST(ObserveSinks, UncreatableDirFailsNamingTheKnob) {
  const std::string file = ::testing::TempDir() + "observe_not_a_dir";
  std::ofstream(file) << "x";
  setenv("PPSSD_OBSERVE", "trace,attrib", 1);
  setenv("PPSSD_OBSERVE_DIR", (file + "/sub").c_str(), 1);
  detail::set_check_failure_hook(&throw_check_failed, nullptr);
  ::testing::internal::CaptureStderr();
  bool failed = false;
  try {
    (void)Telemetry::from_env("cell");
  } catch (const CheckFailed&) {
    failed = true;
  }
  const std::string err = ::testing::internal::GetCapturedStderr();
  detail::set_check_failure_hook(nullptr, nullptr);
  unsetenv("PPSSD_OBSERVE");
  unsetenv("PPSSD_OBSERVE_DIR");
  std::remove(file.c_str());
  EXPECT_TRUE(failed);
  EXPECT_NE(err.find("PPSSD_OBSERVE_DIR"), std::string::npos) << err;
  EXPECT_NE(err.find(file + "/sub"), std::string::npos) << err;
}

// Inside a dir that exists, a sink whose file cannot be opened degrades
// to off without failing the run, but names the file on stderr.
TEST(ObserveSinks, SinkThatCannotOpenWarnsNamingTheFile) {
  const std::string dir = ::testing::TempDir() + "observe_missing_dir";
  const TelemetryOptions opts = TelemetryOptions::for_sinks(
      kSinkTrace | kSinkMetrics | kSinkTimeseries | kSinkAttrib, dir, "c");
  ::testing::internal::CaptureStderr();
  {
    Telemetry tel(opts);
    EXPECT_EQ(tel.trace(), nullptr);
    EXPECT_EQ(tel.sampler(), nullptr);
    tel.finish(0);
  }
  const std::string err = ::testing::internal::GetCapturedStderr();
  for (const std::string* path :
       {&opts.trace_path, &opts.metrics_path, &opts.timeseries_path,
        &opts.attribution_path}) {
    EXPECT_NE(err.find("cannot open " + *path), std::string::npos) << err;
  }
}

TEST(ObserveSinks, ForSinksNamesEachFileByStem) {
  const TelemetryOptions all = TelemetryOptions::for_sinks(
      kSinkTrace | kSinkMetrics | kSinkTimeseries | kSinkAttrib |
          kSinkSnapshot | kSinkFlight,
      "d", "IPU-ts0");
  EXPECT_EQ(all.trace_path, "d/IPU-ts0.trace.json");
  EXPECT_EQ(all.metrics_path, "d/IPU-ts0.metrics.csv");
  EXPECT_EQ(all.timeseries_path, "d/IPU-ts0.timeseries.csv");
  EXPECT_EQ(all.attribution_path, "d/IPU-ts0.ledger.bin");
  EXPECT_EQ(all.snapshot_path, "d/IPU-ts0.snap.bin");
  EXPECT_EQ(all.flight_path, "d/IPU-ts0.flight.bin");
  EXPECT_EQ(all.snapshot_every_ns, kSnapshotEveryNs);
  EXPECT_EQ(all.flight_capacity, kFlightEvents);
  EXPECT_EQ(all.sample_every_requests, 0u);  // the sampler's 1000

  const TelemetryOptions one = TelemetryOptions::for_sinks(kSinkAttrib, "d", "c");
  EXPECT_TRUE(one.any());
  EXPECT_EQ(one.attribution_path, "d/c.ledger.bin");
  EXPECT_TRUE(one.trace_path.empty());
  EXPECT_TRUE(one.snapshot_path.empty());
  EXPECT_EQ(one.snapshot_every_ns, 0u);
  EXPECT_EQ(one.flight_capacity, 0u);

  EXPECT_FALSE(TelemetryOptions::for_sinks(0, "d", "c").any());
}

}  // namespace
}  // namespace ppssd::telemetry
