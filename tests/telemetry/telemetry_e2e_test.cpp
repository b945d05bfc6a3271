// End-to-end: attach a Telemetry bundle to a real Ssd, replay a slice of
// a synthetic workload, and validate every artifact the way a user would
// consume it (parse the trace, read the CSVs back).
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "sim/replayer.h"
#include "sim/ssd.h"
#include "telemetry/json.h"
#include "telemetry/telemetry.h"
#include "trace/profiles.h"
#include "trace/synthetic.h"

namespace ppssd {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::size_t line_count(const std::string& text) {
  std::size_t n = 0;
  for (const char c : text) n += c == '\n';
  return n;
}

TEST(TelemetryE2e, ReplayProducesParseableTraceMetricsAndWindows) {
  const std::string dir = ::testing::TempDir();
  telemetry::TelemetryOptions opts;
  opts.trace_path = dir + "/e2e.trace.json";
  opts.metrics_path = dir + "/e2e.metrics.csv";
  opts.timeseries_path = dir + "/e2e.timeseries.csv";
  opts.sample_every_requests = 100;

  {
    telemetry::Telemetry tel(opts);
    sim::Ssd ssd(SsdConfig::scaled(1024), "IPU");
    ssd.attach_telemetry(&tel);
    trace::SyntheticWorkload workload(trace::profile_by_name("ts0"),
                                      ssd.logical_bytes(), 0.01);
    sim::Replayer replayer(ssd);
    const auto result = replayer.replay(workload, 300);
    ASSERT_EQ(result.requests, 300u);
    tel.finish(result.makespan);
    ssd.attach_telemetry(nullptr);
  }

  // Trace: must round-trip through the JSON parser and contain events
  // from several subsystems on their own lanes.
  const auto doc = telemetry::json::parse(slurp(opts.trace_path));
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  const auto* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_GT(events->array.size(), 100u);
  bool saw_host = false;
  bool saw_flash = false;
  for (const auto& e : events->array) {
    const auto* cat = e.find("cat");
    if (cat == nullptr) continue;
    saw_host = saw_host || cat->string == "host";
    saw_flash = saw_flash || cat->string == "flash";
  }
  EXPECT_TRUE(saw_host);
  EXPECT_TRUE(saw_flash);

  // Metrics CSV: header + at least ten series from the instrumented run.
  const std::string metrics = slurp(opts.metrics_path);
  EXPECT_EQ(metrics.substr(0, metrics.find('\n')), "series,value");
  EXPECT_GE(line_count(metrics), 11u);
  EXPECT_NE(metrics.find("cache_writes"), std::string::npos);
  EXPECT_NE(metrics.find("flash_ops"), std::string::npos);
  EXPECT_NE(metrics.find("host_latency_ms"), std::string::npos);

  // Time series: 300 requests at 100/window = 3 data rows.
  const std::string ts = slurp(opts.timeseries_path);
  EXPECT_EQ(ts.substr(0, ts.find(',')), "window_end_ns");
  EXPECT_GE(line_count(ts), 4u);
}

TEST(TelemetryE2e, RegistryOnlyBundleCountsWithoutArtifacts) {
  telemetry::Telemetry tel;  // in-memory: registry, no files
  sim::Ssd ssd(SsdConfig::scaled(1024), "MGA");
  ssd.attach_telemetry(&tel);
  trace::SyntheticWorkload workload(trace::profile_by_name("ts0"),
                                    ssd.logical_bytes(), 0.01);
  sim::Replayer replayer(ssd);
  replayer.replay(workload, 200);
  ssd.attach_telemetry(nullptr);

  // cache_writes{result=hit|miss} partitions every host-written subpage.
  std::uint64_t cache_writes = 0;
  for (const auto& s : tel.registry().snapshot()) {
    if (s.series.rfind("cache_writes", 0) == 0) {
      cache_writes += static_cast<std::uint64_t>(s.value);
    }
  }
  EXPECT_GT(cache_writes, 0u);
  EXPECT_GE(tel.registry().instrument_count(), 10u);
}

TEST(TelemetryE2e, ObserveEnvWritesUncappedTraceUnderTheStem) {
  // The PPSSD_OBSERVE path end-to-end: env → TelemetryOptions → a trace
  // at <PPSSD_OBSERVE_DIR>/<stem>.trace.json with every category and no
  // event cap (trace_log_test covers TraceLog's cap). The artifact must
  // stay parseable and its trace_closed metadata must report no drops.
  const std::string dir = ::testing::TempDir() + "ppssd_observe_e2e";
  std::filesystem::remove_all(dir);
  ::setenv("PPSSD_OBSERVE", "trace", 1);
  ::setenv("PPSSD_OBSERVE_DIR", dir.c_str(), 1);
  auto tel = telemetry::Telemetry::from_env("cell");
  ::unsetenv("PPSSD_OBSERVE");
  ::unsetenv("PPSSD_OBSERVE_DIR");
  ASSERT_NE(tel, nullptr);
  EXPECT_EQ(tel->sampler(), nullptr);
  EXPECT_EQ(tel->attribution(), nullptr);
  EXPECT_EQ(tel->flight(), nullptr);

  std::uint64_t emitted = 0;
  {
    sim::Ssd ssd(SsdConfig::scaled(1024), "IPU");
    ssd.attach_telemetry(tel.get());
    trace::SyntheticWorkload workload(trace::profile_by_name("ts0"),
                                      ssd.logical_bytes(), 0.01);
    sim::Replayer replayer(ssd);
    const auto result = replayer.replay(workload, 300);
    tel->finish(result.makespan);
    emitted = tel->trace()->emitted();
    EXPECT_EQ(tel->trace()->dropped(), 0u);
    ssd.attach_telemetry(nullptr);
  }
  EXPECT_GT(emitted, 300u);  // at least one host span per request

  const auto doc = telemetry::json::parse(slurp(dir + "/cell.trace.json"));
  ASSERT_TRUE(doc.has_value() && doc->is_object());
  const auto& events = doc->find("traceEvents")->array;
  ASSERT_EQ(events.size(), emitted + 1);  // + trace_closed
  const auto& meta = events.back();
  ASSERT_EQ(meta.find("name")->string, "trace_closed");
  EXPECT_DOUBLE_EQ(meta.find("args")->find("emitted")->number,
                   static_cast<double>(emitted));
  EXPECT_DOUBLE_EQ(meta.find("args")->find("dropped")->number, 0.0);
  std::filesystem::remove_all(dir);
}

TEST(TelemetryE2e, DetachedSsdReplaysIdenticallyToNeverAttached) {
  // The null-handle contract: after detach, behaviour (and results) must
  // be indistinguishable from a never-instrumented run.
  auto run = [](bool attach_then_detach) {
    sim::Ssd ssd(SsdConfig::scaled(1024), "IPU");
    if (attach_then_detach) {
      telemetry::Telemetry tel;
      ssd.attach_telemetry(&tel);
      ssd.attach_telemetry(nullptr);
    }
    trace::SyntheticWorkload workload(trace::profile_by_name("ts0"),
                                      ssd.logical_bytes(), 0.01);
    sim::Replayer replayer(ssd);
    return replayer.replay(workload, 200).makespan;
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace ppssd
