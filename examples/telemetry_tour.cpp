// Telemetry tour: replay a slice of the ts0 workload with the trace,
// metrics and time-series sinks on, then read the artifacts back and
// summarise them.
//
//   ./telemetry_tour [out_dir]     writes out_dir/tour.{trace.json,
//                                  metrics.csv,timeseries.csv}
//
// Load the trace JSON in Perfetto (https://ui.perfetto.dev) to see host
// requests, per-chip flash ops and GC episodes on parallel timeline
// tracks.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/replayer.h"
#include "sim/ssd.h"
#include "telemetry/json.h"
#include "telemetry/telemetry.h"
#include "trace/profiles.h"
#include "trace/synthetic.h"

using namespace ppssd;

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : ".";
  telemetry::TelemetryOptions opts = telemetry::TelemetryOptions::for_sinks(
      telemetry::kSinkTrace | telemetry::kSinkMetrics |
          telemetry::kSinkTimeseries,
      dir, "tour");
  opts.sample_every_requests = 500;
  telemetry::Telemetry tel(opts);

  sim::Ssd ssd(SsdConfig::scaled(1024), "IPU");
  ssd.attach_telemetry(&tel);

  const auto& profile = trace::profile_by_name("ts0");
  trace::SyntheticWorkload workload(profile, ssd.logical_bytes(), 0.01);
  sim::Replayer replayer(ssd);
  const auto result = replayer.replay(workload, 5000);
  tel.finish(result.makespan);
  ssd.attach_telemetry(nullptr);

  std::printf("replayed %llu requests of %s (%.2f ms simulated)\n",
              static_cast<unsigned long long>(result.requests),
              profile.name.c_str(), ns_to_ms(result.makespan));
  std::printf("registry instruments: %zu\n",
              tel.registry().instrument_count());

  // Round-trip the trace: a Chrome trace that does not parse as JSON is a
  // bug, not a formatting nit.
  {
    std::ifstream in(opts.trace_path);
    std::ostringstream buf;
    buf << in.rdbuf();
    const auto doc = telemetry::json::parse(buf.str());
    if (!doc || doc->kind != telemetry::json::Value::Kind::kObject) {
      std::fprintf(stderr, "trace %s did not parse back as JSON\n",
                   opts.trace_path.c_str());
      return 1;
    }
    const auto* events = doc->find("traceEvents");
    std::printf("trace artifact: %s (%zu events, valid JSON)\n",
                opts.trace_path.c_str(),
                events ? events->array.size() : 0);
  }

  // Metrics CSV: every non-zero series of the run.
  {
    std::ifstream in(opts.metrics_path);
    std::string line;
    std::size_t series = 0;
    while (std::getline(in, line)) ++series;
    std::printf("metrics artifact: %s (%zu lines incl. header)\n",
                opts.metrics_path.c_str(), series);
  }

  // Time series: one row per sampling window.
  {
    std::ifstream in(opts.timeseries_path);
    std::string line;
    std::size_t rows = 0;
    while (std::getline(in, line)) ++rows;
    std::printf("time-series artifact: %s (%zu windows)\n",
                opts.timeseries_path.c_str(), rows > 0 ? rows - 1 : 0);
  }
  return 0;
}
