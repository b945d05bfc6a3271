// Replay a block I/O trace against a chosen cache scheme and print a
// full device report.
//
//   ./trace_replay <scheme> <trace>            synthetic paper profile
//   ./trace_replay <scheme> --file <path.csv>  real MSR-format trace file
//   options: --scale f      fraction of the trace to replay (default 0.1)
//            --blocks n     device size in blocks (default 16384)
//            --export path  also write the replayed trace as MSR CSV
//
// e.g.  ./trace_replay ipu ts0 --scale 0.05
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <memory>
#include <string>

#include "sim/replayer.h"
#include "sim/ssd.h"
#include "telemetry/telemetry.h"
#include "trace/msr_parser.h"
#include "trace/profiles.h"
#include "trace/synthetic.h"
#include "trace/writer.h"

#include <fstream>

using namespace ppssd;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: trace_replay <scheme> <trace-name|--file "
               "path> [--scale f] [--blocks n]\n"
               "known schemes: %s\n",
               ppssd::cache::SchemeRegistry::instance().known_names().c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage();

  // Any registered scheme name works (case-insensitive); a typo exits
  // here with the usage line instead of aborting inside the registry.
  const std::string scheme_arg = argv[1];
  if (cache::SchemeRegistry::instance().find(scheme_arg) == nullptr) {
    usage();
    return 2;
  }

  std::string trace_name;
  std::string file_path;
  std::string export_path;
  double scale = 0.1;
  std::uint32_t blocks = 16384;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--file" && i + 1 < argc) {
      file_path = argv[++i];
    } else if (arg == "--scale" && i + 1 < argc) {
      scale = std::atof(argv[++i]);
    } else if (arg == "--blocks" && i + 1 < argc) {
      blocks = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (arg == "--export" && i + 1 < argc) {
      export_path = argv[++i];
    } else if (trace_name.empty() && arg[0] != '-') {
      trace_name = arg;
    } else {
      usage();
    }
  }

  const SsdConfig cfg = SsdConfig::scaled(blocks);
  sim::Ssd ssd(cfg, scheme_arg);

  std::unique_ptr<trace::TraceSource> source;
  if (!file_path.empty()) {
    source = std::make_unique<trace::MsrTraceParser>(file_path);
  } else {
    if (trace_name.empty()) usage();
    const auto& profile = trace::profile_by_name(trace_name);
    source = std::make_unique<trace::SyntheticWorkload>(
        profile, ssd.logical_bytes(), scale);
  }

  std::printf("replaying %s on %s (%u blocks, %.1f GiB logical)...\n",
              file_path.empty() ? trace_name.c_str() : file_path.c_str(),
              ssd.scheme().name(), blocks,
              static_cast<double>(ssd.logical_bytes()) / (1 << 30));

  if (!export_path.empty()) {
    std::ofstream out(export_path);
    trace::MsrTraceWriter writer(out);
    const auto n = writer.write_all(*source);
    source->reset();
    std::printf("exported %llu records to %s\n",
                static_cast<unsigned long long>(n), export_path.c_str());
  }

  // PPSSD_OBSERVE (see README) captures this replay's artifacts as
  // <PPSSD_OBSERVE_DIR>/trace_replay.*; unset, it costs nothing.
  const std::unique_ptr<telemetry::Telemetry> tel =
      telemetry::Telemetry::from_env("trace_replay");
  if (tel) ssd.attach_telemetry(tel.get());

  sim::Replayer replayer(ssd);
  const auto result = replayer.replay(*source);
  if (tel) tel->finish(result.makespan);

  const auto& m = ssd.scheme().metrics();
  const auto& c = ssd.scheme().array().counters();
  const auto fp = ssd.scheme().footprint();

  std::printf("\n== replay summary (%llu requests) ==\n",
              static_cast<unsigned long long>(result.requests));
  std::printf("avg latency   read %.3f ms   write %.3f ms   overall %.3f ms\n",
              result.latency.avg_read_ms(), result.latency.avg_write_ms(),
              result.latency.avg_overall_ms());
  std::printf("p99 latency   read %.3f ms   write %.3f ms\n",
              result.latency.read_p99_ms(), result.latency.write_p99_ms());
  std::printf("read raw BER  %.3e\n", m.read_ber.mean());
  std::printf("writes        SLC %llu subpages, MLC %llu subpages\n",
              static_cast<unsigned long long>(m.slc_subpages_written),
              static_cast<unsigned long long>(m.mlc_subpages_written));
  std::printf("IPU levels    Work %llu  Monitor %llu  Hot %llu (in-place %llu)\n",
              static_cast<unsigned long long>(m.level_subpages[1]),
              static_cast<unsigned long long>(m.level_subpages[2]),
              static_cast<unsigned long long>(m.level_subpages[3]),
              static_cast<unsigned long long>(m.intra_page_updates));
  std::printf("GC            SLC %llu passes (util %.1f%%), MLC %llu passes\n",
              static_cast<unsigned long long>(m.slc_gc_count),
              m.gc_utilization.mean() * 100.0,
              static_cast<unsigned long long>(m.mlc_gc_count));
  std::printf("erases        SLC %llu, MLC %llu\n",
              static_cast<unsigned long long>(c.slc_erases),
              static_cast<unsigned long long>(c.mlc_erases));
  std::printf("mapping table %.2f MiB (+%.2f%% vs page map)\n",
              static_cast<double>(fp.mapping_total()) / (1 << 20),
              (fp.normalized() - 1.0) * 100.0);

  const auto& usage = ssd.controller().usage();
  std::printf("chip time (s)  fg: read %.2f prog %.2f | bg: read %.2f prog "
              "%.2f erase %.2f\n",
              ns_to_ms(usage.read_fg) / 1e3, ns_to_ms(usage.program_fg) / 1e3,
              ns_to_ms(usage.read_bg) / 1e3, ns_to_ms(usage.program_bg) / 1e3,
              ns_to_ms(usage.erase_bg) / 1e3);
  {
    const auto& occ = ssd.controller().chip_occupancy();
    SimTime lo = occ[0], hi = occ[0];
    for (const auto t : occ) {
      lo = std::min(lo, t);
      hi = std::max(hi, t);
    }
    std::printf("chip balance   busiest %.2fs, idlest %.2fs over %.2fs "
                "makespan\n",
                ns_to_ms(hi) / 1e3, ns_to_ms(lo) / 1e3,
                ns_to_ms(result.makespan) / 1e3);
  }

  ssd.scheme().check_consistency();
  std::printf("consistency check: OK\n");
  return 0;
}
