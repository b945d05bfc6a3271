// simbench: the repository benchmark.
//
//   simbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//   simbench --list
//
// Runs one untraced warm-up repeat of the workload's cells, then repeats
// them for about S seconds (at least kMinRepeats untraced repeats, or one
// traced repeat), prints a human-readable report, and ends with one JSON
// line:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// holding the median of each metric over the repeats after the warm-up:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1.
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "host.h"

namespace {

using namespace simbench;
using Clock = std::chrono::steady_clock;

/// Untraced repeats per run, whatever --seconds says: setup_s and the
/// host timings are medians over at least this many samples.
constexpr std::size_t kMinRepeats = 3;

struct Options {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 10.0;
  bool traced = false;
  bool smoke = false;
  bool list = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "simbench: %s\n"
               "usage: simbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--smoke] | --list\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || *s == '-') {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = parse_u64(value(), "--seed");
    } else if (a == "--seconds") {
      const char* v = value();
      char* end = nullptr;
      o.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(o.seconds >= 0.0)) {
        usage("bad value for --seconds");
      }
    } else if (a == "--trace") {
      const std::uint64_t t = parse_u64(value(), "--trace");
      if (t > 1) usage("--trace takes 0 or 1");
      o.traced = t == 1;
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--list") {
      o.list = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  return o;
}

void print_host(const std::vector<std::string>& scrubbed) {
  const HostRecord h = host_record();
  std::printf("host: nproc=%u cpu=\"%s\" compiler=\"%s\" optimized=%d "
              "dchecks=%d\n",
              h.nproc, h.cpu_model.c_str(), h.compiler.c_str(),
              h.optimized ? 1 : 0, h.dchecks ? 1 : 0);
  for (const std::string& f : h.flags()) {
    std::printf("WARNING: %s; timings are not representative\n", f.c_str());
  }
  for (const std::string& n : scrubbed) {
    std::printf("note: ignored inherited %s (the benchmark measures the "
                "default sequential path)\n",
                n.c_str());
  }
}

/// A finite JSON number with all its digits.
std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (opt.list) {
    for (const std::string& n : workload_names()) {
      std::printf("%s\n", n.c_str());
    }
    return 0;
  }
  if (opt.workload.empty()) usage("--workload is required");
  const std::vector<std::string> scrubbed = scrub_environment();
  const std::optional<Workload> w =
      find_workload(opt.workload, opt.seed, opt.smoke);
  if (!w) usage(("unknown workload " + opt.workload).c_str());

  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  print_host(scrubbed);

  // reps[0] is the warm-up: it leaves the allocator and the caches as the
  // figure binaries see them after their first cell. Its checks count,
  // its figures do not.
  const auto start = Clock::now();
  const std::size_t min_repeats = 1 + (opt.traced ? 1 : kMinRepeats);
  std::vector<Repeat> reps;
  for (;;) {
    reps.push_back(run_repeat(*w, opt.traced && !reps.empty()));
    const Repeat& r = reps.back();
    std::printf("%s %zu: %.3f s, host probe %.1f ns/load",
                reps.size() == 1 ? "warm-up" : "repeat", reps.size() - 1,
                r.wall_seconds, r.metrics.at(kProbeMetric));
    for (std::size_t i = 0; i < r.digests.size(); ++i) {
      std::printf(" %s=%s", w->cells[i].label().c_str(), r.digests[i].c_str());
    }
    std::printf("\n");
    if (!opt.traced || reps.size() == 1) {
      for (const MetricInfo& m : end_to_end_metrics()) {
        std::printf("  %s=%.6g", m.name, r.metrics.at(m.name));
      }
      std::printf("\n ");
      for (const auto& [name, v] : r.metrics) {
        if (name.rfind(kUnscaledPrefix, 0) == 0) {
          std::printf(" %s=%.6g", name.c_str(), v);
        }
      }
      std::printf("\n");
    }
    for (const std::string& e : r.errors) {
      std::printf("  FAILED %s\n", e.c_str());
    }
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (reps.size() >= min_repeats && elapsed + r.wall_seconds > opt.seconds) {
      break;
    }
  }

  // Correct when no cell failed and every repeat reproduced the first
  // repeat's simulated statistics exactly.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  for (const Repeat& r : reps) {
    attempted += r.attempted;
    failed += r.failed;
    if (!r.errors.empty()) correct = false;
    if (r.digests != reps.front().digests) {
      correct = false;
      std::printf("FAILED simulated statistics differ between repeats\n");
    }
  }
  correct = correct && failed == 0;

  const auto& infos = opt.traced ? per_layer_metrics() : end_to_end_metrics();
  std::printf("%zu repeats of %s (%s) after the warm-up, medians:\n",
              reps.size() - 1, w->name.c_str(),
              opt.traced ? "traced" : "untraced");
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < infos.size(); ++i) {
    std::vector<double> samples;
    for (std::size_t k = 1; k < reps.size(); ++k) {
      const auto it = reps[k].metrics.find(infos[i].name);
      if (it != reps[k].metrics.end()) samples.push_back(it->second);
    }
    const double v = samples.empty() ? 0.0 : median(samples);
    std::printf("  %-28s %16.6g %s\n", infos[i].name, v, infos[i].unit);
    if (i > 0) json += ", ";
    json.append("\"").append(infos[i].name).append("\": {\"value\": ");
    json.append(json_number(v)).append(", \"unit\": \"");
    json.append(infos[i].unit).append("\"}");
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
