#include "host.h"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <thread>
#include <vector>

#include "common/check.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

extern char** environ;

namespace simbench {

double current_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {
volatile std::uint32_t probe_sink;
}  // namespace

double memory_probe_ns() {
  // a[x] is the next index of a full-period LCG modulo 2^21, so the chase
  // visits every entry in an order no prefetcher follows.
  constexpr std::uint32_t kMask = (std::uint32_t{1} << 21) - 1;
  constexpr std::uint32_t kLoads = std::uint32_t{1} << 20;
  std::vector<std::uint32_t> a(std::size_t{kMask} + 1);
  for (std::uint32_t x = 0; x <= kMask; ++x) {
    a[x] = (x * 1664525u + 1013904223u) & kMask;
  }
  std::uint32_t x = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint32_t i = 0; i < kLoads; ++i) x = a[x];
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  probe_sink = x;  // the loads must happen
  return ns / kLoads;
}

namespace {
std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}
}  // namespace

HostRecord host_record() {
  HostRecord h;
  h.nproc = std::thread::hardware_concurrency();
  h.cpu_model = cpu_brand();
#if defined(__clang__)
  h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  h.compiler = std::string("gcc ") + __VERSION__;
#else
  h.compiler = "unknown";
#endif
#if defined(__OPTIMIZE__)
  h.optimized = true;
#endif
#if defined(PPSSD_ENABLE_DCHECKS)
  h.dchecks = true;
#endif
  return h;
}

std::vector<std::string> HostRecord::flags() const {
  std::vector<std::string> out;
  if (!optimized) out.emplace_back("built without optimisation");
  if (dchecks) out.emplace_back("built with PPSSD_DCHECK assertions on");
  return out;
}

std::vector<std::string> scrub_environment() {
  std::vector<std::string> names;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string_view kv(*e);
    const std::string_view name = kv.substr(0, kv.find('='));
    if (name.rfind("PPSSD_", 0) == 0 || name == "REPRO_FULL") {
      names.emplace_back(name);
    }
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  return names;
}

}  // namespace simbench
