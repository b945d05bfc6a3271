// Explain tail latency from a binary attribution ledger.
//
//   latency_explain <ledger.bin> [--top <k>] [--trace <trace.json>]
//
// Reads the per-request blame ledger written by the attrib sink of
// PPSSD_OBSERVE (<cell>.ledger.bin; see src/telemetry/attribution) and
// prints:
//
//  * overall latency percentiles (p50/p95/p99/p999/max);
//  * the additive component breakdown — total ns, share of all measured
//    latency, and the p99 per-request contribution of each component —
//    so "where do the ticks go" is answerable at a glance;
//  * the top-k slowest requests, each decomposed into its nonzero
//    components plus the single worst blocking op (class, op id,
//    resource and resource id) — the "why was p999 slow" report;
//  * an independent re-check of the conservation invariant: for every
//    record, components must sum exactly (in ticks) to finish - arrival.
//
// With --trace, the Chrome-JSON trace is parsed with the in-repo strict
// parser and summarized (event count, truncation marker), so a ledger
// and its companion trace can be sanity-checked together.
//
// Exit status (also printed by --help): 0 when the ledger loads and
// every record conserves, 1 on a usage error, 2 on any conservation
// failure, 3 when an input file is unreadable or malformed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.h"
#include "telemetry/attribution/attribution.h"
#include "telemetry/json.h"

namespace {

using ppssd::SimTime;
using ppssd::telemetry::attribution::kComponentCount;
using ppssd::telemetry::attribution::LedgerFile;
using ppssd::telemetry::attribution::RequestBlame;

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s <ledger.bin> [--top <k>] [--trace <trace.json>]\n"
               "exit codes:\n"
               "  0  ledger loaded and every record conserves\n"
               "  1  usage error\n"
               "  2  conservation failure (components != latency)\n"
               "  3  unreadable or malformed input file\n",
               argv0);
}

int usage(const char* argv0) {
  print_usage(stderr, argv0);
  return 1;
}

double percentile(std::vector<SimTime>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double idx = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return static_cast<double>(sorted[lo]) * (1.0 - frac) +
         static_cast<double>(sorted[hi]) * frac;
}

double us(double ns) { return ns / 1e3; }

const char* op_name(ppssd::OpType op) {
  return op == ppssd::OpType::kRead ? "read" : "write";
}

int summarize_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "latency_explain: cannot read trace %s\n",
                 path.c_str());
    return 3;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const auto doc = ppssd::telemetry::json::parse(buf.str());
  if (!doc || !doc->is_object()) {
    std::fprintf(stderr, "latency_explain: trace %s is not valid JSON\n",
                 path.c_str());
    return 3;
  }
  const auto* events = doc->find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "latency_explain: trace %s has no traceEvents\n",
                 path.c_str());
    return 3;
  }
  bool closed = false;
  for (const auto& e : events->array) {
    const auto* name = e.find("name");
    if (name != nullptr && name->is_string() && name->string == "trace_closed")
      closed = true;
  }
  std::printf("trace: %s — %zu events, %s\n", path.c_str(),
              events->array.size(),
              closed ? "complete (trace_closed present)"
                     : "TRUNCATED (no trace_closed marker)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string ledger_path;
  std::string trace_path;
  std::size_t top_k = 5;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      print_usage(stdout, argv[0]);
      return 0;
    } else if (std::strcmp(argv[i], "--top") == 0) {
      if (i + 1 >= argc) return usage(argv[0]);
      const auto k = ppssd::parse_number<std::size_t>(argv[++i]);
      if (!k) {
        std::fprintf(stderr, "latency_explain: --top takes a count, got '%s'\n",
                     argv[i]);
        return usage(argv[0]);
      }
      top_k = *k;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) return usage(argv[0]);
      trace_path = argv[++i];
    } else if (ledger_path.empty()) {
      ledger_path = argv[i];
    } else {
      return usage(argv[0]);
    }
  }
  if (ledger_path.empty()) return usage(argv[0]);

  LedgerFile ledger;
  std::string error;
  if (!ppssd::telemetry::attribution::load_ledger(ledger_path, &ledger,
                                                  &error)) {
    std::fprintf(stderr, "latency_explain: %s: %s\n", ledger_path.c_str(),
                 error.c_str());
    return 3;
  }
  std::printf("ledger: %s — version %u, %zu requests, %zu components\n",
              ledger_path.c_str(), ledger.version, ledger.records.size(),
              ledger.component_names.size());

  if (!trace_path.empty()) {
    const int rc = summarize_trace(trace_path);
    if (rc != 0) return rc;
  }

  if (ledger.records.empty()) {
    std::printf("conservation: OK (0/0 requests exact)\n");
    return 0;
  }

  // ---- overall latency percentiles ---------------------------------------
  std::vector<SimTime> lat;
  lat.reserve(ledger.records.size());
  for (const RequestBlame& r : ledger.records) lat.push_back(r.latency());
  std::sort(lat.begin(), lat.end());
  std::printf(
      "\nlatency (us): p50 %.2f  p95 %.2f  p99 %.2f  p999 %.2f  max %.2f\n",
      us(percentile(lat, 0.50)), us(percentile(lat, 0.95)),
      us(percentile(lat, 0.99)), us(percentile(lat, 0.999)),
      us(static_cast<double>(lat.back())));

  // ---- component breakdown ------------------------------------------------
  const std::size_t ncomp =
      std::min<std::size_t>(ledger.component_names.size(), kComponentCount);
  double grand_total = 0.0;
  std::vector<double> totals(ncomp, 0.0);
  for (const RequestBlame& r : ledger.records) {
    for (std::size_t c = 0; c < ncomp; ++c) {
      totals[c] += static_cast<double>(r.comp[c]);
      grand_total += static_cast<double>(r.comp[c]);
    }
  }
  std::printf("\n%-18s %14s %7s %12s\n", "component", "total_us", "share",
              "p99_us/req");
  for (std::size_t c = 0; c < ncomp; ++c) {
    if (totals[c] == 0.0) continue;
    std::vector<SimTime> per_req;
    per_req.reserve(ledger.records.size());
    for (const RequestBlame& r : ledger.records) per_req.push_back(r.comp[c]);
    std::sort(per_req.begin(), per_req.end());
    std::printf("%-18s %14.2f %6.1f%% %12.2f\n",
                ledger.component_names[c].c_str(), us(totals[c]),
                grand_total > 0.0 ? 100.0 * totals[c] / grand_total : 0.0,
                us(percentile(per_req, 0.99)));
  }

  // ---- top-k worst requests ----------------------------------------------
  std::vector<const RequestBlame*> worst;
  worst.reserve(ledger.records.size());
  for (const RequestBlame& r : ledger.records) worst.push_back(&r);
  const std::size_t k = std::min(top_k, worst.size());
  std::partial_sort(worst.begin(), worst.begin() + static_cast<long>(k),
                    worst.end(),
                    [](const RequestBlame* a, const RequestBlame* b) {
                      return a->latency() > b->latency();
                    });
  std::printf("\ntop %zu slowest requests:\n", k);
  for (std::size_t i = 0; i < k; ++i) {
    const RequestBlame& r = *worst[i];
    std::printf("  #%llu %s arrival=%.2fus latency=%.2fus (%u fg ops)\n",
                static_cast<unsigned long long>(r.id), op_name(r.op),
                us(static_cast<double>(r.arrival)),
                us(static_cast<double>(r.latency())), r.fg_ops);
    for (std::size_t c = 0; c < ncomp; ++c) {
      if (r.comp[c] == 0) continue;
      std::printf("      %-18s %10.2f us (%.1f%%)\n",
                  ledger.component_names[c].c_str(),
                  us(static_cast<double>(r.comp[c])),
                  r.latency() > 0
                      ? 100.0 * static_cast<double>(r.comp[c]) /
                            static_cast<double>(r.latency())
                      : 0.0);
    }
    if (r.blocked_ns > 0) {
      const std::size_t cls = static_cast<std::size_t>(r.blocker_cls);
      const char* cls_name = cls < ledger.class_names.size()
                                 ? ledger.class_names[cls].c_str()
                                 : "?";
      const char* res =
          r.blocker_res ==
                  ppssd::telemetry::attribution::Resource::kChannel
              ? "channel"
              : (r.blocker_res ==
                         ppssd::telemetry::attribution::Resource::kErase
                     ? "erase"
                     : "lane");
      std::printf(
          "      worst blocker: %s op #%llu on %s %u (%.2f us blocked)\n",
          cls_name, static_cast<unsigned long long>(r.blocker_op), res,
          r.blocker_chip, us(static_cast<double>(r.blocked_ns)));
    }
  }

  // ---- independent conservation re-check ---------------------------------
  std::size_t exact = 0;
  for (const RequestBlame& r : ledger.records) {
    SimTime sum = 0;
    for (std::size_t c = 0; c < kComponentCount; ++c) sum += r.comp[c];
    if (sum == r.latency()) ++exact;
  }
  if (exact == ledger.records.size()) {
    std::printf("\nconservation: OK (%zu/%zu requests exact)\n", exact,
                ledger.records.size());
    return 0;
  }
  std::printf("\nconservation: FAILED (%zu/%zu requests exact)\n", exact,
              ledger.records.size());
  return 2;
}
