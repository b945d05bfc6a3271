#include "perf/bench_report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "telemetry/json.h"

namespace ppssd::perf {

namespace {

using telemetry::json::Value;

double num_or(const Value& obj, const char* key, double fallback) {
  const Value* v = obj.find(key);
  return (v != nullptr && v->is_number()) ? v->number : fallback;
}

std::string str_or(const Value& obj, const char* key) {
  const Value* v = obj.find(key);
  return (v != nullptr && v->is_string()) ? v->string : std::string();
}

void append_kv(std::ostringstream& os, const char* key, double v,
               bool first = false) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s\"%s\":%.17g", first ? "" : ",", key, v);
  os << buf;
}

}  // namespace

double BenchReport::total_wall_seconds() const {
  double total = 0.0;
  for (const BenchCell& c : cells) total += c.wall_seconds;
  return total;
}

double BenchReport::geomean_reqs_per_sec() const {
  if (cells.empty()) return 0.0;
  double log_sum = 0.0;
  std::size_t n = 0;
  for (const BenchCell& c : cells) {
    if (c.reqs_per_sec <= 0.0) continue;
    log_sum += std::log(c.reqs_per_sec);
    ++n;
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

std::string BenchReport::to_json() const {
  std::ostringstream os;
  os << "{\"schema\":" << kSchemaVersion << ",\"config\":{\"blocks\":"
     << blocks;
  append_kv(os, "scale", scale);
  os << ",\"jobs\":" << jobs << "},\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const BenchCell& c = cells[i];
    if (i != 0) os << ',';
    os << "{\"key\":\"" << c.key << "\",\"scheme\":\"" << c.scheme
       << "\",\"trace\":\"" << c.trace << "\",\"requests\":" << c.requests
       << ",\"ctrl_events\":" << c.ctrl_events;
    append_kv(os, "wall_seconds", c.wall_seconds);
    append_kv(os, "reqs_per_sec", c.reqs_per_sec);
    append_kv(os, "ctrl_events_per_sec", c.ctrl_events_per_sec);
    os << ",\"phases\":{";
    append_kv(os, "setup", c.phases.setup_seconds, /*first=*/true);
    append_kv(os, "warmup", c.phases.warmup_seconds);
    append_kv(os, "measure", c.phases.measure_seconds);
    append_kv(os, "report", c.phases.report_seconds);
    os << "}}";
  }
  os << "],\"totals\":{";
  append_kv(os, "wall_seconds", total_wall_seconds(), /*first=*/true);
  append_kv(os, "geomean_reqs_per_sec", geomean_reqs_per_sec());
  os << "}}\n";
  return os.str();
}

std::optional<BenchReport> BenchReport::from_json(const std::string& text) {
  const auto doc = telemetry::json::parse(text);
  if (!doc || !doc->is_object()) return std::nullopt;
  const Value* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_number() ||
      static_cast<int>(schema->number) != kSchemaVersion) {
    return std::nullopt;
  }
  BenchReport r;
  if (const Value* cfg = doc->find("config"); cfg != nullptr) {
    r.blocks = static_cast<std::uint32_t>(num_or(*cfg, "blocks", 0));
    r.scale = num_or(*cfg, "scale", 0.0);
    r.jobs = static_cast<std::size_t>(num_or(*cfg, "jobs", 1));
  }
  const Value* cells = doc->find("cells");
  if (cells == nullptr || !cells->is_array()) return std::nullopt;
  for (const Value& v : cells->array) {
    if (!v.is_object()) return std::nullopt;
    BenchCell c;
    c.key = str_or(v, "key");
    if (c.key.empty()) return std::nullopt;
    c.scheme = str_or(v, "scheme");
    c.trace = str_or(v, "trace");
    c.requests = static_cast<std::uint64_t>(num_or(v, "requests", 0));
    c.ctrl_events = static_cast<std::uint64_t>(num_or(v, "ctrl_events", 0));
    c.wall_seconds = num_or(v, "wall_seconds", 0.0);
    c.reqs_per_sec = num_or(v, "reqs_per_sec", 0.0);
    c.ctrl_events_per_sec = num_or(v, "ctrl_events_per_sec", 0.0);
    if (const Value* ph = v.find("phases"); ph != nullptr) {
      c.phases.setup_seconds = num_or(*ph, "setup", 0.0);
      c.phases.warmup_seconds = num_or(*ph, "warmup", 0.0);
      c.phases.measure_seconds = num_or(*ph, "measure", 0.0);
      c.phases.report_seconds = num_or(*ph, "report", 0.0);
    }
    r.cells.push_back(std::move(c));
  }
  return r;
}

std::optional<BenchReport> BenchReport::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_json(buf.str());
}

bool BenchReport::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json();
  return static_cast<bool>(out);
}

bool BenchComparison::has_regression() const {
  return std::any_of(cells.begin(), cells.end(),
                     [](const CellDelta& c) { return c.regression; });
}

bool BenchComparison::has_phase_regression() const {
  return std::any_of(cells.begin(), cells.end(),
                     [](const CellDelta& c) { return c.phase_regression(); });
}

double BenchComparison::worst_ratio() const {
  double worst = 1.0;
  for (const CellDelta& c : cells) {
    if (c.ratio > 0.0) worst = std::min(worst, c.ratio);
  }
  return worst;
}

std::string BenchComparison::render() const {
  std::ostringstream os;
  char line[256];
  std::snprintf(line, sizeof line, "%-52s %14s %14s %8s\n", "cell",
                "base req/s", "cur req/s", "ratio");
  os << line;
  for (const CellDelta& c : cells) {
    std::snprintf(line, sizeof line, "%-52s %14.1f %14.1f %7.2fx%s\n",
                  c.key.c_str(), c.base_reqs_per_sec, c.cur_reqs_per_sec,
                  c.ratio, c.regression ? "  REGRESSION" : "");
    os << line;
    // Phase breakdown lines only where a gated phase slowed down: the
    // table stays one line per healthy cell.
    const struct {
      const char* name;
      const PhaseDelta& p;
    } phases[] = {{"setup", c.setup}, {"warmup", c.warmup},
                  {"measure", c.measure}};
    for (const auto& [name, p] : phases) {
      if (!p.regression) continue;
      std::snprintf(line, sizeof line,
                    "  phase %-8s %13.2fs %13.2fs %7.2fx  REGRESSION\n",
                    name, p.base_seconds, p.cur_seconds, p.ratio);
      os << line;
    }
  }
  for (const std::string& k : only_in_baseline) {
    os << k << "  (missing from current run)\n";
  }
  for (const std::string& k : only_in_current) {
    os << k << "  (new cell, no baseline)\n";
  }
  const bool phase_reg = has_phase_regression();
  std::snprintf(line, sizeof line,
                "worst ratio %.2fx against tolerance -%d%%: %s%s\n",
                worst_ratio(), static_cast<int>(tolerance * 100.0),
                has_regression() ? "REGRESSION" : "ok",
                phase_reg ? " (phase REGRESSION)" : "");
  os << line;
  return os.str();
}

BenchComparison compare_bench(const BenchReport& baseline,
                              const BenchReport& current, double tolerance) {
  BenchComparison out;
  out.tolerance = tolerance;
  std::map<std::string, const BenchCell*> base_by_key;
  for (const BenchCell& c : baseline.cells) base_by_key[c.key] = &c;
  std::map<std::string, bool> matched;
  for (const BenchCell& c : current.cells) {
    const auto it = base_by_key.find(c.key);
    if (it == base_by_key.end()) {
      out.only_in_current.push_back(c.key);
      continue;
    }
    matched[c.key] = true;
    CellDelta d;
    d.key = c.key;
    d.base_reqs_per_sec = it->second->reqs_per_sec;
    d.cur_reqs_per_sec = c.reqs_per_sec;
    d.ratio = d.base_reqs_per_sec > 0.0
                  ? d.cur_reqs_per_sec / d.base_reqs_per_sec
                  : 0.0;
    d.regression = d.base_reqs_per_sec > 0.0 && d.ratio < 1.0 - tolerance;
    const auto phase_delta = [tolerance](double base, double cur) {
      PhaseDelta p;
      p.base_seconds = base;
      p.cur_seconds = cur;
      p.ratio = base > 0.0 ? cur / base : 0.0;
      // Phases gate at twice the cell tolerance: they are raw wall
      // times (not request-normalized throughput), so host noise hits
      // them harder, while the failure modes the gate exists for — a
      // warm-start cache that stopped hitting, a setup path that began
      // rescanning — are multiples, not percentages.
      p.regression = std::max(base, cur) >= kPhaseGateFloorSeconds &&
                     base > 0.0 && p.ratio > 1.0 + 2.0 * tolerance;
      return p;
    };
    const BenchPhases& bp = it->second->phases;
    d.setup = phase_delta(bp.setup_seconds, c.phases.setup_seconds);
    d.warmup = phase_delta(bp.warmup_seconds, c.phases.warmup_seconds);
    d.measure = phase_delta(bp.measure_seconds, c.phases.measure_seconds);
    out.cells.push_back(std::move(d));
  }
  for (const BenchCell& c : baseline.cells) {
    if (!matched.count(c.key)) out.only_in_baseline.push_back(c.key);
  }
  return out;
}

}  // namespace ppssd::perf
