#include "core/experiment.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/env.h"
#include "core/warmstart.h"
#include "sim/replayer.h"
#include "sim/ssd.h"
#include "telemetry/telemetry.h"
#include "trace/profiles.h"
#include "trace/synthetic.h"

namespace ppssd::core {

namespace {
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Cold warm-up: pre-fill the MLC region, then stream ~1.2x the SLC cache
/// capacity of writes from the trace's address model, and land the device
/// on the quiescent post-warm-up boundary (metrics and timing reset).
/// This is the work a warm-start checkpoint hit replaces.
void run_warmup(sim::Ssd& ssd, const trace::SyntheticWorkload& workload,
                const trace::TraceProfile& profile) {
  const auto& geom = ssd.scheme().array().geometry();
  // Fill the whole logical space: an aged drive holds the trace's
  // footprint plus other resident data, so the MLC region runs near its
  // steady-state occupancy and evictions contend with MLC GC.
  const std::uint64_t prefill_subpages = geom.logical_subpages();
  const std::uint32_t free_floor =
      ssd.scheme().blocks().gc_threshold_blocks(CellMode::kMlc) +
      std::max<std::uint32_t>(
          3, static_cast<std::uint32_t>(
                 0.03 * (geom.blocks_per_plane() -
                         geom.slc_blocks_per_plane())));
  ssd.scheme().prefill_mlc(prefill_subpages, free_floor);
  const std::uint64_t cache_bytes =
      static_cast<std::uint64_t>(geom.slc_block_count()) *
      geom.pages_per_block(CellMode::kSlc) * geom.config().page_bytes;
  trace::TraceProfile warm = profile;
  warm.seed = profile.seed + 7777;
  warm.write_ratio = 1.0;
  warm.hot_objects = workload.hot_object_count();
  warm.mean_interarrival_us = 1.0;  // back-to-back; timing is reset after
  warm.requests = static_cast<std::uint64_t>(
      1.2 * static_cast<double>(cache_bytes) /
      (profile.mean_write_kb * 1024.0));
  trace::SyntheticWorkload warmup(warm, ssd.logical_bytes());
  // Warm-up ops carry the kPrefill origin so a blame ledger attached
  // around this phase (telemetry tour, bench harnesses) separates
  // pre-conditioning traffic from measured host work.
  sim::Replayer replayer(ssd);
  ssd.scheme().set_origin_phase(cache::OpOrigin::kPrefill);
  replayer.replay(warmup);
  ssd.scheme().set_origin_phase(cache::OpOrigin::kHost);
  ssd.scheme().reset_metrics();
  ssd.reset_timing();
}
}  // namespace

std::string ExperimentSpec::key() const {
  std::ostringstream os;
  os << scheme << '-' << trace << "-pe" << pe_cycles << "-b" << total_blocks
     << "-s" << trace_scale;
  // Option entries append in insertion order; schemes emit a fixed key
  // order so the encoding is stable (and byte-compatible with the legacy
  // IPU "-isr1-lvl1-ipp1-cmb0" suffix).
  for (const auto& [k, v] : options.entries) os << '-' << k << v;
  return os.str();
}

std::optional<ExperimentSpec> ExperimentSpec::from_key(std::string_view key) {
  std::vector<std::string_view> parts;
  for (std::size_t begin = 0;;) {
    const std::size_t dash = key.find('-', begin);
    parts.push_back(key.substr(begin, dash - begin));
    if (dash == std::string_view::npos) break;
    begin = dash + 1;
  }
  if (parts.size() < 5) return std::nullopt;
  // `prefix` then a number, e.g. "pe4000".
  const auto tagged = [](std::string_view part, std::string_view prefix,
                         auto* out) {
    if (part.substr(0, prefix.size()) != prefix) return false;
    const auto v = parse_number<std::remove_pointer_t<decltype(out)>>(
        part.substr(prefix.size()));
    if (v) *out = *v;
    return v.has_value();
  };
  ExperimentSpec spec;
  spec.scheme = parts[0];
  spec.trace = parts[1];
  if (spec.scheme.empty() || spec.trace.empty() ||
      !tagged(parts[2], "pe", &spec.pe_cycles) ||
      !tagged(parts[3], "b", &spec.total_blocks) ||
      !tagged(parts[4], "s", &spec.trace_scale)) {
    return std::nullopt;
  }
  // Options: a lowercase name, then a value that starts with anything
  // but a lowercase letter ("isr1").
  for (std::size_t i = 5; i < parts.size(); ++i) {
    const std::string_view part = parts[i];
    const std::size_t split = part.find_first_not_of(
        "abcdefghijklmnopqrstuvwxyz_");
    if (split == 0 || split == std::string_view::npos) return std::nullopt;
    spec.options.set(part.substr(0, split), part.substr(split));
  }
  // Only the canonical spelling is a key: not "s0.020", "pe04000", or a
  // repeated option.
  if (spec.key() != key) return std::nullopt;
  return spec;
}

SsdConfig config_for(const ExperimentSpec& spec) {
  SsdConfig cfg = spec.total_blocks == 65536
                      ? SsdConfig::paper()
                      : SsdConfig::scaled(spec.total_blocks);
  cfg.wear.initial_pe_cycles = spec.pe_cycles;
  return cfg;
}

ExperimentResult run_experiment(const ExperimentSpec& spec,
                                perf::ProgressSink* progress) {
  const auto wall_start = Clock::now();
  auto phase_start = wall_start;

  ExperimentResult r;
  r.spec = spec;

  std::unique_ptr<sim::Ssd> ssd_owner;
  std::unique_ptr<trace::SyntheticWorkload> workload_owner;
  {
    const SsdConfig cfg = config_for(spec);
    ssd_owner = std::make_unique<sim::Ssd>(
        cfg, cache::make_scheme(spec.scheme, cfg, spec.options));
    workload_owner = std::make_unique<trace::SyntheticWorkload>(
        trace::profile_by_name(spec.trace), ssd_owner->logical_bytes(),
        spec.trace_scale);
  }
  sim::Ssd& ssd = *ssd_owner;
  trace::SyntheticWorkload& workload = *workload_owner;
  const auto& profile = trace::profile_by_name(spec.trace);
  sim::Replayer replayer(ssd);

  r.wall_setup_seconds = seconds_since(phase_start);
  phase_start = Clock::now();

  // Warm-up: the paper evaluates a pre-worn device (P/E already at
  // thousands of cycles), i.e. an aged SSD in steady state. Two phases:
  //  1. Pre-fill the MLC region with the trace's logical footprint (an
  //     aged drive is mostly full, so evictions contend with MLC GC).
  //  2. Fill the SLC cache with ~1.2x its capacity of writes drawn from
  //     the same address model (identical hot-object layout).
  // Metrics and queues reset afterwards so the measured phase starts from
  // steady state.
  //
  // The warmed state is a pure function of the cache key, so with
  // PPSSD_WARMSTART=1 both phases are skipped on a checkpoint hit: the
  // device restores straight to the post-warm-up quiescent boundary.
  // Restores are behavior-preserving to the byte, so measured results are
  // identical either way; a miss warms cold and stores the checkpoint.
  {
    const WarmStartCache warmstart = WarmStartCache::from_env();
    const std::string spec_key = spec.key();
    if (!warmstart.try_restore(spec_key, ssd)) {
      run_warmup(ssd, workload, profile);
      warmstart.store(spec_key, ssd);
    }
  }
  r.wall_warmup_seconds = seconds_since(phase_start);
  phase_start = Clock::now();

  // Observers (PPSSD_OBSERVE, written to <PPSSD_OBSERVE_DIR>/<key>.*):
  // attach after warm-up so the artifacts cover only the measured phase.
  // The bundle is declared after `ssd`, so it is destroyed (flushing any
  // remaining output) while the scheme its gauges poll is still alive.
  const std::unique_ptr<telemetry::Telemetry> tel =
      telemetry::Telemetry::from_env(spec.key());
  if (tel) ssd.attach_telemetry(tel.get());

  if (progress != nullptr) {
    progress->begin(workload.expected_records());
    replayer.set_progress(progress);
  }
  const sim::ReplayResult replay = replayer.replay(workload);
  if (tel) tel->finish(replay.makespan);
  r.wall_measure_seconds = seconds_since(phase_start);
  phase_start = Clock::now();

  const auto& m = ssd.scheme().metrics();
  const auto fp = ssd.scheme().footprint();
  const auto& counters = ssd.scheme().array().counters();

  r.avg_read_ms = replay.latency.avg_read_ms();
  r.avg_write_ms = replay.latency.avg_write_ms();
  r.avg_overall_ms = replay.latency.avg_overall_ms();
  r.p50_read_ms = replay.latency.read_p50_ms();
  r.p50_write_ms = replay.latency.write_p50_ms();
  r.p95_read_ms = replay.latency.read_p95_ms();
  r.p95_write_ms = replay.latency.write_p95_ms();
  r.p99_read_ms = replay.latency.read_p99_ms();
  r.p99_write_ms = replay.latency.write_p99_ms();
  r.p999_read_ms = replay.latency.read_p999_ms();
  r.p999_write_ms = replay.latency.write_p999_ms();
  r.reads = replay.latency.read_count();
  r.writes = replay.latency.write_count();
  r.read_ber = m.read_ber.mean();
  r.slc_subpages = m.slc_subpages_written;
  r.mlc_subpages = m.mlc_subpages_written;
  for (int i = 0; i < 4; ++i) r.level_subpages[i] = m.level_subpages[i];
  r.intra_page_updates = m.intra_page_updates;
  r.gc_utilization = m.gc_utilization.mean();
  r.slc_erases = counters.slc_erases;
  r.mlc_erases = counters.mlc_erases;
  r.map_base_bytes = fp.base_bytes;
  r.map_extra_bytes = fp.scheme_extra;
  r.map_aux_bytes = fp.aux_bytes;
  r.slc_gc_count = m.slc_gc_count;
  r.mlc_gc_count = m.mlc_gc_count;
  r.evicted_subpages = m.evicted_subpages;
  r.gc_moved_subpages = m.gc_moved_subpages;
  r.avg_queue_depth = replay.avg_queue_depth;
  r.avg_queue_depth_at_arrival = replay.avg_queue_depth_at_arrival;
  {
    const auto& u = ssd.controller().usage();
    r.chip_fg_seconds = ns_to_ms(u.read_fg + u.program_fg) / 1e3;
    r.chip_bg_seconds = ns_to_ms(u.read_bg + u.program_bg) / 1e3;
    r.chip_erase_seconds = ns_to_ms(u.erase_bg) / 1e3;
  }
  // The controller was reset at the end of warm-up, so its command count
  // covers exactly the measured phase.
  r.ctrl_events = ssd.controller().scheduled_ops();
  r.wall_report_seconds = seconds_since(phase_start);
  r.wall_seconds = seconds_since(wall_start);
  if (r.wall_measure_seconds > 0.0) {
    r.wall_reqs_per_sec =
        static_cast<double>(r.reads + r.writes) / r.wall_measure_seconds;
    r.wall_ctrl_events_per_sec =
        static_cast<double>(r.ctrl_events) / r.wall_measure_seconds;
  }
  return r;
}

// ---- serialization ------------------------------------------------------

namespace {

/// The result record's one field table: calls fn(key, field) for every
/// serialized field in file order. serialize() and deserialize() both
/// walk it, so a field added here is written and read back. `R` is
/// ExperimentResult or its const.
template <typename R, typename Fn>
void for_each_field(R& r, Fn&& fn) {
  fn("avg_read_ms", r.avg_read_ms);
  fn("avg_write_ms", r.avg_write_ms);
  fn("avg_overall_ms", r.avg_overall_ms);
  fn("p50_read_ms", r.p50_read_ms);
  fn("p50_write_ms", r.p50_write_ms);
  fn("p95_read_ms", r.p95_read_ms);
  fn("p95_write_ms", r.p95_write_ms);
  fn("p99_read_ms", r.p99_read_ms);
  fn("p99_write_ms", r.p99_write_ms);
  fn("p999_read_ms", r.p999_read_ms);
  fn("p999_write_ms", r.p999_write_ms);
  fn("reads", r.reads);
  fn("writes", r.writes);
  fn("read_ber", r.read_ber);
  fn("slc_subpages", r.slc_subpages);
  fn("mlc_subpages", r.mlc_subpages);
  fn("level0", r.level_subpages[0]);
  fn("level1", r.level_subpages[1]);
  fn("level2", r.level_subpages[2]);
  fn("level3", r.level_subpages[3]);
  fn("intra_page_updates", r.intra_page_updates);
  fn("gc_utilization", r.gc_utilization);
  fn("slc_erases", r.slc_erases);
  fn("mlc_erases", r.mlc_erases);
  fn("map_base_bytes", r.map_base_bytes);
  fn("map_extra_bytes", r.map_extra_bytes);
  fn("map_aux_bytes", r.map_aux_bytes);
  fn("slc_gc_count", r.slc_gc_count);
  fn("mlc_gc_count", r.mlc_gc_count);
  fn("evicted_subpages", r.evicted_subpages);
  fn("gc_moved_subpages", r.gc_moved_subpages);
  fn("avg_queue_depth", r.avg_queue_depth);
  fn("avg_queue_depth_at_arrival", r.avg_queue_depth_at_arrival);
  fn("chip_fg_seconds", r.chip_fg_seconds);
  fn("chip_bg_seconds", r.chip_bg_seconds);
  fn("chip_erase_seconds", r.chip_erase_seconds);
  fn("ctrl_events", r.ctrl_events);
  // Every wall_* key is wall-clock-derived and nondeterministic; the
  // determinism checks filter on this prefix.
  fn("wall_seconds", r.wall_seconds);
  fn("wall_setup_seconds", r.wall_setup_seconds);
  fn("wall_warmup_seconds", r.wall_warmup_seconds);
  fn("wall_measure_seconds", r.wall_measure_seconds);
  fn("wall_report_seconds", r.wall_report_seconds);
  fn("wall_reqs_per_sec", r.wall_reqs_per_sec);
  fn("wall_ctrl_events_per_sec", r.wall_ctrl_events_per_sec);
}

}  // namespace

std::string ExperimentResult::serialize() const {
  std::ostringstream os;
  os.precision(17);
  os << "schema=" << kResultSchemaVersion << '\n'
     << "key=" << spec.key() << '\n';
  for_each_field(*this, [&os](const char* key, const auto& value) {
    os << key << '=' << value << '\n';
  });
  return os.str();
}

std::optional<ExperimentResult> ExperimentResult::deserialize(
    const std::string& text) {
  ExperimentResult r;
  std::size_t field_count = 0;
  for_each_field(r, [&](const char*, const auto&) { ++field_count; });
  // A record is whole only when the schema line and every field of the
  // table are present: a truncated file is a miss, never zeros.
  std::vector<bool> seen(field_count, false);
  bool schema_ok = false;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string k = line.substr(0, eq);
    const std::string_view v = std::string_view(line).substr(eq + 1);
    if (k == "schema") {
      if (parse_number<int>(v) != kResultSchemaVersion) return std::nullopt;
      schema_ok = true;
      continue;
    }
    bool ok = true;
    std::size_t i = 0;
    for_each_field(r, [&](const char* key, auto& field) {
      if (k == key) {
        const auto parsed = parse_number<std::decay_t<decltype(field)>>(v);
        ok = parsed.has_value();
        if (ok) field = *parsed;
        seen[i] = true;
      }
      ++i;
    });
    if (!ok) return std::nullopt;
  }
  if (!schema_ok) return std::nullopt;  // pre-versioning or foreign file
  if (std::find(seen.begin(), seen.end(), false) != seen.end()) {
    return std::nullopt;  // truncated
  }
  return r;
}

}  // namespace ppssd::core
