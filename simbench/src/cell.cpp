#include "cell.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <span>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/units.h"
#include "host.h"
#include "sim/replayer.h"
#include "sim/ssd.h"
#include "trace/profiles.h"
#include "trace/synthetic.h"

namespace simbench {

namespace {

using Clock = std::chrono::steady_clock;
using namespace ppssd;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint32_t ns_between(Clock::time_point a, Clock::time_point b) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  return static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(ns, 0, INT32_MAX));
}

/// Thrown from the PPSSD_CHECK failure hook so a failing cell unwinds to
/// its caller instead of aborting the whole benchmark.
struct CellAborted : std::exception {
  const char* what() const noexcept override {
    return "simulator invariant failed (PPSSD_CHECK; see stderr)";
  }
};

void throw_on_check_failure(void* /*ctx*/) { throw CellAborted{}; }

/// Arms the failure hook for one cell. check_failed() clears the hook
/// before invoking it, so each cell re-arms; disarming on exit keeps a
/// later failure outside any cell an ordinary abort.
class CheckGuard {
 public:
  CheckGuard() {
    ppssd::detail::set_check_failure_hook(&throw_on_check_failure, nullptr);
  }
  ~CheckGuard() { ppssd::detail::set_check_failure_hook(nullptr, nullptr); }
  CheckGuard(const CheckGuard&) = delete;
  CheckGuard& operator=(const CheckGuard&) = delete;
};

trace::TraceProfile profile_for(const CellSpec& spec) {
  trace::TraceProfile p = trace::profile_by_name(spec.trace);
  p.seed = spec.seed;
  return p;
}

/// MLC prefill target and free-block floor, as core::run_experiment's
/// warm-up computes them.
struct Prefill {
  std::uint64_t subpages = 0;
  std::uint32_t free_floor = 0;
};
Prefill prefill_for(const cache::Scheme& scheme) {
  const auto& geom = scheme.array().geometry();
  Prefill p;
  p.subpages = geom.logical_subpages();
  p.free_floor = scheme.blocks().gc_threshold_blocks(CellMode::kMlc) +
                 std::max<std::uint32_t>(
                     3, static_cast<std::uint32_t>(
                            0.03 * (geom.blocks_per_plane() -
                                    geom.slc_blocks_per_plane())));
  return p;
}

/// The SLC warm-up stream: ~1.2x the cache capacity of back-to-back
/// writes over the measured workload's address model.
trace::TraceProfile warm_profile(const cache::Scheme& scheme,
                                 const trace::TraceProfile& profile,
                                 const trace::SyntheticWorkload& workload) {
  const auto& geom = scheme.array().geometry();
  const std::uint64_t cache_bytes =
      static_cast<std::uint64_t>(geom.slc_block_count()) *
      geom.pages_per_block(CellMode::kSlc) * geom.config().page_bytes;
  trace::TraceProfile warm = profile;
  warm.seed = profile.seed + 7777;
  warm.write_ratio = 1.0;
  warm.hot_objects = workload.hot_object_count();
  warm.mean_interarrival_us = 1.0;
  warm.requests = static_cast<std::uint64_t>(
      1.2 * static_cast<double>(cache_bytes) /
      (profile.mean_write_kb * 1024.0));
  return warm;
}

/// A TraceSource that times the wrapped source's batch decode.
class TimedSource final : public trace::TraceSource {
 public:
  TimedSource(trace::TraceSource& inner, double& seconds)
      : inner_(&inner), seconds_(&seconds) {}
  bool next(trace::TraceRecord& out) override { return inner_->next(out); }
  std::size_t next_batch(std::span<trace::TraceRecord> out) override {
    const auto t0 = Clock::now();
    const std::size_t n = inner_->next_batch(out);
    *seconds_ += seconds_between(t0, Clock::now());
    return n;
  }
  void reset() override { inner_->reset(); }
  [[nodiscard]] std::uint64_t expected_records() const override {
    return inner_->expected_records();
  }

 private:
  trace::TraceSource* inner_;
  double* seconds_;
};

/// Replayer::replay's sequential loop (no telemetry, progress or
/// snapshots attached), with a span around every Ssd::drain_completions
/// and Ssd::enqueue call. The accounting is the replayer's, statement for
/// statement, so the returned ReplayResult is identical.
sim::ReplayResult traced_replay(sim::Ssd& ssd, trace::TraceSource& src,
                                CellTimes& t) {
  sim::ReplayResult result;
  std::uint64_t depth = 0;
  double depth_integral = 0.0;
  double at_arrival_sum = 0.0;
  SimTime first_arrival = kNoTime;
  SimTime prev_event = 0;

  const auto harvest = [&](const sim::Ssd::HostCompletion& c) {
    if (c.finish > prev_event) {
      depth_integral += static_cast<double>(depth) *
                        static_cast<double>(c.finish - prev_event);
      prev_event = c.finish;
    }
    --depth;
    result.latency.record(c.op, c.latency());
    result.makespan = std::max(result.makespan, c.finish);
  };

  std::array<trace::TraceRecord, 256> batch;
  for (;;) {
    const std::size_t got = src.next_batch(std::span(batch));
    if (got == 0) break;
    for (std::size_t i = 0; i < got; ++i) {
      const trace::TraceRecord& rec = batch[i];
      const auto t0 = Clock::now();
      ssd.drain_completions(rec.arrival, harvest);
      const auto t1 = Clock::now();
      if (rec.arrival > prev_event) {
        depth_integral += static_cast<double>(depth) *
                          static_cast<double>(rec.arrival - prev_event);
        prev_event = rec.arrival;
      }
      at_arrival_sum += static_cast<double>(depth);
      result.max_queue_depth = std::max(result.max_queue_depth, depth);
      if (first_arrival == kNoTime) first_arrival = rec.arrival;

      const auto t2 = Clock::now();
      const auto done = ssd.enqueue(rec.op, rec.offset, rec.size, rec.arrival);
      const auto t3 = Clock::now();
      t.drain += seconds_between(t0, t1);
      t.enqueue += seconds_between(t2, t3);
      t.enqueue_ns.push_back(ns_between(t2, t3));
      ++depth;
      result.makespan = std::max(result.makespan, done.drained);
      ++result.requests;
    }
  }
  const auto t0 = Clock::now();
  ssd.drain_completions(kNoTime, harvest);
  t.drain += seconds_between(t0, Clock::now());

  if (result.requests > 0) {
    result.avg_queue_depth_at_arrival =
        at_arrival_sum / static_cast<double>(result.requests);
    if (prev_event > first_arrival) {
      result.avg_queue_depth =
          depth_integral / static_cast<double>(prev_event - first_arrival);
    }
  }
  return result;
}

/// Fill the result record from the device after the measured replay,
/// exactly as core::run_experiment's report phase does.
void fill_result(core::ExperimentResult& r, const sim::Ssd& ssd,
                 const sim::ReplayResult& replay) {
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
  const auto& u = ssd.service_model().usage();
  r.chip_fg_seconds = ns_to_ms(u.read_fg + u.program_fg) / 1e3;
  r.chip_bg_seconds = ns_to_ms(u.read_bg + u.program_bg) / 1e3;
  r.chip_erase_seconds = ns_to_ms(u.erase_bg) / 1e3;
  r.ctrl_events = ssd.controller().scheduled_ops();
}

/// Ssd::do_submit's subpage alignment and wrap, for the scheme-only twin.
struct Extent {
  Lsn lsn = 0;
  std::uint32_t count = 0;
};
Extent extent_of(const trace::TraceRecord& rec, std::uint64_t total) {
  PPSSD_CHECK(rec.size > 0);
  Extent e;
  e.lsn = (rec.offset / kSubpageBytes) % total;
  e.count = static_cast<std::uint32_t>(
      bytes_to_subpages(rec.offset % kSubpageBytes + rec.size));
  e.count = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(e.count, total - e.lsn));
  return e;
}

std::string metrics_text(const cache::SchemeMetrics& m) {
  std::ostringstream os;
  os.precision(17);
  os << "slc_subpages_written=" << m.slc_subpages_written << '\n'
     << "mlc_subpages_written=" << m.mlc_subpages_written << '\n'
     << "host_subpages_written=" << m.host_subpages_written << '\n';
  for (int i = 0; i < 4; ++i) {
    os << "level_subpages" << i << '=' << m.level_subpages[i] << '\n';
  }
  os << "intra_page_updates=" << m.intra_page_updates << '\n'
     << "slc_gc_count=" << m.slc_gc_count << '\n'
     << "mlc_gc_count=" << m.mlc_gc_count << '\n'
     << "gc_utilization_count=" << m.gc_utilization.count() << '\n'
     << "gc_utilization_mean=" << m.gc_utilization.mean() << '\n'
     << "gc_moved_subpages=" << m.gc_moved_subpages << '\n'
     << "evicted_subpages=" << m.evicted_subpages << '\n'
     << "read_ber_count=" << m.read_ber.count() << '\n'
     << "read_ber_mean=" << m.read_ber.mean() << '\n'
     << "host_reads_slc=" << m.host_reads_slc << '\n'
     << "host_reads_mlc=" << m.host_reads_mlc << '\n'
     << "host_reads_unmapped=" << m.host_reads_unmapped << '\n';
  return os.str();
}

std::string counters_text(const nand::ArrayCounters& c) {
  std::ostringstream os;
  os << "slc_program_ops=" << c.slc_program_ops << '\n'
     << "mlc_program_ops=" << c.mlc_program_ops << '\n'
     << "partial_program_ops=" << c.partial_program_ops << '\n'
     << "array_slc_subpages_written=" << c.slc_subpages_written << '\n'
     << "array_mlc_subpages_written=" << c.mlc_subpages_written << '\n'
     << "array_slc_erases=" << c.slc_erases << '\n'
     << "array_mlc_erases=" << c.mlc_erases << '\n'
     << "read_ops=" << c.read_ops << '\n'
     << "reprogram_ops=" << c.reprogram_ops << '\n'
     << "reprogrammed_subpages=" << c.reprogrammed_subpages << '\n';
  return os.str();
}

/// First line that differs between two key=value texts, or empty.
std::string first_difference(const std::string& a, const std::string& b) {
  if (a == b) return {};
  std::istringstream ia(a);
  std::istringstream ib(b);
  std::string la;
  std::string lb;
  for (;;) {
    const bool ga = static_cast<bool>(std::getline(ia, la));
    const bool gb = static_cast<bool>(std::getline(ib, lb));
    if (!ga && !gb) return "texts differ";
    if (!ga || !gb || la != lb) {
      return (ga ? la : std::string("<end>")) + " vs " +
             (gb ? lb : std::string("<end>"));
    }
  }
}

}  // namespace

core::ExperimentSpec CellSpec::experiment() const {
  core::ExperimentSpec e;
  e.scheme = scheme;
  e.trace = trace;
  e.pe_cycles = pe_cycles;
  e.total_blocks = total_blocks;
  e.trace_scale = trace_scale;
  return e;
}

std::string CellSpec::label() const {
  std::ostringstream os;
  os << scheme << '/' << trace << "/seed" << seed << "/b" << total_blocks
     << "/s" << trace_scale;
  return os.str();
}

std::uint64_t profile_seed(const std::string& trace) {
  return trace::profile_by_name(trace).seed;
}

CellRun run_cell(const CellSpec& spec, Mode mode) {
  CellRun run;
  run.spec = spec;
  run.result.spec = spec.experiment();
  CellTimes& t = run.times;
  core::ExperimentResult& r = run.result;
  try {
    const CheckGuard guard;
    run.rss_before_mib = current_rss_mib();
    const auto cell_start = Clock::now();

    // Setup: config, scheme (flash array, maps), device, workload.
    const SsdConfig cfg = core::config_for(spec.experiment());
    auto t0 = Clock::now();
    std::unique_ptr<cache::Scheme> scheme =
        cache::make_scheme(spec.scheme, cfg);
    auto t1 = Clock::now();
    t.make_scheme = seconds_between(t0, t1);
    sim::Ssd ssd(cfg, std::move(scheme));
    t0 = Clock::now();
    t.ssd_ctor = seconds_between(t1, t0);
    const trace::TraceProfile profile = profile_for(spec);
    trace::SyntheticWorkload workload(profile, ssd.logical_bytes(),
                                      spec.trace_scale);
    t1 = Clock::now();
    t.workload_ctor = seconds_between(t0, t1);
    run.expected_records = workload.expected_records();
    run.rss_after_setup_mib = current_rss_mib();

    // Warm-up: MLC prefill, then the SLC warm-up replay; statistics and
    // device timing reset at the quiescent boundary.
    t0 = Clock::now();
    const Prefill pf = prefill_for(ssd.scheme());
    ssd.scheme().prefill_mlc(pf.subpages, pf.free_floor);
    t1 = Clock::now();
    t.prefill = seconds_between(t0, t1);
    {
      trace::SyntheticWorkload warm(
          warm_profile(ssd.scheme(), profile, workload), ssd.logical_bytes());
      sim::Replayer warm_replayer(ssd);
      ssd.scheme().set_origin_phase(cache::OpOrigin::kPrefill);
      (void)warm_replayer.replay(warm);
      ssd.scheme().set_origin_phase(cache::OpOrigin::kHost);
      ssd.scheme().reset_metrics();
      ssd.reset_timing();
    }
    t0 = Clock::now();
    t.warm_replay = seconds_between(t1, t0);
    run.rss_after_warmup_mib = current_rss_mib();
    const std::uint64_t backlog_before = ssd.deferred_background_ops();

    // Measured replay.
    sim::ReplayResult replay;
    if (mode == Mode::kReplayer) {
      sim::Replayer replayer(ssd);
      replay = replayer.replay(workload);
    } else {
      t.enqueue_ns.reserve(run.expected_records);
      TimedSource timed(workload, t.next_batch);
      replay = traced_replay(ssd, timed, t);
    }
    t1 = Clock::now();
    r.wall_measure_seconds = seconds_between(t0, t1);

    // Report.
    fill_result(r, ssd, replay);
    run.metrics = ssd.scheme().metrics();
    run.counters = ssd.scheme().array().counters();
    run.emitted_ops = r.ctrl_events - backlog_before +
                      ssd.deferred_background_ops();
    run.max_queue_depth = replay.max_queue_depth;
    // DeviceMap holds one 8-byte packed entry per logical subpage
    // (static_assert in ftl/mapping.h).
    run.map_bytes = ssd.scheme().device_map().logical_subpages() * 8;
    t0 = Clock::now();
    r.wall_report_seconds = seconds_between(t1, t0);
    r.wall_setup_seconds = t.setup();
    r.wall_warmup_seconds = t.warmup();
    r.wall_seconds = seconds_between(cell_start, t0);
    if (r.wall_measure_seconds > 0.0) {
      r.wall_reqs_per_sec =
          static_cast<double>(r.reads + r.writes) / r.wall_measure_seconds;
      r.wall_ctrl_events_per_sec =
          static_cast<double>(r.ctrl_events) / r.wall_measure_seconds;
    }

    // Output checks: device invariants, and no request lost.
    ssd.scheme().check_consistency();
    t.consistency_check = seconds_between(t0, Clock::now());
    if (run.completed() != run.expected_records ||
        replay.requests != run.expected_records) {
      std::ostringstream os;
      os << "completed " << run.completed() << " of "
         << run.expected_records << " requests";
      run.error = os.str();
      return run;
    }
    run.ok = true;
  } catch (const std::exception& e) {
    run.ok = false;
    run.error = e.what();
  }
  return run;
}

TwinRun run_twin(const CellSpec& spec) {
  TwinRun twin;
  try {
    const CheckGuard guard;
    const SsdConfig cfg = core::config_for(spec.experiment());
    std::unique_ptr<cache::Scheme> owner = cache::make_scheme(spec.scheme, cfg);
    cache::Scheme& scheme = *owner;
    const std::uint64_t total = scheme.array().geometry().logical_subpages();
    const std::uint64_t logical_bytes = total * kSubpageBytes;
    const trace::TraceProfile profile = profile_for(spec);
    trace::SyntheticWorkload workload(profile, logical_bytes,
                                      spec.trace_scale);

    std::vector<cache::PhysOp> ops;
    std::array<trace::TraceRecord, 256> batch;
    const auto submit = [&](const trace::TraceRecord& rec) {
      const Extent e = extent_of(rec, total);
      ops.clear();
      if (rec.op == OpType::kWrite) {
        scheme.host_write(e.lsn, e.count, rec.arrival, ops);
      } else {
        scheme.host_read(e.lsn, e.count, rec.arrival, ops);
      }
    };

    const Prefill pf = prefill_for(scheme);
    scheme.prefill_mlc(pf.subpages, pf.free_floor);
    {
      trace::SyntheticWorkload warm(warm_profile(scheme, profile, workload),
                                    logical_bytes);
      scheme.set_origin_phase(cache::OpOrigin::kPrefill);
      while (const std::size_t got = warm.next_batch(std::span(batch))) {
        for (std::size_t i = 0; i < got; ++i) submit(batch[i]);
      }
      scheme.set_origin_phase(cache::OpOrigin::kHost);
      scheme.reset_metrics();
    }

    twin.host_write_ns.reserve(workload.expected_records());
    while (const std::size_t got = workload.next_batch(std::span(batch))) {
      for (std::size_t i = 0; i < got; ++i) {
        const trace::TraceRecord& rec = batch[i];
        const Extent e = extent_of(rec, total);
        ops.clear();
        if (rec.op == OpType::kWrite) {
          const auto t0 = Clock::now();
          scheme.host_write(e.lsn, e.count, rec.arrival, ops);
          const auto t1 = Clock::now();
          const double s = seconds_between(t0, t1);
          twin.host_write_s += s;
          twin.host_write_ns.push_back(ns_between(t0, t1));
          const bool gc = std::any_of(
              ops.begin(), ops.end(),
              [](const cache::PhysOp& o) { return o.background; });
          if (gc) {
            twin.gc_write_s += s;
            ++twin.gc_write_calls;
          }
        } else {
          const auto t0 = Clock::now();
          scheme.host_read(e.lsn, e.count, rec.arrival, ops);
          twin.host_read_s += seconds_between(t0, Clock::now());
        }
        twin.emitted_ops += ops.size();
        ++twin.requests;
      }
    }
    twin.metrics = scheme.metrics();
    twin.counters = scheme.array().counters();
    twin.ok = true;
  } catch (const std::exception& e) {
    twin.ok = false;
    twin.error = e.what();
  }
  return twin;
}

std::string non_wall_lines(const core::ExperimentResult& r) {
  std::istringstream in(r.serialize());
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("wall_", 0) == 0) continue;
    out += line;
    out += '\n';
  }
  return out;
}

std::string sim_stats_text(const CellRun& run) {
  std::ostringstream os;
  os << non_wall_lines(run.result) << metrics_text(run.metrics)
     << counters_text(run.counters) << "emitted_ops=" << run.emitted_ops
     << '\n'
     << "max_queue_depth=" << run.max_queue_depth << '\n';
  return os.str();
}

std::string digest_of(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string compare_metrics(const cache::SchemeMetrics& a,
                            const cache::SchemeMetrics& b) {
  return first_difference(metrics_text(a), metrics_text(b));
}

std::string compare_twin(const CellRun& full, const TwinRun& twin) {
  if (!full.ok || !twin.ok) return "a pass failed";
  if (std::string d = compare_metrics(full.metrics, twin.metrics); !d.empty()) {
    return "scheme metrics: " + d;
  }
  if (std::string d = first_difference(counters_text(full.counters),
                                       counters_text(twin.counters));
      !d.empty()) {
    return "array counters: " + d;
  }
  if (full.emitted_ops != twin.emitted_ops) {
    return "emitted ops: " + std::to_string(full.emitted_ops) + " vs " +
           std::to_string(twin.emitted_ops);
  }
  if (full.expected_records != twin.requests) return "request count";
  return {};
}

}  // namespace simbench
