#include "bench.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "cache/registry.h"
#include "host.h"

namespace simbench {

namespace {

using Clock = std::chrono::steady_clock;

/// The paper device (SsdConfig::paper()) and the figure-default one.
constexpr std::uint32_t kPaperBlocks = 65536;
constexpr std::uint32_t kFigureBlocks = 16384;
constexpr double kFigureScale = 0.15;

CellSpec cell(std::string scheme, std::string trace, std::uint32_t blocks,
              double scale) {
  CellSpec c;
  c.scheme = std::move(scheme);
  c.trace = std::move(trace);
  c.seed = profile_seed(c.trace);
  c.total_blocks = blocks;
  c.trace_scale = scale;
  return c;
}

double quantile_ns(std::vector<std::uint32_t>& v, double q) {
  if (v.empty()) return 0.0;
  const auto k =
      static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The host-time figures of a repeat's cells, each cell's times
/// multiplied by its entry of `scale`.
struct HostTimes {
  double setup = 0, warmup = 0, wall = 0, measure = 0;

  void add(const CellRun& c, double scale) {
    setup += c.times.setup() * scale;
    warmup += c.times.warmup() * scale;
    wall += c.result.wall_seconds * scale;
    measure += c.result.wall_measure_seconds * scale;
  }
  void put(std::map<std::string, double>& m, const std::string& prefix,
           double reqs, double ops) const {
    m[prefix + "setup_s"] = setup;
    m[prefix + "warmup_s"] = warmup;
    m[prefix + "cell_wall_s"] = wall;
    m[prefix + "replay_reqs_per_s"] = ratio(reqs, measure);
    m[prefix + "host_ns_per_flash_op"] = ratio(measure * 1e9, ops);
  }
};

/// `scale[i]`: kReferenceProbeNs over the probe reading around cells[i].
void end_to_end(const std::vector<CellRun>& cells,
                const std::vector<double>& scale, Repeat& rep) {
  HostTimes scaled, unscaled;
  double reqs = 0, ops = 0, writes = 0, write_ms = 0;
  double flash_subpages = 0, host_subpages = 0, erases = 0;
  double write_p99 = 0, read_p99 = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellRun& c = cells[i];
    const auto& r = c.result;
    scaled.add(c, scale[i]);
    unscaled.add(c, 1.0);
    reqs += static_cast<double>(c.completed());
    ops += static_cast<double>(r.ctrl_events);
    writes += static_cast<double>(r.writes);
    write_ms += r.avg_write_ms * static_cast<double>(r.writes);
    flash_subpages += static_cast<double>(r.slc_subpages + r.mlc_subpages);
    host_subpages += static_cast<double>(c.metrics.host_subpages_written);
    erases += static_cast<double>(r.slc_erases + r.mlc_erases);
    write_p99 = std::max(write_p99, r.p99_write_ms);
    read_p99 = std::max(read_p99, r.p99_read_ms);
  }
  auto& m = rep.metrics;
  scaled.put(m, "", reqs, ops);
  unscaled.put(m, kUnscaledPrefix, reqs, ops);
  m["peak_rss_mib"] = peak_rss_mib();
  m["sim_write_ms_mean"] = ratio(write_ms, writes);
  m["sim_write_ms_p99"] = write_p99;
  m["sim_read_ms_p99"] = read_p99;
  m["sim_write_amp"] = ratio(flash_subpages, host_subpages);
  m["sim_erases"] = erases;
}

/// Per-layer figures of one traced repeat: `plain` ran through Replayer,
/// `traced` through the span-timed loop, `twins` scheme-only.
void per_layer(const std::vector<CellRun>& plain,
               const std::vector<CellRun>& traced,
               const std::vector<TwinRun>& twins, Repeat& rep) {
  using C = const CellRun&;
  const auto sum = [&](auto&& f) {
    double s = 0;
    for (C c : traced) s += static_cast<double>(f(c));
    return s;
  };
  const auto max = [&](auto&& f) {
    double s = 0;
    for (C c : traced) s = std::max(s, static_cast<double>(f(c)));
    return s;
  };
  auto& m = rep.metrics;

  // Spans around the calls the benchmark makes into each layer.
  std::vector<std::uint32_t> enqueue_ns;
  for (C c : traced) {
    enqueue_ns.insert(enqueue_ns.end(), c.times.enqueue_ns.begin(),
                      c.times.enqueue_ns.end());
  }
  m["trace.next_batch_s"] = sum([](C c) { return c.times.next_batch; });
  m["sim.enqueue_s"] = sum([](C c) { return c.times.enqueue; });
  m["sim.enqueue_ns_p50"] = quantile_ns(enqueue_ns, 0.50);
  m["sim.enqueue_ns_p999"] = quantile_ns(enqueue_ns, 0.999);
  m["sim.drain_s"] = sum([](C c) { return c.times.drain; });

  double host_write = 0, host_read = 0, gc_write = 0, gc_calls = 0;
  std::vector<std::uint32_t> write_ns;
  for (const TwinRun& t : twins) {
    host_write += t.host_write_s;
    host_read += t.host_read_s;
    gc_write += t.gc_write_s;
    gc_calls += static_cast<double>(t.gc_write_calls);
    write_ns.insert(write_ns.end(), t.host_write_ns.begin(),
                    t.host_write_ns.end());
  }
  m["cache.host_write_s"] = host_write;
  m["cache.host_read_s"] = host_read;
  m["cache.host_write_ns_p50"] = quantile_ns(write_ns, 0.50);
  m["cache.host_write_ns_p999"] = quantile_ns(write_ns, 0.999);
  m["cache.gc_write_s"] = gc_write;
  m["cache.gc_write_calls"] = gc_calls;
  m["sim.ctrl_self_s"] = m["sim.enqueue_s"] - host_write - host_read;

  m["core.make_scheme_s"] = sum([](C c) { return c.times.make_scheme; });
  m["core.ssd_ctor_s"] = sum([](C c) { return c.times.ssd_ctor; });
  m["core.workload_ctor_s"] = sum([](C c) { return c.times.workload_ctor; });
  m["core.prefill_s"] = sum([](C c) { return c.times.prefill; });
  m["core.warm_replay_s"] = sum([](C c) { return c.times.warm_replay; });
  m["core.consistency_check_s"] =
      sum([](C c) { return c.times.consistency_check; });

  // Counts read from public state after the measured replay.
  const double reqs = sum([](C c) { return c.completed(); });
  const double slc_reads = sum([](C c) { return c.metrics.host_reads_slc; });
  const double mlc_reads = sum([](C c) { return c.metrics.host_reads_mlc; });
  m["cache.ops_per_req"] = ratio(sum([](C c) { return c.emitted_ops; }), reqs);
  m["cache.read_hit_ratio"] = ratio(slc_reads, slc_reads + mlc_reads);
  m["cache.intra_page_updates"] =
      sum([](C c) { return c.metrics.intra_page_updates; });
  m["cache.slc_gc_passes"] = sum([](C c) { return c.metrics.slc_gc_count; });
  m["cache.mlc_gc_passes"] = sum([](C c) { return c.metrics.mlc_gc_count; });
  m["cache.gc_victim_util"] =
      ratio(sum([](C c) { return c.metrics.gc_utilization.sum(); }),
            sum([](C c) { return c.metrics.gc_utilization.count(); }));
  m["cache.gc_moved_subpages"] =
      sum([](C c) { return c.metrics.gc_moved_subpages; });
  m["cache.evicted_subpages"] =
      sum([](C c) { return c.metrics.evicted_subpages; });
  m["ftl.map_bytes"] = max([](C c) { return c.map_bytes; });
  m["nand.program_ops"] = sum([](C c) {
    return c.counters.slc_program_ops + c.counters.mlc_program_ops;
  });
  m["nand.partial_program_ops"] =
      sum([](C c) { return c.counters.partial_program_ops; });
  m["nand.read_ops"] = sum([](C c) { return c.counters.read_ops; });
  m["nand.erases"] = sum(
      [](C c) { return c.counters.slc_erases + c.counters.mlc_erases; });
  m["nand.reprogram_ops"] = sum([](C c) { return c.counters.reprogram_ops; });
  m["ecc.read_ber_mean"] =
      ratio(sum([](C c) { return c.metrics.read_ber.sum(); }),
            sum([](C c) { return c.metrics.read_ber.count(); }));
  m["sim.flash_ops"] = sum([](C c) { return c.result.ctrl_events; });
  m["sim.chip_fg_s"] = sum([](C c) { return c.result.chip_fg_seconds; });
  m["sim.chip_bg_s"] = sum([](C c) { return c.result.chip_bg_seconds; });
  m["sim.chip_erase_s"] = sum([](C c) { return c.result.chip_erase_seconds; });
  m["sim.queue_depth_mean"] = ratio(
      sum([](C c) {
        return c.result.avg_queue_depth * static_cast<double>(c.completed());
      }),
      reqs);
  m["sim.queue_depth_max"] = max([](C c) { return c.max_queue_depth; });
  m["mem.rss_after_setup_mib"] = max([](C c) { return c.rss_after_setup_mib; });
  m["mem.rss_after_warmup_mib"] =
      max([](C c) { return c.rss_after_warmup_mib; });
  m["mem.bytes_per_block"] = max([](C c) {
    return (c.rss_after_setup_mib - c.rss_before_mib) * 1024.0 * 1024.0 /
           static_cast<double>(c.spec.total_blocks);
  });

  double plain_measure = 0;
  for (C c : plain) plain_measure += c.result.wall_measure_seconds;
  m["trace_overhead_frac"] =
      ratio(sum([](C c) { return c.result.wall_measure_seconds; }),
            plain_measure) -
      1.0;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"ipu-ts0-paper",
                                                 "sweep-lun2"};
  return names;
}

std::optional<Workload> find_workload(std::string_view name,
                                      std::optional<std::uint64_t> seed,
                                      bool smoke) {
  Workload w;
  w.name = std::string(name);
  if (name == "ipu-ts0-paper") {
    w.cells.push_back(cell("IPU", "ts0", kPaperBlocks, 1.0));
  } else if (name == "sweep-lun2") {
    for (const std::string& scheme :
         ppssd::cache::SchemeRegistry::instance().names()) {
      w.cells.push_back(cell(scheme, "lun2", kFigureBlocks, kFigureScale));
    }
  } else {
    return std::nullopt;
  }
  for (CellSpec& c : w.cells) {
    if (seed) c.seed = *seed;
    if (smoke) {
      c.total_blocks = 1024;
      c.trace_scale = 0.01;
    }
  }
  return w;
}

const std::vector<MetricInfo>& end_to_end_metrics() {
  static const std::vector<MetricInfo> v = {
      {"setup_s", "s"},
      {"warmup_s", "s"},
      {"cell_wall_s", "s"},
      {"replay_reqs_per_s", "1/s"},
      {"host_ns_per_flash_op", "ns"},
      {"peak_rss_mib", "MiB"},
      {"sim_write_ms_mean", "ms"},
      {"sim_write_ms_p99", "ms"},
      {"sim_read_ms_p99", "ms"},
      {"sim_write_amp", "ratio"},
      {"sim_erases", "count"},
  };
  return v;
}

const std::vector<MetricInfo>& per_layer_metrics() {
  static const std::vector<MetricInfo> v = {
      {"trace.next_batch_s", "s"},
      {"sim.enqueue_s", "s"},
      {"sim.enqueue_ns_p50", "ns"},
      {"sim.enqueue_ns_p999", "ns"},
      {"sim.drain_s", "s"},
      {"sim.ctrl_self_s", "s"},
      {"cache.host_write_s", "s"},
      {"cache.host_read_s", "s"},
      {"cache.host_write_ns_p50", "ns"},
      {"cache.host_write_ns_p999", "ns"},
      {"cache.gc_write_s", "s"},
      {"cache.gc_write_calls", "count"},
      {"core.make_scheme_s", "s"},
      {"core.ssd_ctor_s", "s"},
      {"core.workload_ctor_s", "s"},
      {"core.prefill_s", "s"},
      {"core.warm_replay_s", "s"},
      {"core.consistency_check_s", "s"},
      {"cache.ops_per_req", "op/req"},
      {"cache.read_hit_ratio", "ratio"},
      {"cache.intra_page_updates", "count"},
      {"cache.slc_gc_passes", "count"},
      {"cache.mlc_gc_passes", "count"},
      {"cache.gc_victim_util", "ratio"},
      {"cache.gc_moved_subpages", "count"},
      {"cache.evicted_subpages", "count"},
      {"ftl.map_bytes", "B"},
      {"nand.program_ops", "count"},
      {"nand.partial_program_ops", "count"},
      {"nand.read_ops", "count"},
      {"nand.erases", "count"},
      {"nand.reprogram_ops", "count"},
      {"ecc.read_ber_mean", "ratio"},
      {"sim.flash_ops", "count"},
      {"sim.chip_fg_s", "s"},
      {"sim.chip_bg_s", "s"},
      {"sim.chip_erase_s", "s"},
      {"sim.queue_depth_mean", "count"},
      {"sim.queue_depth_max", "count"},
      {"mem.rss_after_setup_mib", "MiB"},
      {"mem.rss_after_warmup_mib", "MiB"},
      {"mem.bytes_per_block", "B"},
      {"trace_overhead_frac", "ratio"},
      {kProbeMetric, "ns"},
  };
  return v;
}

Repeat run_repeat(const Workload& w, bool traced) {
  Repeat rep;
  const auto start = Clock::now();
  // Probes around each plain cell; untraced, neighbours share one.
  std::vector<double> probes;
  std::vector<double> scale;  // per plain cell, see kReferenceProbeNs
  std::vector<CellRun> plain;
  std::vector<CellRun> timed;
  std::vector<TwinRun> twins;
  // A cell that fails counts all its requests as failed (at least one,
  // should it fail before its workload was built).
  const auto account = [&](const CellRun& c) {
    const std::uint64_t n = std::max<std::uint64_t>(1, c.expected_records);
    rep.attempted += n;
    if (!c.ok) {
      rep.failed += n;
      rep.errors.push_back(c.spec.label() + ": " + c.error);
    }
  };
  for (const CellSpec& spec : w.cells) {
    if (probes.empty() || traced) probes.push_back(memory_probe_ns());
    plain.push_back(run_cell(spec, Mode::kReplayer));
    probes.push_back(memory_probe_ns());
    scale.push_back(kReferenceProbeNs /
                    std::sqrt(probes.end()[-2] * probes.end()[-1]));
    account(plain.back());
    rep.digests.push_back(digest_of(sim_stats_text(plain.back())));
    if (!traced) continue;

    twins.push_back(run_twin(spec));
    timed.push_back(run_cell(spec, Mode::kTraced));
    CellRun& t = timed.back();
    if (t.ok && digest_of(sim_stats_text(t)) != rep.digests.back()) {
      t.ok = false;
      t.error = "traced replay digest differs from the Replayer run";
    }
    if (t.ok && !twins.back().ok) {
      t.ok = false;
      t.error = "scheme-only twin: " + twins.back().error;
    }
    if (t.ok) {
      if (const std::string d = compare_twin(t, twins.back()); !d.empty()) {
        t.ok = false;
        t.error = "scheme-only twin differs: " + d;
      }
    }
    account(t);
  }
  rep.metrics[kProbeMetric] = median(probes);
  if (traced) {
    per_layer(plain, timed, twins, rep);
  } else {
    end_to_end(plain, scale, rep);
  }
  rep.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return rep;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace simbench
