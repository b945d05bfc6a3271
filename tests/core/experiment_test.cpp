#include "core/experiment.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cache/ips_scheme.h"
#include "cache/ipu_scheme.h"
#include "cache/registry.h"
#include "cache/scheme.h"
#include "common/check.h"
#include "common/env.h"
#include "core/runner.h"
#include "core/warmstart.h"

namespace ppssd::core {
namespace {

ExperimentSpec tiny_spec() {
  ExperimentSpec spec;
  spec.scheme = "IPU";
  spec.trace = "ts0";
  spec.total_blocks = 1024;
  spec.trace_scale = 0.002;  // ~3.6k requests: fast
  return spec;
}

TEST(ExperimentSpec, KeyIsStableAndDistinct) {
  ExperimentSpec a = tiny_spec();
  ExperimentSpec b = tiny_spec();
  EXPECT_EQ(a.key(), b.key());
  b.scheme = "MGA";
  EXPECT_NE(a.key(), b.key());
  b = tiny_spec();
  b.pe_cycles = 8000;
  EXPECT_NE(a.key(), b.key());
  b = tiny_spec();
  b.options = cache::IpuScheme::Options{false, true, true}.to_scheme_options();
  EXPECT_NE(a.key(), b.key());
}

TEST(ExperimentSpec, KeyEncodingMatchesLegacyIpuFormat) {
  // The option-bag suffix must stay byte-identical to the pre-registry
  // "-isr<b>-lvl<b>-ipp<b>-cmb<b>" encoding: cache files keyed by it
  // survive the refactor.
  ExperimentSpec spec = tiny_spec();
  spec.options =
      cache::IpuScheme::Options{true, true, true, false}.to_scheme_options();
  EXPECT_EQ(spec.key(), "IPU-ts0-pe4000-b1024-s0.002-isr1-lvl1-ipp1-cmb0");
  spec.options.entries.clear();
  EXPECT_EQ(spec.key(), "IPU-ts0-pe4000-b1024-s0.002");
}

TEST(ExperimentSpec, FromKeyRoundTripsEveryRegisteredScheme) {
  std::vector<ExperimentSpec> specs;
  for (const std::string& name : cache::SchemeRegistry::instance().names()) {
    ExperimentSpec spec;
    spec.scheme = name;
    spec.trace = "lun2";
    spec.pe_cycles = 8000;
    spec.total_blocks = 2048;
    spec.trace_scale = 0.02;
    specs.push_back(spec);
  }
  ExperimentSpec ipu = tiny_spec();
  ipu.options =
      cache::IpuScheme::Options{false, true, false, true}.to_scheme_options();
  specs.push_back(ipu);
  ExperimentSpec ips = tiny_spec();
  ips.scheme = "IPS";
  ips.options = cache::IpsScheme::Options{false}.to_scheme_options();
  specs.push_back(ips);

  for (const ExperimentSpec& spec : specs) {
    const std::optional<ExperimentSpec> back =
        ExperimentSpec::from_key(spec.key());
    ASSERT_TRUE(back.has_value()) << spec.key();
    EXPECT_EQ(back->key(), spec.key());
    EXPECT_EQ(back->scheme, spec.scheme);
    EXPECT_EQ(back->trace, spec.trace);
    EXPECT_EQ(back->pe_cycles, spec.pe_cycles);
    EXPECT_EQ(back->total_blocks, spec.total_blocks);
    EXPECT_EQ(back->trace_scale, spec.trace_scale);
    EXPECT_EQ(back->options.entries, spec.options.entries);
    // The scheme's own factory accepts the decoded option bag.
    const SsdConfig cfg = config_for(*back);
    EXPECT_NE(cache::make_scheme(back->scheme, cfg, back->options), nullptr);
  }
}

TEST(ExperimentSpec, FromKeyRejectsNonKeys) {
  for (const char* text :
       {"", "IPU", "IPU-ts0-pe4000-b1024", "IPU-ts0-pe4000-b1024-s",
        "IPU-ts0-px4000-b1024-s0.002", "IPU-ts0-pe4000-b1024-s0.002x",
        "IPU-ts0-pe-1-b1024-s0.002", "IPU-ts0-pe4000-b1024-s0.0020",
        "IPU-ts0-pe4000-b1024-s0.002-isr", "IPU-ts0-pe4000-b1024-s0.002-1",
        "IPU-ts0-pe4000-b1024-s0.002-isr1-isr1", "-ts0-pe4000-b1024-s0.002",
        "IPU--pe4000-b1024-s0.002"}) {
    EXPECT_FALSE(ExperimentSpec::from_key(text).has_value()) << text;
  }
}

TEST(ExperimentResult, SerializeRoundTrip) {
  ExperimentResult r;
  r.spec = tiny_spec();
  r.avg_read_ms = 0.123;
  r.avg_write_ms = 0.456;
  r.avg_overall_ms = 0.4;
  r.read_ber = 2.84e-4;
  r.slc_subpages = 1000;
  r.mlc_subpages = 500;
  r.level_subpages[1] = 10;
  r.level_subpages[3] = 30;
  r.intra_page_updates = 77;
  r.gc_utilization = 0.61;
  r.slc_erases = 12;
  r.mlc_erases = 3;
  r.map_base_bytes = 1 << 20;
  r.map_extra_bytes = 1 << 10;
  r.slc_gc_count = 12;
  r.evicted_subpages = 200;
  r.chip_fg_seconds = 1.5;
  r.p50_read_ms = 0.1;
  r.p95_read_ms = 0.2;
  r.p99_write_ms = 0.9;
  r.p999_write_ms = 1.9;
  r.ctrl_events = 123456;
  r.wall_seconds = 2.5;
  r.wall_measure_seconds = 1.25;
  r.wall_reqs_per_sec = 8000.0;
  r.wall_ctrl_events_per_sec = 98764.8;

  const auto parsed = ExperimentResult::deserialize(r.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->avg_read_ms, r.avg_read_ms);
  EXPECT_DOUBLE_EQ(parsed->p50_read_ms, r.p50_read_ms);
  EXPECT_DOUBLE_EQ(parsed->p95_read_ms, r.p95_read_ms);
  EXPECT_DOUBLE_EQ(parsed->p99_write_ms, r.p99_write_ms);
  EXPECT_DOUBLE_EQ(parsed->p999_write_ms, r.p999_write_ms);
  EXPECT_EQ(parsed->ctrl_events, r.ctrl_events);
  EXPECT_DOUBLE_EQ(parsed->wall_seconds, r.wall_seconds);
  EXPECT_DOUBLE_EQ(parsed->wall_measure_seconds, r.wall_measure_seconds);
  EXPECT_DOUBLE_EQ(parsed->wall_reqs_per_sec, r.wall_reqs_per_sec);
  EXPECT_DOUBLE_EQ(parsed->wall_ctrl_events_per_sec,
                   r.wall_ctrl_events_per_sec);
  EXPECT_DOUBLE_EQ(parsed->read_ber, r.read_ber);
  EXPECT_EQ(parsed->slc_subpages, r.slc_subpages);
  EXPECT_EQ(parsed->level_subpages[3], r.level_subpages[3]);
  EXPECT_EQ(parsed->intra_page_updates, r.intra_page_updates);
  EXPECT_DOUBLE_EQ(parsed->gc_utilization, r.gc_utilization);
  EXPECT_EQ(parsed->mlc_erases, r.mlc_erases);
  EXPECT_EQ(parsed->map_base_bytes, r.map_base_bytes);
  EXPECT_DOUBLE_EQ(parsed->chip_fg_seconds, r.chip_fg_seconds);
}

TEST(ExperimentResult, EveryFieldRoundTripsWithDistinctValues) {
  // Every serialized field gets its own value, so a key written under
  // one field and read into another (or dropped) cannot go unnoticed.
  ExperimentResult r;
  r.spec = tiny_spec();
  r.avg_read_ms = 1.0625;
  r.avg_write_ms = 2.125;
  r.avg_overall_ms = 3.1875;
  r.p50_read_ms = 4.25;
  r.p50_write_ms = 5.3125;
  r.p95_read_ms = 6.375;
  r.p95_write_ms = 7.4375;
  r.p99_read_ms = 8.5;
  r.p99_write_ms = 9.5625;
  r.p999_read_ms = 10.625;
  r.p999_write_ms = 11.6875;
  r.reads = 12;
  r.writes = 13;
  r.read_ber = 1.4e-4;
  r.slc_subpages = 15;
  r.mlc_subpages = 16;
  r.level_subpages[0] = 17;
  r.level_subpages[1] = 18;
  r.level_subpages[2] = 19;
  r.level_subpages[3] = 20;
  r.intra_page_updates = 21;
  r.gc_utilization = 0.22;
  r.slc_erases = 23;
  r.mlc_erases = 24;
  r.map_base_bytes = 25;
  r.map_extra_bytes = 26;
  r.map_aux_bytes = 27;
  r.slc_gc_count = 28;
  r.mlc_gc_count = 29;
  r.evicted_subpages = 30;
  r.gc_moved_subpages = 31;
  r.avg_queue_depth = 32.5;
  r.avg_queue_depth_at_arrival = 33.5;
  r.chip_fg_seconds = 34.5;
  r.chip_bg_seconds = 35.5;
  r.chip_erase_seconds = 36.5;
  r.ctrl_events = 37;
  r.wall_seconds = 38.5;
  r.wall_setup_seconds = 39.5;
  r.wall_warmup_seconds = 40.5;
  r.wall_measure_seconds = 41.5;
  r.wall_report_seconds = 42.5;
  r.wall_reqs_per_sec = 43.5;
  r.wall_ctrl_events_per_sec = 44.5;

  const std::string text = r.serialize();
  EXPECT_EQ(text.rfind("schema=4\nkey=IPU-ts0-pe4000-b1024-s0.002\n", 0), 0u);
  std::size_t lines = 0;
  for (const char c : text) lines += c == '\n';
  EXPECT_EQ(lines, 2u + 44u);  // schema, key, 44 fields

  const auto p = ExperimentResult::deserialize(text);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->avg_read_ms, r.avg_read_ms);
  EXPECT_EQ(p->avg_write_ms, r.avg_write_ms);
  EXPECT_EQ(p->avg_overall_ms, r.avg_overall_ms);
  EXPECT_EQ(p->p50_read_ms, r.p50_read_ms);
  EXPECT_EQ(p->p50_write_ms, r.p50_write_ms);
  EXPECT_EQ(p->p95_read_ms, r.p95_read_ms);
  EXPECT_EQ(p->p95_write_ms, r.p95_write_ms);
  EXPECT_EQ(p->p99_read_ms, r.p99_read_ms);
  EXPECT_EQ(p->p99_write_ms, r.p99_write_ms);
  EXPECT_EQ(p->p999_read_ms, r.p999_read_ms);
  EXPECT_EQ(p->p999_write_ms, r.p999_write_ms);
  EXPECT_EQ(p->reads, r.reads);
  EXPECT_EQ(p->writes, r.writes);
  EXPECT_EQ(p->read_ber, r.read_ber);
  EXPECT_EQ(p->slc_subpages, r.slc_subpages);
  EXPECT_EQ(p->mlc_subpages, r.mlc_subpages);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(p->level_subpages[i], r.level_subpages[i]) << "level" << i;
  }
  EXPECT_EQ(p->intra_page_updates, r.intra_page_updates);
  EXPECT_EQ(p->gc_utilization, r.gc_utilization);
  EXPECT_EQ(p->slc_erases, r.slc_erases);
  EXPECT_EQ(p->mlc_erases, r.mlc_erases);
  EXPECT_EQ(p->map_base_bytes, r.map_base_bytes);
  EXPECT_EQ(p->map_extra_bytes, r.map_extra_bytes);
  EXPECT_EQ(p->map_aux_bytes, r.map_aux_bytes);
  EXPECT_EQ(p->slc_gc_count, r.slc_gc_count);
  EXPECT_EQ(p->mlc_gc_count, r.mlc_gc_count);
  EXPECT_EQ(p->evicted_subpages, r.evicted_subpages);
  EXPECT_EQ(p->gc_moved_subpages, r.gc_moved_subpages);
  EXPECT_EQ(p->avg_queue_depth, r.avg_queue_depth);
  EXPECT_EQ(p->avg_queue_depth_at_arrival, r.avg_queue_depth_at_arrival);
  EXPECT_EQ(p->chip_fg_seconds, r.chip_fg_seconds);
  EXPECT_EQ(p->chip_bg_seconds, r.chip_bg_seconds);
  EXPECT_EQ(p->chip_erase_seconds, r.chip_erase_seconds);
  EXPECT_EQ(p->ctrl_events, r.ctrl_events);
  EXPECT_EQ(p->wall_seconds, r.wall_seconds);
  EXPECT_EQ(p->wall_setup_seconds, r.wall_setup_seconds);
  EXPECT_EQ(p->wall_warmup_seconds, r.wall_warmup_seconds);
  EXPECT_EQ(p->wall_measure_seconds, r.wall_measure_seconds);
  EXPECT_EQ(p->wall_report_seconds, r.wall_report_seconds);
  EXPECT_EQ(p->wall_reqs_per_sec, r.wall_reqs_per_sec);
  EXPECT_EQ(p->wall_ctrl_events_per_sec, r.wall_ctrl_events_per_sec);
  // And the text is a fixed point (the key is informational: the runner
  // restores the spec from the request, not the file).
  ExperimentResult back = *p;
  back.spec = r.spec;
  EXPECT_EQ(back.serialize(), text);
}

TEST(ExperimentResult, DeserializeRejectsGarbage) {
  EXPECT_FALSE(ExperimentResult::deserialize("").has_value());
  EXPECT_FALSE(ExperimentResult::deserialize("not a result").has_value());
  EXPECT_FALSE(
      ExperimentResult::deserialize("avg_read_ms=zzz\n").has_value());
}

// A record cut anywhere — even after most of its fields — is rejected:
// every field of the table must be present.
TEST(ExperimentResult, TruncatedRecordIsRejected) {
  ExperimentResult r;
  r.spec = tiny_spec();
  r.slc_erases = 375;
  const std::string text = r.serialize();
  ASSERT_TRUE(ExperimentResult::deserialize(text).has_value());
  std::istringstream in(text);
  std::string line;
  std::string prefix;
  int lines = 0;
  while (std::getline(in, line)) {
    prefix += line + '\n';
    ++lines;
    const bool whole = in.peek() == std::char_traits<char>::eof();
    EXPECT_EQ(ExperimentResult::deserialize(prefix).has_value(), whole)
        << "first " << lines << " lines";
  }
  // A value that does not parse in full is rejected too.
  std::string bad = text;
  bad.replace(bad.find("slc_erases=375"), 14, "slc_erases=37x");
  EXPECT_FALSE(ExperimentResult::deserialize(bad).has_value());
}

TEST(ConfigFor, AppliesScaleAndWear) {
  ExperimentSpec spec = tiny_spec();
  spec.pe_cycles = 2000;
  const SsdConfig cfg = config_for(spec);
  EXPECT_EQ(cfg.geometry.total_blocks, 1024u);
  EXPECT_EQ(cfg.wear.initial_pe_cycles, 2000u);
  EXPECT_TRUE(cfg.validate().empty());
}

TEST(RunExperiment, TinyCellEndToEnd) {
  const ExperimentResult r = run_experiment(tiny_spec());
  EXPECT_GT(r.reads + r.writes, 1000u);
  EXPECT_GT(r.avg_write_ms, 0.0);
  EXPECT_GT(r.read_ber, 0.0);
  EXPECT_GT(r.slc_subpages, 0u);
  EXPECT_GT(r.map_base_bytes, 0u);
  // Warm-up guarantees steady state: the SLC cache saw GC.
  EXPECT_GT(r.slc_gc_count, 0u);
  // Percentile ladder is ordered.
  EXPECT_LE(r.p50_write_ms, r.p95_write_ms);
  EXPECT_LE(r.p95_write_ms, r.p99_write_ms);
  EXPECT_LE(r.p99_write_ms, r.p999_write_ms);
  // Wall-clock throughput accounting is populated and consistent.
  EXPECT_GT(r.wall_seconds, 0.0);
  EXPECT_GT(r.wall_measure_seconds, 0.0);
  EXPECT_GE(r.wall_seconds, r.wall_measure_seconds);
  EXPECT_GT(r.ctrl_events, 0u);
  EXPECT_GT(r.wall_reqs_per_sec, 0.0);
  EXPECT_GT(r.wall_ctrl_events_per_sec, 0.0);
}

TEST(RunExperiment, CtrlEventsDeterministic) {
  const ExperimentResult a = run_experiment(tiny_spec());
  const ExperimentResult b = run_experiment(tiny_spec());
  EXPECT_EQ(a.ctrl_events, b.ctrl_events);
}

TEST(RunExperiment, DeterministicAcrossRuns) {
  const ExperimentResult a = run_experiment(tiny_spec());
  const ExperimentResult b = run_experiment(tiny_spec());
  EXPECT_DOUBLE_EQ(a.avg_overall_ms, b.avg_overall_ms);
  EXPECT_EQ(a.slc_erases, b.slc_erases);
  EXPECT_DOUBLE_EQ(a.read_ber, b.read_ber);
}

TEST(RunExperiment, AblationOptionsChangeResults) {
  ExperimentSpec spec = tiny_spec();
  const ExperimentResult full = run_experiment(spec);
  spec.options =
      cache::IpuScheme::Options{true, true, false}.to_scheme_options();
  const ExperimentResult no_ipp = run_experiment(spec);
  EXPECT_GT(full.intra_page_updates, 0u);
  EXPECT_EQ(no_ipp.intra_page_updates, 0u);
}

TEST(Runner, CachesResultsOnDisk) {
  const std::string dir = ::testing::TempDir() + "ppssd_runner_cache";
  std::filesystem::remove_all(dir);
  Runner runner(dir);
  const ExperimentResult first = runner.run(tiny_spec());
  EXPECT_GT(first.wall_seconds, 0.0);
  // Second run loads from cache: identical metrics.
  const ExperimentResult second = runner.run(tiny_spec());
  EXPECT_DOUBLE_EQ(second.avg_overall_ms, first.avg_overall_ms);
  EXPECT_EQ(second.slc_erases, first.slc_erases);
  std::filesystem::remove_all(dir);
}

// A cache directory that cannot be created (here it would sit below a
// regular file) leaves every run correct but uncached: the runner says so
// on stderr, once, instead of re-simulating every cell without a word.
TEST(Runner, UnwritableCacheWarnsOnce) {
  const std::string file = ::testing::TempDir() + "ppssd_runner_not_a_dir";
  std::filesystem::remove_all(file);
  std::ofstream(file) << "regular file";
  Runner runner(file + "/cache");
  ::testing::internal::CaptureStderr();
  const ExperimentResult first = runner.run(tiny_spec());
  ExperimentSpec other = tiny_spec();
  other.pe_cycles += 1000;
  const ExperimentResult second = runner.run(other);
  const std::string err = ::testing::internal::GetCapturedStderr();
  const std::string line = "ppssd: cannot write result cache " + file +
                           "/cache/v" + std::to_string(kResultSchemaVersion) +
                           "-" + tiny_spec().key() + ".result\n";
  EXPECT_NE(err.find(line), std::string::npos) << err;
  EXPECT_EQ(err.find("cannot write result cache"),
            err.rfind("cannot write result cache"))
      << "warned more than once:\n"
      << err;
  EXPECT_GT(first.slc_erases, 0u);
  EXPECT_GT(second.slc_erases, 0u);
  std::filesystem::remove_all(file);
}

// A cache file cut short (a full disk, a writer killed mid-file) must be
// re-simulated, never read back with its missing fields as zeros.
TEST(Runner, TruncatedCacheFileIsAMiss) {
  const std::string dir = ::testing::TempDir() + "ppssd_runner_truncated";
  std::filesystem::remove_all(dir);
  Runner runner(dir);
  const ExperimentResult first = runner.run(tiny_spec());
  ASSERT_GT(first.slc_erases, 0u);
  const std::string path =
      dir + "/v" + std::to_string(kResultSchemaVersion) + "-" +
      tiny_spec().key() + ".result";
  std::string head;
  {
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::string line;
    for (int i = 0; i < 16 && std::getline(in, line); ++i) head += line + '\n';
  }
  std::ofstream(path, std::ios::trunc) << head;

  const ExperimentResult second = runner.run(tiny_spec());
  EXPECT_EQ(second.slc_erases, first.slc_erases);
  EXPECT_EQ(second.mlc_erases, first.mlc_erases);
  EXPECT_EQ(second.ctrl_events, first.ctrl_events);
  // The re-simulated cell republished a whole record, and no temp file
  // is left behind.
  std::ifstream in(path);
  std::ostringstream whole;
  whole << in.rdbuf();
  EXPECT_TRUE(ExperimentResult::deserialize(whole.str()).has_value());
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().extension(), ".result") << entry.path();
  }
  std::filesystem::remove_all(dir);
}

TEST(Runner, PaperMatrixShape) {
  EXPECT_EQ(Runner::paper_traces().size(), 6u);
  // The matrix enumerates the registry: all four schemes, paper order.
  const auto schemes = Runner::paper_schemes();
  ASSERT_EQ(schemes.size(), 4u);
  EXPECT_EQ(schemes[0], "Baseline");
  EXPECT_EQ(schemes[1], "MGA");
  EXPECT_EQ(schemes[2], "IPU");
  EXPECT_EQ(schemes[3], "IPS");
}

TEST(Runner, SchemesEnvFilterRestrictsMatrix) {
  ASSERT_EQ(setenv("PPSSD_SCHEMES", "ips , baseline", 1), 0);
  const auto filtered = Runner::paper_schemes();
  unsetenv("PPSSD_SCHEMES");
  // Registry order wins over env-var order; names are case-insensitive.
  ASSERT_EQ(filtered.size(), 2u);
  EXPECT_EQ(filtered[0], "Baseline");
  EXPECT_EQ(filtered[1], "IPS");
}

TEST(RunnerDeathTest, SchemesEnvFilterRejectsUnknownName) {
  ASSERT_EQ(setenv("PPSSD_SCHEMES", "nope", 1), 0);
  EXPECT_DEATH(Runner::paper_schemes(), "unknown scheme 'nope'");
  unsetenv("PPSSD_SCHEMES");
}

/// Thrown from the check-failure hook, so a failing PPSSD_CHECK unwinds
/// into the test instead of aborting it.
struct CheckFailed {};
void throw_check_failed(void* /*ctx*/) { throw CheckFailed{}; }

/// Runs fn with `name=value` set and a throwing hook armed; returns what
/// the failing check printed, or "" when fn returned normally.
template <typename Fn>
std::string env_failure(const char* name, const char* value, Fn&& fn) {
  setenv(name, value, 1);
  detail::set_check_failure_hook(&throw_check_failed, nullptr);
  ::testing::internal::CaptureStderr();
  bool failed = false;
  try {
    fn();
  } catch (const CheckFailed&) {
    failed = true;
  }
  const std::string err = ::testing::internal::GetCapturedStderr();
  detail::set_check_failure_hook(nullptr, nullptr);
  unsetenv(name);
  return failed ? err : "";
}

TEST(RunnerEnv, NumbersMustParseWhole) {
  const auto spec = [] { (void)Runner::default_spec(); };
  std::string err = env_failure("PPSSD_BLOCKS", "abc", spec);
  EXPECT_NE(err.find("PPSSD_BLOCKS='abc'"), std::string::npos) << err;
  err = env_failure("PPSSD_SCALE", "0.02abc", spec);
  EXPECT_NE(err.find("PPSSD_SCALE='0.02abc'"), std::string::npos) << err;
  err = env_failure("PPSSD_BLOCKS", "99999999999", spec);  // > uint32
  EXPECT_NE(err.find("PPSSD_BLOCKS"), std::string::npos) << err;
  err = env_failure("PPSSD_JOBS", "abc", [] {
    Runner runner("");
    (void)runner.run_all({});
  });
  EXPECT_NE(err.find("PPSSD_JOBS='abc'"), std::string::npos) << err;
  err = env_failure("PPSSD_JOBS", "-1", [] {
    (void)env_number<std::uint64_t>("PPSSD_JOBS", 1);
  });
  EXPECT_NE(err.find("PPSSD_JOBS"), std::string::npos) << err;
}

TEST(RunnerEnv, SwitchesMustBeZeroOrOne) {
  std::string err = env_failure("PPSSD_NO_CACHE", "yes", [] { Runner r; });
  EXPECT_NE(err.find("PPSSD_NO_CACHE='yes'"), std::string::npos) << err;
  err = env_failure("PPSSD_WARMSTART", "yes",
                    [] { (void)WarmStartCache::from_env(); });
  EXPECT_NE(err.find("PPSSD_WARMSTART='yes'"), std::string::npos) << err;
  err = env_failure("PPSSD_WARMSTART", "10",
                    [] { (void)WarmStartCache::from_env(); });
  EXPECT_NE(err.find("PPSSD_WARMSTART='10'"), std::string::npos) << err;
  err = env_failure("REPRO_FULL", "true",
                    [] { (void)Runner::default_spec(); });
  EXPECT_NE(err.find("REPRO_FULL='true'"), std::string::npos) << err;
  // PPSSD_PROGRESS is read once per process by the global reporter,
  // through the same helper.
  err = env_failure("PPSSD_PROGRESS", "2",
                    [] { (void)env_flag("PPSSD_PROGRESS", false); });
  EXPECT_NE(err.find("PPSSD_PROGRESS='2'"), std::string::npos) << err;
}

TEST(RunnerEnv, SwitchesParse) {
  setenv("PPSSD_NO_CACHE", "0", 1);
  EXPECT_FALSE(Runner().cache_dir().empty());
  setenv("PPSSD_NO_CACHE", "1", 1);
  EXPECT_TRUE(Runner().cache_dir().empty());
  setenv("PPSSD_NO_CACHE", "", 1);
  EXPECT_FALSE(Runner().cache_dir().empty());
  unsetenv("PPSSD_NO_CACHE");

  setenv("PPSSD_WARMSTART", "1", 1);
  EXPECT_TRUE(WarmStartCache::from_env().enabled());
  setenv("PPSSD_WARMSTART", "0", 1);
  EXPECT_FALSE(WarmStartCache::from_env().enabled());
  unsetenv("PPSSD_WARMSTART");

  EXPECT_TRUE(env_flag("PPSSD_PROGRESS", true));  // unset: fallback
  setenv("PPSSD_PROGRESS", "0", 1);
  EXPECT_FALSE(env_flag("PPSSD_PROGRESS", true));
  unsetenv("PPSSD_PROGRESS");
}

TEST(RunnerEnv, WholeNumbersParse) {
  setenv("PPSSD_BLOCKS", "2048", 1);
  setenv("PPSSD_SCALE", "0.02", 1);
  const ExperimentSpec spec = Runner::default_spec();
  unsetenv("PPSSD_BLOCKS");
  unsetenv("PPSSD_SCALE");
  EXPECT_EQ(spec.total_blocks, 2048u);
  EXPECT_EQ(spec.trace_scale, 0.02);
  // Unset or empty keeps the default.
  setenv("PPSSD_SCALE", "", 1);
  EXPECT_EQ(env_number("PPSSD_SCALE", 0.15), 0.15);
  unsetenv("PPSSD_SCALE");
  EXPECT_EQ(env_number<std::uint64_t>("PPSSD_JOBS", 3), 3u);
}

}  // namespace
}  // namespace ppssd::core
