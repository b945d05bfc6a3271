#include "core/experiment.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "cache/ipu_scheme.h"
#include "core/runner.h"

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

TEST(ExperimentResult, DeserializeRejectsGarbage) {
  EXPECT_FALSE(ExperimentResult::deserialize("").has_value());
  EXPECT_FALSE(ExperimentResult::deserialize("not a result").has_value());
  EXPECT_FALSE(
      ExperimentResult::deserialize("avg_read_ms=zzz\n").has_value());
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

}  // namespace
}  // namespace ppssd::core
