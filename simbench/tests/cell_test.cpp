// Tests of the benchmark's cell runner on a small device and trace.
//
//  * Parity: at a profile's own seed the cell runner reproduces
//    core::run_experiment on every non-wall_ field, for every cell of
//    every workload.
//  * Determinism: the simulated-statistics digest repeats exactly, and is
//    the same through Replayer and through the span-timed loop.
//  * Twin: the scheme-only pass reaches the full cell's scheme metrics,
//    array counters and emitted-op count.
//  * Failure: a cell whose simulator check fails is reported, not fatal.
#include <gtest/gtest.h>

#include <set>

#include "bench.h"
#include "cell.h"
#include "host.h"

namespace simbench {
namespace {

std::vector<CellSpec> smoke_cells(std::optional<std::uint64_t> seed = {}) {
  std::vector<CellSpec> cells;
  for (const std::string& name : workload_names()) {
    const auto w = find_workload(name, seed, /*smoke=*/true);
    EXPECT_TRUE(w.has_value()) << name;
    if (w) cells.insert(cells.end(), w->cells.begin(), w->cells.end());
  }
  return cells;
}

class CellTest : public ::testing::Test {
 protected:
  void SetUp() override { (void)scrub_environment(); }
};

TEST_F(CellTest, WorkloadsUseProfileSeedsUnlessOverridden) {
  const auto ipu = find_workload("ipu-ts0-paper", std::nullopt, false);
  const auto sweep = find_workload("sweep-lun2", std::nullopt, false);
  ASSERT_TRUE(ipu && sweep);
  EXPECT_EQ(ipu->cells.at(0).seed, 1001u);
  EXPECT_EQ(ipu->cells.at(0).total_blocks, 65536u);
  std::set<std::string> schemes;
  for (const CellSpec& c : sweep->cells) {
    EXPECT_EQ(c.trace, "lun2");
    EXPECT_EQ(c.seed, 1005u);
    EXPECT_EQ(c.total_blocks, 16384u);
    schemes.insert(c.scheme);
  }
  EXPECT_EQ(schemes, (std::set<std::string>{"Baseline", "MGA", "IPU", "IPS"}));

  for (const CellSpec& c : smoke_cells(42)) EXPECT_EQ(c.seed, 42u);
  EXPECT_FALSE(find_workload("no-such-workload", std::nullopt, false));
}

TEST_F(CellTest, CellsMatchRunExperimentAtProfileSeeds) {
  for (const CellSpec& spec : smoke_cells()) {
    const CellRun run = run_cell(spec, Mode::kReplayer);
    ASSERT_TRUE(run.ok) << spec.label() << ": " << run.error;
    const auto ref = ppssd::core::run_experiment(spec.experiment());
    EXPECT_EQ(non_wall_lines(run.result), non_wall_lines(ref)) << spec.label();
  }
}

TEST_F(CellTest, DigestRepeatsAndTracedLoopMatchesReplayer) {
  for (const CellSpec& spec : smoke_cells(7)) {
    const CellRun a = run_cell(spec, Mode::kReplayer);
    const CellRun b = run_cell(spec, Mode::kReplayer);
    const CellRun t = run_cell(spec, Mode::kTraced);
    ASSERT_TRUE(a.ok && b.ok && t.ok) << spec.label();
    EXPECT_EQ(a.completed(), a.expected_records);
    const std::string d = digest_of(sim_stats_text(a));
    EXPECT_EQ(d, digest_of(sim_stats_text(b))) << spec.label();
    EXPECT_EQ(sim_stats_text(a), sim_stats_text(t)) << spec.label();
    EXPECT_EQ(t.times.enqueue_ns.size(), t.expected_records);
    EXPECT_GT(t.times.enqueue, 0.0);
    EXPECT_GT(t.times.next_batch, 0.0);
  }
}

TEST_F(CellTest, SeedChangesTheSimulatedStatistics) {
  CellSpec spec = smoke_cells().front();
  const CellRun a = run_cell(spec, Mode::kReplayer);
  spec.seed += 1;
  const CellRun b = run_cell(spec, Mode::kReplayer);
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_NE(digest_of(sim_stats_text(a)), digest_of(sim_stats_text(b)));
}

TEST_F(CellTest, SchemeOnlyTwinReachesTheFullPassState) {
  for (const CellSpec& spec : smoke_cells(3)) {
    const CellRun full = run_cell(spec, Mode::kTraced);
    const TwinRun twin = run_twin(spec);
    ASSERT_TRUE(full.ok && twin.ok) << spec.label();
    EXPECT_EQ(compare_twin(full, twin), "") << spec.label();
    EXPECT_EQ(compare_metrics(full.metrics, twin.metrics), "");
    EXPECT_EQ(twin.requests, full.expected_records);
    EXPECT_EQ(twin.host_write_ns.size(), full.result.writes);
    EXPECT_LE(twin.gc_write_s, twin.host_write_s);
  }
}

TEST_F(CellTest, TwinComparisonDetectsADifference) {
  const CellSpec spec = smoke_cells().front();
  const CellRun full = run_cell(spec, Mode::kTraced);
  TwinRun twin = run_twin(spec);
  ASSERT_TRUE(full.ok && twin.ok);
  twin.metrics.intra_page_updates += 1;
  EXPECT_NE(compare_twin(full, twin), "");
}

TEST_F(CellTest, FailingCellIsReportedAndLaterCellsStillRun) {
  CellSpec bad = smoke_cells().front();
  bad.scheme = "NoSuchScheme";
  const CellRun failed = run_cell(bad, Mode::kReplayer);
  EXPECT_FALSE(failed.ok);
  EXPECT_FALSE(failed.error.empty());

  Workload w;
  w.name = "mixed";
  w.cells = {bad, smoke_cells().front()};
  const Repeat rep = run_repeat(w, /*traced=*/false);
  EXPECT_EQ(rep.errors.size(), 1u);
  EXPECT_GE(rep.failed, 1u);
  EXPECT_GT(rep.attempted, rep.failed);
  EXPECT_GT(rep.metrics.at("replay_reqs_per_s"), 0.0);
}

TEST_F(CellTest, RepeatsReportEveryNamedMetric) {
  const auto w = find_workload("sweep-lun2", std::nullopt, true);
  ASSERT_TRUE(w);
  const Repeat plain = run_repeat(*w, false);
  for (const MetricInfo& m : end_to_end_metrics()) {
    ASSERT_TRUE(plain.metrics.count(m.name)) << m.name;
    EXPECT_GT(plain.metrics.at(m.name), 0.0) << m.name;
  }
  const Repeat traced = run_repeat(*w, true);
  EXPECT_TRUE(traced.errors.empty());
  for (const MetricInfo& m : per_layer_metrics()) {
    EXPECT_TRUE(traced.metrics.count(m.name)) << m.name;
  }
  EXPECT_GT(traced.metrics.at(kProbeMetric), 0.0);
  EXPECT_EQ(plain.digests, traced.digests);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

}  // namespace
}  // namespace simbench
