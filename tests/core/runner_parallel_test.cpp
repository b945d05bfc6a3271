#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/runner.h"
#include "perf/progress.h"

namespace ppssd::core {
namespace {

std::vector<ExperimentSpec> tiny_matrix() {
  std::vector<ExperimentSpec> specs;
  for (const char* trace : {"ts0", "lun2"}) {
    for (const auto scheme :
         {"Baseline", "IPU"}) {
      ExperimentSpec s;
      s.scheme = scheme;
      s.trace = trace;
      s.total_blocks = 1024;
      s.trace_scale = 0.002;  // ~3.6k requests per cell: fast
      specs.push_back(s);
    }
  }
  return specs;
}

// Everything but the wall_* keys (the only fields that may differ
// between otherwise identical runs — host-side timing, not sim state).
std::string stable_serialization(const ExperimentResult& r) {
  std::istringstream in(r.serialize());
  std::string line;
  std::string out;
  while (std::getline(in, line)) {
    if (line.rfind("wall_", 0) == 0) continue;
    out += line;
    out += '\n';
  }
  return out;
}

TEST(RunnerParallel, JobsProduceBitIdenticalResults) {
  Runner runner("");  // cache disabled: every cell actually simulates
  const auto specs = tiny_matrix();
  const auto seq = runner.run_all(specs, 1);
  const auto par = runner.run_all(specs, 4);
  ASSERT_EQ(seq.size(), specs.size());
  ASSERT_EQ(par.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(stable_serialization(seq[i]), stable_serialization(par[i]))
        << specs[i].key();
  }
}

// The progress reporter is the one observer every runner cell talks
// to: with it forced on, parallel cells still produce bit-identical
// results, and its status lines name every simulated cell. (The global
// reporter reads PPSSD_PROGRESS once per process; ctest runs this test
// in a process of its own.)
TEST(RunnerParallel, ProgressOnKeepsResultsBitIdentical) {
  setenv("PPSSD_PROGRESS", "1", 1);
  ::testing::internal::CaptureStderr();
  Runner runner("");
  const auto specs = tiny_matrix();
  const auto seq = runner.run_all(specs, 1);
  const auto par = runner.run_all(specs, 4);
  const std::string err = ::testing::internal::GetCapturedStderr();
  unsetenv("PPSSD_PROGRESS");

  ASSERT_EQ(par.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(stable_serialization(seq[i]), stable_serialization(par[i]))
        << specs[i].key();
    if (perf::ProgressReporter::global().enabled()) {
      EXPECT_NE(err.find("simulating " + specs[i].key()), std::string::npos)
          << err;
    }
  }
}

TEST(RunnerParallel, ResultsComeBackInSpecOrder) {
  Runner runner("");
  const auto specs = tiny_matrix();
  const auto results = runner.run_all(specs, 4);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(results[i].spec.key(), specs[i].key());
  }
}

}  // namespace
}  // namespace ppssd::core
