// Pipeline integration: synthetic workload -> MSR CSV on disk -> parser
// -> replayer must behave identically to replaying the generator
// directly; plus full-pipeline determinism checks.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "sim/replayer.h"
#include "sim/ssd.h"
#include "support/integrity_shadow.h"
#include "trace/msr_parser.h"
#include "trace/profiles.h"
#include "trace/synthetic.h"
#include "trace/writer.h"

namespace ppssd {
namespace {

SsdConfig cfg() { return SsdConfig::scaled(1024); }

TEST(ReplayPipeline, FileRoundTripMatchesDirectReplay) {
  const auto& profile = trace::profile_by_name("wdev0");

  // Direct replay.
  sim::Ssd direct(cfg(), "IPU");
  trace::SyntheticWorkload workload(profile, direct.logical_bytes(), 0.01);
  sim::Replayer direct_replayer(direct);
  const auto direct_result = direct_replayer.replay(workload);

  // Export to CSV and replay through the parser.
  const std::string path = ::testing::TempDir() + "ppssd_pipeline.csv";
  {
    std::ofstream out(path);
    trace::MsrTraceWriter writer(out);
    workload.reset();
    writer.write_all(workload);
  }
  sim::Ssd from_file(cfg(), "IPU");
  trace::MsrTraceParser parser(path);
  sim::Replayer file_replayer(from_file);
  const auto file_result = file_replayer.replay(parser);
  std::remove(path.c_str());

  EXPECT_EQ(file_result.requests, direct_result.requests);
  // Arrival rebasing shifts absolute times but not spacing; the policy
  // behaviour (placement, GC) must be identical.
  EXPECT_EQ(from_file.scheme().metrics().slc_subpages_written,
            direct.scheme().metrics().slc_subpages_written);
  EXPECT_EQ(from_file.scheme().metrics().intra_page_updates,
            direct.scheme().metrics().intra_page_updates);
  EXPECT_EQ(from_file.scheme().array().counters().slc_erases,
            direct.scheme().array().counters().slc_erases);
  // Latency averages match to tick-rounding noise.
  EXPECT_NEAR(file_result.latency.avg_overall_ms(),
              direct_result.latency.avg_overall_ms(), 1e-3);
  from_file.scheme().check_consistency();
}

TEST(ReplayPipeline, SchemesSeeIdenticalRequestStream) {
  // One generator instance per scheme with the same seed: the policy is
  // the only difference, so logical contents agree at the end.
  const auto& profile = trace::profile_by_name("ts0");
  std::uint64_t checks = 0;
  sim::Ssd a(cfg(), "Baseline");
  sim::Ssd b(cfg(), "IPU");
  const test::IntegrityShadow a_data(a.scheme().array());
  const test::IntegrityShadow b_data(b.scheme().array());
  for (sim::Ssd* dev : {&a, &b}) {
    trace::SyntheticWorkload workload(profile, dev->logical_bytes(), 0.005);
    sim::Replayer replayer(*dev);
    replayer.replay(workload);
  }
  for (Lsn lsn = 0; lsn < a.scheme().device_map().logical_subpages();
       lsn += 97) {
    ASSERT_EQ(a_data.host_writes(lsn), b_data.host_writes(lsn))
        << "lsn " << lsn;
    ++checks;
  }
  EXPECT_GT(checks, 1000u);
  a_data.check(a.scheme());
  b_data.check(b.scheme());
}

TEST(ReplayPipeline, RerunOnSameDeviceAccumulates) {
  // Replaying the same trace twice on one device: the second pass sees
  // warm state (more cache hits, updates instead of new data).
  sim::Ssd ssd(cfg(), "IPU");
  const auto& profile = trace::profile_by_name("usr0");
  trace::SyntheticWorkload workload(profile, ssd.logical_bytes(), 0.005);
  sim::Replayer replayer(ssd);
  replayer.replay(workload);
  const auto first_intra = ssd.scheme().metrics().intra_page_updates;
  workload.reset();
  replayer.replay(workload);
  EXPECT_GT(ssd.scheme().metrics().intra_page_updates, first_intra);
  ssd.scheme().check_consistency();
}

}  // namespace
}  // namespace ppssd
