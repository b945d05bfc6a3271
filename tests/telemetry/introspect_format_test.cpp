// Snapshot stream + flight recorder format layer: multi-stream files
// round-trip, truncated tails load as the complete prefix (the same
// contract the attribution ledger loader makes), and the flight ring
// retains the newest events once it wraps.
#include "telemetry/introspect/format.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "telemetry/telemetry.h"

namespace ppssd::telemetry::introspect {
namespace {

StreamInfo small_info(const char* scheme = "IPU") {
  StreamInfo info;
  info.scheme = scheme;
  info.total_blocks = 4;
  info.planes = 2;
  info.subpages_per_page = 4;
  info.slc_blocks_per_plane = 1;
  info.slc_gc_threshold = 1;
  info.mlc_gc_threshold = 1;
  return info;
}

std::vector<BlockState> sample_blocks() {
  std::vector<BlockState> blocks(4);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    blocks[b].erase_count = static_cast<std::uint32_t>(10 * b);
    blocks[b].valid_subpages = static_cast<std::uint32_t>(b + 1);
    blocks[b].invalid_subpages = static_cast<std::uint32_t>(2 * b);
    blocks[b].write_frontier = static_cast<std::uint16_t>(b);
    blocks[b].pages = 8;
    blocks[b].reprogrammed_pages = static_cast<std::uint16_t>(b % 2);
    blocks[b].mode = static_cast<std::uint8_t>(b % 2);
    blocks[b].level = static_cast<std::uint8_t>(b % 3);
  }
  return blocks;
}

std::vector<PlaneState> sample_planes() {
  std::vector<PlaneState> planes(2);
  planes[0] = {5, 7, 0, 1};
  planes[1] = {2, 9, 1, 0};
  return planes;
}

std::string fresh_path(const char* name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SnapshotFormat, RoundTripsFramesAndKeyValues) {
  const std::string path = fresh_path("introspect_roundtrip.bin");
  SnapshotWriter writer;
  ASSERT_TRUE(writer.open(path));
  writer.begin_stream(small_info());
  writer.sink().value("mapped_lsns", std::uint64_t{42});
  writer.sink().value("hit_ratio", 0.75);
  writer.write_frame(1'000'000, sample_blocks(), sample_planes());
  writer.write_frame(2'000'000, sample_blocks(), sample_planes());
  writer.flush();

  SnapshotFile file;
  std::string error;
  ASSERT_TRUE(load_snapshots(path, &file, &error)) << error;
  ASSERT_EQ(file.streams.size(), 1u);
  EXPECT_EQ(file.truncated_bytes, 0u);

  const SnapshotStream& stream = file.streams[0];
  EXPECT_EQ(stream.info.scheme, "IPU");
  EXPECT_EQ(stream.info.total_blocks, 4u);
  EXPECT_EQ(stream.info.planes, 2u);
  EXPECT_EQ(stream.info.subpages_per_page, 4u);
  EXPECT_EQ(stream.info.slc_blocks_per_plane, 1u);

  ASSERT_EQ(stream.frames.size(), 2u);
  const SnapshotFrame& f0 = stream.frames[0];
  EXPECT_EQ(f0.time, 1'000'000u);
  EXPECT_EQ(f0.seq, 0u);
  ASSERT_EQ(f0.blocks.size(), 4u);
  EXPECT_EQ(f0.blocks[3].erase_count, 30u);
  EXPECT_EQ(f0.blocks[3].valid_subpages, 4u);
  EXPECT_EQ(f0.blocks[3].invalid_subpages, 6u);
  EXPECT_EQ(f0.blocks[3].write_frontier, 3u);
  EXPECT_EQ(f0.blocks[3].pages, 8u);
  EXPECT_EQ(f0.blocks[3].reprogrammed_pages, 1u);
  ASSERT_EQ(f0.planes.size(), 2u);
  EXPECT_EQ(f0.planes[1].free_slc, 2u);
  EXPECT_EQ(f0.planes[1].pressure_slc, 1u);

  // The key/value section round-trips both tags. Only the first frame
  // carries values: the sink is cleared by write_frame.
  const auto* mapped = f0.values.find("mapped_lsns");
  ASSERT_NE(mapped, nullptr);
  EXPECT_FALSE(mapped->is_float);
  EXPECT_EQ(mapped->u, 42u);
  const auto* ratio = f0.values.find("hit_ratio");
  ASSERT_NE(ratio, nullptr);
  EXPECT_TRUE(ratio->is_float);
  EXPECT_DOUBLE_EQ(ratio->d, 0.75);
  EXPECT_EQ(stream.frames[1].values.find("mapped_lsns"), nullptr);
  EXPECT_EQ(stream.frames[1].seq, 1u);
}

TEST(SnapshotFormat, StreamsAccumulateAndReopenTruncates) {
  const std::string path = fresh_path("introspect_multistream.bin");
  const auto write_two_streams = [&] {
    SnapshotWriter writer;
    ASSERT_TRUE(writer.open(path));
    writer.begin_stream(small_info("Baseline"));
    writer.write_frame(10, sample_blocks(), sample_planes());
    // A second bound device on the same writer starts its own stream.
    writer.begin_stream(small_info("IPS"));
    writer.write_frame(20, sample_blocks(), sample_planes());
    writer.write_frame(30, sample_blocks(), sample_planes());
  };
  write_two_streams();
  const std::string first_run = slurp(path);
  // Reopening truncates: a rerun replaces the file instead of growing it.
  write_two_streams();
  EXPECT_EQ(slurp(path), first_run);

  SnapshotFile file;
  std::string error;
  ASSERT_TRUE(load_snapshots(path, &file, &error)) << error;
  ASSERT_EQ(file.streams.size(), 2u);
  EXPECT_EQ(file.streams[0].info.scheme, "Baseline");
  EXPECT_EQ(file.streams[0].frames.size(), 1u);
  EXPECT_EQ(file.streams[1].info.scheme, "IPS");
  EXPECT_EQ(file.streams[1].frames.size(), 2u);
  // Frame sequence numbers restart per stream.
  EXPECT_EQ(file.streams[1].frames[0].seq, 0u);
}

TEST(SnapshotFormat, TruncatedTailLoadsCompletePrefix) {
  const std::string path = fresh_path("introspect_truncated.bin");
  {
    SnapshotWriter writer;
    ASSERT_TRUE(writer.open(path));
    writer.begin_stream(small_info());
    writer.write_frame(10, sample_blocks(), sample_planes());
    writer.write_frame(20, sample_blocks(), sample_planes());
  }
  const std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), 8u);

  // Cut into the last frame: the aborted-run shape. The first frame must
  // still load; the partial tail is reported, not fatal.
  spill(path, bytes.substr(0, bytes.size() - 7));
  SnapshotFile file;
  std::string error;
  ASSERT_TRUE(load_snapshots(path, &file, &error)) << error;
  ASSERT_EQ(file.streams.size(), 1u);
  EXPECT_EQ(file.streams[0].frames.size(), 1u);
  EXPECT_EQ(file.streams[0].frames[0].time, 10u);
  EXPECT_GT(file.truncated_bytes, 0u);
}

TEST(SnapshotFormat, RejectsMissingAndForeignFiles) {
  SnapshotFile file;
  std::string error;
  EXPECT_FALSE(load_snapshots(
      ::testing::TempDir() + "introspect_nonexistent.bin", &file, &error));
  EXPECT_FALSE(error.empty());

  const std::string path = fresh_path("introspect_garbage.bin");
  spill(path, "definitely not a snapshot stream");
  error.clear();
  EXPECT_FALSE(load_snapshots(path, &file, &error));
  EXPECT_FALSE(error.empty());
}

TEST(FlightRecorder, RingWrapKeepsNewestOldestFirst) {
  FlightRecorder rec(4);
  EXPECT_EQ(rec.capacity(), 4u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    FlightEvent ev;
    ev.time = 100 * i;
    ev.id = i;
    ev.kind = FlightEventKind::kOpBegin;
    rec.record(ev);
  }
  EXPECT_EQ(rec.recorded(), 10u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].id, 6u + i);  // newest four, oldest first
  }
}

TEST(FlightRecorder, DumpRoundTripsAndToleratesTruncation) {
  FlightRecorder rec(8);
  for (std::uint64_t i = 0; i < 5; ++i) {
    FlightEvent ev;
    ev.time = 7 * i;
    ev.id = i;
    ev.a = static_cast<std::uint32_t>(i + 1);
    ev.b = static_cast<std::uint32_t>(2 * i);
    ev.kind = i % 2 == 0 ? FlightEventKind::kOpBegin
                         : FlightEventKind::kGcDecision;
    ev.detail = static_cast<std::uint8_t>(i);
    rec.record(ev);
  }
  const std::string path = fresh_path("introspect_flight.bin");
  ASSERT_TRUE(rec.dump(path));

  FlightFile file;
  std::string error;
  ASSERT_TRUE(load_flight(path, &file, &error)) << error;
  EXPECT_EQ(file.capacity, 8u);
  EXPECT_EQ(file.recorded, 5u);
  ASSERT_EQ(file.events.size(), 5u);
  EXPECT_EQ(file.events[4].id, 4u);
  EXPECT_EQ(file.events[4].time, 28u);
  EXPECT_EQ(file.events[4].a, 5u);
  EXPECT_EQ(file.events[1].kind, FlightEventKind::kGcDecision);

  // A mid-event cut drops only the partial tail event.
  const std::string bytes = slurp(path);
  spill(path, bytes.substr(0, bytes.size() - 5));
  ASSERT_TRUE(load_flight(path, &file, &error)) << error;
  EXPECT_EQ(file.events.size(), 4u);
  EXPECT_EQ(file.events.back().id, 3u);
}

TEST(ObserveEnv, SnapshotAndFlightSinksUseTheFixedTuning) {
  unsetenv("PPSSD_OBSERVE");
  unsetenv("PPSSD_OBSERVE_DIR");
  EXPECT_FALSE(TelemetryOptions::from_env("cell").any());

  setenv("PPSSD_OBSERVE", "snapshot,flight", 1);
  setenv("PPSSD_OBSERVE_DIR", "out", 1);
  const TelemetryOptions opts = TelemetryOptions::from_env("cell");
  EXPECT_TRUE(opts.any());
  EXPECT_EQ(opts.snapshot_every_ns, 10'000'000u);  // 10 ms
  EXPECT_EQ(opts.flight_capacity, 4096u);
  EXPECT_EQ(opts.snapshot_path, "out/cell.snap.bin");
  EXPECT_EQ(opts.flight_path, "out/cell.flight.bin");
  EXPECT_TRUE(opts.trace_path.empty());
  EXPECT_TRUE(opts.attribution_path.empty());

  // Without PPSSD_OBSERVE_DIR the files land in ppssd_observe/.
  unsetenv("PPSSD_OBSERVE_DIR");
  EXPECT_EQ(TelemetryOptions::from_env("cell").snapshot_path,
            "ppssd_observe/cell.snap.bin");
  unsetenv("PPSSD_OBSERVE");
}

}  // namespace
}  // namespace ppssd::telemetry::introspect
