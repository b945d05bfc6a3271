// Checkpoint inspection (core::load_checkpoint_as_snapshot): a warm-start
// checkpoint is opened by rebuilding its cell's device from the header
// key and restoring it through the cache's own gate. The oracle is the
// live device the checkpoint was cut from: the loaded frame must match
// the live Scheme::read_frame walk field for field — block rows, plane
// rows and the scheme's key/value section — and a damaged file must be
// an error, never an abort.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/ips_scheme.h"
#include "cache/ipu_scheme.h"
#include "cache/registry.h"
#include "cache/scheme.h"
#include "common/warmstart_format.h"
#include "core/experiment.h"
#include "core/warmstart.h"
#include "sim/replayer.h"
#include "sim/ssd.h"
#include "telemetry/introspect/format.h"
#include "trace/profiles.h"
#include "trace/synthetic.h"

namespace ppssd::core {
namespace {

namespace fs = std::filesystem;
using telemetry::introspect::BlockState;
using telemetry::introspect::SnapshotFile;
using telemetry::introspect::SnapshotFrame;
using telemetry::introspect::StateSink;

ExperimentSpec tiny_spec(const char* scheme) {
  ExperimentSpec spec;
  spec.scheme = scheme;
  spec.trace = "ts0";
  spec.total_blocks = 1024;
  spec.trace_scale = 0.002;
  return spec;
}

/// The spec's device with non-trivial state (IPS leaves reprogram marks
/// as well as wear and occupancy), landed on the quiescent boundary
/// run_experiment checkpoints at.
std::unique_ptr<sim::Ssd> make_warmed(const ExperimentSpec& spec) {
  const SsdConfig cfg = config_for(spec);
  auto ssd = std::make_unique<sim::Ssd>(
      cfg, cache::make_scheme(spec.scheme, cfg, spec.options));
  trace::TraceProfile p = trace::profile_by_name(spec.trace);
  p.seed += 7777;
  trace::SyntheticWorkload workload(p, ssd->logical_bytes(),
                                    spec.trace_scale);
  sim::Replayer replayer(*ssd);
  replayer.replay(workload);
  ssd->scheme().reset_metrics();
  ssd->reset_timing();
  return ssd;
}

struct Fixture {
  std::unique_ptr<sim::Ssd> live;  // the device the checkpoint was cut from
  std::string ckpt_path;
};

Fixture store_checkpoint(const ExperimentSpec& spec, const std::string& dir) {
  fs::remove_all(dir);
  Fixture f;
  f.live = make_warmed(spec);
  const WarmStartCache cache(true, dir);
  EXPECT_TRUE(cache.store(spec.key(), *f.live));
  f.ckpt_path = cache.path_for(spec.key());
  return f;
}

/// The loaded checkpoint's one frame equals the live device's walk.
void expect_frame_matches_live(const std::string& ckpt_path,
                               const sim::Ssd& live) {
  SnapshotFile loaded;
  std::string error;
  ASSERT_TRUE(load_checkpoint_as_snapshot(ckpt_path, &loaded, &error))
      << error;
  ASSERT_EQ(loaded.streams.size(), 1u);
  ASSERT_EQ(loaded.streams[0].frames.size(), 1u);

  const auto want_info = live.scheme().stream_info();
  const auto& got_info = loaded.streams[0].info;
  EXPECT_EQ(got_info.scheme, want_info.scheme);
  EXPECT_EQ(got_info.total_blocks, want_info.total_blocks);
  EXPECT_EQ(got_info.planes, want_info.planes);
  EXPECT_EQ(got_info.subpages_per_page, want_info.subpages_per_page);
  EXPECT_EQ(got_info.slc_blocks_per_plane, want_info.slc_blocks_per_plane);
  EXPECT_EQ(got_info.slc_gc_threshold, want_info.slc_gc_threshold);
  EXPECT_EQ(got_info.mlc_gc_threshold, want_info.mlc_gc_threshold);

  const SnapshotFrame& gf = loaded.streams[0].frames[0];
  SnapshotFrame wf;
  live.scheme().read_frame(wf.blocks, wf.planes, wf.values);
  EXPECT_EQ(gf.time, 0u);

  ASSERT_EQ(gf.blocks.size(), wf.blocks.size());
  for (std::size_t b = 0; b < gf.blocks.size(); ++b) {
    const BlockState& x = gf.blocks[b];
    const BlockState& y = wf.blocks[b];
    ASSERT_EQ(x.erase_count, y.erase_count) << "block " << b;
    ASSERT_EQ(x.valid_subpages, y.valid_subpages) << "block " << b;
    ASSERT_EQ(x.invalid_subpages, y.invalid_subpages) << "block " << b;
    ASSERT_EQ(x.write_frontier, y.write_frontier) << "block " << b;
    ASSERT_EQ(x.pages, y.pages) << "block " << b;
    ASSERT_EQ(x.reprogrammed_pages, y.reprogrammed_pages) << "block " << b;
    ASSERT_EQ(x.mode, y.mode) << "block " << b;
    ASSERT_EQ(x.level, y.level) << "block " << b;
  }
  ASSERT_EQ(gf.planes.size(), wf.planes.size());
  for (std::size_t p = 0; p < gf.planes.size(); ++p) {
    ASSERT_EQ(gf.planes[p].free_slc, wf.planes[p].free_slc) << "plane " << p;
    ASSERT_EQ(gf.planes[p].free_mlc, wf.planes[p].free_mlc) << "plane " << p;
    ASSERT_EQ(gf.planes[p].pressure_slc, wf.planes[p].pressure_slc)
        << "plane " << p;
    ASSERT_EQ(gf.planes[p].pressure_mlc, wf.planes[p].pressure_mlc)
        << "plane " << p;
  }
  const auto& gv = gf.values.entries();
  const auto& wv = wf.values.entries();
  ASSERT_EQ(gv.size(), wv.size());
  for (std::size_t i = 0; i < gv.size(); ++i) {
    EXPECT_EQ(gv[i].name, wv[i].name);
    EXPECT_EQ(gv[i].is_float, wv[i].is_float) << gv[i].name;
    EXPECT_EQ(gv[i].u, wv[i].u) << gv[i].name;
    EXPECT_EQ(gv[i].d, wv[i].d) << gv[i].name;
  }
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open());
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

class WarmstartReader : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "ppssd_wsreader_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fixture_ = store_checkpoint(tiny_spec("IPS"), dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
  Fixture fixture_;
};

TEST_F(WarmstartReader, SniffsTheContainerMagic) {
  EXPECT_TRUE(is_checkpoint_file(fixture_.ckpt_path));
  const std::string other = dir_ + "/not_a_checkpoint.bin";
  std::ofstream(other) << "PPSSDSNP and more";
  EXPECT_FALSE(is_checkpoint_file(other));
  EXPECT_FALSE(is_checkpoint_file(dir_ + "/no_such_file"));
}

TEST_F(WarmstartReader, FrameMatchesTheLiveSnapshotterFieldForField) {
  expect_frame_matches_live(fixture_.ckpt_path, *fixture_.live);

  // The fixture must exercise the interesting rows: a blank device
  // would pass the comparison vacuously.
  SnapshotFrame live;
  fixture_.live->scheme().read_frame(live.blocks, live.planes, live.values);
  std::uint64_t valid = 0;
  std::uint64_t reprogrammed = 0;
  for (const BlockState& bs : live.blocks) {
    valid += bs.valid_subpages;
    reprogrammed += bs.reprogrammed_pages;
  }
  EXPECT_GT(valid, 0u);
  EXPECT_GT(reprogrammed, 0u) << "IPS warm-up produced no reprogram "
                                 "marks; pick a longer burst";
}

// The frame's scheme-side counts are the device's own, not zeros:
// `device_inspect --timeline` reads its mapped and slc_cached columns
// from them, and --verify checks them against the block-row recount.
TEST_F(WarmstartReader, FrameCarriesTheDeviceMappingCounts) {
  SnapshotFile loaded;
  std::string error;
  ASSERT_TRUE(load_checkpoint_as_snapshot(fixture_.ckpt_path, &loaded,
                                          &error))
      << error;
  const SnapshotFrame& f = loaded.streams.at(0).frames.at(0);
  const StateSink::Entry* mapped = f.values.find("mapped_lsns");
  const StateSink::Entry* cached = f.values.find("slc_cached_subpages");
  ASSERT_NE(mapped, nullptr);
  ASSERT_NE(cached, nullptr);

  const cache::Scheme& live = fixture_.live->scheme();
  EXPECT_EQ(mapped->u, live.device_map().mapped_count());
  EXPECT_GT(mapped->u, 0u);
  std::uint64_t valid = 0;
  std::uint64_t slc_valid = 0;
  const std::uint32_t per_plane =
      loaded.streams[0].info.total_blocks / loaded.streams[0].info.planes;
  for (std::uint32_t b = 0; b < f.blocks.size(); ++b) {
    valid += f.blocks[b].valid_subpages;
    if (b % per_plane < loaded.streams[0].info.slc_blocks_per_plane) {
      slc_valid += f.blocks[b].valid_subpages;
    }
  }
  EXPECT_EQ(mapped->u, valid);
  EXPECT_EQ(cached->u, slc_valid);
  EXPECT_GT(cached->u, 0u);
}

TEST_F(WarmstartReader, RejectsCorruptOrTruncatedCheckpoints) {
  const std::vector<char> bytes = read_bytes(fixture_.ckpt_path);
  const auto rejects = [&](const std::vector<char>& v, const char* why) {
    const std::string path = dir_ + "/variant.ckpt";
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(v.data(), static_cast<std::streamsize>(v.size()));
    }
    SnapshotFile sink;
    std::string error;
    EXPECT_FALSE(load_checkpoint_as_snapshot(path, &sink, &error)) << why;
    EXPECT_FALSE(error.empty()) << why;
    return error;
  };

  std::vector<char> flipped = bytes;
  flipped[flipped.size() - 17] ^= 0x40;  // payload byte: checksum must trip
  const std::string error = rejects(flipped, "payload bit flip");
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;

  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{5}, std::size_t{40}, bytes.size() / 2,
        bytes.size() - 1}) {
    rejects(std::vector<char>(bytes.begin(),
                              bytes.begin() + static_cast<long>(keep)),
            "truncated");
  }

  std::vector<char> bad_magic = bytes;
  bad_magic[0] = 'X';
  rejects(bad_magic, "bad magic");

  // The header key is inside the container checksum: a damaged key is
  // rejected before any device is built from it.
  const std::string key = tiny_spec("IPS").key();
  const auto with_key = [&](const std::string& replacement) {
    EXPECT_EQ(replacement.size(), key.size());
    std::vector<char> v = bytes;
    const auto at = std::search(v.begin(), v.end(), key.begin(), key.end());
    EXPECT_NE(at, v.end());
    std::copy(replacement.begin(), replacement.end(), at);
    return v;
  };
  std::string garbled = key;
  garbled[key.find("pe") + 2] = 'x';
  rejects(with_key(garbled), "key that does not parse");
  garbled = key;
  garbled.replace(0, 3, "XYZ");
  rejects(with_key(garbled), "unknown scheme");
  garbled = key;
  garbled.replace(0, 3, "ips");
  rejects(with_key(garbled), "non-canonical scheme spelling");
  garbled = key;
  garbled.replace(key.find("ts0"), 3, "tz0");
  rejects(with_key(garbled), "unknown trace");
  garbled = key;
  garbled.replace(key.find("b1024"), 5, "b9999");
  rejects(with_key(garbled), "key disagreeing with the geometry");
  garbled = key;
  garbled.replace(0, 3, "IPU");
  rejects(with_key(garbled), "key naming another scheme");

  SnapshotFile sink;
  std::string missing;
  EXPECT_FALSE(
      load_checkpoint_as_snapshot(dir_ + "/no_such_file", &sink, &missing));
  EXPECT_FALSE(missing.empty());
}

// The container checksum covers the header: no single-bit flip anywhere
// in it loads, neither through the cache gate nor through inspection —
// in particular not as another cell under a still-parsing key.
TEST_F(WarmstartReader, EveryHeaderBitFlipIsRejected) {
  // A smaller cell than the fixture's keeps the ~1600 full-file checksum
  // passes cheap.
  ExperimentSpec spec = tiny_spec("IPS");
  spec.total_blocks = 256;
  const Fixture small = store_checkpoint(spec, dir_ + "/small");
  const std::string& path = small.ckpt_path;
  const std::vector<char> bytes = read_bytes(path);
  io::warmstart::Header h;
  std::size_t payload_at = 0;
  ASSERT_EQ(io::warmstart::read_container(
                std::span<const std::uint8_t>(
                    reinterpret_cast<const std::uint8_t*>(bytes.data()),
                    bytes.size()),
                &h, &payload_at),
            "");
  ASSERT_GT(payload_at, h.key.size());

  const SsdConfig cfg = config_for(spec);
  sim::Ssd target(cfg, cache::make_scheme(spec.scheme, cfg, spec.options));
  std::fstream file(path,
                    std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.is_open());
  const auto put = [&](std::size_t at, char c) {
    file.seekp(static_cast<std::streamoff>(at));
    file.put(c);
    file.flush();
  };
  std::size_t rejected = 0;
  for (std::size_t at = 0; at < payload_at; ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      put(at, static_cast<char>(bytes[at] ^ (1 << bit)));
      EXPECT_NE(restore_checkpoint(path, spec.key(), target),
                "")
          << "byte " << at << " bit " << bit;
      SnapshotFile sink;
      std::string error;
      EXPECT_FALSE(
          load_checkpoint_as_snapshot(path, &sink, &error))
          << "byte " << at << " bit " << bit;
      ++rejected;
    }
    put(at, bytes[at]);
  }
  EXPECT_EQ(rejected, payload_at * 8);
  // The version word names both versions when only it is off.
  put(8, static_cast<char>(bytes[8] ^ 1));
  const std::string stale =
      restore_checkpoint(path, spec.key(), target);
  EXPECT_NE(stale.find("container v" +
                       std::to_string(io::warmstart::kVersion ^ 1)),
            std::string::npos)
      << stale;
  EXPECT_NE(stale.find("this build reads v" +
                       std::to_string(io::warmstart::kVersion)),
            std::string::npos)
      << stale;
  put(8, bytes[8]);
  EXPECT_EQ(restore_checkpoint(path, spec.key(), target), "");
}

// Cells with non-default scheme options carry them in the key; the
// loader must rebuild the same variant (the restore would otherwise
// disagree with the payload's side state).
TEST(WarmstartReaderOptions, LoadsCheckpointsOfSchemeOptionVariants) {
  ExperimentSpec ipu = tiny_spec("IPU");
  ipu.options = cache::IpuScheme::Options{false, true, true, true}
                    .to_scheme_options();
  ExperimentSpec ips = tiny_spec("IPS");
  ips.options = cache::IpsScheme::Options{false}.to_scheme_options();
  for (const ExperimentSpec& spec : {ipu, ips}) {
    SCOPED_TRACE(spec.key());
    const std::string dir = ::testing::TempDir() + "ppssd_wsreader_opts";
    const Fixture f = store_checkpoint(spec, dir);
    expect_frame_matches_live(f.ckpt_path, *f.live);
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace ppssd::core
