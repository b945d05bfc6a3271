#include "core/warmstart.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "cache/registry.h"
#include "common/atomic_file.h"
#include "common/env.h"
#include "common/state_io.h"
#include "common/warmstart_format.h"
#include "core/experiment.h"
#include "nand/geometry.h"
#include "perf/progress.h"
#include "sim/ssd.h"
#include "telemetry/introspect/format.h"
#include "trace/profiles.h"

namespace ppssd::core {

namespace fs = std::filesystem;

namespace {

void warn(const std::string& message) {
  perf::ProgressReporter::global().note("[ppssd] warm-start: " + message);
}

io::warmstart::Header header_for(const std::string& key,
                                 const sim::Ssd& ssd) {
  const cache::Scheme& scheme = ssd.scheme();
  const nand::Geometry& geom = scheme.array().geometry();
  io::warmstart::Header h;
  h.key = key;
  h.scheme = scheme.name();
  h.total_blocks = geom.total_blocks();
  h.planes = geom.planes();
  h.subpages_per_page = geom.subpages_per_page();
  h.slc_blocks_per_plane = geom.slc_blocks_per_plane();
  h.slc_pages_per_block = geom.pages_per_block(CellMode::kSlc);
  h.mlc_pages_per_block = geom.pages_per_block(CellMode::kMlc);
  h.slc_gc_threshold = scheme.blocks().gc_threshold_blocks(CellMode::kSlc);
  h.mlc_gc_threshold = scheme.blocks().gc_threshold_blocks(CellMode::kMlc);
  return h;
}

bool read_file(const std::string& path, std::vector<std::uint8_t>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  in.seekg(0, std::ios::end);
  const auto size = in.tellg();
  if (size < 0) return false;
  in.seekg(0, std::ios::beg);
  out->resize(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(out->data()),
          static_cast<std::streamsize>(out->size()));
  return in.good() || out->empty();
}

/// Read-only view of a checkpoint file, memory-mapped when possible so
/// the multi-MB file is never copied into a heap buffer before the
/// checksum pass — the checksum and the layer restores read the
/// page-cached mapping directly. Falls back to a buffered read when mmap
/// is unavailable (zero-length or special files).
class MappedCheckpoint {
 public:
  explicit MappedCheckpoint(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd >= 0) {
      struct ::stat st {};
      if (::fstat(fd, &st) == 0 && st.st_size > 0) {
        void* map = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                           PROT_READ, MAP_PRIVATE, fd, 0);
        if (map != MAP_FAILED) {
          map_ = map;
          size_ = static_cast<std::size_t>(st.st_size);
          ::madvise(map_, size_, MADV_WILLNEED);
        }
      }
      ::close(fd);
    }
    if (map_ == nullptr) {
      opened_ = read_file(path, &fallback_);
    } else {
      opened_ = true;
    }
  }
  ~MappedCheckpoint() {
    if (map_ != nullptr) ::munmap(map_, size_);
  }
  MappedCheckpoint(const MappedCheckpoint&) = delete;
  MappedCheckpoint& operator=(const MappedCheckpoint&) = delete;

  [[nodiscard]] bool opened() const { return opened_; }
  [[nodiscard]] const std::uint8_t* data() const {
    return map_ != nullptr ? static_cast<const std::uint8_t*>(map_)
                           : fallback_.data();
  }
  [[nodiscard]] std::size_t size() const {
    return map_ != nullptr ? size_ : fallback_.size();
  }

 private:
  void* map_ = nullptr;
  std::size_t size_ = 0;
  std::vector<std::uint8_t> fallback_;
  bool opened_ = false;
};

/// Validate the mapped container (read_container: magic, version,
/// checksum over header and payload, payload size).
std::string open_container(const MappedCheckpoint& bytes,
                           io::warmstart::Header* h, std::size_t* payload_at) {
  if (!bytes.opened()) return "cannot read file";
  return io::warmstart::read_container(
      std::span<const std::uint8_t>(bytes.data(), bytes.size()), h,
      payload_at);
}

/// Restore `ssd` from an already validated container whose payload
/// starts at `payload_at`, after checking its key and geometry.
std::string restore_validated(const MappedCheckpoint& bytes,
                              const io::warmstart::Header& h,
                              std::size_t payload_at, const std::string& key,
                              sim::Ssd& ssd) {
  if (h.key != key) return "checkpoint holds foreign key '" + h.key + "'";
  // Cross-check the device shape before the payload touches it; a
  // mismatch here (key collision, edited config) must stay a soft miss,
  // while post-checksum shape mismatches inside restore() are hard
  // programming errors.
  const io::warmstart::Header want = header_for(key, ssd);
  if (h.scheme != want.scheme || h.total_blocks != want.total_blocks ||
      h.planes != want.planes ||
      h.subpages_per_page != want.subpages_per_page ||
      h.slc_blocks_per_plane != want.slc_blocks_per_plane ||
      h.slc_pages_per_block != want.slc_pages_per_block ||
      h.mlc_pages_per_block != want.mlc_pages_per_block ||
      h.slc_gc_threshold != want.slc_gc_threshold ||
      h.mlc_gc_threshold != want.mlc_gc_threshold) {
    return "checkpoint geometry does not match the device";
  }
  io::StateSource payload_src(bytes.data() + payload_at,
                              static_cast<std::size_t>(h.payload_size));
  ssd.restore(payload_src);
  PPSSD_CHECK_MSG(payload_src.exhausted(),
                  "warm-start payload has trailing bytes after restore");
  return "";
}

}  // namespace

WarmStartCache WarmStartCache::from_env() {
  const char* dir = std::getenv("PPSSD_WARMSTART_DIR");
  return WarmStartCache(env_flag("PPSSD_WARMSTART", false),
                        dir != nullptr ? dir : ".ppssd_warmstart");
}

std::string WarmStartCache::path_for(const std::string& key) const {
  return dir_ + "/wrm-v" + std::to_string(io::warmstart::kVersion) + "-" +
         key + ".ckpt";
}

std::string restore_checkpoint(const std::string& path,
                               const std::string& key, sim::Ssd& ssd) {
  const MappedCheckpoint bytes(path);
  io::warmstart::Header h;
  std::size_t payload_at = 0;
  const std::string why = open_container(bytes, &h, &payload_at);
  if (!why.empty()) return why;
  return restore_validated(bytes, h, payload_at, key, ssd);
}

bool is_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[8] = {};
  in.read(magic, sizeof magic);
  return in && std::string_view(magic, sizeof magic) == io::warmstart::kMagic;
}

namespace {

/// Rebuild the cell's device named by a checkpoint's header key and
/// restore it; nullptr with `*error` set on any rejection.
std::unique_ptr<sim::Ssd> open_checkpoint(const std::string& path,
                                          std::string* error) {
  const auto fail = [error](const std::string& what) {
    *error = what;
    return nullptr;
  };
  // The whole container is validated before its key is trusted to name
  // the device to build.
  const MappedCheckpoint bytes(path);
  io::warmstart::Header h;
  std::size_t payload_at = 0;
  if (std::string why = open_container(bytes, &h, &payload_at); !why.empty()) {
    return fail(why);
  }
  const std::optional<ExperimentSpec> spec = ExperimentSpec::from_key(h.key);
  if (!spec) return fail("header key '" + h.key + "' is not a cell key");
  const cache::SchemeInfo* scheme =
      cache::SchemeRegistry::instance().find(spec->scheme);
  if (scheme == nullptr || scheme->name != spec->scheme) {
    return fail("header key names unknown scheme '" + spec->scheme + "'");
  }
  const auto& profiles = trace::paper_profiles();
  if (std::none_of(profiles.begin(), profiles.end(),
                   [&](const trace::TraceProfile& p) {
                     return p.name == spec->trace;
                   })) {
    return fail("header key names unknown trace '" + spec->trace + "'");
  }
  const SsdConfig cfg = config_for(*spec);
  if (!cfg.validate().empty() ||
      cfg.geometry.total_blocks != h.total_blocks ||
      cfg.geometry.planes() != h.planes) {
    return fail("header key '" + h.key +
                "' disagrees with the header geometry");
  }
  auto ssd = std::make_unique<sim::Ssd>(
      cfg, cache::make_scheme(spec->scheme, cfg, spec->options));
  const std::string why = restore_validated(bytes, h, payload_at, h.key, *ssd);
  if (!why.empty()) return fail(why);
  return ssd;
}

}  // namespace

bool load_checkpoint_as_snapshot(const std::string& path,
                                 telemetry::introspect::SnapshotFile* out,
                                 std::string* error) {
  const std::unique_ptr<sim::Ssd> ssd = open_checkpoint(path, error);
  if (ssd == nullptr) return false;
  telemetry::introspect::SnapshotStream stream;
  stream.info = ssd->scheme().stream_info();
  telemetry::introspect::SnapshotFrame frame;
  ssd->scheme().read_frame(frame.blocks, frame.planes, frame.values);
  stream.frames.push_back(std::move(frame));
  out->streams.clear();
  out->streams.push_back(std::move(stream));
  out->truncated_bytes = 0;
  return true;
}

bool WarmStartCache::try_restore(const std::string& key,
                                 sim::Ssd& ssd) const {
  if (!enabled_) return false;
  const std::string path = path_for(key);
  std::error_code ec;
  if (!fs::exists(path, ec)) return false;  // no checkpoint: silent miss
  const std::string why = restore_checkpoint(path, key, ssd);
  if (!why.empty()) warn("ignoring " + path + ": " + why);
  return why.empty();
}

bool WarmStartCache::store(const std::string& key,
                           const sim::Ssd& ssd) const {
  if (!enabled_) return false;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  const std::string path = path_for(key);
  if (fs::exists(path, ec)) return false;  // first writer already won

  io::StateSink payload_sink;
  ssd.save(payload_sink);
  const std::vector<std::uint8_t> payload = payload_sink.take();

  const std::vector<std::uint8_t> head =
      io::warmstart::make_head(header_for(key, ssd), payload);

  // Concurrent runners (PPSSD_JOBS) either lose the exists() race above
  // or atomically publish identical bytes — both are fine.
  const auto view = [](const std::vector<std::uint8_t>& v) {
    return std::string_view(reinterpret_cast<const char*>(v.data()),
                            v.size());
  };
  const std::string why = write_file_atomic(path, {view(head), view(payload)});
  if (!why.empty()) warn("checkpoint " + why);
  return why.empty();
}

}  // namespace ppssd::core
