// Warm-start device-checkpoint cache (DESIGN.md §14).
//
// run_experiment spends most of its non-measured wall time warming the
// device: pre-filling the MLC region and streaming ~1.2x the SLC cache
// capacity of writes. That warm-up is a pure function of the experiment
// cache key (config + trace + scale pin every input), so its result — the
// complete post-warm-up device state — is cached on disk as a PPSSDWRM
// container (common/warmstart_format.h) and restored on later runs.
//
// Enabled with PPSSD_WARMSTART=1; checkpoints live under
// PPSSD_WARMSTART_DIR (default .ppssd_warmstart). Restores are
// behavior-preserving to the byte (tests/integration/warmstart_twin_test),
// so cached and cold runs produce identical results.
//
// Failure policy: anything wrong with a checkpoint file — missing, stale
// format, foreign key, truncated, corrupt — is a cache *miss*, never an
// abort. Missing files miss silently; everything else warns once.
//
// restore_checkpoint() is the one decoder of the container: the cache
// and the inspection path (load_checkpoint_as_snapshot, device_inspect)
// both go through it into Ssd::restore.
#pragma once

#include <string>

namespace ppssd::sim {
class Ssd;
}
namespace ppssd::telemetry::introspect {
struct SnapshotFile;
}

namespace ppssd::core {

/// The checkpoint gate. Opens the PPSSDWRM container at `path` and,
/// before the payload touches `ssd`, checks the magic and container
/// version, the checksum over header and payload, the payload's size,
/// that the embedded key is `key` and that the header geometry matches
/// `ssd`; then restores `ssd` (freshly constructed from the key's
/// config). Returns "" on success, else why the file was rejected; `ssd`
/// is then untouched.
[[nodiscard]] std::string restore_checkpoint(const std::string& path,
                                             const std::string& key,
                                             sim::Ssd& ssd);

/// True when `path` starts with the PPSSDWRM container magic (the cheap
/// dispatch test tools use to pick a loader).
[[nodiscard]] bool is_checkpoint_file(const std::string& path);

/// Load a checkpoint for inspection as a snapshot file with one stream
/// and one frame at t=0 (checkpoints are cut after reset_timing()). The
/// cell's device is rebuilt from the header key (ExperimentSpec::from_key,
/// config_for, the scheme registry), restored through
/// restore_checkpoint, and walked once by Scheme::read_frame — the same
/// walk the snapshot sink makes of a live device. Returns false with
/// `*error` set on an unreadable, malformed or corrupt file.
///
/// The whole container, key included, passes the checksum before a
/// device is built from the key; the key is then checked for syntax, a
/// registered scheme and trace, and agreement with the header geometry
/// (option names are checked only by the scheme's factory, which aborts
/// on an unknown one — a checksummed key can carry one only if it was
/// written that way).
[[nodiscard]] bool load_checkpoint_as_snapshot(
    const std::string& path, telemetry::introspect::SnapshotFile* out,
    std::string* error);

class WarmStartCache {
 public:
  /// Disabled cache: every lookup misses, store() is a no-op.
  WarmStartCache() = default;
  WarmStartCache(bool enabled, std::string dir)
      : enabled_(enabled), dir_(std::move(dir)) {}

  /// PPSSD_WARMSTART=1 enables (a switch: 0, 1, unset or empty; any
  /// other value fails a PPSSD_CHECK); PPSSD_WARMSTART_DIR overrides the
  /// checkpoint directory (default .ppssd_warmstart).
  static WarmStartCache from_env();

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Checkpoint file path for an experiment cache key.
  [[nodiscard]] std::string path_for(const std::string& key) const;

  /// Restore `ssd` from the checkpoint for `key` through
  /// restore_checkpoint. True on a hit (the device now carries the
  /// post-warm-up state); false on any miss. The device must be freshly
  /// constructed from the spec's config.
  bool try_restore(const std::string& key, sim::Ssd& ssd) const;

  /// Write the checkpoint for `key` from a just-warmed device. Skips
  /// silently when a checkpoint already exists (first writer wins; the
  /// content is deterministic, so every writer would produce the same
  /// bytes). Writes are atomic (unique temp file + rename), so parallel
  /// runners never observe a half-written checkpoint. Returns true if a
  /// new checkpoint was written.
  bool store(const std::string& key, const sim::Ssd& ssd) const;

 private:
  bool enabled_ = false;
  std::string dir_ = ".ppssd_warmstart";
};

}  // namespace ppssd::core
