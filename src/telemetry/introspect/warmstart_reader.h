// Read-only adapter: present a warm-start checkpoint (PPSSDWRM,
// common/warmstart_format.h) as a single-frame snapshot stream, so every
// existing device_inspect view (--heatmap, --diff, --verify, --timeline)
// works on checkpoints without a second rendering path.
//
// The adapter parses only the *leading* sections of the Ssd::save()
// payload — the FlashArray state and the BlockManager free lists — and
// derives exactly the per-block / per-plane figures the snapshot sink
// walks out of a live device (cache::Scheme::read_frame): write
// frontier = pages with program ops, valid/invalid from the subpage-state
// rows, reprogrammed marks below the frontier, free counts from the heap
// lengths, pressure against the header's GC thresholds. Everything past
// the BlockManager section (mapping table, scheme side-state, controller
// queue) is ignored; the container checksum is validated first, so a
// short or corrupt file is rejected, never misread.
//
// This lives in ppssd_telemetry (common-only dependencies) like the rest
// of the format layer: it parses bytes, it never constructs a device.
#pragma once

#include <string>

#include "telemetry/introspect/format.h"

namespace ppssd::telemetry::introspect {

/// True when `path` starts with the PPSSDWRM container magic (the
/// cheap dispatch test tools use to pick a loader).
[[nodiscard]] bool is_warmstart_file(const std::string& path);

/// Load a warm-start checkpoint as a SnapshotFile with one stream and
/// one frame at sim time 0 (checkpoints are cut after reset_timing()).
/// Returns false with `*error` set on I/O failure, bad magic/version, a
/// checksum mismatch, or a payload too short for the array + block
/// manager sections.
[[nodiscard]] bool load_warmstart_as_snapshot(const std::string& path,
                                              SnapshotFile* out,
                                              std::string* error);

}  // namespace ppssd::telemetry::introspect
