// Warm-start checkpoint container format (DESIGN.md §14).
//
// A checkpoint file is one PPSSDWRM container:
//
//   magic(8) container_version(u32) checksum(u64)
//   key(str)                      — the full experiment cache key
//   scheme(str)                   — scheme name, for inspection tools
//   geometry(8 × u32)             — total_blocks, planes, subpages/page,
//                                   SLC blocks/plane, SLC pages/block,
//                                   MLC pages/block, SLC GC threshold,
//                                   MLC GC threshold
//   payload_size(u64)
//   payload                       — Ssd::save() byte stream
//
// The checksum (FNV-1a) covers everything after it: the header fields,
// then the payload. read_container() validates it *before* any header
// field is acted on or any layer restore runs, so a damaged key cannot
// load as another cell and the layer restores may assume integrity and
// hard-check shape; everything the container check rejects is treated
// as a cache miss, never an abort. core/warmstart is the container's
// only writer and its only reader (restore_checkpoint); the payload is
// decoded by Ssd::restore() alone.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/state_io.h"

namespace ppssd::io::warmstart {

inline constexpr char kMagic[9] = "PPSSDWRM";
/// Bump on any change to the container or payload layout: a file of
/// another version is rejected by name, as a cache miss (DESIGN.md §14
/// lists what each version held).
inline constexpr std::uint32_t kVersion = 3;

struct Header {
  std::string key;
  std::string scheme;
  std::uint32_t total_blocks = 0;
  std::uint32_t planes = 0;
  std::uint32_t subpages_per_page = 0;
  std::uint32_t slc_blocks_per_plane = 0;
  std::uint32_t slc_pages_per_block = 0;
  std::uint32_t mlc_pages_per_block = 0;
  std::uint32_t slc_gc_threshold = 0;
  std::uint32_t mlc_gc_threshold = 0;
  std::uint64_t payload_size = 0;
};

/// Byte offset of the first checksummed byte: after magic, version and
/// the checksum word itself.
inline constexpr std::size_t kChecksummedFrom = 8 + 4 + 8;

/// FNV-1a, word-at-a-time variant: one xor+multiply per 8-byte word
/// (byte-wise tail). ~8x the byte-wise throughput, which matters — the
/// checksum runs over the whole multi-MB payload on every warm restore.
/// Single-word (hence single-bit) corruptions are still detected
/// deterministically: each step h' = (h ^ w) * prime is a bijection in
/// both operands, so two equal-length inputs differing in any word hash
/// differently.
inline std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n,
                           std::uint64_t h = 1469598103934665603ull) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, data + i, 8);
    h = (h ^ w) * 1099511628211ull;
  }
  for (; i < n; ++i) {
    h = (h ^ data[i]) * 1099511628211ull;
  }
  return h;
}

/// The container checksum: FNV-1a over the header fields, continued over
/// the payload (two runs, so the writer need not copy the payload behind
/// the header).
inline std::uint64_t container_checksum(std::span<const std::uint8_t> fields,
                                        std::span<const std::uint8_t> payload) {
  return fnv1a(payload.data(), payload.size(),
               fnv1a(fields.data(), fields.size()));
}

/// The bytes that precede `payload` in the container for `h`, with
/// payload_size and the checksum filled in from `payload`.
inline std::vector<std::uint8_t> make_head(
    Header h, std::span<const std::uint8_t> payload) {
  h.payload_size = payload.size();
  StateSink sink;
  for (std::size_t i = 0; i < 8; ++i) {
    sink.u8(static_cast<std::uint8_t>(kMagic[i]));
  }
  sink.u32(kVersion);
  sink.u64(0);  // checksum, patched below
  sink.str(h.key);
  sink.str(h.scheme);
  sink.u32(h.total_blocks);
  sink.u32(h.planes);
  sink.u32(h.subpages_per_page);
  sink.u32(h.slc_blocks_per_plane);
  sink.u32(h.slc_pages_per_block);
  sink.u32(h.mlc_pages_per_block);
  sink.u32(h.slc_gc_threshold);
  sink.u32(h.mlc_gc_threshold);
  sink.u64(h.payload_size);
  std::vector<std::uint8_t> head = sink.take();
  const std::uint64_t sum = container_checksum(
      std::span<const std::uint8_t>(head).subspan(kChecksummedFrom), payload);
  std::memcpy(head.data() + 8 + 4, &sum, sizeof sum);
  return head;
}

/// Validate a whole container held in memory: magic, container version,
/// the checksum over everything after it, then the payload size. Returns
/// "" with `*out` filled and `*payload_at` set to the payload's offset,
/// else why the bytes were rejected (a cache miss for callers).
inline std::string read_container(std::span<const std::uint8_t> bytes,
                                  Header* out, std::size_t* payload_at) {
  StateSource src(bytes.data(), bytes.size());
  for (std::size_t i = 0; i < 8; ++i) {
    if (src.u8() != static_cast<std::uint8_t>(kMagic[i])) {
      return "not a warm-start checkpoint (bad magic)";
    }
  }
  const std::uint32_t version = src.u32();
  const std::uint64_t sum = src.u64();
  if (!src.ok()) return "truncated container header";
  if (version != kVersion) {
    return "checkpoint container v" + std::to_string(version) +
           "; this build reads v" + std::to_string(kVersion);
  }
  out->key = src.str();
  out->scheme = src.str();
  out->total_blocks = src.u32();
  out->planes = src.u32();
  out->subpages_per_page = src.u32();
  out->slc_blocks_per_plane = src.u32();
  out->slc_pages_per_block = src.u32();
  out->mlc_pages_per_block = src.u32();
  out->slc_gc_threshold = src.u32();
  out->mlc_gc_threshold = src.u32();
  out->payload_size = src.u64();
  if (!src.ok()) return "truncated container header";
  const std::size_t head_end = src.pos();
  if (container_checksum(
          bytes.subspan(kChecksummedFrom, head_end - kChecksummedFrom),
          bytes.subspan(head_end)) != sum) {
    return "container checksum mismatch";
  }
  if (bytes.size() - head_end != out->payload_size) {
    return "payload size disagrees with the container header (truncated "
           "or padded file)";
  }
  *payload_at = head_end;
  return "";
}

}  // namespace ppssd::io::warmstart
