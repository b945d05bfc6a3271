#include "telemetry/introspect/format.h"

#include <cstring>

#include "common/check.h"

namespace ppssd::telemetry::introspect {

namespace {

void put_u8(std::vector<unsigned char>& b, std::uint8_t v) { b.push_back(v); }
void put_u16(std::vector<unsigned char>& b, std::uint16_t v) {
  for (int i = 0; i < 2; ++i)
    b.push_back(static_cast<unsigned char>(v >> (8 * i)));
}
void put_u32(std::vector<unsigned char>& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    b.push_back(static_cast<unsigned char>(v >> (8 * i)));
}
void put_u64(std::vector<unsigned char>& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    b.push_back(static_cast<unsigned char>(v >> (8 * i)));
}
void put_f64(std::vector<unsigned char>& b, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(b, bits);
}
void put_str(std::vector<unsigned char>& b, const std::string& s) {
  put_u32(b, static_cast<std::uint32_t>(s.size()));
  b.insert(b.end(), s.begin(), s.end());
}

// Bounds-checked little-endian reader (same shape as the ledger loader).
struct ByteReader {
  const unsigned char* p;
  std::size_t left;
  bool ok = true;

  std::uint8_t u8() {
    if (left < 1) return fail<std::uint8_t>();
    const std::uint8_t v = *p;
    ++p;
    --left;
    return v;
  }
  std::uint16_t u16() {
    if (left < 2) return fail<std::uint16_t>();
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i)
      v = static_cast<std::uint16_t>(v | (static_cast<std::uint16_t>(p[i])
                                          << (8 * i)));
    p += 2;
    left -= 2;
    return v;
  }
  std::uint32_t u32() {
    if (left < 4) return fail<std::uint32_t>();
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    p += 4;
    left -= 4;
    return v;
  }
  std::uint64_t u64() {
    if (left < 8) return fail<std::uint64_t>();
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    p += 8;
    left -= 8;
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    if (!ok || left < n) {
      ok = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(p), n);
    p += n;
    left -= n;
    return s;
  }
  [[nodiscard]] std::uint32_t peek_u32() const {
    if (left < 4) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
  }

  template <typename T>
  T fail() {
    ok = false;
    return T{};
  }
};

}  // namespace

const StateSink::Entry* StateSink::find(std::string_view name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

// ---- writer -------------------------------------------------------------

bool SnapshotWriter::open(const std::string& path) {
  PPSSD_CHECK(!out_.is_open());
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) return false;
  path_ = path;
  return true;
}

void SnapshotWriter::begin_stream(const StreamInfo& info) {
  PPSSD_CHECK(out_.is_open());
  buf_.clear();
  std::vector<unsigned char> header;
  put_str(header, info.scheme);
  put_u32(header, info.total_blocks);
  put_u32(header, info.planes);
  put_u32(header, info.subpages_per_page);
  put_u32(header, info.slc_blocks_per_plane);
  put_u32(header, info.slc_gc_threshold);
  put_u32(header, info.mlc_gc_threshold);
  put_u32(header, kBlockRecordBytes);
  put_u32(header, kPlaneRecordBytes);

  buf_.insert(buf_.end(), kSnapshotMagic, kSnapshotMagic + 8);
  put_u32(buf_, kSnapshotVersion);
  put_u32(buf_, static_cast<std::uint32_t>(header.size()));
  buf_.insert(buf_.end(), header.begin(), header.end());
  out_.write(reinterpret_cast<const char*>(buf_.data()),
             static_cast<std::streamsize>(buf_.size()));
  out_.flush();
  seq_ = 0;
}

void SnapshotWriter::write_frame(SimTime now,
                                 const std::vector<BlockState>& blocks,
                                 const std::vector<PlaneState>& planes) {
  PPSSD_CHECK(out_.is_open());
  std::vector<unsigned char> payload;
  payload.reserve(16 + blocks.size() * kBlockRecordBytes +
                  planes.size() * kPlaneRecordBytes);
  put_u64(payload, now);
  put_u32(payload, seq_++);
  for (const BlockState& b : blocks) {
    put_u32(payload, b.erase_count);
    put_u32(payload, b.valid_subpages);
    put_u32(payload, b.invalid_subpages);
    put_u16(payload, b.write_frontier);
    put_u16(payload, b.pages);
    put_u16(payload, b.reprogrammed_pages);
    put_u8(payload, b.mode);
    put_u8(payload, b.level);
  }
  for (const PlaneState& p : planes) {
    put_u32(payload, p.free_slc);
    put_u32(payload, p.free_mlc);
    put_u8(payload, p.pressure_slc);
    put_u8(payload, p.pressure_mlc);
  }
  put_u32(payload, static_cast<std::uint32_t>(sink_.entries().size()));
  for (const StateSink::Entry& e : sink_.entries()) {
    put_str(payload, e.name);
    put_u8(payload, e.is_float ? 1 : 0);
    if (e.is_float) {
      put_f64(payload, e.d);
    } else {
      put_u64(payload, e.u);
    }
  }
  sink_.clear();

  buf_.clear();
  put_u32(buf_, kFrameMarker);
  put_u32(buf_, static_cast<std::uint32_t>(payload.size()));
  out_.write(reinterpret_cast<const char*>(buf_.data()),
             static_cast<std::streamsize>(buf_.size()));
  out_.write(reinterpret_cast<const char*>(payload.data()),
             static_cast<std::streamsize>(payload.size()));
  // Flush per frame: frames are interval-paced (rare next to the event
  // loop), and the crash hook must find every completed frame on disk.
  out_.flush();
  ++frames_;
}

void SnapshotWriter::flush() {
  if (out_.is_open()) out_.flush();
}

// ---- loader -------------------------------------------------------------

namespace {

/// Parse one frame payload against the stream's header. Returns false on
/// a malformed (not merely truncated) payload.
bool parse_frame(ByteReader r, const StreamInfo& info, SnapshotFrame* out) {
  out->time = r.u64();
  out->seq = r.u32();
  out->blocks.reserve(info.total_blocks);
  for (std::uint32_t i = 0; i < info.total_blocks; ++i) {
    BlockState b;
    b.erase_count = r.u32();
    b.valid_subpages = r.u32();
    b.invalid_subpages = r.u32();
    b.write_frontier = r.u16();
    b.pages = r.u16();
    b.reprogrammed_pages = r.u16();
    b.mode = r.u8();
    b.level = r.u8();
    if (!r.ok) return false;
    out->blocks.push_back(b);
  }
  for (std::uint32_t i = 0; i < info.planes; ++i) {
    PlaneState p;
    p.free_slc = r.u32();
    p.free_mlc = r.u32();
    p.pressure_slc = r.u8();
    p.pressure_mlc = r.u8();
    if (!r.ok) return false;
    out->planes.push_back(p);
  }
  const std::uint32_t kv = r.u32();
  for (std::uint32_t i = 0; i < kv; ++i) {
    const std::string name = r.str();
    const std::uint8_t tag = r.u8();
    if (!r.ok) return false;
    if (tag == 1) {
      out->values.value(name, r.f64());
    } else {
      out->values.value(name, r.u64());
    }
    if (!r.ok) return false;
  }
  return r.ok;
}

}  // namespace

bool load_snapshots(const std::string& path, SnapshotFile* out,
                    std::string* error) {
  PPSSD_CHECK(out != nullptr);
  *out = SnapshotFile{};
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ByteReader r{reinterpret_cast<const unsigned char*>(bytes.data()),
               bytes.size()};
  if (r.left < 8 || std::memcmp(r.p, kSnapshotMagic, 8) != 0) {
    if (error) *error = "not a snapshot stream (bad magic)";
    return false;
  }

  while (r.left > 0) {
    // Stream header. A truncated trailing header is dropped silently —
    // the writer was killed between open and the first frame.
    if (r.left < 8 || std::memcmp(r.p, kSnapshotMagic, 8) != 0) {
      if (error) *error = "garbage between streams";
      out->truncated_bytes = r.left;
      return !out->streams.empty();
    }
    ByteReader header = r;
    header.p += 8;
    header.left -= 8;
    const std::uint32_t version = header.u32();
    const std::uint32_t header_len = header.u32();
    if (!header.ok || header.left < header_len) {
      out->truncated_bytes = r.left;
      break;
    }
    if (version != kSnapshotVersion) {
      if (error) *error = "unsupported snapshot version";
      return false;
    }
    ByteReader h{header.p, header_len};
    SnapshotStream stream;
    stream.info.scheme = h.str();
    stream.info.total_blocks = h.u32();
    stream.info.planes = h.u32();
    stream.info.subpages_per_page = h.u32();
    stream.info.slc_blocks_per_plane = h.u32();
    stream.info.slc_gc_threshold = h.u32();
    stream.info.mlc_gc_threshold = h.u32();
    const std::uint32_t block_bytes = h.u32();
    const std::uint32_t plane_bytes = h.u32();
    if (!h.ok || block_bytes != kBlockRecordBytes ||
        plane_bytes != kPlaneRecordBytes) {
      if (error) *error = "unsupported snapshot stream header";
      return false;
    }
    r.p = header.p + header_len;
    r.left = header.left - header_len;

    // Frames until the next stream's magic or EOF.
    while (r.left >= 8 && r.peek_u32() == kFrameMarker) {
      ByteReader f = r;
      (void)f.u32();  // marker
      const std::uint32_t payload_len = f.u32();
      if (!f.ok || f.left < payload_len) {
        // Aborted mid-frame: keep the complete prefix.
        out->truncated_bytes = r.left;
        out->streams.push_back(std::move(stream));
        return true;
      }
      SnapshotFrame frame;
      if (!parse_frame(ByteReader{f.p, payload_len}, stream.info, &frame)) {
        if (error) *error = "malformed frame payload";
        return false;
      }
      stream.frames.push_back(std::move(frame));
      r.p = f.p + payload_len;
      r.left = f.left - payload_len;
    }
    if (r.left > 0 && r.left < 8) {
      out->truncated_bytes = r.left;
      r.left = 0;
    }
    out->streams.push_back(std::move(stream));
  }
  return true;
}

// ---- flight recorder ----------------------------------------------------

const char* flight_event_name(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kOpBegin:
      return "op_begin";
    case FlightEventKind::kOpFinish:
      return "op_finish";
    case FlightEventKind::kGcDecision:
      return "gc_decision";
    case FlightEventKind::kEraseSuspend:
      return "erase_suspend";
    case FlightEventKind::kCheckFailure:
      return "check_failure";
  }
  return "?";
}

FlightRecorder::FlightRecorder(std::uint32_t capacity) {
  PPSSD_CHECK(capacity > 0);
  ring_.resize(capacity);
}

std::vector<FlightEvent> FlightRecorder::events() const {
  std::vector<FlightEvent> out;
  const std::uint64_t cap = ring_.size();
  const std::uint64_t count = head_ < cap ? head_ : cap;
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    out.push_back(
        ring_[static_cast<std::size_t>((head_ - count + i) % cap)]);
  }
  return out;
}

bool FlightRecorder::dump(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const std::vector<FlightEvent> evs = events();
  std::vector<unsigned char> buf;
  buf.reserve(32 + evs.size() * kFlightEventBytes);
  buf.insert(buf.end(), kFlightMagic, kFlightMagic + 8);
  put_u32(buf, kFlightVersion);
  put_u32(buf, capacity());
  put_u64(buf, head_);
  put_u32(buf, static_cast<std::uint32_t>(evs.size()));
  for (const FlightEvent& e : evs) {
    put_u64(buf, e.time);
    put_u64(buf, e.id);
    put_u32(buf, e.a);
    put_u32(buf, e.b);
    put_u8(buf, static_cast<std::uint8_t>(e.kind));
    put_u8(buf, e.detail);
  }
  out.write(reinterpret_cast<const char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
  return static_cast<bool>(out);
}

bool load_flight(const std::string& path, FlightFile* out,
                 std::string* error) {
  PPSSD_CHECK(out != nullptr);
  *out = FlightFile{};
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ByteReader r{reinterpret_cast<const unsigned char*>(bytes.data()),
               bytes.size()};
  if (r.left < 8 || std::memcmp(r.p, kFlightMagic, 8) != 0) {
    if (error) *error = "not a flight dump (bad magic)";
    return false;
  }
  r.p += 8;
  r.left -= 8;
  out->version = r.u32();
  out->capacity = r.u32();
  out->recorded = r.u64();
  const std::uint32_t count = r.u32();
  if (!r.ok || out->version != kFlightVersion) {
    if (error) *error = "unsupported flight dump header";
    return false;
  }
  // Events to EOF (bounded by the declared count); a truncated tail
  // event is dropped.
  for (std::uint32_t i = 0; i < count && r.left >= kFlightEventBytes; ++i) {
    FlightEvent e;
    e.time = r.u64();
    e.id = r.u64();
    e.a = r.u32();
    e.b = r.u32();
    e.kind = static_cast<FlightEventKind>(r.u8());
    e.detail = r.u8();
    if (!r.ok) break;
    out->events.push_back(e);
  }
  return true;
}

}  // namespace ppssd::telemetry::introspect
