// Bounds-checked binary serialization for device-state checkpoints.
//
// StateSink appends fixed-width little-endian scalars, strings, and flat
// vectors of trivially copyable elements to an in-memory buffer;
// StateSource reads them back in the same order. This is the substrate of
// the warm-start checkpoint (DESIGN.md §14): every layer's save()/
// restore() pair writes its mutable state through one of these.
//
// Checkpoints are host-local cache artifacts keyed by the experiment
// spec — vectors are memcpy'd in native element layout, so the format is
// not portable across architectures. The container layer (core/warmstart)
// guards against that with an up-front checksum + version check, and a
// StateSource that runs past the end of its buffer fails softly: reads
// return zero values and ok() flips to false, so a caller can treat any
// malformed payload as a cache miss instead of aborting.
//
// A distinct type from telemetry::introspect::StateSink (the key-value
// inspection emitter) — this one is a byte-exact state serializer.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace ppssd::io {

class StateSink {
 public:
  void u8(std::uint8_t v) { raw(&v, 1); }
  void u16(std::uint16_t v) { raw(&v, sizeof(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
  }

  /// Flat vector of trivially copyable elements: u64 count + raw bytes.
  /// Any allocator: the bytes depend only on the elements.
  template <typename T, typename Alloc>
  void vec(const std::vector<T, Alloc>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(v.size());
    raw(v.data(), v.size() * sizeof(T));
  }

  /// Raw bytes of one trivially copyable object (fixed-size arrays etc.).
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    raw(&v, sizeof(T));
  }

  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  void raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  std::vector<std::uint8_t> buf_;
};

class StateSource {
 public:
  StateSource(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit StateSource(const std::vector<std::uint8_t>& buf)
      : StateSource(buf.data(), buf.size()) {}

  [[nodiscard]] std::uint8_t u8() { return scalar<std::uint8_t>(); }
  [[nodiscard]] std::uint16_t u16() { return scalar<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return scalar<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return scalar<std::uint64_t>(); }
  [[nodiscard]] double f64() { return scalar<double>(); }
  [[nodiscard]] bool boolean() { return u8() != 0; }

  [[nodiscard]] std::string str() {
    const std::uint64_t n = u64();
    if (!take(n)) return {};
    std::string s(reinterpret_cast<const char*>(data_ + pos_ - n),
                  static_cast<std::size_t>(n));
    return s;
  }

  template <typename T>
  [[nodiscard]] std::vector<T> vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t n = u64();
    std::vector<T> v;
    if (!take(n * sizeof(T)) || n == 0) return v;
    v.resize(static_cast<std::size_t>(n));
    std::memcpy(v.data(), data_ + pos_ - n * sizeof(T), n * sizeof(T));
    return v;
  }

  /// Read a flat vector in place: the serialized element count must equal
  /// v.size() exactly (sticky-fail otherwise, leaving v untouched). The
  /// hot restore path uses this for the multi-MB SoA rows — the
  /// destination arrays are already sized by the device constructor, so
  /// the bytes land in one memcpy with no temporary allocation or
  /// zero-fill. Any allocator, so huge-page tables (common/
  /// huge_page_allocator.h) restore as the same single copy.
  template <typename T, typename Alloc>
  bool vec_into(std::vector<T, Alloc>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t n = u64();
    if (n != v.size()) {
      ok_ = false;
      return false;
    }
    if (!take(n * sizeof(T))) return false;
    // memcpy's pointers must be non-null even for zero bytes, and an
    // empty vector's data() may be null.
    if (n > 0) {
      std::memcpy(v.data(), data_ + pos_ - n * sizeof(T), n * sizeof(T));
    }
    return true;
  }

  template <typename T>
  [[nodiscard]] T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    if (take(sizeof(T))) {
      std::memcpy(&v, data_ + pos_ - sizeof(T), sizeof(T));
    }
    return v;
  }

  /// False once any read ran past the end of the buffer (every subsequent
  /// read returns zero values). Callers treat !ok() as a corrupt payload.
  [[nodiscard]] bool ok() const { return ok_; }
  /// Current read cursor (bytes consumed so far). The container layer
  /// uses this to locate the payload after parsing a variable-length
  /// header.
  [[nodiscard]] std::size_t pos() const { return pos_; }
  /// True when the whole buffer was consumed exactly.
  [[nodiscard]] bool exhausted() const { return ok_ && pos_ == size_; }

 private:
  template <typename T>
  [[nodiscard]] T scalar() {
    T v{};
    if (take(sizeof(T))) {
      std::memcpy(&v, data_ + pos_ - sizeof(T), sizeof(T));
    }
    return v;
  }

  /// Advance `n` bytes; false (and sticky-fail) if they are not there.
  bool take(std::uint64_t n) {
    if (!ok_ || n > size_ - pos_) {
      ok_ = false;
      return false;
    }
    pos_ += static_cast<std::size_t>(n);
    return true;
  }

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace ppssd::io
