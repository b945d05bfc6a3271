#include "common/huge_page_allocator.h"

#include <sys/mman.h>

#include <cstdint>
#include <new>

namespace ppssd::detail {

namespace {
std::size_t round_to_huge(std::size_t bytes) {
  return (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
}
}  // namespace

void* huge_page_map(std::size_t bytes) {
  // The rounding and the over-map below must not wrap.
  if (bytes > static_cast<std::size_t>(-1) - 2 * kHugePageBytes) {
    throw std::bad_alloc();
  }
  const std::size_t len = round_to_huge(bytes);
  // Over-map by one huge page, then trim the unaligned head and the
  // surplus tail so exactly [aligned, aligned + len) stays mapped.
  const std::size_t span = len + kHugePageBytes;
  void* raw = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto base = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t aligned =
      (base + kHugePageBytes - 1) & ~(std::uintptr_t{kHugePageBytes} - 1);
  const std::size_t head = aligned - base;
  const std::size_t tail = span - head - len;
  if (head > 0) ::munmap(raw, head);
  if (tail > 0) ::munmap(reinterpret_cast<void*>(aligned + len), tail);
  void* p = reinterpret_cast<void*>(aligned);
#ifdef MADV_HUGEPAGE
  // Advice only: a kernel without THP rejects it and the mapping keeps
  // base pages, which is the documented fallback.
  (void)::madvise(p, len, MADV_HUGEPAGE);
#endif
  return p;
}

void huge_page_unmap(void* p, std::size_t bytes) noexcept {
  ::munmap(p, round_to_huge(bytes));
}

}  // namespace ppssd::detail
