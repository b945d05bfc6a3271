// Allocator for the simulator's large device-state tables.
//
// The per-slot, per-page, per-block and per-LSN tables (FlashArray's SoA
// rows, the device map, the schemes' side tables) are
// hundreds of MiB at paper scale and are walked in random order, so on
// 4 KiB pages nearly every access is also a TLB miss. HugePageAllocator
// serves every allocation of kHugePageBytes or more from its own
// anonymous mapping, 2 MiB-aligned and rounded up to a whole number of
// 2 MiB pages, and advises it MADV_HUGEPAGE before anything touches it,
// so hosts whose transparent huge pages run in `madvise` mode back these
// tables with 2 MiB pages from the first fault. Smaller allocations (and
// a table's early growth steps) go to the default allocator. When the OS
// refuses the advice (THP disabled or unsupported) the mapping simply
// stays on base pages; the contents and the program's behaviour are the
// same either way. There is no option or environment knob.
//
// See DESIGN.md §16 for which tables use it and what it buys.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

namespace ppssd {

/// Size, and alignment, of one transparent huge page.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

namespace detail {
/// Map `bytes` (>= kHugePageBytes) rounded up to whole huge pages,
/// 2 MiB-aligned and advised MADV_HUGEPAGE. Throws std::bad_alloc.
[[nodiscard]] void* huge_page_map(std::size_t bytes);
/// Unmap a region returned by huge_page_map(bytes).
void huge_page_unmap(void* p, std::size_t bytes) noexcept;
}  // namespace detail

template <typename T>
class HugePageAllocator {
 public:
  using value_type = T;

  HugePageAllocator() noexcept = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>& /*other*/) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > static_cast<std::size_t>(-1) / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    const std::size_t bytes = n * sizeof(T);
    if (bytes >= kHugePageBytes) {
      return static_cast<T*>(detail::huge_page_map(bytes));
    }
    return std::allocator<T>().allocate(n);
  }

  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (bytes >= kHugePageBytes) {
      detail::huge_page_unmap(p, bytes);
    } else {
      std::allocator<T>().deallocate(p, n);
    }
  }

  template <typename U>
  bool operator==(const HugePageAllocator<U>& /*other*/) const noexcept {
    return true;
  }
};

/// The device-state table type: a std::vector whose large buffers sit on
/// 2 MiB pages.
template <typename T>
using HugeVector = std::vector<T, HugePageAllocator<T>>;

}  // namespace ppssd
