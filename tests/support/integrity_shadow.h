// Test-side data-integrity shadow (DESIGN.md §7).
//
// The library keeps no per-LSN version table and no per-slot version row:
// no placement or GC decision reads them. Whether every valid slot holds
// its owner's *latest* host write is checked here instead, from the
// provenance the FlashArray reports to its SlotObserver:
//
//  * a host program (SlotWrite::source == kHostData) gives its LSN a new
//    token, unique across all LSNs;
//  * a copy (GC relocation, eviction, IPS reprogram) inherits the token
//    of the slot it names as its source.
//
// A stale copy (its source an older, retired slot of the LSN) or a copy
// out of another LSN's slot therefore leaves a valid slot whose token is
// not its owner's latest, and a lost write (the old copy retired, the new
// data never programmed) leaves an LSN whose latest token sits on no
// valid slot. host_writes() counts the host programs of each LSN, which
// is what the library's version table used to report: a driver that
// counts the writes it issued catches a write that never reached flash
// while its old copy stayed valid.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "nand/flash_array.h"

namespace ppssd::cache {
class Scheme;
}

namespace ppssd::test {

class IntegrityShadow final : public nand::SlotObserver {
 public:
  /// Attach to `array` as its slot observer. Attach before the array's
  /// first program: a slot programmed while detached holds no token.
  explicit IntegrityShadow(nand::FlashArray& array);
  ~IntegrityShadow() override;
  IntegrityShadow(const IntegrityShadow&) = delete;
  IntegrityShadow& operator=(const IntegrityShadow&) = delete;

  void on_program(BlockId b, PageId p,
                  std::span<const nand::SlotWrite> writes) override;
  void on_invalidate(BlockId b, PageId p, SubpageId s) override;
  void on_erase(BlockId b) override;

  /// Host programs of `lsn` so far (prefill included).
  [[nodiscard]] std::uint32_t host_writes(Lsn lsn) const {
    return lsn < host_writes_.size() ? host_writes_[lsn] : 0;
  }
  /// Token of `lsn`'s latest host write; 0 if it was never written.
  [[nodiscard]] std::uint64_t latest(Lsn lsn) const {
    return lsn < latest_.size() ? latest_[lsn] : 0;
  }
  /// Token of the data in slot (b, p, s); 0 if none since its erase.
  [[nodiscard]] std::uint64_t token(BlockId b, PageId p, SubpageId s) const {
    return token_[array_.slot_index(b, p, s)];
  }

  /// The first integrity violation in the array, or "" if none: a valid
  /// slot that does not hold its owner's latest write, two valid slots
  /// holding the same write, a written LSN whose latest write is on no
  /// valid slot, or a malformed event (a source out of range, an
  /// invalidation of a slot the shadow never saw programmed).
  [[nodiscard]] std::string violation() const;

  /// gtest check that violation() is empty and that `scheme`'s map
  /// resolves every written LSN to the slot holding its latest write.
  void check(const cache::Scheme& scheme) const;

 private:
  void note_fault(std::string what);
  void grow_to(Lsn lsn);

  nand::FlashArray& array_;
  std::vector<std::uint64_t> token_;        // by flat slot index
  std::vector<std::uint64_t> latest_;       // by LSN
  std::vector<std::uint32_t> host_writes_;  // by LSN
  std::uint64_t next_token_ = 0;
  std::string fault_;  // first malformed event, reported by violation()
};

}  // namespace ppssd::test
