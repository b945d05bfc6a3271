#include "support/integrity_shadow.h"

#include <gtest/gtest.h>

#include <sstream>

#include "cache/scheme.h"

namespace ppssd::test {

namespace {

// Messages are built with a stream: gcc 12 flags `"literal" +
// std::string&&` with a false -Wrestrict in optimized builds.
template <typename... Parts>
std::string cat(const Parts&... parts) {
  std::ostringstream out;
  (out << ... << parts);
  return out.str();
}

std::string slot_name(BlockId b, PageId p, SubpageId s) {
  return cat("(", b, ",", p, ",", static_cast<unsigned>(s), ")");
}

}  // namespace

IntegrityShadow::IntegrityShadow(nand::FlashArray& array) : array_(array) {
  std::size_t slots = 0;
  for (BlockId b = 0; b < array.geometry().total_blocks(); ++b) {
    slots += static_cast<std::size_t>(array.block(b).page_count()) *
             array.subpages_per_page();
  }
  token_.assign(slots, 0);
  latest_.assign(array.geometry().logical_subpages(), 0);
  host_writes_.assign(latest_.size(), 0);
  array_.set_slot_observer(this);
}

IntegrityShadow::~IntegrityShadow() { array_.set_slot_observer(nullptr); }

void IntegrityShadow::note_fault(std::string what) {
  if (fault_.empty()) fault_ = std::move(what);
}

void IntegrityShadow::grow_to(Lsn lsn) {
  if (lsn >= latest_.size()) {
    latest_.resize(lsn + 1, 0);
    host_writes_.resize(lsn + 1, 0);
  }
}

void IntegrityShadow::on_program(BlockId b, PageId p,
                                 std::span<const nand::SlotWrite> writes) {
  for (const nand::SlotWrite& w : writes) {
    std::uint64_t& dst = token_[array_.slot_index(b, p, w.slot)];
    if (w.source == nand::kHostData) {
      grow_to(w.lsn);
      dst = ++next_token_;
      latest_[w.lsn] = dst;
      ++host_writes_[w.lsn];
    } else if (w.source < token_.size()) {
      dst = token_[w.source];
    } else {
      dst = 0;
      note_fault(cat("copy into ", slot_name(b, p, w.slot),
                     " names source slot ", w.source, ", out of range"));
    }
  }
}

void IntegrityShadow::on_invalidate(BlockId b, PageId p, SubpageId s) {
  if (token_[array_.slot_index(b, p, s)] == 0) {
    note_fault(cat("invalidated slot ", slot_name(b, p, s),
                   ", which the shadow never saw programmed"));
  }
}

void IntegrityShadow::on_erase(BlockId b) {
  const std::size_t base = array_.slot_index(b, 0, 0);
  const std::size_t n = static_cast<std::size_t>(array_.block(b).page_count()) *
                        array_.subpages_per_page();
  std::fill_n(token_.begin() + static_cast<std::ptrdiff_t>(base), n, 0);
}

std::string IntegrityShadow::violation() const {
  if (!fault_.empty()) return fault_;
  std::vector<bool> held(latest_.size(), false);
  for (BlockId b = 0; b < array_.geometry().total_blocks(); ++b) {
    const nand::Block& blk = array_.block(b);
    for (PageId p = 0; p < blk.write_frontier(); ++p) {
      for (SubpageId s = 0; s < array_.subpages_per_page(); ++s) {
        if (array_.subpage_state(b, p, s) != nand::SubpageState::kValid) {
          continue;
        }
        const Lsn lsn = array_.subpage(b, p, s).owner_lsn;
        const std::uint64_t t = token(b, p, s);
        if (t == 0 || t != latest(lsn)) {
          return cat("valid slot ", slot_name(b, p, s), " of lsn ", lsn,
                     " holds write #", t, ", not the lsn's latest (#",
                     latest(lsn), "): a stale or foreign copy");
        }
        if (held[lsn]) {
          return cat("lsn ", lsn,
                     "'s latest write is on two valid slots, one of them ",
                     slot_name(b, p, s));
        }
        held[lsn] = true;
      }
    }
  }
  for (Lsn lsn = 0; lsn < latest_.size(); ++lsn) {
    if (latest_[lsn] != 0 && !held[lsn]) {
      return cat("lsn ", lsn, "'s latest write (#", latest_[lsn],
                 ") is on no valid slot: lost");
    }
  }
  return "";
}

void IntegrityShadow::check(const cache::Scheme& scheme) const {
  ASSERT_EQ(&scheme.array(), &array_) << "shadow attached to another device";
  EXPECT_EQ(violation(), "");
  for (Lsn lsn = 0; lsn < latest_.size(); ++lsn) {
    if (latest_[lsn] == 0) continue;
    const PhysicalAddress addr = scheme.device_map().lookup(lsn);
    if (!addr.valid() ||
        token(addr.block, addr.page, addr.subpage) != latest_[lsn]) {
      ADD_FAILURE() << "lsn " << lsn
                    << " is not mapped to the slot holding its latest write";
      return;
    }
  }
}

}  // namespace ppssd::test
