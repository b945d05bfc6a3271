#include "ftl/block_manager.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/state_io.h"

namespace ppssd::ftl {

namespace {
constexpr std::size_t level_index(BlockLevel level) {
  return static_cast<std::size_t>(level);
}

constexpr const char* level_name(BlockLevel level) {
  switch (level) {
    case BlockLevel::kHighDensity:
      return "mlc";
    case BlockLevel::kWork:
      return "work";
    case BlockLevel::kMonitor:
      return "monitor";
    case BlockLevel::kHot:
      return "hot";
  }
  return "?";
}
}  // namespace

BlockManager::BlockManager(nand::FlashArray& array) : array_(&array) {
  const auto& geom = array.geometry();
  const auto& cache = array.config().cache;

  planes_.resize(geom.planes());
  state_.assign(geom.total_blocks(), State::kFree);
  indexed_invalid_.assign(geom.total_blocks(), 0);

  const std::uint32_t slc_subpages =
      geom.pages_per_block(CellMode::kSlc) * geom.subpages_per_page();
  const std::uint32_t mlc_subpages =
      geom.pages_per_block(CellMode::kMlc) * geom.subpages_per_page();

  const std::uint32_t slc_per_plane_blocks = geom.slc_blocks_per_plane();
  index_by_block_.resize(geom.total_blocks());
  for (std::uint32_t p = 0; p < geom.planes(); ++p) {
    const BlockId first = geom.plane_first_block(p);
    planes_[p].slc_victims.init(first, slc_per_plane_blocks,
                                slc_subpages + 1);
    planes_[p].mlc_victims.init(
        first + slc_per_plane_blocks,
        geom.blocks_per_plane() - slc_per_plane_blocks, mlc_subpages + 1);
    for (std::uint32_t i = 0; i < geom.blocks_per_plane(); ++i) {
      const BlockId b = first + i;
      const auto& blk = array.block(b);
      FreeEntry entry{blk.erase_count(), b};
      if (blk.mode() == CellMode::kSlc) {
        planes_[p].slc_free.push(entry);
        index_by_block_[b] = &planes_[p].slc_victims;
      } else {
        planes_[p].mlc_free.push(entry);
        index_by_block_[b] = &planes_[p].mlc_victims;
      }
    }
  }

  const auto slc_per_plane = geom.slc_blocks_per_plane();
  const auto mlc_per_plane = geom.blocks_per_plane() - slc_per_plane;
  slc_threshold_ = std::max<std::uint32_t>(
      2, static_cast<std::uint32_t>(
             std::ceil(slc_per_plane * cache.gc_threshold)));
  mlc_threshold_ = std::max<std::uint32_t>(
      2, static_cast<std::uint32_t>(
             std::ceil(mlc_per_plane * cache.gc_threshold)));
  monitor_cap_ = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(slc_per_plane * cache.monitor_ratio));
  hot_cap_ = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(slc_per_plane * cache.hot_ratio));

  const std::uint32_t pressure_words = (geom.planes() + 63) / 64;
  pressure_[0].assign(pressure_words, 0);
  pressure_[1].assign(pressure_words, 0);
  for (std::uint32_t p = 0; p < geom.planes(); ++p) {
    update_pressure(p, CellMode::kSlc);
    update_pressure(p, CellMode::kMlc);
  }

  array_->set_block_observer(this);
}

BlockManager::~BlockManager() { array_->set_block_observer(nullptr); }

std::uint32_t BlockManager::level_cap(BlockLevel level) const {
  switch (level) {
    case BlockLevel::kMonitor:
      return monitor_cap_;
    case BlockLevel::kHot:
      return hot_cap_;
    default:
      return UINT32_MAX;  // Work and MLC are bounded only by the free list
  }
}

const BlockManager::VictimIndex& BlockManager::victim_index(
    std::uint32_t plane, CellMode mode) const {
  const PlaneState& ps = planes_[plane];
  return mode == CellMode::kSlc ? ps.slc_victims : ps.mlc_victims;
}

void BlockManager::index_insert(BlockId b) {
  VictimIndex& idx = victim_index(b);
  const std::uint32_t invalid = array_->block(b).invalid_subpages();
  PPSSD_CHECK(invalid < idx.counts.size());
  const std::uint32_t slot = b - idx.first;
  const std::uint64_t mask = 1ull << (slot % 64);
  PPSSD_CHECK((idx.members[slot / 64] & mask) == 0);
  idx.members[slot / 64] |= mask;
  idx.row(invalid)[slot / 64] |= mask;
  ++idx.counts[invalid];
  ++idx.candidates;
  indexed_invalid_[b] = invalid;
  idx.max_invalid = std::max(idx.max_invalid, invalid);
}

void BlockManager::index_erase(BlockId b) {
  VictimIndex& idx = victim_index(b);
  const std::uint32_t key = indexed_invalid_[b];
  const std::uint32_t slot = b - idx.first;
  const std::uint64_t mask = 1ull << (slot % 64);
  PPSSD_CHECK((idx.members[slot / 64] & mask) != 0);
  idx.members[slot / 64] &= ~mask;
  idx.row(key)[slot / 64] &= ~mask;
  PPSSD_CHECK(idx.counts[key] > 0);
  --idx.counts[key];
  --idx.candidates;
  indexed_invalid_[b] = 0;
  // Keep the watermark exact so the victim query never probes an empty
  // bucket: walk it down past any buckets this removal drained.
  while (idx.max_invalid > 0 && idx.counts[idx.max_invalid] == 0) {
    --idx.max_invalid;
  }
}

void BlockManager::on_subpage_invalidated(BlockId b, std::uint32_t invalid) {
  // Open blocks are not candidates; their invalid count is captured when
  // they close. Free blocks cannot be invalidated at all.
  if (state_[b] != State::kUsed) return;
  VictimIndex& idx = victim_index(b);
  const std::uint32_t key = indexed_invalid_[b];
  PPSSD_CHECK_MSG(invalid == key + 1,
                  "victim index out of sync with block invalid count");
  PPSSD_DCHECK(invalid < idx.counts.size());
  const std::uint32_t slot = b - idx.first;
  const std::uint64_t mask = 1ull << (slot % 64);
  PPSSD_DCHECK((idx.row(key)[slot / 64] & mask) != 0);
  idx.row(key)[slot / 64] &= ~mask;
  idx.row(invalid)[slot / 64] |= mask;
  --idx.counts[key];
  ++idx.counts[invalid];
  indexed_invalid_[b] = invalid;
  idx.max_invalid = std::max(idx.max_invalid, invalid);
}

bool BlockManager::open_block(std::uint32_t plane, BlockLevel level) {
  PlaneState& ps = planes_[plane];
  FreeHeap& heap =
      level == BlockLevel::kHighDensity ? ps.mlc_free : ps.slc_free;
  if (heap.empty()) return false;
  if (ps.level_counts[level_index(level)] >= level_cap(level)) return false;
  const BlockId b = heap.top().block;
  heap.pop();
  update_pressure(plane, level == BlockLevel::kHighDensity ? CellMode::kMlc
                                                           : CellMode::kSlc);
  PPSSD_CHECK(state_[b] == State::kFree);
  state_[b] = State::kOpen;
  array_->block(b).set_level(level);
  ps.open[level_index(level)] = b;
  ++ps.level_counts[level_index(level)];
  if (tl_opened_[level_index(level)]) {
    tl_opened_[level_index(level)]->inc();
  }
  return true;
}

void BlockManager::close_open(std::uint32_t plane, BlockLevel level) {
  PlaneState& ps = planes_[plane];
  const BlockId b = ps.open[level_index(level)];
  PPSSD_CHECK(b != kInvalidBlock);
  state_[b] = State::kUsed;
  ps.open[level_index(level)] = kInvalidBlock;
  index_insert(b);
}

std::optional<PageAlloc> BlockManager::allocate_page(std::uint32_t plane,
                                                     BlockLevel level) {
  PPSSD_CHECK(plane < planes_.size());
  PlaneState& ps = planes_[plane];

  // Try the requested level, degrading through lower SLC levels when the
  // cap or free list blocks the allocation (Algorithm 1's fallback).
  for (;;) {
    BlockId open = ps.open[level_index(level)];
    if (open != kInvalidBlock &&
        !array_->block(open).has_free_page()) {
      close_open(plane, level);
      open = kInvalidBlock;
    }
    if (open == kInvalidBlock) {
      if (!open_block(plane, level)) {
        if (level == BlockLevel::kHot || level == BlockLevel::kMonitor) {
          level = static_cast<BlockLevel>(static_cast<std::uint8_t>(level) - 1);
          if (tl_level_fallbacks_) tl_level_fallbacks_->inc();
          continue;
        }
        return std::nullopt;  // Work or MLC exhausted: caller must GC
      }
      open = ps.open[level_index(level)];
    }
    const auto frontier =
        static_cast<PageId>(array_->block(open).write_frontier());
    return PageAlloc{open, frontier, level};
  }
}

void BlockManager::for_each_candidate(
    std::uint32_t plane, CellMode mode,
    const std::function<void(BlockId)>& fn) const {
  const VictimIndex& idx = victim_index(plane, mode);
  for (std::uint32_t w = 0; w < idx.words; ++w) {
    std::uint64_t bitsw = idx.members[w];
    while (bitsw != 0) {
      const auto i = static_cast<std::uint32_t>(std::countr_zero(bitsw));
      fn(idx.first + w * 64 + i);
      bitsw &= bitsw - 1;
    }
  }
}

BlockId BlockManager::max_invalid_candidate(std::uint32_t plane,
                                            CellMode mode) const {
  const VictimIndex& idx = victim_index(plane, mode);
  if (idx.max_invalid == 0) return kInvalidBlock;
  const std::uint64_t* bucket = idx.row(idx.max_invalid);
  for (std::uint32_t w = 0; w < idx.words; ++w) {
    if (bucket[w] != 0) {
      return idx.first + w * 64 +
             static_cast<std::uint32_t>(std::countr_zero(bucket[w]));
    }
  }
  PPSSD_CHECK_MSG(false, "victim-index watermark points at an empty bucket");
  return kInvalidBlock;
}

void BlockManager::release_block(BlockId b) {
  PPSSD_CHECK_MSG(state_[b] == State::kUsed,
                  "released block must be a closed, in-use block");
  nand::Block& blk = array_->block(b);
  PPSSD_CHECK_MSG(blk.programmed_subpages() == 0,
                  "released block was not erased");
  index_erase(b);
  const std::uint32_t plane = array_->block_static(b).plane;
  PlaneState& ps = planes_[plane];
  // Retire the level label.
  const auto li = level_index(blk.level());
  PPSSD_CHECK(ps.level_counts[li] > 0);
  --ps.level_counts[li];
  state_[b] = State::kFree;
  FreeEntry entry{blk.erase_count(), b};
  if (blk.mode() == CellMode::kSlc) {
    ps.slc_free.push(entry);
    update_pressure(plane, CellMode::kSlc);
  } else {
    ps.mlc_free.push(entry);
    update_pressure(plane, CellMode::kMlc);
  }
}

std::uint32_t BlockManager::level_count(std::uint32_t plane,
                                        BlockLevel level) const {
  return planes_[plane].level_counts[level_index(level)];
}

std::uint64_t BlockManager::level_count_total(BlockLevel level) const {
  std::uint64_t total = 0;
  for (const PlaneState& ps : planes_) {
    total += ps.level_counts[level_index(level)];
  }
  return total;
}

std::uint64_t BlockManager::free_blocks_total(CellMode mode) const {
  std::uint64_t total = 0;
  for (const PlaneState& ps : planes_) {
    total += mode == CellMode::kSlc ? ps.slc_free.size()
                                    : ps.mlc_free.size();
  }
  return total;
}

void BlockManager::check_victim_index() const {
  const auto& geom = array_->geometry();
  for (std::uint32_t p = 0; p < geom.planes(); ++p) {
    for (const CellMode mode : {CellMode::kSlc, CellMode::kMlc}) {
      const VictimIndex& idx = victim_index(p, mode);
      std::uint32_t expected_watermark = 0;
      std::uint32_t filed = 0;
      for (std::uint32_t key = 0;
           key < static_cast<std::uint32_t>(idx.counts.size()); ++key) {
        const std::uint64_t* bucket = idx.row(key);
        std::uint32_t popcount = 0;
        for (std::uint32_t w = 0; w < idx.words; ++w) {
          std::uint64_t bitsw = bucket[w];
          popcount += static_cast<std::uint32_t>(std::popcount(bitsw));
          while (bitsw != 0) {
            const auto i =
                static_cast<std::uint32_t>(std::countr_zero(bitsw));
            const BlockId b = idx.first + w * 64 + i;
            PPSSD_CHECK_MSG((idx.members[w] >> i) & 1,
                            "bucketed block missing from candidate bitmap");
            PPSSD_CHECK_MSG(indexed_invalid_[b] == key,
                            "block filed under the wrong invalid count");
            PPSSD_CHECK_MSG(array_->block(b).invalid_subpages() == key,
                            "filed invalid count is stale");
            bitsw &= bitsw - 1;
          }
        }
        PPSSD_CHECK_MSG(popcount == idx.counts[key],
                        "bucket population count is stale");
        filed += popcount;
        if (popcount > 0) expected_watermark = key;
      }
      PPSSD_CHECK_MSG(filed == idx.candidates,
                      "candidate count and buckets disagree on membership");
      PPSSD_CHECK_MSG(idx.max_invalid == expected_watermark,
                      "victim-index watermark is stale");
    }
  }
  // Every kUsed block must be filed exactly once; no open/free block may be.
  for (BlockId b = 0; b < geom.total_blocks(); ++b) {
    const auto& idx =
        victim_index(geom.plane_of(b), array_->block(b).mode());
    PPSSD_CHECK_MSG(index_by_block_[b] == &idx,
                    "per-block victim-index pointer is stale");
    const std::uint32_t slot = b - idx.first;
    const bool member = (idx.members[slot / 64] >> (slot % 64)) & 1;
    PPSSD_CHECK_MSG(member == (state_[b] == State::kUsed),
                    "candidacy disagrees with block state");
  }
  // The pressure bitmask must agree with a fresh free-list recount for
  // every plane and region.
  for (std::uint32_t p = 0; p < geom.planes(); ++p) {
    for (const CellMode mode : {CellMode::kSlc, CellMode::kMlc}) {
      const bool expected =
          free_blocks(p, mode) <= gc_threshold_blocks(mode);
      PPSSD_CHECK_MSG(needs_gc(p, mode) == expected,
                      "GC-pressure bit disagrees with free-list size");
    }
  }
}

namespace {

/// std::priority_queue keeps its storage in the protected member `c`;
/// this opens it for verbatim capture/replacement.
template <typename Q>
struct HeapAccess : Q {
  static const typename Q::container_type& get(const Q& q) {
    return q.*&HeapAccess::c;
  }
  static void set(Q& q, typename Q::container_type v) {
    q.*&HeapAccess::c = std::move(v);
  }
};

}  // namespace

void BlockManager::save(io::StateSink& sink) const {
  // Bump io::warmstart::kVersion on any layout change.
  sink.vec(state_);
  sink.u64(planes_.size());
  for (const PlaneState& ps : planes_) {
    sink.vec(HeapAccess<FreeHeap>::get(ps.slc_free));
    sink.vec(HeapAccess<FreeHeap>::get(ps.mlc_free));
    sink.pod(ps.open);
    sink.pod(ps.level_counts);
  }
}

void BlockManager::restore(io::StateSource& src) {
  std::vector<State> state = src.vec<State>();
  PPSSD_CHECK_MSG(src.ok() && state.size() == state_.size() &&
                      src.u64() == planes_.size(),
                  "warm-start checkpoint does not match block-manager shape");
  state_ = std::move(state);
  for (PlaneState& ps : planes_) {
    HeapAccess<FreeHeap>::set(ps.slc_free, src.vec<FreeEntry>());
    HeapAccess<FreeHeap>::set(ps.mlc_free, src.vec<FreeEntry>());
    ps.open = src.pod<std::array<BlockId, 4>>();
    ps.level_counts = src.pod<std::array<std::uint32_t, 4>>();
  }
  PPSSD_CHECK_MSG(src.ok(), "warm-start checkpoint truncated");

  // Rebuild the derived structures from the restored ground truth. The
  // victim-index bitmaps are insertion-order independent, so filing every
  // kUsed block in BlockId order reproduces the cold-built index exactly.
  const auto& geom = array_->geometry();
  indexed_invalid_.assign(geom.total_blocks(), 0);
  const std::uint32_t slc_subpages =
      geom.pages_per_block(CellMode::kSlc) * geom.subpages_per_page();
  const std::uint32_t mlc_subpages =
      geom.pages_per_block(CellMode::kMlc) * geom.subpages_per_page();
  const std::uint32_t slc_per_plane = geom.slc_blocks_per_plane();
  for (std::uint32_t p = 0; p < geom.planes(); ++p) {
    const BlockId first = geom.plane_first_block(p);
    planes_[p].slc_victims.init(first, slc_per_plane, slc_subpages + 1);
    planes_[p].slc_victims.max_invalid = 0;
    planes_[p].slc_victims.candidates = 0;
    planes_[p].mlc_victims.init(
        first + slc_per_plane, geom.blocks_per_plane() - slc_per_plane,
        mlc_subpages + 1);
    planes_[p].mlc_victims.max_invalid = 0;
    planes_[p].mlc_victims.candidates = 0;
  }
  for (BlockId b = 0; b < geom.total_blocks(); ++b) {
    if (state_[b] == State::kUsed) index_insert(b);
  }
  for (std::uint32_t p = 0; p < geom.planes(); ++p) {
    update_pressure(p, CellMode::kSlc);
    update_pressure(p, CellMode::kMlc);
  }
}

void BlockManager::attach_telemetry(telemetry::MetricsRegistry& registry,
                                    const telemetry::Labels& labels) {
  for (const BlockLevel level :
       {BlockLevel::kHighDensity, BlockLevel::kWork, BlockLevel::kMonitor,
        BlockLevel::kHot}) {
    telemetry::Labels l = labels;
    l.push_back({"level", level_name(level)});
    tl_opened_[level_index(level)] = registry.counter("blocks_opened", l);
    registry.gauge_fn("level_pool_blocks", l,
                      [this, level] {
                        return static_cast<double>(level_count_total(level));
                      });
  }
  tl_level_fallbacks_ = registry.counter("alloc_level_fallbacks", labels);
  for (const CellMode mode : {CellMode::kSlc, CellMode::kMlc}) {
    telemetry::Labels l = labels;
    l.push_back({"region", mode == CellMode::kSlc ? "slc" : "mlc"});
    registry.gauge_fn("free_blocks", l, [this, mode] {
      return static_cast<double>(free_blocks_total(mode));
    });
  }
}

}  // namespace ppssd::ftl
