// IPS (In-place Switch) scheme: reprogram-based SLC→dense promotion.
//
// The core guarantee is that `use_reprogram` changes *how* promotions are
// priced, never *what* they do to device state: the randomized
// equivalence test drives the identical host stream through the reprogram
// path and through the read-migrate-program oracle (rpg=0) and requires
// identical mappings, block occupancy, GC decision streams and metrics —
// only the read/reprogram op counters may differ.
#include "cache/ips_scheme.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/registry.h"
#include "common/rng.h"
#include "common/units.h"
#include "support/integrity_shadow.h"

namespace ppssd::cache {
namespace {

SsdConfig small_config() {
  SsdConfig cfg = SsdConfig::scaled(1024);
  cfg.cache.gc_interleave_ops = 0;  // inline GC: deterministic op streams
  return cfg;
}

TEST(IpsScheme, OptionsRoundTripThroughSchemeOptions) {
  IpsScheme::Options opts;
  opts.use_reprogram = false;
  const SchemeOptions bag = opts.to_scheme_options();
  ASSERT_EQ(bag.entries.size(), 1u);
  EXPECT_EQ(bag.entries[0].first, "rpg");
  EXPECT_EQ(bag.entries[0].second, "0");
  EXPECT_FALSE(IpsScheme::Options::from_scheme_options(bag).use_reprogram);
  EXPECT_TRUE(
      IpsScheme::Options::from_scheme_options(SchemeOptions{}).use_reprogram);
}

TEST(IpsScheme, PromotionUsesReprogramNotMigration) {
  IpsScheme scheme(small_config());
  std::vector<PhysOp> ops;
  SimTime now = 0;
  bool saw_reprogram_op = false;
  for (Lsn lsn = 0; lsn < 60'000; lsn += 2) {
    ops.clear();
    scheme.host_write(lsn, 2, now += ms_to_ns(1.0), ops);
    for (const PhysOp& op : ops) {
      if (op.kind == PhysOp::Kind::kReprogram) {
        saw_reprogram_op = true;
        EXPECT_TRUE(op.background);
        EXPECT_EQ(op.origin, OpOrigin::kGc);
        EXPECT_EQ(op.mode, CellMode::kMlc);
      }
    }
  }
  ASSERT_GT(scheme.metrics().slc_gc_count, 0u);
  EXPECT_TRUE(saw_reprogram_op);

  // Every promotion went through the in-place switch: pages stayed in
  // frontier state (IPS never partial-programs), so the defensive
  // read-migrate fallback never fired and no partial programs happened.
  const auto& c = scheme.array().counters();
  EXPECT_GT(c.reprogram_ops, 0u);
  EXPECT_GT(c.reprogrammed_subpages, 0u);
  EXPECT_EQ(c.partial_program_ops, 0u);
  EXPECT_GT(scheme.reprogrammed_pages(), 0u);
  EXPECT_EQ(scheme.reprogrammed_subpages(), c.reprogrammed_subpages);
  EXPECT_EQ(scheme.fallback_subpages(), 0u);
  EXPECT_GT(scheme.metrics().evicted_subpages, 0u);
  scheme.check_consistency();
}

TEST(IpsScheme, RandomizedEquivalenceWithMigrationOracle) {
  const SsdConfig cfg = small_config();
  SchemeOptions fast_opts;
  fast_opts.set("rpg", "1");
  SchemeOptions oracle_opts;
  oracle_opts.set("rpg", "0");
  const auto fast = make_scheme("IPS", cfg, fast_opts);
  const auto oracle = make_scheme("IPS", cfg, oracle_opts);
  const test::IntegrityShadow fast_data(fast->array());
  const test::IntegrityShadow oracle_data(oracle->array());

  // Committed GC decisions must match step for step.
  std::vector<std::string> fast_gc;
  std::vector<std::string> oracle_gc;
  const auto recorder = [](std::vector<std::string>& sink) {
    return [&sink](std::uint32_t plane, CellMode mode, BlockId victim,
                   SimTime now) {
      sink.push_back(std::to_string(plane) + '/' +
                     (mode == CellMode::kSlc ? "s" : "m") + '/' +
                     std::to_string(victim) + '@' + std::to_string(now));
    };
  };
  fast->set_gc_decision_hook(recorder(fast_gc));
  oracle->set_gc_decision_hook(recorder(oracle_gc));

  // One random host stream through both devices.
  Rng rng(2024);
  const Lsn span = 80'000;
  std::vector<PhysOp> ops;
  SimTime now = 0;
  for (int i = 0; i < 30'000; ++i) {
    now += ms_to_ns(0.05);
    const Lsn lsn = rng.next_below(span);
    const auto count = static_cast<std::uint32_t>(rng.uniform_int(1, 6));
    if (rng.chance(0.75)) {
      ops.clear();
      fast->host_write(lsn, count, now, ops);
      ops.clear();
      oracle->host_write(lsn, count, now, ops);
    } else {
      ops.clear();
      fast->host_read(lsn, count, now, ops);
      ops.clear();
      oracle->host_read(lsn, count, now, ops);
    }
  }
  ASSERT_GT(fast->metrics().slc_gc_count, 0u);

  // Identical logical state: every version (host write count and the
  // write the stored data came from) and every mapping agrees.
  for (Lsn lsn = 0; lsn < span; ++lsn) {
    ASSERT_EQ(fast_data.host_writes(lsn), oracle_data.host_writes(lsn)) << lsn;
    ASSERT_EQ(fast_data.latest(lsn), oracle_data.latest(lsn)) << lsn;
    ASSERT_EQ(fast->device_map().lookup(lsn), oracle->device_map().lookup(lsn))
        << lsn;
  }
  // Identical physical occupancy, block by block.
  const auto& geom = fast->array().geometry();
  for (BlockId b = 0; b < geom.total_blocks(); ++b) {
    const auto& fb = fast->array().block(b);
    const auto& ob = oracle->array().block(b);
    ASSERT_EQ(fb.valid_subpages(), ob.valid_subpages()) << b;
    ASSERT_EQ(fb.invalid_subpages(), ob.invalid_subpages()) << b;
    ASSERT_EQ(fb.write_frontier(), ob.write_frontier()) << b;
  }
  // Identical GC decision streams.
  ASSERT_EQ(fast_gc.size(), oracle_gc.size());
  for (std::size_t i = 0; i < fast_gc.size(); ++i) {
    ASSERT_EQ(fast_gc[i], oracle_gc[i]) << "decision " << i;
  }

  // Policy metrics agree except the BER stream (reprogrammed pages carry
  // the sticky penalty by design).
  const SchemeMetrics& mf = fast->metrics();
  const SchemeMetrics& mo = oracle->metrics();
  EXPECT_EQ(mf.slc_subpages_written, mo.slc_subpages_written);
  EXPECT_EQ(mf.mlc_subpages_written, mo.mlc_subpages_written);
  EXPECT_EQ(mf.host_subpages_written, mo.host_subpages_written);
  EXPECT_EQ(mf.intra_page_updates, mo.intra_page_updates);
  EXPECT_EQ(mf.slc_gc_count, mo.slc_gc_count);
  EXPECT_EQ(mf.mlc_gc_count, mo.mlc_gc_count);
  EXPECT_EQ(mf.evicted_subpages, mo.evicted_subpages);
  EXPECT_EQ(mf.gc_moved_subpages, mo.gc_moved_subpages);
  EXPECT_EQ(mf.host_reads_slc, mo.host_reads_slc);
  EXPECT_EQ(mf.host_reads_mlc, mo.host_reads_mlc);
  EXPECT_EQ(mf.host_reads_unmapped, mo.host_reads_unmapped);
  EXPECT_GE(fast->metrics().read_ber.mean(), oracle->metrics().read_ber.mean());

  // Array counters agree once the path-specific ones are factored out:
  // the oracle pays GC victim reads, the fast path pays reprogram ops.
  nand::ArrayCounters cf = fast->array().counters();
  nand::ArrayCounters co = oracle->array().counters();
  EXPECT_GT(cf.reprogram_ops, 0u);
  EXPECT_EQ(co.reprogram_ops, 0u);
  EXPECT_EQ(cf.reprogrammed_subpages,
            static_cast<const IpsScheme&>(*fast).reprogrammed_subpages());
  EXPECT_LT(cf.read_ops, co.read_ops);  // no victim reads on the fast path
  cf.read_ops = co.read_ops = 0;
  cf.reprogram_ops = co.reprogram_ops = 0;
  cf.reprogrammed_subpages = co.reprogrammed_subpages = 0;
  EXPECT_EQ(cf.slc_program_ops, co.slc_program_ops);
  EXPECT_EQ(cf.mlc_program_ops, co.mlc_program_ops);
  EXPECT_EQ(cf.partial_program_ops, co.partial_program_ops);
  EXPECT_EQ(cf.slc_subpages_written, co.slc_subpages_written);
  EXPECT_EQ(cf.mlc_subpages_written, co.mlc_subpages_written);
  EXPECT_EQ(cf.slc_erases, co.slc_erases);
  EXPECT_EQ(cf.mlc_erases, co.mlc_erases);

  // The oracle never reprograms, so nothing carries the sticky mark.
  EXPECT_EQ(static_cast<const IpsScheme&>(*oracle).reprogrammed_pages(), 0u);
  EXPECT_EQ(static_cast<const IpsScheme&>(*fast).fallback_subpages(), 0u);

  fast->check_consistency();
  oracle->check_consistency();
  fast_data.check(*fast);
  oracle_data.check(*oracle);
}

}  // namespace
}  // namespace ppssd::cache
