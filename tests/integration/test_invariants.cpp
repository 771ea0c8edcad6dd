/**
 * @file
 * Property-style invariant checks under random stress: after any run,
 * the directory, the L1 arrays and the L2 banks must agree exactly
 * (token conservation is structural; holder-set consistency is the
 * meat of coherence correctness).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "harness/system.hpp"

namespace espnuca {
namespace {

/** Cross-check directory state against the actual cache arrays. */
void
checkConsistency(System &sys, const SystemConfig &cfg)
{
    Protocol &proto = sys.protocol();
    L2Org &org = sys.org();
    proto.dir().forEach([&](Addr addr, const BlockInfo &info) {
        SCOPED_TRACE(testing::Message() << "addr=0x" << std::hex << addr);
        // Internal entry consistency.
        EXPECT_TRUE(proto.dir().consistent(addr));
        // Every L1 holder bit has a matching cache line.
        for (L1Id id = 0; id < cfg.l1Count(); ++id) {
            EXPECT_EQ(info.hasL1Holder(id), proto.l1(id).has(addr))
                << "l1=" << id;
        }
        // Every L2 copy bit has a matching bank line, exactly one per
        // bank.
        for (BankId b = 0; b < cfg.l2Banks; ++b) {
            const auto [set, way] = org.findCopy(b, addr);
            EXPECT_EQ(info.hasL2Copy(b), way != kNoWay) << "bank=" << b;
        }
        // Token conservation under the redistribution rule.
        std::uint64_t total = 0;
        for (L1Id id = 0; id < cfg.l1Count(); ++id)
            total += proto.dir().tokensOf(addr, OwnerKind::L1, id);
        for (BankId b = 0; b < cfg.l2Banks; ++b)
            total += proto.dir().tokensOf(addr, OwnerKind::L2Bank, b);
        total += proto.dir().tokensOf(addr, OwnerKind::Memory, 0);
        EXPECT_EQ(total, cfg.totalTokens());
    });

    // The reverse direction: no bank line without a directory bit.
    for (BankId b = 0; b < cfg.l2Banks; ++b) {
        CacheBank &bank = org.bank(b);
        for (std::uint32_t s = 0; s < bank.numSets(); ++s) {
            for (std::uint32_t w = 0; w < cfg.l2Ways; ++w) {
                const BlockMeta &m = bank.set(s).way(static_cast<int>(w));
                if (!m.valid)
                    continue;
                const BlockInfo *e = proto.dir().find(m.addr);
                ASSERT_NE(e, nullptr)
                    << "bank " << b << " holds untracked block";
                EXPECT_TRUE(e->hasL2Copy(b));
            }
        }
    }
}

class InvariantSweep
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>>
{
};

TEST_P(InvariantSweep, StateConsistentAfterRun)
{
    const auto &[arch, workload] = GetParam();
    SystemConfig cfg;
    const Workload wl = makeWorkload(workload, cfg, 3000, 7);
    System sys(cfg, arch, wl, 7);
    sys.run();
    checkConsistency(sys, cfg);
}

INSTANTIATE_TEST_SUITE_P(
    ArchByWorkload, InvariantSweep,
    ::testing::Combine(
        ::testing::Values("shared", "private", "sp-nuca", "esp-nuca",
                          "esp-nuca-flat", "d-nuca", "asr", "cc-70"),
        ::testing::Values("apache", "CG", "mcf-gzip")));

const std::vector<std::string> kAllArchs = {
    "shared",         "private",  "sp-nuca",       "sp-nuca-static",
    "sp-nuca-shadow", "esp-nuca", "esp-nuca-flat", "d-nuca",
    "asr",            "cc-0",     "cc-30",         "cc-70",
    "cc-100"};

/** A drained run holds a directory entry for exactly the on-chip
 *  blocks: every block that left the chip was forgotten. */
void
expectOnlyOnChipEntries(System &sys)
{
    const Directory &dir = sys.protocol().dir();
    EXPECT_GT(dir.population(), 0u);
    EXPECT_EQ(dir.size(), dir.population());
}

class DrainedDirectory : public ::testing::TestWithParam<std::string>
{
};

TEST_P(DrainedDirectory, HoldsOnlyOnChipBlocks)
{
    // A 1 MB L2 makes blocks leave the chip within a short run.
    SystemConfig cfg;
    cfg.l2SizeBytes = 1024 * 1024;
    const Workload wl = makeWorkload("mcf-gzip", cfg, 6000, 9);
    System sys(cfg, GetParam(), wl, 9, 0.5);
    sys.run();
    expectOnlyOnChipEntries(sys);
    checkConsistency(sys, cfg);
}

INSTANTIATE_TEST_SUITE_P(AllArchs, DrainedDirectory,
                         ::testing::ValuesIn(kAllArchs));

TEST(DrainedDirectory, HoldsOnlyOnChipBlocksAt64Cores)
{
    // The 64-core/256-bank tiled machine of the scaling bench, with
    // multi-word L1 masks in every slot; its L2 shrunk to 2 MB so that
    // blocks leave the chip within a short run.
    SystemConfig cfg;
    cfg.numCores = 64;
    cfg.l2Banks = 256;
    cfg.l2SizeBytes = 2ULL * 1024 * 1024;
    cfg.memControllers = 4;
    cfg.placement = "tiled";
    cfg.meshCols = 0;
    cfg.meshRows = 0;
    const Workload wl = makeWorkload("apache", cfg, 600, 4);
    System sys(cfg, "esp-nuca", wl, 4, 0.5);
    sys.run();
    expectOnlyOnChipEntries(sys);
}

TEST(DrainedDirectory, SizeBoundedByOnChipCapacityThroughALongRun)
{
    // mcf-4 streams a 16 MB cold footprint through the 8 MB L2. An
    // observer event samples the directory every 20k cycles, re-armed
    // while other events remain: the directory may hold the on-chip
    // blocks, at most one locked off-chip block per live transaction,
    // and the few blocks that left since the last forget pass, which
    // the idle cores' empty L1s more than cover.
    SystemConfig cfg;
    const Workload wl = makeWorkload("mcf-4", cfg, 4 * 20'000, 3);
    System sys(cfg, "esp-nuca", wl, 3, 0.5);
    const Directory &dir = sys.protocol().dir();
    const std::size_t l2_blocks = cfg.l2SizeBytes / cfg.blockBytes;
    const std::size_t l1_blocks =
        std::size_t{cfg.l1Count()} * (cfg.l1SizeBytes / cfg.blockBytes);
    EventQueue &eq = sys.eq();
    std::size_t samples = 0;
    std::size_t over = 0;
    std::size_t peak = 0;
    constexpr Cycle kEvery = 20'000;
    std::function<void()> sample = [&]() {
        ++samples;
        peak = std::max(peak, dir.size());
        over += dir.size() >
                l2_blocks + l1_blocks + sys.protocol().inFlight();
        if (!eq.empty())
            eq.schedule(kEvery, [&sample]() { sample(); });
    };
    eq.scheduleAt(kEvery, [&sample]() { sample(); });
    sys.run();
    EXPECT_GT(samples, 50u);
    EXPECT_EQ(over, 0u) << "samples over the bound; peak size " << peak;
    // The run fills the chip: the bound is not met by a small run.
    EXPECT_GT(peak, l2_blocks / 2);
    expectOnlyOnChipEntries(sys);
}

TEST(Invariants, WriterIsAlwaysSoleHolder)
{
    // Hammer one block with writes from all cores; after the dust
    // settles exactly one L1 holds it with the owner token.
    SystemConfig cfg;
    Topology topo(cfg);
    EventQueue eq;
    Mesh mesh(topo, eq);
    EspNuca org(cfg);
    Protocol proto(cfg, topo, mesh, eq, org);
    Rng rng(13);
    for (int i = 0; i < 400; ++i) {
        const CoreId c = static_cast<CoreId>(rng.below(8));
        const Addr a = 0x4000 + rng.below(16) * 0x40;
        const AccessType t =
            rng.chance(0.5) ? AccessType::Store : AccessType::Load;
        proto.access(c, t, a, [](ServiceLevel, Cycle) {});
        if (i % 7 == 0)
            eq.run();
    }
    eq.run();
    EXPECT_EQ(proto.inFlight(), 0u);
    proto.dir().forEach([&](Addr addr, const BlockInfo &info) {
        EXPECT_TRUE(proto.dir().consistent(addr));
        if (info.ownerKind() == OwnerKind::L1) {
            const L1Id id = static_cast<L1Id>(info.ownerIndex());
            const int way = proto.l1(id).lookup(addr);
            ASSERT_NE(way, kNoWay);
            if (proto.l1(id).meta(addr, way).dirty) {
                // Dirty data implies the writer gathered every token at
                // write time; readers may have joined since, but no L2
                // copy may predate the write.
                EXPECT_TRUE(proto.l1(id).meta(addr, way).hasOwnerToken);
            }
        }
    });
}

TEST(Invariants, HelpingBlocksBoundedByProtectedLru)
{
    SystemConfig cfg;
    const Workload wl = makeWorkload("apache", cfg, 6000, 3);
    System sys(cfg, "esp-nuca", wl, 3);
    sys.run();
    auto &esp = dynamic_cast<EspNuca &>(sys.org());
    for (BankId b = 0; b < esp.numBanks(); ++b) {
        CacheBank &bank = esp.bank(b);
        const std::uint32_t nmax = bank.monitor()->nmax();
        for (std::uint32_t s = 0; s < bank.numSets(); ++s) {
            const std::uint32_t limit =
                ProtectedLru::limitFor(bank.context(s));
            // Transient overshoot by nmax drops is trimmed lazily; the
            // bound we guarantee is the explorer cap + slack from
            // recent decrements.
            EXPECT_LE(bank.set(s).helpingCount(),
                      std::max(limit, cfg.l2Ways - 2u))
                << "bank " << b << " set " << s << " nmax " << nmax;
        }
    }
}

TEST(Invariants, ReferenceSetsNeverHoldHelpingBlocks)
{
    SystemConfig cfg;
    const Workload wl = makeWorkload("oltp", cfg, 6000, 5);
    System sys(cfg, "esp-nuca", wl, 5);
    sys.run();
    auto &esp = dynamic_cast<EspNuca &>(sys.org());
    for (BankId b = 0; b < esp.numBanks(); ++b) {
        CacheBank &bank = esp.bank(b);
        for (std::uint32_t s = 0; s < bank.numSets(); ++s) {
            if (bank.monitor()->category(s) != SetCategory::Reference)
                continue;
            EXPECT_EQ(bank.set(s).helpingCount(), 0u)
                << "bank " << b << " set " << s;
        }
    }
}

} // namespace
} // namespace espnuca
