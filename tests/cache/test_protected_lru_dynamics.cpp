/**
 * @file
 * Scenario-driven protected-LRU + monitor co-simulation at the bank
 * level: drives a monitored bank with synthetic demand/insert streams
 * and checks the closed-loop behaviour (nmax convergence, helping-block
 * trimming after a phase change, reference-set purity).
 */

#include <gtest/gtest.h>

#include <memory>

#include "cache/cache_bank.hpp"
#include "common/rng.hpp"

namespace espnuca {
namespace {

struct BankDriver
{
    SystemConfig cfg;
    CacheBank bank;
    Rng rng{11};

    explicit BankDriver(std::uint32_t period = 8)
        : cfg(makeCfg(period)),
          bank(cfg, 0, std::make_shared<ProtectedLru>(), true)
    {
    }

    static SystemConfig
    makeCfg(std::uint32_t period)
    {
        SystemConfig c;
        c.monitorPeriod = period;
        return c;
    }

    /**
     * One demand reference to `addr` in its set: lookup, record, and on
     * miss insert as `cls` through the policy (returning whether the
     * insertion was admitted).
     */
    bool
    demand(std::uint32_t set, Addr addr, BlockClass cls)
    {
        const int way = bank.findAny(set, addr);
        const bool fc_hit =
            way != kNoWay && isFirstClass(bank.meta(set, way).cls);
        bank.recordDemand(set, addr, cls, fc_hit);
        if (way != kNoWay) {
            bank.touch(set, way);
            return true;
        }
        BlockMeta m;
        m.addr = addr;
        m.valid = true;
        m.cls = cls;
        return bank.insert(set, m).inserted;
    }
};

TEST(ProtectedDynamics, LowUtilityPhaseGrowsNmax)
{
    // Tiny first-class working set (always hits) + replica pressure:
    // every set class keeps a perfect first-class hit rate, so the
    // explorer keeps matching the reference and nmax climbs.
    BankDriver d;
    const std::uint32_t init = d.bank.monitor()->nmax();
    for (int round = 0; round < 24000; ++round) {
        const std::uint32_t set =
            static_cast<std::uint32_t>(d.rng.below(d.bank.numSets()));
        // 4 hot first-class blocks per set: fits easily.
        const Addr fc = 0x10000 + set * 0x40000 +
                        d.rng.below(4) * 0x40;
        d.demand(set, fc, BlockClass::Private);
        // Replica stream through the same set.
        const Addr rep = 0x900000 + set * 0x40000 +
                         d.rng.below(8) * 0x40;
        d.demand(set, rep, BlockClass::Replica);
    }
    EXPECT_GT(d.bank.monitor()->nmax(), init);
}

TEST(ProtectedDynamics, HighUtilityPhaseShrinksNmax)
{
    // First-class working set == associativity: every way matters, so
    // helping blocks directly cost first-class hits in the conventional
    // sets and the monitor clamps down.
    BankDriver d;
    d.bank.monitor()->setNmax(8);
    for (int round = 0; round < 6000; ++round) {
        const std::uint32_t set =
            static_cast<std::uint32_t>(d.rng.below(d.bank.numSets()));
        const Addr fc = 0x10000 + set * 0x400000 +
                        d.rng.below(16) * 0x40; // 16 blocks, 16 ways
        d.demand(set, fc, BlockClass::Private);
        const Addr rep = 0x9000000 + set * 0x400000 +
                         d.rng.below(16) * 0x40;
        d.demand(set, rep, BlockClass::Replica);
    }
    EXPECT_LT(d.bank.monitor()->nmax(), 8u);
}

TEST(ProtectedDynamics, ReferenceSetsStayPure)
{
    BankDriver d;
    for (int round = 0; round < 4000; ++round) {
        const std::uint32_t set =
            static_cast<std::uint32_t>(d.rng.below(d.bank.numSets()));
        d.demand(set, 0x10000 + set * 0x40000 + d.rng.below(20) * 0x40,
                 BlockClass::Private);
        d.demand(set, 0x900000 + set * 0x40000 + d.rng.below(20) * 0x40,
                 d.rng.chance(0.5) ? BlockClass::Replica
                                   : BlockClass::Victim);
    }
    for (std::uint32_t s = 0; s < d.bank.numSets(); ++s) {
        if (d.bank.monitor()->category(s) == SetCategory::Reference) {
            EXPECT_EQ(d.bank.set(s).helpingCount(), 0u) << s;
        }
    }
}

TEST(ProtectedDynamics, NmaxDropTrimsResidentHelpingBlocks)
{
    // Force helping blocks in, then drop nmax to 1: subsequent demand
    // insertions must trim the excess (n >= limit -> helping LRU).
    BankDriver d;
    d.bank.monitor()->setNmax(6);
    const std::uint32_t set = 17;
    for (int i = 0; i < 6; ++i)
        d.demand(set, 0x900000 + i * 0x40000ULL * 256, // same set
                 BlockClass::Replica);
    // (addresses constructed to land in set 17 via explicit set param)
    const std::uint32_t n_before = d.bank.set(set).helpingCount();
    ASSERT_GT(n_before, 0u);
    d.bank.monitor()->setNmax(1);
    for (int i = 0; i < 8; ++i)
        d.demand(set, 0x10000 + i * 0x40, BlockClass::Private);
    EXPECT_LE(d.bank.set(set).helpingCount(), n_before);
    // Keep inserting first-class: helping population heads to limit.
    for (int i = 0; i < 32; ++i)
        d.demand(set, 0x20000 + i * 0x40, BlockClass::Private);
    EXPECT_LE(d.bank.set(set).helpingCount(), 1u);
}

TEST(ProtectedDynamics, ExplorerSetsHoldOneMoreHelpingBlock)
{
    BankDriver d;
    d.bank.monitor()->setNmax(3);
    std::uint32_t expl = 0, conv = 0;
    bool have_expl = false, have_conv = false;
    for (std::uint32_t s = 0; s < d.bank.numSets(); ++s) {
        const SetCategory c = d.bank.monitor()->category(s);
        if (c == SetCategory::Explorer && !have_expl) {
            expl = s;
            have_expl = true;
        }
        if (c == SetCategory::Conventional && !have_conv) {
            conv = s;
            have_conv = true;
        }
    }
    ASSERT_TRUE(have_expl);
    ASSERT_TRUE(have_conv);
    // Saturate both with helping blocks only.
    for (int i = 0; i < 12; ++i) {
        BlockMeta m;
        m.valid = true;
        m.cls = BlockClass::Replica;
        m.addr = 0xA00000 + static_cast<Addr>(i) * 0x40;
        d.bank.insert(expl, m);
        m.addr += 0x1000000;
        d.bank.insert(conv, m);
    }
    EXPECT_EQ(d.bank.set(expl).helpingCount(), 4u); // nmax + 1
    EXPECT_EQ(d.bank.set(conv).helpingCount(), 3u); // nmax
}

} // namespace
} // namespace espnuca
