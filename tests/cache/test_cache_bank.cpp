/**
 * @file
 * Bank-level tests: sequential-access timing, insert/evict/invalidate
 * with the policy stack, monitor wiring.
 */

#include <gtest/gtest.h>

#include <memory>

#include "cache/cache_bank.hpp"

namespace espnuca {
namespace {

BlockMeta
makeBlock(Addr a, BlockClass cls = BlockClass::Private)
{
    BlockMeta m;
    m.addr = a;
    m.valid = true;
    m.cls = cls;
    return m;
}

struct BankFixture : ::testing::Test
{
    SystemConfig cfg;
    CacheBank bank{cfg, 0, std::make_shared<FlatLru>(), false};
};

TEST_F(BankFixture, TagProbeTiming)
{
    EXPECT_EQ(bank.tagProbe(100), 100 + cfg.l2TagLatency);
}

TEST_F(BankFixture, SequentialDataAccessTotalsFiveCycles)
{
    const Cycle tag_done = bank.tagProbe(0);
    const Cycle data_done = bank.dataAccess(tag_done);
    EXPECT_EQ(data_done, cfg.l2Latency); // 2 + 3 = 5 (Table 2)
}

TEST_F(BankFixture, BankIsSequentiallyOccupied)
{
    const Cycle t1 = bank.tagProbe(0);
    const Cycle t2 = bank.tagProbe(0); // queues behind the first
    EXPECT_EQ(t2, t1 + cfg.l2TagLatency);
    EXPECT_GT(bank.waitCycles(), 0u);
}

TEST_F(BankFixture, InsertAndFind)
{
    const BlockMeta b = makeBlock(0x1000);
    const InsertResult r = bank.insert(3, b);
    EXPECT_TRUE(r.inserted);
    EXPECT_FALSE(r.evicted.valid);
    EXPECT_NE(bank.findAny(3, 0x1000), kNoWay);
    EXPECT_EQ(bank.findAny(4, 0x1000), kNoWay); // wrong set
}

TEST_F(BankFixture, FindRespectsClassPredicate)
{
    bank.insert(0, makeBlock(0x1000, BlockClass::Private));
    EXPECT_EQ(bank.find(0, 0x1000, kMatchShared), kNoWay);
    EXPECT_EQ(bank.find(0, 0x1000, kMatchHelping), kNoWay);
    EXPECT_NE(bank.find(0, 0x1000, kMatchPrivate), kNoWay);
}

TEST_F(BankFixture, FullSetEvictsLru)
{
    for (std::uint32_t i = 0; i < cfg.l2Ways; ++i)
        bank.insert(0, makeBlock(0x10000 + 0x40 * i));
    const InsertResult r = bank.insert(0, makeBlock(0x90000));
    EXPECT_TRUE(r.inserted);
    ASSERT_TRUE(r.evicted.valid);
    EXPECT_EQ(r.evicted.addr, 0x10000u); // first inserted = LRU
    EXPECT_EQ(bank.evictions(), 1u);
}

TEST_F(BankFixture, InvalidateRemovesBlock)
{
    bank.insert(0, makeBlock(0x1000));
    const int w = bank.findAny(0, 0x1000);
    const BlockMeta old = bank.invalidate(0, w);
    EXPECT_EQ(old.addr, 0x1000u);
    EXPECT_EQ(bank.findAny(0, 0x1000), kNoWay);
}

TEST_F(BankFixture, DemandRecordingCounts)
{
    bank.recordDemand(0, 0x1000, BlockClass::Private, true);
    bank.recordDemand(0, 0x2000, BlockClass::Private, false);
    EXPECT_EQ(bank.demandAccesses(), 2u);
    EXPECT_EQ(bank.demandHits(), 1u);
}

TEST_F(BankFixture, CountClass)
{
    bank.insert(0, makeBlock(0x1000, BlockClass::Private));
    bank.insert(1, makeBlock(0x2000, BlockClass::Replica));
    bank.insert(2, makeBlock(0x3000, BlockClass::Replica));
    EXPECT_EQ(bank.countClass(BlockClass::Replica), 2u);
    EXPECT_EQ(bank.countClass(BlockClass::Private), 1u);
    EXPECT_EQ(bank.countClass(BlockClass::Victim), 0u);
}

TEST(CacheBankMonitor, MonitoredBankExposesCategories)
{
    SystemConfig cfg;
    CacheBank bank(cfg, 0, std::make_shared<ProtectedLru>(), true);
    ASSERT_NE(bank.monitor(), nullptr);
    // Context reflects the monitor's category and nmax.
    bool saw_reference = false;
    for (std::uint32_t s = 0; s < bank.numSets(); ++s) {
        if (bank.context(s).category == SetCategory::Reference)
            saw_reference = true;
    }
    EXPECT_TRUE(saw_reference);
}

TEST(CacheBankMonitor, UnmonitoredBankDefaultsConventional)
{
    SystemConfig cfg;
    CacheBank bank(cfg, 0, std::make_shared<FlatLru>(), false);
    EXPECT_EQ(bank.monitor(), nullptr);
    EXPECT_EQ(bank.context(0).category, SetCategory::Conventional);
}

TEST(CacheBankMonitor, ReferenceSetRefusesHelping)
{
    SystemConfig cfg;
    CacheBank bank(cfg, 0, std::make_shared<ProtectedLru>(), true);
    std::uint32_t ref_set = 0;
    while (bank.monitor()->category(ref_set) != SetCategory::Reference)
        ++ref_set;
    const InsertResult r =
        bank.insert(ref_set, makeBlock(0x5000, BlockClass::Replica));
    EXPECT_FALSE(r.inserted);
}

} // namespace
} // namespace espnuca
