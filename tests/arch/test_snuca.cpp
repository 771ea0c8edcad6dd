/**
 * @file
 * S-NUCA organization behaviour: single fixed location per block.
 */

#include <gtest/gtest.h>

#include "arch/snuca.hpp"
#include "net/topology.hpp"

namespace espnuca {
namespace {

struct SnucaFixture : ::testing::Test
{
    SystemConfig cfg;
    Topology topo{cfg};
    EventQueue eq;
    Mesh mesh{topo, eq};
    Snuca org{cfg};
    Protocol proto{cfg, topo, mesh, eq, org};
    AddressMap map{cfg};

    void
    access(CoreId c, AccessType t, Addr a)
    {
        proto.access(c, t, a, [](ServiceLevel, Cycle) {});
        eq.run();
    }
};

TEST_F(SnucaFixture, Name)
{
    EXPECT_EQ(org.name(), "shared");
}

TEST_F(SnucaFixture, BlocksLiveOnlyAtHome)
{
    for (CoreId c = 0; c < 8; ++c)
        access(c, AccessType::Load, 0x13440);
    const BlockInfo *e = proto.dir().find(0x13440);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->numL2Copies(), 1u);
    EXPECT_TRUE(e->hasL2Copy(map.sharedBank(0x13440)));
}

TEST_F(SnucaFixture, DifferentAddressesSpreadOverBanks)
{
    std::set<BankId> banks;
    for (Addr a = 0; a < 64 * 32; a += 64) {
        access(0, AccessType::Load, 0x100000 + a);
        const BlockInfo *e = proto.dir().find(0x100000 + a);
        for (BankId b = 0; b < cfg.l2Banks; ++b)
            if (e->hasL2Copy(b))
                banks.insert(b);
    }
    EXPECT_EQ(banks.size(), 32u); // all banks used
}

TEST_F(SnucaFixture, DirtyL1EvictionRefreshesHome)
{
    const Addr victim = 0x4000;
    access(0, AccessType::Store, victim);
    const Addr stride = 128 * 64;
    for (int i = 1; i <= 4; ++i)
        access(0, AccessType::Load, victim + i * stride);
    const BankId home = map.sharedBank(victim);
    const auto [set, way] = org.findCopy(home, victim);
    ASSERT_NE(way, kNoWay);
    EXPECT_TRUE(org.bank(home).meta(set, way).dirty);
}

TEST_F(SnucaFixture, L2DemandHitRateTracked)
{
    access(0, AccessType::Load, 0x4000);
    access(1, AccessType::Load, 0x4000);
    EXPECT_GE(org.totalDemandAccesses(), 2u);
    EXPECT_GE(org.totalDemandHits(), 1u);
}

TEST_F(SnucaFixture, InvalidateAllCopiesClearsDirectory)
{
    access(0, AccessType::Load, 0x4000);
    EXPECT_EQ(org.invalidateAllL2Copies(0x4000), 1u);
    const BlockInfo *e = proto.dir().find(0x4000);
    // L1 copy remains; L2 bits gone.
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->l2Copies().none());
}

} // namespace
} // namespace espnuca
