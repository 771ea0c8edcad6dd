/**
 * @file
 * Private tiled organization: tile-local allocation, unrestricted
 * replication, cache-to-cache transfer through the directory.
 */

#include <gtest/gtest.h>

#include "arch/private_tiled.hpp"
#include "net/topology.hpp"

namespace espnuca {
namespace {

struct PrivateFixture : ::testing::Test
{
    SystemConfig cfg;
    Topology topo{cfg};
    EventQueue eq;
    Mesh mesh{topo, eq};
    PrivateTiled org{cfg};
    Protocol proto{cfg, topo, mesh, eq, org};
    AddressMap map{cfg};

    ServiceLevel
    access(CoreId c, AccessType t, Addr a)
    {
        ServiceLevel lvl = ServiceLevel::OffChip;
        proto.access(c, t, a, [&](ServiceLevel l, Cycle) { lvl = l; });
        eq.run();
        return lvl;
    }

    /** Evict a block from core c's L1 by filling its set. */
    void
    churnL1(CoreId c, Addr around)
    {
        const Addr stride = 128 * 64;
        for (int i = 1; i <= 4; ++i)
            access(c, AccessType::Load, around + i * stride);
    }
};

TEST_F(PrivateFixture, NoL2AllocationOnFill)
{
    access(0, AccessType::Load, 0x4000);
    const BlockInfo *e = proto.dir().find(0x4000);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->l2Copies().none()); // only the L1 holds it
    EXPECT_EQ(e->ownerKind(), OwnerKind::L1);
}

TEST_F(PrivateFixture, L1EvictionFillsLocalTile)
{
    access(0, AccessType::Load, 0x4000);
    churnL1(0, 0x4000);
    const BlockInfo *e = proto.dir().find(0x4000);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->hasL2Copy(map.privateBank(0, 0x4000)));
    // Re-access hits the local tile.
    EXPECT_EQ(access(0, AccessType::Load, 0x4000),
              ServiceLevel::LocalPrivateL2);
}

TEST_F(PrivateFixture, RemoteCleanDataForwardedL1ToL1)
{
    access(0, AccessType::Load, 0x4000);
    EXPECT_EQ(access(7, AccessType::Load, 0x4000),
              ServiceLevel::RemoteL1);
}

TEST_F(PrivateFixture, ReplicationAcrossTiles)
{
    // Two cores read and then evict: both tiles hold a copy.
    access(0, AccessType::Load, 0x4000);
    churnL1(0, 0x4000);
    access(7, AccessType::Load, 0x4000);
    churnL1(7, 0x4000);
    const BlockInfo *e = proto.dir().find(0x4000);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->hasL2Copy(map.privateBank(0, 0x4000)));
    EXPECT_TRUE(e->hasL2Copy(map.privateBank(7, 0x4000)));
    EXPECT_EQ(e->numL2Copies(), 2u);
}

TEST_F(PrivateFixture, WriteInvalidatesAllReplicas)
{
    access(0, AccessType::Load, 0x4000);
    churnL1(0, 0x4000);
    access(7, AccessType::Load, 0x4000);
    churnL1(7, 0x4000);
    access(3, AccessType::Store, 0x4000);
    const BlockInfo *e = proto.dir().find(0x4000);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->l2Copies().none());
    EXPECT_EQ(e->numL1Holders(), 1u);
}

TEST_F(PrivateFixture, RemoteTileServedThroughDirectory)
{
    // Pick an address whose tile bank for core 0 is NOT also its
    // shared home bank, so the attribution reads RemoteL2 (0x400:
    // tile bank 0, home bank 16).
    const Addr a = 0x400;
    ASSERT_NE(map.privateBank(0, a), map.sharedBank(a));
    // Core 0 caches in its tile, loses its L1 copy entirely, core 7
    // must fetch from core 0's tile (remote L2).
    access(0, AccessType::Load, a);
    churnL1(0, a);
    EXPECT_FALSE(proto.l1(l1IdOf(0, false)).has(a));
    const ServiceLevel lvl = access(7, AccessType::Load, a);
    EXPECT_EQ(lvl, ServiceLevel::RemoteL2);
}

} // namespace
} // namespace espnuca
