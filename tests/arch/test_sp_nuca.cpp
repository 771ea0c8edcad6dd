/**
 * @file
 * SP-NUCA behaviour: private fills near the owner, the Figure 2b search
 * order, privatization (private -> shared migration), and the dynamic
 * way partition.
 */

#include <gtest/gtest.h>

#include "arch/sp_nuca.hpp"
#include "net/topology.hpp"

namespace espnuca {
namespace {

struct SpFixture : ::testing::Test
{
    SystemConfig cfg;
    Topology topo{cfg};
    EventQueue eq;
    Mesh mesh{topo, eq};
    SpNuca org{cfg};
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
};

TEST_F(SpFixture, FillAllocatesPrivateNearOwner)
{
    access(3, AccessType::Load, 0x4000);
    const BlockInfo *e = proto.dir().find(0x4000);
    ASSERT_NE(e, nullptr);
    const BankId priv = map.privateBank(3, 0x4000);
    EXPECT_TRUE(e->hasL2Copy(priv));
    EXPECT_FALSE(e->sharedStatus());
    const auto [set, way] = org.findCopy(priv, 0x4000);
    ASSERT_NE(way, kNoWay);
    EXPECT_EQ(org.bank(priv).meta(set, way).cls, BlockClass::Private);
    EXPECT_EQ(org.bank(priv).meta(set, way).owner, 3u);
}

TEST_F(SpFixture, OwnerHitsItsPrivateBank)
{
    access(3, AccessType::Load, 0x4000);
    // Drop the L1 copy so the next access reaches L2.
    proto.dropL1Copy(0x4000, l1IdOf(3, false));
    EXPECT_EQ(access(3, AccessType::Load, 0x4000),
              ServiceLevel::LocalPrivateL2);
}

TEST_F(SpFixture, SecondCoreTriggersPrivatization)
{
    access(3, AccessType::Load, 0x4000);
    const std::uint64_t before = proto.privatizations();
    access(5, AccessType::Load, 0x4000);
    EXPECT_EQ(proto.privatizations(), before + 1);
    const BlockInfo *e = proto.dir().find(0x4000);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->sharedStatus());
    // The block migrated to its shared home bank.
    const BankId home = map.sharedBank(0x4000);
    EXPECT_TRUE(e->hasL2Copy(home));
    EXPECT_FALSE(e->hasL2Copy(map.privateBank(3, 0x4000)) &&
                 map.privateBank(3, 0x4000) != home);
    const auto [set, way] = org.findCopy(home, 0x4000);
    ASSERT_NE(way, kNoWay);
    EXPECT_EQ(org.bank(home).meta(set, way).cls, BlockClass::Shared);
}

TEST_F(SpFixture, SharedBlockServedFromHome)
{
    access(3, AccessType::Load, 0x4000);
    access(5, AccessType::Load, 0x4000); // privatized to home
    proto.dropL1Copy(0x4000, l1IdOf(3, false));
    proto.dropL1Copy(0x4000, l1IdOf(5, false));
    const ServiceLevel lvl = access(6, AccessType::Load, 0x4000);
    // The home bank may be local to core 6's partition for this address
    // but must be one of the shared-serving levels.
    EXPECT_TRUE(lvl == ServiceLevel::SharedL2 ||
                lvl == ServiceLevel::LocalPrivateL2);
}

TEST_F(SpFixture, StatusResetsWhenBlockLeavesChip)
{
    access(3, AccessType::Load, 0x4000);
    access(5, AccessType::Load, 0x4000); // shared now
    // Remove every on-chip copy.
    proto.dropL1Copy(0x4000, l1IdOf(3, false));
    proto.dropL1Copy(0x4000, l1IdOf(5, false));
    org.invalidateAllL2Copies(0x4000);
    EXPECT_FALSE(proto.dir().onChip(0x4000));
    // Next fill is private again.
    access(6, AccessType::Load, 0x4000);
    const BlockInfo *e = proto.dir().find(0x4000);
    ASSERT_NE(e, nullptr);
    EXPECT_FALSE(e->sharedStatus());
    EXPECT_EQ(e->firstAccessor(), 6u);
}

TEST_F(SpFixture, PrivateAndSharedCoexistInOneBank)
{
    // A private block of the bank's owner and a shared block of another
    // address can share a set, partitioned only by flat LRU.
    access(0, AccessType::Load, 0x4000); // private in bank 0's partition
    access(1, AccessType::Load, 0x10000);
    access(2, AccessType::Load, 0x10000); // shared at its home
    const BlockInfo *a = proto.dir().find(0x4000);
    const BlockInfo *b = proto.dir().find(0x10000);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_FALSE(a->sharedStatus());
    EXPECT_TRUE(b->sharedStatus());
}

TEST_F(SpFixture, DirtySharedEvictionLandsAtHome)
{
    access(3, AccessType::Store, 0x4000);
    access(5, AccessType::Load, 0x4000); // shared; dirty data moves
    // Now evict core 5's and 3's L1 copies by churning.
    const Addr stride = 128 * 64;
    for (int i = 1; i <= 4; ++i) {
        access(5, AccessType::Load, 0x4000 + i * stride);
        access(3, AccessType::Load, 0x4000 + i * stride);
    }
    const BlockInfo *e = proto.dir().find(0x4000);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->hasL2Copy(map.sharedBank(0x4000)));
}

TEST_F(SpFixture, VariantNames)
{
    EXPECT_EQ(SpNuca(cfg, SpPartition::FlatLru).name(), "sp-nuca");
    EXPECT_EQ(SpNuca(cfg, SpPartition::Static).name(), "sp-nuca-static");
    EXPECT_EQ(SpNuca(cfg, SpPartition::ShadowTags).name(),
              "sp-nuca-shadow");
}

} // namespace
} // namespace espnuca
