/**
 * @file
 * Coherence-engine tests on the S-NUCA organization (the simplest
 * substrate): hit/miss flows, MSHR merging, write-token collection,
 * eviction writebacks, and attribution.
 */

#include <gtest/gtest.h>

#include <vector>

#include "arch/snuca.hpp"
#include "net/topology.hpp"

namespace espnuca {
namespace {

struct ProtoFixture : ::testing::Test
{
    SystemConfig cfg;
    Topology topo{cfg};
    EventQueue eq;
    Mesh mesh{topo, eq};
    Snuca org{cfg};
    Protocol proto{cfg, topo, mesh, eq, org};

    struct Done
    {
        bool fired = false;
        ServiceLevel level = ServiceLevel::OffChip;
        Cycle latency = 0;
    };

    Done
    access(CoreId c, AccessType t, Addr a)
    {
        auto done = std::make_shared<Done>();
        proto.access(c, t, a, [done](ServiceLevel l, Cycle lat) {
            done->fired = true;
            done->level = l;
            done->latency = lat;
        });
        eq.run();
        EXPECT_TRUE(done->fired);
        return *done;
    }
};

TEST_F(ProtoFixture, ColdReadGoesOffChip)
{
    const Done d = access(0, AccessType::Load, 0x4000);
    EXPECT_EQ(d.level, ServiceLevel::OffChip);
    EXPECT_GT(d.latency, cfg.memLatency);
    EXPECT_EQ(proto.offChipFetches(), 1u);
}

TEST_F(ProtoFixture, SecondReadHitsL1)
{
    access(0, AccessType::Load, 0x4000);
    const Done d = access(0, AccessType::Load, 0x4000);
    EXPECT_EQ(d.level, ServiceLevel::LocalL1);
    EXPECT_EQ(d.latency, cfg.l1Latency);
    EXPECT_EQ(proto.l1Hits(), 1u);
}

TEST_F(ProtoFixture, MemFillAllocatesHomeBank)
{
    access(0, AccessType::Load, 0x4000);
    const BankId home = AddressMap(cfg).sharedBank(0x4000);
    const auto [set, way] = org.findCopy(home, 0x4000);
    EXPECT_NE(way, kNoWay);
    const BlockInfo *e = proto.dir().find(0x4000);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->hasL2Copy(home));
    EXPECT_EQ(e->ownerKind(), OwnerKind::L2Bank);
    (void)set;
}

TEST_F(ProtoFixture, RemoteCoreHitsSharedL2)
{
    access(0, AccessType::Load, 0x4000);
    const Done d = access(5, AccessType::Load, 0x4000);
    // Found in the home bank (allocated by core 0's fill).
    EXPECT_TRUE(d.level == ServiceLevel::SharedL2 ||
                d.level == ServiceLevel::LocalPrivateL2 ||
                d.level == ServiceLevel::RemoteL2);
    EXPECT_LT(d.latency, cfg.memLatency);
}

TEST_F(ProtoFixture, IfetchFillsInstructionL1Separately)
{
    access(0, AccessType::Ifetch, 0x8000);
    EXPECT_TRUE(proto.l1(l1IdOf(0, true)).has(0x8000));
    EXPECT_FALSE(proto.l1(l1IdOf(0, false)).has(0x8000));
    // A data load of the same block misses the L1D but hits L2.
    const Done d = access(0, AccessType::Load, 0x8000);
    EXPECT_NE(d.level, ServiceLevel::LocalL1);
    EXPECT_NE(d.level, ServiceLevel::OffChip);
}

TEST_F(ProtoFixture, WriteMakesSoleOwner)
{
    access(0, AccessType::Load, 0x4000);
    access(3, AccessType::Load, 0x4000);
    access(1, AccessType::Store, 0x4000);
    const BlockInfo *e = proto.dir().find(0x4000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->numL1Holders(), 1u);
    EXPECT_TRUE(e->hasL1Holder(l1IdOf(1, false)));
    EXPECT_TRUE(e->l2Copies().none());
    EXPECT_EQ(e->ownerKind(), OwnerKind::L1);
    EXPECT_FALSE(proto.l1(l1IdOf(0, false)).has(0x4000));
    EXPECT_FALSE(proto.l1(l1IdOf(3, false)).has(0x4000));
    EXPECT_GT(proto.invalidationsSent(), 0u);
}

TEST_F(ProtoFixture, WriteHitWithAllTokensIsL1Hit)
{
    access(1, AccessType::Store, 0x4000);
    const Done d = access(1, AccessType::Store, 0x4000);
    EXPECT_EQ(d.level, ServiceLevel::LocalL1);
    EXPECT_EQ(d.latency, cfg.l1Latency);
}

TEST_F(ProtoFixture, UpgradeCollectsTokens)
{
    access(0, AccessType::Load, 0x4000); // L2 copy + L1 copy
    const Done d = access(0, AccessType::Store, 0x4000);
    // Upgrade: data local, but the round trip to invalidate the L2
    // copy is required.
    EXPECT_EQ(d.level, ServiceLevel::LocalL1);
    EXPECT_GT(d.latency, cfg.l1Latency);
    const BlockInfo *e = proto.dir().find(0x4000);
    EXPECT_TRUE(e->l2Copies().none());
}

TEST_F(ProtoFixture, DirtyDataForwardedFromRemoteL1)
{
    access(2, AccessType::Store, 0x4000); // core 2 sole dirty owner
    const Done d = access(6, AccessType::Load, 0x4000);
    EXPECT_EQ(d.level, ServiceLevel::RemoteL1);
    // Both now hold a copy; core 2 keeps the owner token.
    const BlockInfo *e = proto.dir().find(0x4000);
    EXPECT_EQ(e->numL1Holders(), 2u);
    EXPECT_EQ(e->ownerKind(), OwnerKind::L1);
    EXPECT_EQ(e->ownerIndex(), l1IdOf(2, false));
}

TEST_F(ProtoFixture, MshrMergesSameBlockReads)
{
    int completions = 0;
    proto.access(0, AccessType::Load, 0x4000,
                 [&](ServiceLevel, Cycle) { ++completions; });
    proto.access(0, AccessType::Load, 0x4000,
                 [&](ServiceLevel, Cycle) { ++completions; });
    eq.run();
    EXPECT_EQ(completions, 2);
    EXPECT_EQ(proto.l2Transactions(), 1u); // merged into one
    EXPECT_EQ(proto.offChipFetches(), 1u);
}

TEST_F(ProtoFixture, CrossCoreRacesSerialize)
{
    int completions = 0;
    for (CoreId c = 0; c < 8; ++c) {
        proto.access(c, AccessType::Store, 0x4000,
                     [&](ServiceLevel, Cycle) { ++completions; });
    }
    eq.run();
    EXPECT_EQ(completions, 8);
    // Exactly one core ends as the sole owner.
    const BlockInfo *e = proto.dir().find(0x4000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->numL1Holders(), 1u);
    EXPECT_TRUE(proto.dir().consistent(0x4000));
}

TEST_F(ProtoFixture, L1CapacityEvictionWritesBack)
{
    // Dirty a block, then stream enough same-set blocks through the L1
    // to evict it; the dirty data must land in the L2 home bank.
    const Addr victim = 0x4000;
    access(0, AccessType::Store, victim);
    const Addr stride = 128 * 64; // same L1 set
    for (int i = 1; i <= 4; ++i)
        access(0, AccessType::Load, victim + i * stride);
    EXPECT_FALSE(proto.l1(l1IdOf(0, false)).has(victim));
    const BlockInfo *e = proto.dir().find(victim);
    ASSERT_NE(e, nullptr);
    EXPECT_GT(e->numL2Copies(), 0u);
    // And a later read is served on chip.
    const Done d = access(0, AccessType::Load, victim);
    EXPECT_NE(d.level, ServiceLevel::OffChip);
}

TEST_F(ProtoFixture, AttributionCountsEveryReference)
{
    access(0, AccessType::Load, 0x4000);
    access(0, AccessType::Load, 0x4000);
    access(1, AccessType::Store, 0x8000);
    std::uint64_t total = 0;
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(ServiceLevel::kNumLevels); ++i)
        total += proto.levelStats(static_cast<ServiceLevel>(i)).count;
    EXPECT_EQ(total, 3u);
    EXPECT_EQ(proto.totalAccesses(), 3u);
}

TEST_F(ProtoFixture, NoTransactionsLeak)
{
    for (int i = 0; i < 50; ++i)
        access(static_cast<CoreId>(i % 8), AccessType::Load,
               0x4000 + i * 0x40);
    EXPECT_EQ(proto.inFlight(), 0u);
}

} // namespace
} // namespace espnuca
