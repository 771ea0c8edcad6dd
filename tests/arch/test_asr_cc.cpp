/**
 * @file
 * ASR and Cooperative Caching behaviour tests.
 */

#include <gtest/gtest.h>

#include "arch/asr.hpp"
#include "arch/cc.hpp"
#include "net/topology.hpp"

namespace espnuca {
namespace {

template <typename Org>
struct Rig
{
    SystemConfig cfg;
    Topology topo{cfg};
    EventQueue eq;
    Mesh mesh{topo, eq};
    Org org;
    Protocol proto;
    AddressMap map{cfg};

    template <typename... Args>
    explicit Rig(Args &&...args)
        : org(cfg, std::forward<Args>(args)...),
          proto(cfg, topo, mesh, eq, org)
    {
    }

    ServiceLevel
    access(CoreId c, AccessType t, Addr a)
    {
        ServiceLevel lvl = ServiceLevel::OffChip;
        proto.access(c, t, a, [&](ServiceLevel l, Cycle) { lvl = l; });
        eq.run();
        return lvl;
    }

    void
    churnL1(CoreId c, Addr a)
    {
        const Addr stride = 128 * 64;
        for (int i = 1; i <= 4; ++i)
            access(c, AccessType::Load, a + i * stride);
    }
};

TEST(Asr, PrivateDataAlwaysStoredLocally)
{
    Rig<Asr> rig(7u);
    rig.access(0, AccessType::Load, 0x4000);
    rig.churnL1(0, 0x4000);
    const BlockInfo *e = rig.proto.dir().find(0x4000);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->hasL2Copy(rig.map.privateBank(0, 0x4000)));
}

TEST(Asr, DirtySharedDataNeverDropped)
{
    Rig<Asr> rig(7u);
    rig.access(0, AccessType::Store, 0x4000);
    rig.access(7, AccessType::Load, 0x4000); // shared; 0 keeps owner
    // Evict core 0's dirty copy... core 0 lost it to the read? No:
    // reads leave the owner in place. Evict owner's L1 copy:
    rig.churnL1(0, 0x4000);
    // The dirty block must be preserved in core 0's tile.
    const BlockInfo *e = rig.proto.dir().find(0x4000);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->hasL2Copy(rig.map.privateBank(0, 0x4000)));
}

TEST(Asr, ReplicationLevelStartsMidAndAdapts)
{
    Rig<Asr> rig(7u);
    for (CoreId c = 0; c < 8; ++c)
        EXPECT_EQ(rig.org.level(c), 1u);
}

TEST(Asr, CleanSharedEvictionMayReplicate)
{
    // With level-3 forcing (probability 1) every clean shared eviction
    // replicates. Drive the adaptation indirectly: at level 1 (p=.25)
    // some of many evictions replicate.
    Rig<Asr> rig(7u);
    int replicated = 0;
    for (int i = 0; i < 32; ++i) {
        const Addr a = 0x40000 + i * 0x40;
        rig.access(0, AccessType::Load, a);
        rig.access(7, AccessType::Load, a); // make shared
    }
    // Churn core 7's L1 to evict the shared blocks.
    for (int i = 0; i < 32; ++i) {
        const Addr a = 0x40000 + i * 0x40;
        rig.churnL1(7, a);
    }
    replicated = static_cast<int>(rig.org.replicasCreated());
    EXPECT_GT(replicated, 0);
}

TEST(CooperativeCaching, Names)
{
    SystemConfig cfg;
    EXPECT_EQ(CooperativeCaching(cfg, 0.0).name(), "cc-0");
    EXPECT_EQ(CooperativeCaching(cfg, 0.3).name(), "cc-30");
    EXPECT_EQ(CooperativeCaching(cfg, 0.7).name(), "cc-70");
    EXPECT_EQ(CooperativeCaching(cfg, 1.0).name(), "cc-100");
}

TEST(CooperativeCaching, ZeroProbabilityNeverSpills)
{
    Rig<CooperativeCaching> rig(0.0, 7u);
    // Overflow one tile set: blocks with identical private bank/set.
    const Addr stride = 1 << 16;
    for (std::uint32_t i = 0; i < rig.cfg.l2Ways + 8; ++i) {
        const Addr a = 0x4000 + static_cast<Addr>(i) * stride;
        rig.access(0, AccessType::Load, a);
        rig.churnL1(0, a);
    }
    EXPECT_EQ(rig.org.spills(), 0u);
}

TEST(CooperativeCaching, FullProbabilitySpillsSinglets)
{
    Rig<CooperativeCaching> rig(1.0, 7u);
    const Addr stride = 1 << 16;
    for (std::uint32_t i = 0; i < rig.cfg.l2Ways + 8; ++i) {
        const Addr a = 0x4000 + static_cast<Addr>(i) * stride;
        rig.access(0, AccessType::Load, a);
        rig.churnL1(0, a);
    }
    EXPECT_GT(rig.org.spills(), 0u);
}

TEST(CooperativeCaching, SpilledBlockServedRemotely)
{
    Rig<CooperativeCaching> rig(1.0, 7u);
    const Addr stride = 1 << 16;
    std::vector<Addr> addrs;
    for (std::uint32_t i = 0; i < rig.cfg.l2Ways + 8; ++i)
        addrs.push_back(0x4000 + static_cast<Addr>(i) * stride);
    for (const Addr a : addrs) {
        rig.access(0, AccessType::Load, a);
        rig.churnL1(0, a);
    }
    ASSERT_GT(rig.org.spills(), 0u);
    // Find a spilled block (an L2 copy outside core 0's partition).
    Addr spilled = 0;
    for (const Addr a : addrs) {
        const BlockInfo *e = rig.proto.dir().find(a);
        if (e == nullptr)
            continue;
        for (BankId b = 0; b < rig.cfg.l2Banks; ++b) {
            if (e->hasL2Copy(b) && !rig.map.isLocalBank(0, b)) {
                spilled = a;
                break;
            }
        }
        if (spilled)
            break;
    }
    ASSERT_NE(spilled, 0u);
    if (rig.proto.l1(l1IdOf(0, false)).has(spilled))
        rig.proto.dropL1Copy(spilled, l1IdOf(0, false));
    const ServiceLevel lvl = rig.access(0, AccessType::Load, spilled);
    EXPECT_NE(lvl, ServiceLevel::OffChip);
}

TEST(CooperativeCaching, SpilledBlocksNotRespilled)
{
    // 1-chance forwarding: a spilled (Victim-class) block displaced
    // again simply leaves the chip. Hard to observe directly; verify
    // the invariant that no block carries Victim class in two banks.
    Rig<CooperativeCaching> rig(1.0, 7u);
    const Addr stride = 1 << 16;
    for (std::uint32_t i = 0; i < 3 * rig.cfg.l2Ways; ++i) {
        const Addr a = 0x4000 + static_cast<Addr>(i) * stride;
        rig.access(0, AccessType::Load, a);
        rig.churnL1(0, a);
    }
    rig.proto.dir().forEach([&](Addr addr, const BlockInfo &info) {
        int victims = 0;
        for (BankId b = 0; b < rig.cfg.l2Banks; ++b) {
            if (!info.hasL2Copy(b))
                continue;
            const auto [set, way] = rig.org.findCopy(b, addr);
            if (way != kNoWay &&
                rig.org.bank(b).meta(set, way).cls == BlockClass::Victim)
                ++victims;
        }
        EXPECT_LE(victims, 1) << std::hex << addr;
    });
}

} // namespace
} // namespace espnuca
