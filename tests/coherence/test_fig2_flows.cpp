/**
 * @file
 * Latency-path assertions for the paper's Figure 2 message flows: the
 * S-NUCA direct path vs the SP-NUCA private-bank indirection, the
 * one-time remote-private probe, and the relative latency orderings the
 * paper reasons about ("SP-NUCA finds the block in a nearer bank and
 * answers faster, while S-NUCA needs to reach the shared L2 bank").
 */

#include <gtest/gtest.h>

#include "arch/snuca.hpp"
#include "arch/sp_nuca.hpp"
#include "net/topology.hpp"

namespace espnuca {
namespace {

template <typename Org>
struct FlowRig
{
    SystemConfig cfg;
    Topology topo{cfg};
    EventQueue eq;
    Mesh mesh{topo, eq};
    Org org{cfg};
    Protocol proto{cfg, topo, mesh, eq, org};
    AddressMap map{cfg};

    /** Issue one access and return its end-to-end latency. */
    Cycle
    access(CoreId c, AccessType t, Addr a)
    {
        Cycle lat = 0;
        proto.access(c, t, a, [&](ServiceLevel, Cycle l) { lat = l; });
        eq.run();
        return lat;
    }
};

/** An address whose shared home bank is far from core 0 (>= 3 hops). */
Addr
farHomeAddr(const Topology &topo, const AddressMap &map, CoreId c)
{
    for (Addr a = 0x100000;; a += 64) {
        const BankId home = map.sharedBank(a);
        if (topo.hops(topo.coreNode(c), topo.bankNode(home)) >= 3)
            return a;
    }
}

TEST(Fig2Flows, SpNucaPrivateHitBeatsSnucaFarHomeHit)
{
    // The same block, resident in L2, re-read after the L1 copy drops:
    // SP-NUCA serves it from the requester's own partition; S-NUCA must
    // travel to the far home bank.
    FlowRig<SpNuca> sp;
    FlowRig<Snuca> sh;
    const Addr a = farHomeAddr(sp.topo, sp.map, 0);
    sp.access(0, AccessType::Load, a);
    sh.access(0, AccessType::Load, a);
    sp.proto.dropL1Copy(a, l1IdOf(0, false));
    sh.proto.dropL1Copy(a, l1IdOf(0, false));
    const Cycle sp_lat = sp.access(0, AccessType::Load, a);
    const Cycle sh_lat = sh.access(0, AccessType::Load, a);
    EXPECT_LT(sp_lat, sh_lat);
}

TEST(Fig2Flows, SpNucaSharedAccessPaysTheIndirection)
{
    // A *shared* block at its home: SP-NUCA's request detours through
    // the requester's private bank first (Fig. 2b step 1-2), so it can
    // never be faster than S-NUCA's direct home access; the paper
    // accepts this "slight" increase.
    FlowRig<SpNuca> sp;
    FlowRig<Snuca> sh;
    const Addr a = farHomeAddr(sp.topo, sp.map, 2);
    // Make the block shared in SP (two readers) and resident at home.
    sp.access(0, AccessType::Load, a);
    sp.access(1, AccessType::Load, a);
    sh.access(0, AccessType::Load, a);
    // A third core reads it from the home bank in both designs.
    const Cycle sp_lat = sp.access(2, AccessType::Load, a);
    const Cycle sh_lat = sh.access(2, AccessType::Load, a);
    EXPECT_GE(sp_lat, sh_lat);
    // ...but the indirection is a couple of short messages, not a
    // second memory trip.
    EXPECT_LT(sp_lat, sh_lat + 40);
}

TEST(Fig2Flows, RemotePrivateProbePaidOnlyOnce)
{
    // First access by a second core walks step 3' (probe the other
    // private banks, migrate to home); subsequent sharers hit the home
    // bank directly and faster (paper: "the extra latency ... is
    // required only once for each shared block").
    FlowRig<SpNuca> sp;
    const Addr a = farHomeAddr(sp.topo, sp.map, 0);
    sp.access(0, AccessType::Load, a); // private, in core 0's bank
    const Cycle first = sp.access(5, AccessType::Load, a);
    const Cycle second = sp.access(6, AccessType::Load, a);
    EXPECT_LT(second, first);
    // And the block now sits at its shared home bank.
    const BlockInfo *e = sp.proto.dir().find(a);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->hasL2Copy(sp.map.sharedBank(a)));
}

TEST(Fig2Flows, OffChipLatencyDominatedByMemory)
{
    FlowRig<SpNuca> sp;
    const Cycle lat = sp.access(0, AccessType::Load, 0x777000);
    EXPECT_GE(lat, sp.cfg.memLatency);
    EXPECT_LT(lat, sp.cfg.memLatency + 120); // search + mesh overhead
}

TEST(Fig2Flows, TokenDStartsMemoryInParallelWithRemoteProbes)
{
    // An off-chip miss in SP-NUCA must not serialize memory behind the
    // step-3' probes: latency is close to the pure-S-NUCA off-chip
    // latency.
    FlowRig<SpNuca> sp;
    FlowRig<Snuca> sh;
    const Addr a = 0x888000;
    const Cycle sp_lat = sp.access(0, AccessType::Load, a);
    const Cycle sh_lat = sh.access(0, AccessType::Load, a);
    EXPECT_LT(sp_lat, sh_lat + 30);
}

TEST(Fig2Flows, WriteToWidelySharedBlockCollectsEveryToken)
{
    FlowRig<SpNuca> sp;
    const Addr a = farHomeAddr(sp.topo, sp.map, 0);
    for (CoreId c = 0; c < 8; ++c)
        sp.access(c, AccessType::Load, a);
    const std::uint64_t invals_before = sp.proto.invalidationsSent();
    sp.access(3, AccessType::Store, a);
    // 7 L1 copies + at least the home L2 copy had to be invalidated.
    EXPECT_GE(sp.proto.invalidationsSent() - invals_before, 8u);
    const BlockInfo *e = sp.proto.dir().find(a);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->numL1Holders(), 1u);
    EXPECT_TRUE(e->l2Copies().none());
}

TEST(Fig2Flows, UpgradeCheaperThanFullWriteMiss)
{
    // A writer that already holds the data (upgrade) only pays the
    // token round trip; a cold write pays memory as well.
    FlowRig<SpNuca> sp;
    const Addr a = farHomeAddr(sp.topo, sp.map, 0);
    sp.access(0, AccessType::Load, a); // data now local, L2 copy exists
    const Cycle upgrade = sp.access(0, AccessType::Store, a);
    FlowRig<SpNuca> cold;
    const Cycle miss = cold.access(0, AccessType::Store, a);
    EXPECT_LT(upgrade, miss);
}

} // namespace
} // namespace espnuca
