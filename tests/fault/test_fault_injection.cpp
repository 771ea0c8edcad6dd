/**
 * @file
 * Fault-injection mechanics: way fencing in sets and banks, bank-outage
 * remapping in the address map, link degradation windows, and the
 * injector wiring everything into an assembled system.
 */

#include <gtest/gtest.h>

#include "arch/arch_factory.hpp"
#include "cache/address_map.hpp"
#include "cache/cache_bank.hpp"
#include "cache/cache_set.hpp"
#include "cache/replacement.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "net/link.hpp"
#include "net/mesh.hpp"
#include "net/topology.hpp"

namespace espnuca {
namespace {

TEST(CacheSetFault, DisabledWaysAreNeverAllocated)
{
    CacheSet set(4);
    set.disableWays(0x3); // ways 0 and 1
    EXPECT_TRUE(set.wayDisabled(0));
    EXPECT_TRUE(set.wayDisabled(1));
    EXPECT_FALSE(set.wayDisabled(2));
    EXPECT_EQ(set.enabledWays(), 2u);
    // invalidWay only ever offers the live ways.
    EXPECT_EQ(set.invalidWay(), 2);
    BlockMeta blk;
    blk.valid = true;
    blk.addr = 0x100;
    set.assign(2, blk);
    EXPECT_EQ(set.invalidWay(), 3);
    blk.addr = 0x200;
    set.assign(3, blk);
    EXPECT_EQ(set.invalidWay(), kNoWay);
    // Disabled ways are invalid, so LRU selection skips them too.
    EXPECT_NE(set.lruWay(), 0);
    EXPECT_NE(set.lruWay(), 1);
}

TEST(CacheSetFault, MaskIsClampedToWayCount)
{
    CacheSet set(4);
    set.disableWays(~std::uint64_t{0} << 2); // high bits ignored
    EXPECT_EQ(set.enabledWays(), 2u);
    EXPECT_EQ(set.invalidWay(), 0);
}

TEST(CacheBankFault, FullyDisabledBankRefusesInserts)
{
    SystemConfig cfg;
    CacheBank bank(cfg, 0, std::make_shared<FlatLru>());
    bank.disableWays((std::uint64_t{1} << cfg.l2Ways) - 1);
    EXPECT_EQ(bank.disabledWays(), cfg.l2Ways);
    BlockMeta blk;
    blk.valid = true;
    blk.addr = 0x4000;
    blk.cls = BlockClass::Shared;
    const InsertResult res = bank.insert(0, blk);
    EXPECT_FALSE(res.inserted);
    EXPECT_FALSE(res.evicted.valid);
}

TEST(CacheBankFault, PartiallyDisabledBankStillServes)
{
    SystemConfig cfg;
    CacheBank bank(cfg, 0, std::make_shared<FlatLru>());
    bank.disableWays(0x3);
    EXPECT_EQ(bank.disabledWays(), 2u);
    // Fill beyond the reduced associativity: every insert must land in
    // a live way and eventually evict, never resurrect a disabled way.
    for (std::uint64_t i = 0; i < cfg.l2Ways * 2; ++i) {
        BlockMeta blk;
        blk.valid = true;
        blk.addr = 0x10000 + (i << 20); // same set, distinct tags
        blk.cls = BlockClass::Shared;
        EXPECT_TRUE(bank.insert(0, blk).inserted);
    }
    EXPECT_FALSE(bank.set(0).way(0).valid);
    EXPECT_FALSE(bank.set(0).way(1).valid);
    EXPECT_EQ(bank.set(0).countIf(kMatchAny),
              cfg.l2Ways - 2);
}

TEST(AddressMapFault, RemapRedirectsBothInterpretations)
{
    SystemConfig cfg;
    AddressMap map(cfg);
    EXPECT_FALSE(map.remapped());
    std::vector<BankId> table(cfg.l2Banks);
    for (BankId b = 0; b < cfg.l2Banks; ++b)
        table[b] = b;
    table[3] = 4; // bank 3 died
    map.setBankRemap(table);
    EXPECT_TRUE(map.remapped());
    // Any address whose shared home was bank 3 now lands on bank 4;
    // sets and tags are untouched.
    const Addr a = Addr{3} << cfg.blockOffsetBits();
    EXPECT_EQ(map.sharedBank(a), 4u);
    const AddressMap healthy(cfg);
    EXPECT_EQ(map.sharedSet(a), healthy.sharedSet(a));
    EXPECT_EQ(map.sharedTag(a), healthy.sharedTag(a));
    // Private interpretation of core 0's local bank 3 also redirects.
    const Addr pa = Addr{3} << cfg.blockOffsetBits();
    EXPECT_EQ(map.privateBank(0, pa), 4u);
}

TEST(LinkFault, DegradationWindowStretchesSerialization)
{
    Link l;
    l.degrade(0, 100, 4);
    // Inside the window a 5-flit message serializes as 20 flits:
    // start 0, latency 2, tail at 0 + 2 + 19.
    EXPECT_EQ(l.transmit(0, 5, 2), 21u);
    EXPECT_EQ(l.degradedCycles(), 15u);
    // Outside the window behaviour is nominal.
    EXPECT_EQ(l.transmit(500, 5, 2), 506u);
    EXPECT_EQ(l.factorAt(50), 4u);
    EXPECT_EQ(l.factorAt(100), 1u);
}

TEST(LinkFault, OverlappingWindowsTakeWorstFactor)
{
    Link l;
    l.degrade(0, 100, 2);
    l.degrade(50, 80, 8);
    EXPECT_EQ(l.factorAt(60), 8u);
    EXPECT_EQ(l.factorAt(90), 2u);
}

TEST(LinkFault, IntervalListIsHardCapped)
{
    Link l;
    // Far-future reservations with gaps too small for later messages
    // to backfill: the list would grow one interval per message.
    for (std::uint64_t i = 0; i < Link::kMaxIntervals * 2; ++i)
        l.transmit(i * 3, 2, 1);
    EXPECT_LE(l.intervals(), Link::kMaxIntervals);
    EXPECT_GE(l.peakIntervals(), l.intervals());
}

TEST(LinkFault, CompactionOnlyOverReserves)
{
    Link l;
    // Busy [10i, 10i + 2): every gap is 8 cycles, so each of the 8
    // compactions merges the earliest pair and [0, 82) ends up busy.
    for (std::uint64_t i = 0; i < Link::kMaxIntervals + 8; ++i)
        l.transmit(i * 10, 2, 1);
    ASSERT_EQ(l.compactions(), 8u);
    EXPECT_LE(l.intervals(), Link::kMaxIntervals);
    ASSERT_EQ(l.waitCycles(), 0u);
    // A 2-flit message arriving at 2 fitted the gap [2, 10) before
    // compaction; that gap was merged away, so the message waits for
    // the merged interval's end: it starts at 82 and crosses by 82 +
    // latency 1 + 1.
    EXPECT_EQ(l.transmit(2, 2, 1), 84u);
    EXPECT_EQ(l.waitCycles(), 80u);
}

TEST(Injector, AppliesPlanToAssembledSystem)
{
    SystemConfig cfg;
    Topology topo(cfg);
    EventQueue eq;
    Mesh mesh(topo, eq);
    auto org = makeArch("shared", cfg, /*seed=*/1);
    Protocol proto(cfg, topo, mesh, eq, *org);

    const FaultPlan plan = FaultPlan::parse(
        "seed=5;bank=6;ways=*:0x3;link=1:e:0:50000:4");
    const InjectionReport rep =
        applyFaultPlan(plan, cfg, topo, *org, proto, mesh);

    EXPECT_EQ(rep.deadBanks, 1u);
    EXPECT_EQ(rep.degradedLinks, 1u);
    EXPECT_TRUE(org->map().remapped());
    EXPECT_TRUE(proto.map().remapped());
    EXPECT_EQ(org->map().remap(6), 7u);
    // The dead bank is belt-and-braces fenced; live banks lost 2 ways.
    EXPECT_EQ(org->bank(6).disabledWays(), cfg.l2Ways);
    EXPECT_EQ(org->bank(0).disabledWays(), 2u);
    EXPECT_EQ(mesh.linkAt(1, Mesh::East).factorAt(100), 4u);
    EXPECT_EQ(mesh.linkAt(1, Mesh::East).factorAt(50000), 1u);
    // No address ever resolves to the dead bank any more.
    for (Addr a = 0; a < (Addr{1} << 16); a += cfg.blockBytes)
        EXPECT_NE(org->map().sharedBank(a), 6u);
}

TEST(Injector, RejectsOutOfRangeLinkNode)
{
    SystemConfig cfg;
    Topology topo(cfg);
    EventQueue eq;
    Mesh mesh(topo, eq);
    auto org = makeArch("shared", cfg, 1);
    Protocol proto(cfg, topo, mesh, eq, *org);
    const FaultPlan plan = FaultPlan::parse("link=99:e:0:10:2");
    EXPECT_THROW(applyFaultPlan(plan, cfg, topo, *org, proto, mesh),
                 FaultPlanError);
}

} // namespace
} // namespace espnuca
