/**
 * @file
 * MSHR merge semantics: which references coalesce into one transaction
 * (same core + block + stream + direction), how merged waiters are
 * attributed, and how non-mergeable references (loads against an
 * in-flight write upgrade) serialize through the block-lock FIFO.
 */

#include <gtest/gtest.h>

#include <vector>

#include "arch/snuca.hpp"
#include "net/topology.hpp"

namespace espnuca {
namespace {

struct MshrFixture : ::testing::Test
{
    SystemConfig cfg;
    Topology topo{cfg};
    EventQueue eq;
    Mesh mesh{topo, eq};
    Snuca org{cfg};
    Protocol proto{cfg, topo, mesh, eq, org};
};

TEST_F(MshrFixture, SameKeyLoadsMergeIntoOneTransaction)
{
    int completions = 0;
    for (int i = 0; i < 3; ++i)
        proto.access(0, AccessType::Load, 0x4000,
                     [&](ServiceLevel, Cycle) { ++completions; });
    eq.run();
    EXPECT_EQ(completions, 3);
    EXPECT_EQ(proto.l2Transactions(), 1u);
    EXPECT_EQ(proto.offChipFetches(), 1u);
    // Every merged waiter is attributed at the transaction's level.
    EXPECT_EQ(proto.levelStats(ServiceLevel::OffChip).count, 3u);
}

TEST_F(MshrFixture, MergedWaiterLatencyIsPerWaiterIssueToCompletion)
{
    // Two references merge with different issue times; each must be
    // billed completion - its own issue, so the level total is the sum
    // of the two reported latencies.
    std::vector<Cycle> lats;
    proto.access(0, AccessType::Load, 0x4000,
                 [&](ServiceLevel, Cycle lat) { lats.push_back(lat); });
    eq.schedule(50, [this, &lats]() {
        proto.access(0, AccessType::Load, 0x4000,
                     [&](ServiceLevel, Cycle lat) {
                         lats.push_back(lat);
                     });
    });
    eq.run();
    ASSERT_EQ(lats.size(), 2u);
    // The late joiner waited 50 cycles less than the initiator.
    EXPECT_EQ(lats[0], lats[1] + 50);
    const LevelStats &off = proto.levelStats(ServiceLevel::OffChip);
    EXPECT_EQ(off.count, 2u);
    EXPECT_EQ(off.totalLatency, lats[0] + lats[1]);
}

TEST_F(MshrFixture, LoadDuringWriteUpgradeIsServicedFromTheL1Copy)
{
    // Prime: core 0 holds the block in L1 with an L2 home copy, so the
    // next store is an upgrade (data local, tokens outstanding).
    bool primed = false;
    proto.access(0, AccessType::Load, 0x4000,
                 [&](ServiceLevel, Cycle) { primed = true; });
    eq.run();
    ASSERT_TRUE(primed);
    const std::uint64_t base_tx = proto.l2Transactions();

    // Upgrade in flight; a same-core load neither merges into the
    // write transaction (the MSHR key separates directions) nor
    // queues behind it — the L1 copy is still valid and readable, so
    // the load is serviced as a plain L1 hit while the tokens are
    // being collected.
    std::vector<int> order;
    ServiceLevel load_level = ServiceLevel::OffChip;
    Cycle load_lat = 0;
    proto.access(0, AccessType::Store, 0x4000,
                 [&](ServiceLevel, Cycle) { order.push_back(0); });
    proto.access(0, AccessType::Load, 0x4000,
                 [&](ServiceLevel l, Cycle lat) {
                     order.push_back(1);
                     load_level = l;
                     load_lat = lat;
                 });
    eq.run();
    EXPECT_EQ(proto.l2Transactions(), base_tx + 1); // only the upgrade
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 1); // the L1-hit load returns first
    EXPECT_EQ(load_level, ServiceLevel::LocalL1);
    EXPECT_EQ(load_lat, cfg.l1Latency);
}

TEST_F(MshrFixture, LoadBehindColdWriteSerializesThroughTheLock)
{
    // A cold store and a same-core load race: the load has no L1 copy
    // to read, must NOT merge into the write transaction, and instead
    // serializes behind the block lock — completing after the write
    // fills the L1, as a lock-serialized local hit.
    std::vector<int> order;
    Cycle store_lat = 0;
    Cycle load_lat = 0;
    ServiceLevel load_level = ServiceLevel::OffChip;
    proto.access(0, AccessType::Store, 0x4000,
                 [&](ServiceLevel, Cycle lat) {
                     order.push_back(0);
                     store_lat = lat;
                 });
    proto.access(0, AccessType::Load, 0x4000,
                 [&](ServiceLevel l, Cycle lat) {
                     order.push_back(1);
                     load_level = l;
                     load_lat = lat;
                 });
    eq.run();
    EXPECT_EQ(proto.l2Transactions(), 2u); // no merge: two transactions
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 0); // FIFO: the write completes first
    EXPECT_EQ(order[1], 1);
    // The serialized load finds the freshly written block in its own
    // L1 — the LockWait -> HitReturn fast path.
    EXPECT_EQ(load_level, ServiceLevel::LocalL1);
    EXPECT_GT(load_lat, store_lat);
}

TEST_F(MshrFixture, LockQueueDrainsInFifoOrder)
{
    // Four cores store the same block back to back: the block lock must
    // grant in issue order, so completions come back 0,1,2,3.
    std::vector<CoreId> order;
    for (CoreId c = 0; c < 4; ++c)
        proto.access(c, AccessType::Store, 0x4000,
                     [&order, c](ServiceLevel, Cycle) {
                         order.push_back(c);
                     });
    eq.run();
    ASSERT_EQ(order.size(), 4u);
    for (CoreId c = 0; c < 4; ++c)
        EXPECT_EQ(order[c], c);
    // The last writer ends as the sole owner.
    const BlockInfo *e = proto.dir().find(0x4000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->numL1Holders(), 1u);
    EXPECT_TRUE(e->hasL1Holder(l1IdOf(3, false)));
}

TEST_F(MshrFixture, MshrEntryRetiresWithItsTransaction)
{
    // The MSHR table is the in-flight registry: a merge adds a waiter,
    // not a second entry.
    proto.access(0, AccessType::Load, 0x4000,
                 [](ServiceLevel, Cycle) {});
    proto.access(0, AccessType::Load, 0x4000,
                 [](ServiceLevel, Cycle) {});
    EXPECT_EQ(proto.inFlight(), 1u);
    eq.run();
    EXPECT_EQ(proto.inFlight(), 0u);
}

} // namespace
} // namespace espnuca
