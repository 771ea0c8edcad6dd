/**
 * @file
 * Mesh routing/timing tests: Table 2 hop cost, DOR paths, contention.
 */

#include <gtest/gtest.h>

#include "net/mesh.hpp"

namespace espnuca {
namespace {

struct MeshFixture : ::testing::Test
{
    SystemConfig cfg;
    Topology topo{cfg};
    EventQueue eq;
    Mesh mesh{topo, eq};
};

TEST_F(MeshFixture, LocalDeliveryCrossesRouterOnly)
{
    const NodeId n = topo.coreNode(0);
    EXPECT_EQ(mesh.deliveryTime(n, n, 8, 0), cfg.routerLatency);
}

TEST_F(MeshFixture, SingleHopControlMessage)
{
    // router + link + router = 3 + 2 + 3 = 8 for a 1-flit message.
    const NodeId a = topo.coreNode(0);
    const NodeId b = topo.coreNode(1);
    EXPECT_EQ(mesh.deliveryTime(a, b, 8, 0), 8u);
}

TEST_F(MeshFixture, DataMessageSerialization)
{
    // 72 B = 5 flits: each hop adds (2 + 4) link cycles.
    const NodeId a = topo.coreNode(0);
    const NodeId b = topo.coreNode(1);
    EXPECT_EQ(mesh.deliveryTime(a, b, 72, 0),
              cfg.routerLatency * 2 + cfg.linkLatency + 4);
}

TEST_F(MeshFixture, ZeroLoadMatchesActualWhenIdle)
{
    const NodeId a = topo.coreNode(0);
    const NodeId b = topo.coreNode(7); // 5 hops
    EXPECT_EQ(mesh.deliveryTime(a, b, 72, 0),
              mesh.zeroLoadLatency(a, b, 72));
}

TEST_F(MeshFixture, FiveHopPathCost)
{
    // 5 hops, 1 flit: 6 routers * 3 + 5 links * 2 = 28.
    const NodeId a = topo.coreNode(0);
    const NodeId b = topo.coreNode(7);
    EXPECT_EQ(mesh.zeroLoadLatency(a, b, 8), 28u);
}

TEST_F(MeshFixture, ContentionDelaysSecondMessage)
{
    const NodeId a = topo.coreNode(0);
    const NodeId b = topo.coreNode(1);
    const Cycle t1 = mesh.deliveryTime(a, b, 72, 0);
    const Cycle t2 = mesh.deliveryTime(a, b, 72, 0);
    EXPECT_GT(t2, t1);
    EXPECT_GT(mesh.totalLinkWait(), 0u);
}

TEST_F(MeshFixture, DisjointPathsDontInterfere)
{
    const Cycle t1 =
        mesh.deliveryTime(topo.coreNode(0), topo.coreNode(1), 72, 0);
    const Cycle t2 =
        mesh.deliveryTime(topo.coreNode(4), topo.coreNode(5), 72, 0);
    EXPECT_EQ(t1, t2); // same shape, different links
    EXPECT_EQ(mesh.totalLinkWait(), 0u);
}

TEST_F(MeshFixture, EveryDeliveryCountsOneMessage)
{
    for (int i = 0; i < 5; ++i)
        mesh.deliveryTime(topo.coreNode(0), topo.coreNode(2), 8, 0);
    EXPECT_EQ(mesh.messagesSent(), 5u);
    mesh.resetStats();
    EXPECT_EQ(mesh.messagesSent(), 0u);
}

TEST_F(MeshFixture, FlitAccounting)
{
    mesh.deliveryTime(topo.coreNode(0), topo.coreNode(1), 72, 0);
    EXPECT_EQ(mesh.totalFlits(), 5u); // one hop, 5 flits
}

TEST_F(MeshFixture, DorIsXThenY)
{
    // A message from (0,0) to (1,2) uses the East link at node (0,0)
    // first, never the South link of (1,0)'s column start.
    mesh.deliveryTime(topo.nodeAt({0, 0}), topo.nodeAt({1, 2}), 8, 0);
    EXPECT_GT(mesh.linkAt(topo.nodeAt({0, 0}), Mesh::East).messages(),
              0u);
    EXPECT_GT(mesh.linkAt(topo.nodeAt({1, 0}), Mesh::South).messages(),
              0u);
    EXPECT_EQ(mesh.linkAt(topo.nodeAt({0, 0}), Mesh::South).messages(),
              0u);
}

} // namespace
} // namespace espnuca
