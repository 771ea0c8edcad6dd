/**
 * @file
 * PlacementMap and layout-generalization tests: the centered controller
 * spread, builder shapes, parse/serialize round-trips, structured
 * config diagnostics, topology invariants on non-paper meshes, and the
 * digest/point-hash/snapshot-identity perturbation the sweep integrity
 * machinery depends on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/snapshot.hpp"
#include "harness/sweep.hpp"
#include "net/placement.hpp"
#include "net/topology.hpp"

namespace espnuca {
namespace {

// -- Controller spread ---------------------------------------------------

TEST(SpreadColumn, InRangeAndMonotone)
{
    for (std::uint32_t cols = 1; cols <= 8; ++cols)
        for (std::uint32_t mcs = 1; mcs <= 8; ++mcs) {
            std::uint32_t prev = 0;
            for (std::uint32_t i = 0; i < mcs; ++i) {
                const std::uint32_t c =
                    PlacementMap::spreadColumn(i, mcs, cols);
                ASSERT_LT(c, cols) << cols << "x? mcs=" << mcs;
                if (i > 0) {
                    ASSERT_GE(c, prev);
                }
                prev = c;
            }
        }
}

TEST(SpreadColumn, DistinctWheneverTheyFit)
{
    // The old `i * cols / count` collapsed controllers onto column 0
    // and never reached the last column; the centered spread keeps
    // them distinct whenever count <= cols.
    for (std::uint32_t cols = 1; cols <= 8; ++cols)
        for (std::uint32_t mcs = 1; mcs <= cols; ++mcs) {
            std::set<std::uint32_t> seen;
            for (std::uint32_t i = 0; i < mcs; ++i)
                seen.insert(PlacementMap::spreadColumn(i, mcs, cols));
            EXPECT_EQ(seen.size(), mcs) << "cols=" << cols;
        }
}

TEST(SpreadColumn, IdentityWhenCountEqualsCols)
{
    for (std::uint32_t cols = 1; cols <= 8; ++cols)
        for (std::uint32_t i = 0; i < cols; ++i)
            EXPECT_EQ(PlacementMap::spreadColumn(i, cols, cols), i);
}

TEST(SpreadColumn, LegacyPins)
{
    // Paper mesh (4 columns, 4 controllers): same as the old formula.
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(PlacementMap::spreadColumn(i, 4, 4), i);
    // Narrow 2-column mesh: the old doubling-up is preserved.
    const std::uint32_t narrow[] = {0, 0, 1, 1};
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(PlacementMap::spreadColumn(i, 4, 2), narrow[i]);
    // Wide 8-column mesh: centered (old formula gave 0,2,4,6).
    const std::uint32_t wide[] = {1, 3, 5, 7};
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(PlacementMap::spreadColumn(i, 4, 8), wide[i]);
}

// -- Builders ------------------------------------------------------------

TEST(PlacementBuilders, PaperMatchesFigure1a)
{
    SystemConfig cfg; // 8 cores, 32 banks, 4 controllers
    const PlacementMap p = PlacementMap::forConfig(cfg);
    EXPECT_EQ(p.cols, 4u);
    EXPECT_EQ(p.rows, 3u);
    for (CoreId c = 0; c < 4; ++c)
        EXPECT_EQ(p.coreNodes[c], c);
    for (CoreId c = 4; c < 8; ++c)
        EXPECT_EQ(p.coreNodes[c], 2u * 4u + (c - 4));
    for (BankId b = 0; b < cfg.l2Banks; ++b)
        EXPECT_EQ(p.bankNodes[b], p.coreNodes[b / 4]);
    for (std::uint32_t m = 0; m < 4; ++m)
        EXPECT_EQ(p.memNodes[m], 4u + m); // central row, columns 0..3
}

TEST(PlacementBuilders, PaperNameAndDefaultAreIdentical)
{
    SystemConfig def;
    SystemConfig named;
    named.placement = "paper-4x3";
    EXPECT_EQ(placementDigest(def), placementDigest(named));
}

TEST(PlacementBuilders, TiledScalingShapes)
{
    const struct
    {
        std::uint32_t cores, cols, rows;
    } want[] = {{8, 4, 2}, {16, 4, 4}, {32, 8, 4}, {64, 8, 8}};
    for (const auto &w : want) {
        SystemConfig cfg;
        cfg.numCores = w.cores;
        cfg.l2Banks = w.cores * 4;
        cfg.l2SizeBytes = std::uint64_t{w.cores} * 1024 * 1024;
        cfg.placement = "tiled";
        const PlacementMap p = PlacementMap::forConfig(cfg);
        EXPECT_EQ(p.cols, w.cols) << w.cores;
        EXPECT_EQ(p.rows, w.rows) << w.cores;
        std::set<NodeId> coreRouters(p.coreNodes.begin(),
                                     p.coreNodes.end());
        EXPECT_EQ(coreRouters.size(), cfg.numCores) << w.cores;
        std::set<NodeId> mcRouters(p.memNodes.begin(), p.memNodes.end());
        EXPECT_EQ(mcRouters.size(), cfg.memControllers) << w.cores;
        for (BankId b = 0; b < cfg.l2Banks; ++b)
            EXPECT_EQ(p.bankNodes[b],
                      p.coreNodes[b / cfg.banksPerCore()]);
    }
}

TEST(PlacementBuilders, MeshOverrideRespectedAndChecked)
{
    SystemConfig cfg;
    cfg.numCores = 16;
    cfg.l2Banks = 64;
    cfg.l2SizeBytes = 16ULL * 1024 * 1024;
    cfg.placement = "tiled";
    cfg.meshCols = 8;
    cfg.meshRows = 2;
    const PlacementMap p = PlacementMap::forConfig(cfg);
    EXPECT_EQ(p.cols, 8u);
    EXPECT_EQ(p.rows, 2u);

    SystemConfig paper;
    paper.meshCols = 5;
    paper.meshRows = 3;
    try {
        PlacementMap::forConfig(paper);
        FAIL() << "paper builder accepted a wrong meshCols";
    } catch (const PlacementError &e) {
        EXPECT_NE(std::string(e.what()).find("meshCols"),
                  std::string::npos);
    }
}

// -- Parse / serialize ---------------------------------------------------

TEST(PlacementParse, RoundTripsTheBuilders)
{
    for (const char *name : {"paper-4x3", "tiled"}) {
        SystemConfig cfg;
        cfg.placement = name;
        const PlacementMap built = PlacementMap::forConfig(cfg);
        SystemConfig explicitCfg;
        explicitCfg.placement = built.serialize();
        const PlacementMap parsed = PlacementMap::forConfig(explicitCfg);
        EXPECT_EQ(parsed.cols, built.cols);
        EXPECT_EQ(parsed.rows, built.rows);
        EXPECT_EQ(parsed.coreNodes, built.coreNodes);
        EXPECT_EQ(parsed.bankNodes, built.bankNodes);
        EXPECT_EQ(parsed.memNodes, built.memNodes);
        EXPECT_EQ(parsed.digest(), built.digest());
    }
}

TEST(PlacementParse, BanksDefaultToOwnerRouter)
{
    SystemConfig cfg;
    std::string text = "espnuca-placement-v1\nmesh 4 3\n";
    const PlacementMap paper = PlacementMap::paper(cfg);
    for (CoreId c = 0; c < cfg.numCores; ++c)
        text += "core " + std::to_string(c) + " " +
                std::to_string(paper.coreNodes[c] % 4) + " " +
                std::to_string(paper.coreNodes[c] / 4) + "\n";
    for (std::uint32_t m = 0; m < cfg.memControllers; ++m)
        text += "mem " + std::to_string(m) + " " + std::to_string(m) +
                " 1\n";
    const PlacementMap p = PlacementMap::parse(text, cfg);
    for (BankId b = 0; b < cfg.l2Banks; ++b)
        EXPECT_EQ(p.bankNodes[b], p.coreNodes[b / 4]);
}

TEST(PlacementParse, StructuredErrors)
{
    SystemConfig cfg;
    const struct
    {
        const char *text;
        const char *needle;
    } cases[] = {
        {"not-a-placement\n", "espnuca-placement-v1"},
        {"espnuca-placement-v1\ncore 0 0 0\n", "mesh line"},
        {"espnuca-placement-v1\nmesh 4 3\ncore 0 9 0\n", "outside"},
        {"espnuca-placement-v1\nmesh 4 3\nrouter 0 0 0\n", "unknown"},
        {"espnuca-placement-v1\nmesh 4 3\ncore 99 0 0\n",
         "out of range"},
        {"espnuca-placement-v1\nmesh 4 3\n", "core 0 unassigned"},
    };
    for (const auto &c : cases) {
        try {
            PlacementMap::parse(c.text, cfg);
            FAIL() << "accepted: " << c.text;
        } catch (const PlacementError &e) {
            EXPECT_NE(std::string(e.what()).find(c.needle),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(PlacementValidate, RejectsSharedCoreRouters)
{
    SystemConfig cfg;
    PlacementMap p = PlacementMap::paper(cfg);
    p.coreNodes[1] = p.coreNodes[0];
    try {
        p.validate(cfg);
        FAIL() << "accepted two cores on one router";
    } catch (const PlacementError &e) {
        EXPECT_NE(std::string(e.what()).find("share router"),
                  std::string::npos);
    }
}

// -- Config diagnostics --------------------------------------------------

TEST(ConfigValidate, NamesTheOffendingKnob)
{
    const struct
    {
        void (*mutate)(SystemConfig &);
        const char *needle;
    } cases[] = {
        {[](SystemConfig &c) { c.numCores = 6; }, "numCores"},
        {[](SystemConfig &c) { c.numCores = 128; }, "numCores"},
        {[](SystemConfig &c) { c.l2Banks = 24; }, "l2Banks"},
        {[](SystemConfig &c) {
             c.l2Banks = 512;
             c.l2SizeBytes = 512ULL * 256 * 1024;
         },
         "l2Banks"},
        {[](SystemConfig &c) { c.l2Banks = 4; }, "l2Banks"},
        {[](SystemConfig &c) { c.blockBytes = 48; }, "blockBytes"},
        {[](SystemConfig &c) { c.memControllers = 3; },
         "memControllers"},
        {[](SystemConfig &c) { c.meshCols = 4; }, "meshCols"},
        {[](SystemConfig &c) {
             c.meshCols = 2;
             c.meshRows = 2;
         },
         "meshCols"},
    };
    for (const auto &t : cases) {
        SystemConfig cfg;
        t.mutate(cfg);
        const std::string diag = cfg.validate();
        ASSERT_FALSE(diag.empty());
        EXPECT_NE(diag.find(t.needle), std::string::npos) << diag;
        EXPECT_FALSE(cfg.valid());
    }
    SystemConfig ok;
    EXPECT_EQ(ok.validate(), "");
    EXPECT_TRUE(ok.valid());
}

TEST(ConfigValidate, SingleCoreNeedsTiledPlacement)
{
    SystemConfig cfg;
    cfg.numCores = 1;
    cfg.l2Banks = 4;
    cfg.l2SizeBytes = 1024 * 1024;
    cfg.memControllers = 1;
    const std::string diag = cfg.validate();
    EXPECT_NE(diag.find("numCores"), std::string::npos) << diag;
    cfg.placement = "tiled";
    EXPECT_EQ(cfg.validate(), "");
}

// -- Topology invariants on arbitrary placements -------------------------

void
checkTopologyInvariants(const SystemConfig &cfg)
{
    Topology t(cfg);
    const std::uint32_t diameter = (t.cols() - 1) + (t.rows() - 1);
    // Reachability: every pair within the mesh diameter; identity at 0.
    for (NodeId a = 0; a < t.numNodes(); ++a) {
        EXPECT_EQ(t.hops(a, a), 0u);
        for (NodeId b = 0; b < t.numNodes(); ++b) {
            const std::uint32_t h = t.hops(a, b);
            EXPECT_LE(h, diameter);
            if (a != b) {
                EXPECT_GE(h, 1u);
            }
            // Symmetry.
            EXPECT_EQ(h, t.hops(b, a));
        }
    }
    // Triangle inequality over a coarse sample (full cube is O(n^3)).
    for (NodeId a = 0; a < t.numNodes(); a += 3)
        for (NodeId b = 0; b < t.numNodes(); b += 2)
            for (NodeId c = 0; c < t.numNodes(); ++c)
                EXPECT_LE(t.hops(a, b),
                          t.hops(a, c) + t.hops(c, b));
    // Collision freedom where promised: distinct core routers always.
    std::set<NodeId> coreRouters;
    for (CoreId c = 0; c < cfg.numCores; ++c)
        coreRouters.insert(t.coreNode(c));
    EXPECT_EQ(coreRouters.size(), cfg.numCores);
    // Distinct controller routers whenever they fit on one row.
    if (cfg.memControllers <= t.cols()) {
        std::set<NodeId> mcRouters;
        for (std::uint32_t m = 0; m < cfg.memControllers; ++m)
            mcRouters.insert(t.memNode(m));
        EXPECT_EQ(mcRouters.size(), cfg.memControllers);
    }
    // Banks sit on real routers owned by their logical owner's cluster.
    for (BankId b = 0; b < cfg.l2Banks; ++b) {
        EXPECT_LT(t.bankNode(b), t.numNodes());
        EXPECT_EQ(t.bankOwner(b), b / cfg.banksPerCore());
    }
}

TEST(TopologyInvariants, PaperAndScalingLayouts)
{
    {
        SystemConfig cfg; // paper 8-core
        checkTopologyInvariants(cfg);
    }
    for (std::uint32_t cores : {16u, 32u, 64u}) {
        SystemConfig cfg;
        cfg.numCores = cores;
        cfg.l2Banks = cores * 4;
        cfg.l2SizeBytes = std::uint64_t{cores} * 1024 * 1024;
        cfg.placement = "tiled";
        checkTopologyInvariants(cfg);
    }
    {
        // Explicit map: paper layout with two controllers swapped.
        SystemConfig cfg;
        PlacementMap p = PlacementMap::paper(cfg);
        std::swap(p.memNodes[0], p.memNodes[3]);
        cfg.placement = p.serialize();
        checkTopologyInvariants(cfg);
    }
}

TEST(TopologyInvariants, SixteenCorePaperShape)
{
    SystemConfig cfg;
    cfg.numCores = 16;
    cfg.l2Banks = 64;
    cfg.l2SizeBytes = 16ULL * 1024 * 1024;
    Topology t(cfg);
    EXPECT_EQ(t.cols(), 8u);
    EXPECT_EQ(t.rows(), 3u);
    checkTopologyInvariants(cfg);
    // The centered spread keeps 4 controllers distinct on 8 columns.
    std::set<NodeId> mcs;
    for (std::uint32_t m = 0; m < 4; ++m)
        mcs.insert(t.memNode(m));
    EXPECT_EQ(mcs.size(), 4u);
}

TEST(TopologyInvariants, BanksetHelpersMatchPaperColumns)
{
    SystemConfig cfg;
    Topology t(cfg);
    EXPECT_EQ(t.numBanksets(), 4u);
    for (CoreId c = 0; c < 4; ++c)
        EXPECT_FALSE(t.coreHalf(c)) << c;
    for (CoreId c = 4; c < 8; ++c)
        EXPECT_TRUE(t.coreHalf(c)) << c;
    // Tile j of each half is the j-th core of that half by ascending id
    // (the paper's column c cores: c and c + cols).
    for (std::uint32_t j = 0; j < 4; ++j) {
        EXPECT_EQ(t.banksetTile(false, j), j);
        EXPECT_EQ(t.banksetTile(true, j), j + 4);
    }
}

// -- Digest / identity perturbation --------------------------------------

TEST(LayoutDigests, PlacementPerturbsEveryIdentity)
{
    SystemConfig def;
    SystemConfig tiled;
    tiled.placement = "tiled";
    SystemConfig meshed;
    meshed.placement = "tiled";
    meshed.meshCols = 8;
    meshed.meshRows = 2;

    // System config digest: unchanged for the paper default (frozen
    // artifact compatibility), perturbed by any non-default layout.
    EXPECT_NE(systemConfigDigest(def), systemConfigDigest(tiled));
    EXPECT_NE(systemConfigDigest(tiled), systemConfigDigest(meshed));

    // Resolved placement digest distinguishes the actual layouts.
    EXPECT_NE(placementDigest(def), placementDigest(tiled));
    EXPECT_NE(placementDigest(tiled), placementDigest(meshed));

    // Sweep point hash: same (arch, workload, key), different layout.
    ExperimentMatrix::Entry a;
    a.arch = "esp-nuca";
    a.workload = "apache";
    a.key = "k";
    ExperimentMatrix::Entry b = a;
    b.cfg.system.placement = "tiled";
    EXPECT_NE(pointHash("bench", a), pointHash("bench", b));

    // Snapshot identity: placement digest participates in equality.
    SnapshotIdentity ia;
    SnapshotIdentity ib;
    EXPECT_TRUE(ia == ib);
    ib.placeDigest = placementDigest(tiled);
    EXPECT_FALSE(ia == ib);
}

TEST(LayoutDigests, ExplicitMapDigestCoversContent)
{
    SystemConfig cfg;
    PlacementMap p = PlacementMap::paper(cfg);
    SystemConfig asText;
    asText.placement = p.serialize();
    // Same resolved layout -> same placement digest as the builder...
    EXPECT_EQ(placementDigest(asText), placementDigest(cfg));
    // ...but the config digest sees the explicit text (non-default).
    EXPECT_NE(systemConfigDigest(asText), systemConfigDigest(cfg));
    // Perturbing one assignment perturbs the placement digest.
    std::swap(p.memNodes[0], p.memNodes[3]);
    SystemConfig swapped;
    swapped.placement = p.serialize();
    EXPECT_NE(placementDigest(swapped), placementDigest(asText));
}

} // namespace
} // namespace espnuca
