/**
 * @file
 * FaultPlan grammar, validation, and deterministic resolution tests.
 */

#include <gtest/gtest.h>

#include "common/config.hpp"
#include "fault/fault_plan.hpp"

namespace espnuca {
namespace {

TEST(FaultPlan, EmptySpecParsesEmpty)
{
    EXPECT_TRUE(FaultPlan::parse("").empty());
    EXPECT_TRUE(FaultPlan::parse("  ;  ; ").empty());
}

TEST(FaultPlan, ParsesEveryClause)
{
    const FaultPlan p = FaultPlan::parse(
        "seed=7; bank=3; bank=5; ways=2:0x6; ways=*:1; "
        "link=4:e:100:200:8; rand=1:2; drop-tx=40; watchdog=5000:90000");
    EXPECT_EQ(p.seed, 7u);
    ASSERT_EQ(p.deadBanks.size(), 2u);
    EXPECT_EQ(p.deadBanks[0], 3u);
    EXPECT_EQ(p.deadBanks[1], 5u);
    ASSERT_EQ(p.wayDisables.size(), 2u);
    EXPECT_EQ(p.wayDisables[0].bank, 2u);
    EXPECT_EQ(p.wayDisables[0].mask, 0x6u);
    EXPECT_EQ(p.wayDisables[1].bank, kInvalidBank);
    EXPECT_EQ(p.wayDisables[1].mask, 0x1u);
    ASSERT_EQ(p.linkFaults.size(), 1u);
    EXPECT_EQ(p.linkFaults[0].node, 4u);
    EXPECT_EQ(p.linkFaults[0].dir, 0u);
    EXPECT_EQ(p.linkFaults[0].from, 100u);
    EXPECT_EQ(p.linkFaults[0].until, 200u);
    EXPECT_EQ(p.linkFaults[0].factor, 8u);
    EXPECT_EQ(p.randDeadBanks, 1u);
    EXPECT_EQ(p.randWaysPerBank, 2u);
    EXPECT_EQ(p.dropTransaction, 40u);
    EXPECT_EQ(p.watchdogStall, 5000u);
    EXPECT_EQ(p.watchdogMax, 90000u);
}

TEST(FaultPlan, ToStringRoundTrips)
{
    const char *spec =
        "seed=7;bank=3;ways=*:0x3;link=2:w:0:500:4;rand=1:2;"
        "drop-tx=9;watchdog=1000:20000";
    const FaultPlan p = FaultPlan::parse(spec);
    const FaultPlan q = FaultPlan::parse(p.toString());
    EXPECT_EQ(p.toString(), q.toString());
    EXPECT_EQ(p.toString(), spec);
}

TEST(FaultPlan, RejectsMalformedInput)
{
    EXPECT_THROW(FaultPlan::parse("nonsense"), FaultPlanError);
    EXPECT_THROW(FaultPlan::parse("frob=1"), FaultPlanError);
    EXPECT_THROW(FaultPlan::parse("bank=abc"), FaultPlanError);
    EXPECT_THROW(FaultPlan::parse("bank=3junk"), FaultPlanError);
    EXPECT_THROW(FaultPlan::parse("ways=1"), FaultPlanError);
    EXPECT_THROW(FaultPlan::parse("ways=1:0"), FaultPlanError);
    EXPECT_THROW(FaultPlan::parse("link=1:x:0:10:2"), FaultPlanError);
    EXPECT_THROW(FaultPlan::parse("link=1:e:0:10"), FaultPlanError);
    EXPECT_THROW(FaultPlan::parse("watchdog=1:2:3"), FaultPlanError);
    // Numbers are unsigned and must fit their field: no sign, and no
    // silent truncation of a u32 id, count or factor.
    EXPECT_THROW(FaultPlan::parse("bank=-1"), FaultPlanError);
    EXPECT_THROW(FaultPlan::parse("bank=+1"), FaultPlanError);
    EXPECT_THROW(FaultPlan::parse("seed=-5"), FaultPlanError);
    EXPECT_THROW(FaultPlan::parse("bank=4294967296"), FaultPlanError);
    EXPECT_THROW(FaultPlan::parse("ways=4294967295:0x3"), FaultPlanError);
    EXPECT_THROW(FaultPlan::parse("link=4294967295:e:0:10:2"),
                 FaultPlanError);
    EXPECT_THROW(FaultPlan::parse("link=1:e:0:10:0x100000001"),
                 FaultPlanError);
    EXPECT_THROW(FaultPlan::parse("rand=4294967297:0"), FaultPlanError);
    EXPECT_THROW(FaultPlan::parse("seed=18446744073709551616"),
                 FaultPlanError);
    // The largest values that fit still parse.
    EXPECT_EQ(FaultPlan::parse("ways=4294967294:0x3").wayDisables[0].bank,
              4294967294u);
    EXPECT_EQ(FaultPlan::parse("link=1:e:0:10:0xffffffff")
                  .linkFaults[0]
                  .factor,
              0xffffffffu);
    EXPECT_EQ(FaultPlan::parse("seed=18446744073709551615").seed,
              ~std::uint64_t{0});
}

TEST(FaultPlan, ValidateChecksGeometry)
{
    SystemConfig cfg; // 32 banks, 16 ways
    EXPECT_NO_THROW(FaultPlan::parse("bank=31").validate(cfg));
    EXPECT_THROW(FaultPlan::parse("bank=32").validate(cfg),
                 FaultPlanError);
    EXPECT_THROW(FaultPlan::parse("ways=40:0x1").validate(cfg),
                 FaultPlanError);
    EXPECT_THROW(FaultPlan::parse("ways=0:0x10000").validate(cfg),
                 FaultPlanError); // 17th way of a 16-way bank
    EXPECT_THROW(FaultPlan::parse("link=0:e:10:10:2").validate(cfg),
                 FaultPlanError); // empty window
    EXPECT_THROW(FaultPlan::parse("link=0:e:0:10:0").validate(cfg),
                 FaultPlanError); // factor < 1
    EXPECT_THROW(FaultPlan::parse("rand=32:0").validate(cfg),
                 FaultPlanError); // kills every bank
    EXPECT_THROW(FaultPlan::parse("rand=0:16").validate(cfg),
                 FaultPlanError); // disables whole sets
}

TEST(FaultPlan, DeadBankResolutionIsDeterministic)
{
    SystemConfig cfg;
    const FaultPlan p = FaultPlan::parse("seed=11;bank=4;rand=3:0");
    const auto a = p.resolveDeadBanks(cfg);
    const auto b = p.resolveDeadBanks(cfg);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 4u); // 1 explicit + 3 random, deduplicated
    for (std::size_t i = 1; i < a.size(); ++i)
        EXPECT_LT(a[i - 1], a[i]); // ascending
    // A different seed picks a different set (overwhelmingly likely).
    const FaultPlan q = FaultPlan::parse("seed=12;bank=4;rand=3:0");
    EXPECT_NE(q.resolveDeadBanks(cfg), a);
}

TEST(FaultPlan, BankRemapRoutesAroundDeadBanks)
{
    SystemConfig cfg;
    const FaultPlan p = FaultPlan::parse("bank=0;bank=31");
    const auto table = p.bankRemap(cfg);
    ASSERT_EQ(table.size(), cfg.l2Banks);
    EXPECT_EQ(table[0], 1u);  // next live bank in ring order
    EXPECT_EQ(table[31], 1u); // wraps past dead bank 0
    for (BankId b = 1; b < 31; ++b)
        EXPECT_EQ(table[b], b); // live banks stay identity
}

TEST(FaultPlan, WayMasksCombineClausesAndFullMaskDeadBanks)
{
    SystemConfig cfg;
    const FaultPlan p =
        FaultPlan::parse("seed=3;bank=2;ways=*:0x1;ways=5:0x4");
    const auto masks = p.resolveWayMasks(cfg);
    ASSERT_EQ(masks.size(), cfg.l2Banks);
    const std::uint64_t full = (std::uint64_t{1} << cfg.l2Ways) - 1;
    EXPECT_EQ(masks[2], full);        // dead bank: everything fenced
    EXPECT_EQ(masks[5], 0x5u);        // global 0x1 | per-bank 0x4
    EXPECT_EQ(masks[7], 0x1u);        // global clause only
}

TEST(FaultPlan, RandomWayMasksAreDeterministicAndSized)
{
    SystemConfig cfg;
    const FaultPlan p = FaultPlan::parse("seed=21;rand=0:2");
    const auto a = p.resolveWayMasks(cfg);
    EXPECT_EQ(a, p.resolveWayMasks(cfg));
    for (BankId b = 0; b < cfg.l2Banks; ++b)
        EXPECT_EQ(__builtin_popcountll(a[b]), 2);
}

} // namespace
} // namespace espnuca
