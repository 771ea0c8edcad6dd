/**
 * @file
 * Randomized protocol stress: interleaved loads/stores/ifetches from
 * all cores over a small, conflict-heavy address pool, run against
 * every architecture. After the dust settles, the full directory /
 * cache-array agreement and the single-writer invariant must hold.
 */

#include <gtest/gtest.h>

#include "arch/arch_factory.hpp"
#include "common/rng.hpp"
#include "net/topology.hpp"

namespace espnuca {
namespace {

struct StressRig
{
    SystemConfig cfg;
    Topology topo{cfg};
    EventQueue eq;
    Mesh mesh{topo, eq};
    std::unique_ptr<L2Org> org;
    std::unique_ptr<Protocol> proto;

    explicit StressRig(const std::string &arch)
    {
        org = makeArch(arch, cfg, 99);
        proto = std::make_unique<Protocol>(cfg, topo, mesh, eq, *org);
    }
};

class StressSweep : public ::testing::TestWithParam<std::string>
{
};

TEST_P(StressSweep, RandomTrafficKeepsInvariants)
{
    StressRig rig(GetParam());
    Rng rng(4242);
    int completions = 0;
    const int kOps = 1500;
    for (int i = 0; i < kOps; ++i) {
        const CoreId c = static_cast<CoreId>(rng.below(8));
        // A tight pool: 24 blocks split over 3 L2 sets to force
        // evictions, migrations and write races.
        const Addr a = 0x40000 + rng.below(24) * 0x40 +
                       rng.below(2) * 0x10000;
        const double roll = rng.uniform();
        const AccessType t = roll < 0.3   ? AccessType::Store
                             : roll < 0.9 ? AccessType::Load
                                          : AccessType::Ifetch;
        rig.proto->access(c, t, a,
                          [&](ServiceLevel, Cycle) { ++completions; });
        if (i % 5 == 0)
            rig.eq.run(); // let bursts overlap sometimes
    }
    rig.eq.run();
    EXPECT_EQ(completions, kOps);
    EXPECT_EQ(rig.proto->inFlight(), 0u);

    rig.proto->dir().forEach([&](Addr addr, const BlockInfo &info) {
        SCOPED_TRACE(testing::Message()
                     << GetParam() << " addr=0x" << std::hex << addr);
        EXPECT_TRUE(rig.proto->dir().consistent(addr));
        // L1 agreement.
        for (L1Id id = 0; id < rig.cfg.l1Count(); ++id)
            EXPECT_EQ(info.hasL1Holder(id), rig.proto->l1(id).has(addr));
        // L2 agreement.
        for (BankId b = 0; b < rig.cfg.l2Banks; ++b) {
            const auto [set, way] = rig.org->findCopy(b, addr);
            EXPECT_EQ(info.hasL2Copy(b), way != kNoWay);
        }
        // A dirty L1 copy must carry the owner token.
        for (L1Id id = 0; id < rig.cfg.l1Count(); ++id) {
            if (!info.hasL1Holder(id))
                continue;
            const int way = rig.proto->l1(id).lookup(addr);
            ASSERT_NE(way, kNoWay);
            if (rig.proto->l1(id).meta(addr, way).dirty) {
                EXPECT_TRUE(rig.proto->l1(id)
                                .meta(addr, way)
                                .hasOwnerToken);
            }
        }
    });
}

INSTANTIATE_TEST_SUITE_P(
    AllArchs, StressSweep,
    ::testing::Values("shared", "private", "sp-nuca", "sp-nuca-static",
                      "sp-nuca-shadow", "esp-nuca", "esp-nuca-flat",
                      "d-nuca", "asr", "cc-0", "cc-100"));

TEST(StressDeterminism, SameSeedSameEndState)
{
    auto fingerprint = []() {
        StressRig rig("esp-nuca");
        Rng rng(7);
        for (int i = 0; i < 800; ++i) {
            const CoreId c = static_cast<CoreId>(rng.below(8));
            const Addr a = 0x40000 + rng.below(32) * 0x40;
            const AccessType t = rng.chance(0.3) ? AccessType::Store
                                                 : AccessType::Load;
            rig.proto->access(c, t, a, [](ServiceLevel, Cycle) {});
            if (i % 9 == 0)
                rig.eq.run();
        }
        rig.eq.run();
        std::uint64_t fp = rig.eq.now() * 1315423911ULL;
        rig.proto->dir().forEach([&](Addr addr, const BlockInfo &info) {
            const L1HolderMask l1 = info.l1Holders();
            const L2CopyMask l2 = info.l2Copies();
            std::uint64_t holders = 0;
            std::uint64_t copies = 0;
            for (std::uint32_t k = 0; k < L1HolderMask::kWords; ++k)
                holders = holders * 1000003ULL + l1.word(k);
            for (std::uint32_t k = 0; k < L2CopyMask::kWords; ++k)
                copies = copies * 1000003ULL + l2.word(k);
            fp ^= addr * (holders + 3) + copies;
        });
        return fp;
    };
    EXPECT_EQ(fingerprint(), fingerprint());
}

} // namespace
} // namespace espnuca
