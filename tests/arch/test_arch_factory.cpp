/**
 * @file
 * Architecture factory coverage: every published name constructs, names
 * round-trip, unknown names die, and every bank carries its
 * organization's policy and monitor.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <typeinfo>

#include "arch/arch_factory.hpp"

namespace espnuca {
namespace {

TEST(ArchFactory, AllNamesConstructAndRoundTrip)
{
    SystemConfig cfg;
    for (const char *name :
         {"shared", "private", "sp-nuca", "sp-nuca-static",
          "sp-nuca-shadow", "esp-nuca", "esp-nuca-flat", "d-nuca", "asr",
          "cc-0", "cc-30", "cc-70", "cc-100"}) {
        auto org = makeArch(name, cfg, 1);
        ASSERT_NE(org, nullptr) << name;
        EXPECT_EQ(org->name(), name);
        EXPECT_EQ(org->numBanks(), cfg.l2Banks) << name;
    }
}

TEST(ArchFactory, CcVariantsListedInOrder)
{
    const auto v = ccVariants();
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0], "cc-0");
    EXPECT_EQ(v[3], "cc-100");
}

TEST(ArchFactory, UnknownNameIsFatal)
{
    SystemConfig cfg;
    EXPECT_DEATH({ makeArch("z-nuca", cfg, 1); }, ".*");
}

// Each organization builds its banks once, from the spec it passes up
// its constructor chain: every bank must carry that spec's policy class,
// and a monitor exactly when the organization is protected ESP-NUCA.
TEST(ArchFactory, EveryBankCarriesItsArchsPolicy)
{
    SystemConfig cfg;
    for (const char *name :
         {"shared", "private", "sp-nuca", "sp-nuca-static",
          "sp-nuca-shadow", "esp-nuca", "esp", "esp-nuca-flat", "d-nuca",
          "asr", "cc-0", "cc-30", "cc-70", "cc-100"}) {
        SCOPED_TRACE(name);
        const std::string n = name;
        const bool protected_esp = n == "esp-nuca" || n == "esp";
        const std::type_info &policy =
            protected_esp           ? typeid(ProtectedLru)
            : n == "sp-nuca-static" ? typeid(StaticPartitionLru)
            : n == "sp-nuca-shadow" ? typeid(ShadowTagPolicy)
                                    : typeid(FlatLru);
        auto org = makeArch(n, cfg, 1);
        ASSERT_EQ(org->numBanks(), cfg.l2Banks);
        std::set<const ReplacementPolicy *> instances;
        for (BankId b = 0; b < org->numBanks(); ++b) {
            SCOPED_TRACE(b);
            const ReplacementPolicy &p = org->bank(b).policy();
            instances.insert(&p);
            EXPECT_TRUE(typeid(p) == policy) << typeid(p).name();
            EXPECT_EQ(org->bank(b).monitor() != nullptr, protected_esp);
        }
        // Shadow tags keep per-set state: one instance per bank.
        if (n == "sp-nuca-shadow") {
            EXPECT_EQ(instances.size(), cfg.l2Banks);
        }
    }
}

} // namespace
} // namespace espnuca
