/**
 * @file
 * Named statistic registry tests.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "stats/stats_registry.hpp"

namespace espnuca {
namespace {

TEST(StatsRegistry, CountersCreateOnUse)
{
    StatsRegistry r;
    r.counter("l1.0.hits").inc();
    r.counter("l1.0.hits").inc(4);
    EXPECT_EQ(r.counterValue("l1.0.hits"), 5u);
    EXPECT_EQ(r.counterValue("absent"), 0u);
}

TEST(StatsRegistry, AveragesTrackMean)
{
    StatsRegistry r;
    r.average("lat").record(10.0);
    r.average("lat").record(20.0);
    EXPECT_DOUBLE_EQ(r.averages().at("lat").mean(), 15.0);
    EXPECT_EQ(r.averages().count("absent"), 0u);
}

TEST(StatsRegistry, SumByPrefix)
{
    StatsRegistry r;
    r.counter("bank.0.hits").inc(3);
    r.counter("bank.1.hits").inc(4);
    r.counter("bank.10.hits").inc(5);
    r.counter("core.0.hits").inc(100);
    EXPECT_EQ(r.sumByPrefix("bank."), 12u);
    EXPECT_EQ(r.sumByPrefix("core."), 100u);
    EXPECT_EQ(r.sumByPrefix("nothing."), 0u);
}

TEST(StatsRegistry, DumpIsSortedAndComplete)
{
    StatsRegistry r;
    r.counter("z").inc();
    r.counter("a").inc(2);
    std::ostringstream os;
    r.dump(os);
    const std::string out = os.str();
    EXPECT_LT(out.find("a 2"), out.find("z 1"));
}

TEST(StatsRegistry, ResetClearsEverything)
{
    StatsRegistry r;
    r.counter("x").inc();
    r.average("y").record(1.0);
    r.reset();
    EXPECT_EQ(r.counterValue("x"), 0u);
    EXPECT_TRUE(r.averages().empty());
}

TEST(StatsRegistry, ScopeJoinsDottedPaths)
{
    StatsRegistry r;
    const StatsScope bank = StatsScope(r, "bank").sub("3");
    bank.counter("evictions").inc(2);
    bank.average("occupancy").record(0.5);
    EXPECT_EQ(bank.prefix(), "bank.3");
    EXPECT_EQ(r.counterValue("bank.3.evictions"), 2u);
    EXPECT_DOUBLE_EQ(r.averages().at("bank.3.occupancy").mean(), 0.5);
}

TEST(StatsRegistry, DumpSectionsInFixedOrder)
{
    // Counters, then averages, whatever the name order across them.
    StatsRegistry r;
    r.average("aavg").record(1.0);
    r.counter("zcounter").inc();
    std::ostringstream os;
    r.dump(os);
    const std::string out = os.str();
    EXPECT_LT(out.find("zcounter"), out.find("aavg"));
}

} // namespace
} // namespace espnuca
