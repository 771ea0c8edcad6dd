/**
 * @file
 * Watchdog tests: unit-level stall/ceiling/progress behaviour against a
 * bare EventQueue, and the end-to-end guarantee that an induced
 * protocol stall (a dropped completion) becomes a clean WatchdogError
 * with a diagnostic dump instead of a hang or a silent corruption.
 *
 * The end-to-end cases double as the ctest hang test: the binary runs
 * under a ctest TIMEOUT, so a regressed watchdog that lets the stall
 * spin forever fails the suite by timeout instead of wedging CI.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>

#include "fault/fault_plan.hpp"
#include "fault/watchdog.hpp"
#include "harness/system.hpp"
#include "sim/event_queue.hpp"

namespace espnuca {
namespace {

/** Keep the queue alive forever (a livelock heartbeat). */
void
heartbeat(EventQueue &eq, Cycle period)
{
    eq.schedule(period, [&eq, period]() { heartbeat(eq, period); });
}

/**
 * Run the events up to `limit`, with the watchdog checking between
 * them as System's drain loop does: before the first event at or after
 * each check boundary.
 */
void
runWatched(EventQueue &eq, Watchdog &wd, Cycle limit)
{
    while (!eq.empty() && eq.nextEventTime() <= limit) {
        if (wd.due() <= eq.nextEventTime())
            wd.check();
        else
            eq.step();
    }
}

TEST(Watchdog, DisabledWatchdogNeverArms)
{
    EventQueue eq;
    Watchdog wd(eq, WatchdogConfig{}, []() { return 0u; },
                []() { return 0u; }, []() { return std::string(); });
    EXPECT_FALSE(wd.enabled());
    wd.arm(); // no-op
    eq.schedule(5, []() {});
    eq.run();
    EXPECT_EQ(wd.checksRun(), 0u);
}

TEST(Watchdog, StallWithInFlightThrows)
{
    EventQueue eq;
    heartbeat(eq, 10);
    Watchdog wd(
        eq, WatchdogConfig{/*stallBudget=*/200, 0, 0},
        []() { return 0u; },        // progress never advances
        []() { return 1u; },        // one transaction stuck
        []() { return std::string("dump-payload"); });
    wd.arm();
    try {
        runWatched(eq, wd, 100000);
        FAIL() << "watchdog did not fire";
    } catch (const WatchdogError &e) {
        EXPECT_NE(std::string(e.what()).find("no forward progress"),
                  std::string::npos);
        EXPECT_EQ(e.dump(), "dump-payload");
        EXPECT_LE(eq.now(), 1000u); // caught promptly, not at the limit
    }
}

TEST(Watchdog, ProgressResetsTheStallClock)
{
    EventQueue eq;
    heartbeat(eq, 10);
    std::uint64_t progress = 0;
    // Progress advances every cycle until t=600, then freezes with a
    // transaction outstanding: the watchdog must fire ~stallBudget
    // after the freeze, not before.
    Watchdog wd(
        eq, WatchdogConfig{/*stallBudget=*/200, 0, 0},
        [&eq, &progress]() {
            return eq.now() < 600 ? ++progress : progress;
        },
        []() { return 1u; }, []() { return std::string(); });
    wd.arm();
    EXPECT_THROW(runWatched(eq, wd, 100000), WatchdogError);
    EXPECT_GE(eq.now(), 750u);
    EXPECT_LE(eq.now(), 1200u);
}

TEST(Watchdog, NoThrowWhileIdleInFlight)
{
    EventQueue eq;
    heartbeat(eq, 10);
    // Zero transactions outstanding: an idle-but-alive system (e.g. a
    // polling core model) is not a stall however long it idles.
    Watchdog wd(eq, WatchdogConfig{/*stallBudget=*/100, 0, 0},
                []() { return 0u; }, []() { return 0u; },
                []() { return std::string(); });
    wd.arm();
    EXPECT_NO_THROW(runWatched(eq, wd, 5000));
    EXPECT_GT(wd.checksRun(), 0u);
}

TEST(Watchdog, CycleCeilingThrows)
{
    EventQueue eq;
    heartbeat(eq, 10);
    std::uint64_t progress = 0;
    Watchdog wd(
        eq, WatchdogConfig{0, /*maxCycles=*/1000, 0},
        [&progress]() { return ++progress; }, // always "making progress"
        []() { return 1u; }, []() { return std::string(); });
    wd.arm();
    EXPECT_THROW(runWatched(eq, wd, 100000), WatchdogError);
    EXPECT_LE(eq.now(), 2000u);
}

TEST(Watchdog, ChecksRunBetweenEventsWithoutMovingTheClock)
{
    EventQueue eq;
    for (Cycle t = 100; t <= 1000; t += 100)
        eq.schedule(t, []() {});
    std::uint64_t progress = 0;
    Watchdog wd(
        eq, WatchdogConfig{/*stallBudget=*/400, 0, 0},
        [&progress]() { return ++progress; }, []() { return 1u; },
        []() { return std::string(); });
    wd.arm();
    EXPECT_EQ(wd.due(), 100u);
    runWatched(eq, wd, 100000);
    // One check per 100-cycle boundary up to the last event; none
    // after the drain, and none is an event.
    EXPECT_EQ(wd.checksRun(), 10u);
    EXPECT_EQ(eq.now(), 1000u);
    EXPECT_EQ(eq.executed(), 10u);
}

TEST(Watchdog, CheckDrainedReportsOutstandingTransactions)
{
    EventQueue eq;
    Watchdog wd(eq, WatchdogConfig{}, []() { return 0u; },
                []() { return 2u; },
                []() { return std::string("post-mortem"); });
    try {
        wd.checkDrained();
        FAIL() << "drained check did not fire";
    } catch (const WatchdogError &e) {
        EXPECT_NE(std::string(e.what()).find("2 transaction(s)"),
                  std::string::npos);
        EXPECT_EQ(e.dump(), "post-mortem");
    }
}

TEST(Watchdog, InducedProtocolStallFailsCleanly)
{
    // Acceptance: drop one completion mid-run; the run must end with a
    // WatchdogError carrying the protocol diagnostic dump — within this
    // binary's ctest timeout — rather than hanging or asserting.
    SystemConfig cfg;
    const FaultPlan plan =
        FaultPlan::parse("drop-tx=40;watchdog=20000:2000000");
    try {
        simulate(cfg, "esp-nuca", "apache", 3000, 11, 0.0, &plan);
        FAIL() << "stalled run completed";
    } catch (const WatchdogError &e) {
        const std::string dump = e.dump();
        EXPECT_NE(dump.find("transaction(s) in flight"),
                  std::string::npos);
        EXPECT_NE(dump.find("tx 40"), std::string::npos);
        EXPECT_NE(dump.find("lock"), std::string::npos);
        EXPECT_NE(dump.find("pending="), std::string::npos);
    }
}

TEST(Watchdog, ArmedRunIsBitIdenticalToUnarmed)
{
    // The watchdog only reads state: the same healthy run with and
    // without an (untriggered) watchdog produces identical statistics.
    SystemConfig cfg;
    const RunResult plain =
        simulate(cfg, "esp-nuca", "apache", 3000, 13, 0.0);
    const FaultPlan plan = FaultPlan::parse("watchdog=1000000");
    const RunResult watched =
        simulate(cfg, "esp-nuca", "apache", 3000, 13, 0.0, &plan);
    EXPECT_EQ(plain.cycles, watched.cycles);
    EXPECT_EQ(plain.networkFlits, watched.networkFlits);
    EXPECT_EQ(plain.throughput, watched.throughput);
    EXPECT_EQ(plain.offChipAccesses, watched.offChipAccesses);
}

} // namespace
} // namespace espnuca
