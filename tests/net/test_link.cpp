/**
 * @file
 * Flit-level link occupancy model tests.
 */

#include <gtest/gtest.h>

#include "net/link.hpp"

namespace espnuca {
namespace {

TEST(Link, UncontendedLatency)
{
    Link l;
    // 1 flit, 2-cycle link: head arrives at t+2, tail == head.
    EXPECT_EQ(l.transmit(10, 1, 2), 12u);
}

TEST(Link, SerializationAddsFlits)
{
    Link l;
    // 5 flits (72 B / 16 B links): tail crosses 4 cycles after head.
    EXPECT_EQ(l.transmit(0, 5, 2), 6u);
}

TEST(Link, BackToBackMessagesQueue)
{
    Link l;
    EXPECT_EQ(l.transmit(0, 5, 2), 6u);
    // Second message at t=0 must wait for the first's tail injection
    // (link free at t=5), finishing at 5 + 2 + 4 = 11.
    EXPECT_EQ(l.transmit(0, 5, 2), 11u);
    EXPECT_EQ(l.waitCycles(), 5u);
}

TEST(Link, IdleGapsDontAccumulate)
{
    Link l;
    l.transmit(0, 1, 2);
    // Long idle gap; a later message suffers no queueing.
    EXPECT_EQ(l.transmit(100, 1, 2), 102u);
    EXPECT_EQ(l.waitCycles(), 0u);
}

TEST(Link, StatsAccumulate)
{
    Link l;
    l.transmit(0, 5, 2);
    l.transmit(0, 1, 2);
    EXPECT_EQ(l.flitsSent(), 6u);
    EXPECT_EQ(l.messages(), 2u);
}

TEST(Link, ResetClears)
{
    Link l;
    l.transmit(0, 5, 2);
    l.reset();
    EXPECT_EQ(l.intervals(), 0u);
    EXPECT_EQ(l.flitsSent(), 0u);
    EXPECT_EQ(l.transmit(0, 1, 2), 2u);
}

TEST(Link, FarFutureReservationDoesNotBlockEarlierTraffic)
{
    Link l;
    // A response leg reserved 300 cycles ahead...
    l.transmit(300, 5, 2);
    // ...must not delay a message that crosses the wire right now.
    EXPECT_EQ(l.transmit(0, 5, 2), 6u);
    EXPECT_EQ(l.waitCycles(), 0u);
}

TEST(Link, BackfillRespectsCapacity)
{
    Link l;
    l.transmit(10, 5, 2); // busy [10, 15)
    // A 5-flit message at t=8 cannot fit before [10,15): queues to 15.
    EXPECT_EQ(l.transmit(8, 5, 2), 15 + 2 + 4u);
    // A 1-flit message at t=6 fits in the gap [6, 10).
    EXPECT_EQ(l.transmit(6, 1, 2), 8u);
}

TEST(Link, PruneDropsPastIntervals)
{
    Link l;
    for (int i = 0; i < 10; ++i)
        l.transmit(static_cast<Cycle>(i) * 100, 5, 2);
    EXPECT_EQ(l.intervals(), 10u);
    l.transmit(2000, 1, 2, /*horizon=*/1500);
    EXPECT_LE(l.intervals(), 2u);
}

} // namespace
} // namespace espnuca

namespace espnuca {
namespace {

TEST(Link, AdjacentIntervalsCoalesce)
{
    Link l;
    l.transmit(0, 5, 2);  // [0, 5)
    l.transmit(5, 5, 2);  // [5, 10) -> coalesces with [0, 5)
    EXPECT_EQ(l.intervals(), 1u);
    // The merged interval still blocks the whole range: a 1-flit
    // message arriving at 3 starts at 10 and crosses by 10 + 2.
    EXPECT_EQ(l.transmit(3, 1, 2), 12u);
    EXPECT_EQ(l.waitCycles(), 7u);
}

TEST(Link, GapExactFitIsUsed)
{
    Link l;
    l.transmit(0, 2, 2);  // [0, 2)
    l.transmit(5, 2, 2);  // [5, 7)
    // A 3-flit message at t=2 fits exactly into [2, 5).
    EXPECT_EQ(l.transmit(2, 3, 2), 2 + 2 + 2u);
    EXPECT_EQ(l.waitCycles(), 0u);
}

TEST(Link, QueueGrowsMonotonicallyUnderBurst)
{
    Link l;
    Cycle prev = 0;
    for (int i = 0; i < 32; ++i) {
        const Cycle t = l.transmit(0, 5, 2);
        EXPECT_GE(t, prev);
        prev = t;
    }
    EXPECT_EQ(l.flitsSent(), 32u * 5);
}

} // namespace
} // namespace espnuca
