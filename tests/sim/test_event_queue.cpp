/**
 * @file
 * Discrete-event kernel tests: ordering, determinism, clock semantics.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hpp"

namespace espnuca {
namespace {

TEST(EventQueue, StartsAtZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, TiesFireInInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsMaySchedule)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&]() {
        ++fired;
        eq.schedule(1, [&]() { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 2u);
}

TEST(EventQueue, ZeroDelayRunsAtSameTime)
{
    EventQueue eq;
    Cycle when = 999;
    eq.schedule(7, [&]() {
        eq.schedule(0, [&]() { when = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(when, 7u);
}

TEST(EventQueue, StepExecutesOne)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&]() { ++fired; });
    eq.schedule(2, [&]() { ++fired; });
    eq.step();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 1u);
}

TEST(EventQueue, ScheduleAtAbsolute)
{
    EventQueue eq;
    Cycle when = 0;
    eq.scheduleAt(42, [&]() { when = eq.now(); });
    eq.run();
    EXPECT_EQ(when, 42u);
}

TEST(EventQueue, ExecutedCounter)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(i, []() {});
    eq.run();
    EXPECT_EQ(eq.executed(), 5u);
}

/**
 * Regression for the pre-wheel kernel's const_cast move-from-top():
 * same-cycle events must fire in strict insertion order, including
 * events scheduled *during* step() at the current cycle — they join
 * the back of the current cycle's FIFO, after everything already
 * queued for that cycle.
 */
TEST(EventQueue, SameCycleStrictInsertionOrderAcrossNestedSchedules)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&]() {
        order.push_back(0);
        // Scheduled mid-step at the current cycle: must run after B
        // and C (inserted earlier) but still at cycle 5.
        eq.schedule(0, [&]() {
            order.push_back(3);
            EXPECT_EQ(eq.now(), 5u);
            // Nested again, still same cycle: goes to the very back.
            eq.schedule(0, [&]() { order.push_back(5); });
        });
        eq.schedule(0, [&]() { order.push_back(4); });
    });
    eq.schedule(5, [&]() { order.push_back(1); });
    eq.schedule(5, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(eq.now(), 5u);
}

/** Same-cycle ordering driven step() by step(), not via run(). */
TEST(EventQueue, StepPreservesInsertionOrderWithinCycle)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 4; ++i)
        eq.schedule(2, [&order, i]() { order.push_back(i); });
    eq.step();
    // Mid-cycle, schedule two more at the *current* cycle.
    eq.schedule(0, [&]() { order.push_back(4); });
    eq.schedule(0, [&]() { order.push_back(5); });
    while (!eq.empty())
        eq.step();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

/**
 * Insertion order must hold when the tie straddles the two wheel
 * levels: an event far-scheduled at T (beyond the near window), then —
 * after the clock advanced enough that T is within the window — a
 * near-scheduled event at the same T. The far event was inserted
 * first, so it fires first.
 */
TEST(EventQueue, FarThenNearAtSameCycleFiresInInsertionOrder)
{
    constexpr Cycle kFar = EventQueue::kWheelSpan * 3 + 17;
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(kFar, [&]() { order.push_back(0); }); // far level
    eq.scheduleAt(EventQueue::kWheelSpan * 2, [&]() {
        // Now kFar is within the near window; same-cycle tie with the
        // migrated far event.
        eq.scheduleAt(kFar, [&]() { order.push_back(1); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(eq.now(), kFar);
}

/** Ties among far-level events also fire in insertion order. */
TEST(EventQueue, FarLevelTiesFireInInsertionOrder)
{
    constexpr Cycle kFar = EventQueue::kWheelSpan * 10;
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.scheduleAt(kFar, [&order, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

/** Idle gaps larger than the wheel span advance the clock correctly. */
TEST(EventQueue, SparseFarEventsAdvanceAcrossWindows)
{
    EventQueue eq;
    std::vector<Cycle> fired;
    for (Cycle t : {Cycle{1}, Cycle{1000}, Cycle{100000}, Cycle{100001}})
        eq.scheduleAt(t, [&fired, &eq]() { fired.push_back(eq.now()); });
    eq.run();
    EXPECT_EQ(fired,
              (std::vector<Cycle>{1, 1000, 100000, 100001}));
}

TEST(EventQueue, HeavyInterleavingDeterministic)
{
    auto run_once = []() {
        EventQueue eq;
        std::vector<int> order;
        for (int i = 0; i < 200; ++i) {
            eq.schedule(static_cast<Cycle>((i * 7) % 20),
                        [&order, i]() { order.push_back(i); });
        }
        eq.run();
        return order;
    };
    EXPECT_EQ(run_once(), run_once());
}

} // namespace
} // namespace espnuca
