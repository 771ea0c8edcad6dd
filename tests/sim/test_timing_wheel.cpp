/**
 * @file
 * Differential test of the timing-wheel EventQueue against a reference
 * kernel kept here: a sorted map keyed by (time, insertion sequence)
 * holding std::function callbacks. Both queues replay identical
 * (delay, payload) streams — including delays beyond the near window,
 * zero delays, and events scheduled from inside callbacks — and must
 * produce identical (payload, fire-time) sequences. Bounded drains up to
 * a ladder of boundaries are compared step for step as well.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/event_queue.hpp"

namespace espnuca {
namespace {

/** Reference kernel: events fire in (time, insertion-seq) order. */
class ReferenceQueue
{
  public:
    Cycle now() const { return now_; }
    bool empty() const { return events_.empty(); }
    std::size_t pending() const { return events_.size(); }
    std::uint64_t executed() const { return executed_; }
    Cycle nextEventTime() const { return events_.begin()->first.first; }

    void
    schedule(Cycle delay, std::function<void()> fn)
    {
        scheduleAt(now_ + delay, std::move(fn));
    }

    void
    scheduleAt(Cycle when, std::function<void()> fn)
    {
        events_.emplace(std::pair{when, seq_++}, std::move(fn));
    }

    void
    step()
    {
        auto node = events_.extract(events_.begin());
        now_ = node.key().first;
        ++executed_;
        node.mapped()();
    }

    void
    run()
    {
        while (!empty())
            step();
    }

  private:
    std::map<std::pair<Cycle, std::uint64_t>, std::function<void()>>
        events_;
    Cycle now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
};

struct Firing
{
    std::uint32_t payload;
    Cycle when;
    bool operator==(const Firing &) const = default;
};

/** Random delay mixing near (bounded link/bank) and far (DRAM-ish). */
Cycle
randomDelay(Rng &rng)
{
    switch (rng.below(10)) {
      case 0: return 0;                                   // same cycle
      case 1: return EventQueue::kWheelSpan - 1;          // window edge
      case 2: return EventQueue::kWheelSpan;              // first far
      case 3: return rng.below(EventQueue::kWheelSpan * 8); // far
      default: return rng.below(64);                      // typical hop
    }
}

/**
 * Drive one kernel with a seeded random schedule where every executed
 * event may itself schedule more events, then return the firing log.
 */
template <typename Queue>
std::vector<Firing>
runSchedule(std::uint64_t seed, std::uint32_t initial,
            std::uint32_t chained)
{
    Queue q;
    Rng rng(seed);
    std::vector<Firing> log;
    std::uint32_t next_payload = 0;
    std::uint32_t budget = chained;

    // The callback re-captures everything it needs by value except the
    // shared driver state, mirroring how protocol events chain.
    struct Driver
    {
        Queue &q;
        Rng &rng;
        std::vector<Firing> &log;
        std::uint32_t &next_payload;
        std::uint32_t &budget;

        void
        fire(std::uint32_t payload)
        {
            log.push_back({payload, q.now()});
            if (budget == 0)
                return;
            // Chain 0-2 follow-up events from inside the callback.
            const std::uint32_t n = rng.below(3);
            for (std::uint32_t i = 0; i < n && budget > 0; ++i) {
                --budget;
                const std::uint32_t p = next_payload++;
                q.schedule(randomDelay(rng),
                           [this, p]() { fire(p); });
            }
        }
    };
    Driver d{q, rng, log, next_payload, budget};

    for (std::uint32_t i = 0; i < initial; ++i) {
        const std::uint32_t p = next_payload++;
        q.schedule(randomDelay(rng), [&d, p]() { d.fire(p); });
    }
    q.run();
    return log;
}

TEST(TimingWheelDifferential, RandomStreamsMatchReferenceHeap)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const auto wheel =
            runSchedule<EventQueue>(seed, 64, 2000);
        const auto heap =
            runSchedule<ReferenceQueue>(seed, 64, 2000);
        ASSERT_EQ(wheel.size(), heap.size()) << "seed " << seed;
        for (std::size_t i = 0; i < wheel.size(); ++i) {
            ASSERT_EQ(wheel[i], heap[i])
                << "seed " << seed << " divergence at firing " << i
                << ": wheel (" << wheel[i].payload << "@"
                << wheel[i].when << ") vs heap (" << heap[i].payload
                << "@" << heap[i].when << ")";
        }
    }
}

/**
 * Step every event due before `boundary`, the way System::drainObserved
 * stops to run an observer: the first event at or after the boundary
 * stays queued.
 */
template <typename Queue>
void
stepBefore(Queue &q, Cycle boundary)
{
    while (!q.empty() && q.nextEventTime() < boundary)
        q.step();
}

/**
 * Bounded drains: events before a boundary run, the ones at or after it
 * stay queued, and the clock reads the last event run. Both kernels are
 * stepped through the same ladder of boundaries.
 */
TEST(TimingWheelDifferential, RunUntilBoundariesMatchReferenceHeap)
{
    for (std::uint64_t seed = 20; seed <= 23; ++seed) {
        EventQueue wheel;
        ReferenceQueue heap;
        Rng rng(seed);
        std::vector<std::uint32_t> wheel_log, heap_log;

        std::vector<Cycle> times;
        for (int i = 0; i < 300; ++i)
            times.push_back(randomDelay(rng) * 4);
        for (std::uint32_t i = 0; i < times.size(); ++i) {
            wheel.scheduleAt(times[i],
                             [&wheel_log, i]() { wheel_log.push_back(i); });
            heap.scheduleAt(times[i],
                            [&heap_log, i]() { heap_log.push_back(i); });
        }

        // Ladder of boundaries, deliberately hitting exact event times
        // (odd indices) and in-between cycles.
        std::vector<Cycle> limits = times;
        for (std::size_t i = 0; i < limits.size(); i += 2)
            limits[i] += 1;
        std::sort(limits.begin(), limits.end());
        for (Cycle limit : limits) {
            stepBefore(wheel, limit);
            stepBefore(heap, limit);
            ASSERT_EQ(wheel.now(), heap.now()) << "seed " << seed;
            ASSERT_EQ(wheel.pending(), heap.pending()) << "seed " << seed;
            ASSERT_EQ(wheel_log, heap_log) << "seed " << seed;
            if (!wheel.empty()) {
                ASSERT_GE(wheel.nextEventTime(), limit) << "seed " << seed;
                ASSERT_EQ(wheel.nextEventTime(), heap.nextEventTime())
                    << "seed " << seed;
            }
        }
        wheel.run();
        heap.run();
        EXPECT_EQ(wheel_log, heap_log);
        EXPECT_EQ(wheel.executed(), heap.executed());
        EXPECT_EQ(wheel.now(), heap.now());
    }
}

/** pending()/empty()/nextEventTime() agree while stepping manually. */
TEST(TimingWheelDifferential, StepwiseAccountingMatchesReferenceHeap)
{
    EventQueue wheel;
    ReferenceQueue heap;
    Rng rng(99);
    for (int i = 0; i < 500; ++i) {
        const Cycle d = randomDelay(rng);
        wheel.schedule(d, []() {});
        heap.schedule(d, []() {});
    }
    while (!heap.empty()) {
        ASSERT_FALSE(wheel.empty());
        ASSERT_EQ(wheel.nextEventTime(), heap.nextEventTime());
        ASSERT_EQ(wheel.pending(), heap.pending());
        wheel.step();
        heap.step();
        ASSERT_EQ(wheel.now(), heap.now());
    }
    EXPECT_TRUE(wheel.empty());
}

} // namespace
} // namespace espnuca
