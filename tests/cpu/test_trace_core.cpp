/**
 * @file
 * Trace-core model tests: issue-width pacing, window stalls, MSHR
 * limits, finish accounting — against a scripted memory system.
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>

#include "cpu/trace_core.hpp"

namespace espnuca {
namespace {

/** Fixed-list trace. */
class ListSource : public TraceSource
{
  public:
    explicit ListSource(std::deque<TraceOp> ops) : ops_(std::move(ops)) {}

    bool
    next(TraceOp &op) override
    {
        if (ops_.empty())
            return false;
        op = ops_.front();
        ops_.pop_front();
        return true;
    }

  private:
    std::deque<TraceOp> ops_;
};

struct CoreRig
{
    SystemConfig cfg;
    EventQueue eq;
    Cycle memLatency = 50;
    std::uint64_t issued = 0;
    std::uint64_t maxConcurrent = 0;
    std::uint64_t concurrent = 0;

    std::unique_ptr<TraceCore>
    makeCore(std::deque<TraceOp> ops)
    {
        MemoryIssueFn fn = [this](CoreId, AccessType, Addr,
                                  OpDone done) {
            ++issued;
            ++concurrent;
            maxConcurrent = std::max(maxConcurrent, concurrent);
            eq.schedule(memLatency, [this, done = std::move(done)]() {
                --concurrent;
                done(ServiceLevel::LocalL1, 0);
            });
        };
        return std::make_unique<TraceCore>(
            cfg, 0, eq, fn, std::make_unique<ListSource>(std::move(ops)));
    }
};

std::deque<TraceOp>
loads(int n, std::uint32_t gap)
{
    std::deque<TraceOp> ops;
    for (int i = 0; i < n; ++i)
        ops.push_back({gap, AccessType::Load,
                       static_cast<Addr>(i) * 64});
    return ops;
}

TEST(TraceCore, FinishesAndCountsInstructions)
{
    CoreRig rig;
    auto core = rig.makeCore(loads(10, 3));
    core->start();
    rig.eq.run();
    EXPECT_TRUE(core->finished());
    EXPECT_EQ(core->memOps(), 10u);
    EXPECT_EQ(core->instructions(), 10u * 4); // 3 gap + 1 mem each
    EXPECT_EQ(rig.issued, 10u);
}

TEST(TraceCore, MlpOverlapsIndependentLoads)
{
    // 16 independent loads of 50 cycles: with MLP the makespan is far
    // below the serial 800 cycles.
    CoreRig rig;
    auto core = rig.makeCore(loads(16, 0));
    core->start();
    rig.eq.run();
    EXPECT_LT(core->finishCycle(), 200u);
    EXPECT_GT(rig.maxConcurrent, 8u);
}

TEST(TraceCore, MshrLimitCapsConcurrency)
{
    CoreRig rig;
    auto core = rig.makeCore(loads(64, 0));
    core->start();
    rig.eq.run();
    EXPECT_LE(rig.maxConcurrent, rig.cfg.maxOutstanding);
}

TEST(TraceCore, WindowLimitsRunahead)
{
    // With gap = 20, each load is 21 instructions apart; a 64-entry
    // window covers ~3 loads: concurrency must stay low even though
    // 16 MSHRs are available.
    CoreRig rig;
    auto core = rig.makeCore(loads(32, 20));
    core->start();
    rig.eq.run();
    EXPECT_LE(rig.maxConcurrent, 4u);
}

TEST(TraceCore, IssueWidthBoundsIpc)
{
    // Pure compute (gap 255, instant memory): IPC can approach but not
    // exceed the issue width.
    CoreRig rig;
    rig.memLatency = 1;
    auto core = rig.makeCore(loads(50, 255));
    core->start();
    rig.eq.run();
    EXPECT_LE(core->ipc(), 4.0 + 1e-9);
    EXPECT_GT(core->ipc(), 3.0);
}

TEST(TraceCore, MemoryLatencyHurtsIpc)
{
    CoreRig fast, slow;
    fast.memLatency = 5;
    slow.memLatency = 400;
    auto f = fast.makeCore(loads(100, 2));
    auto s = slow.makeCore(loads(100, 2));
    f->start();
    s->start();
    fast.eq.run();
    slow.eq.run();
    EXPECT_GT(f->ipc(), s->ipc() * 3);
}

TEST(TraceCore, StoresRetireWithoutBlockingWindow)
{
    // Stores complete at issue for the window: long store latencies
    // don't serialize (until MSHRs fill).
    CoreRig rig;
    std::deque<TraceOp> ops;
    for (int i = 0; i < 12; ++i)
        ops.push_back({0, AccessType::Store, static_cast<Addr>(i) * 64});
    auto core = rig.makeCore(std::move(ops));
    core->start();
    rig.eq.run();
    EXPECT_LT(core->finishCycle(), 2 * rig.memLatency);
}

TEST(TraceCore, EmptyTraceFinishesImmediately)
{
    CoreRig rig;
    auto core = rig.makeCore({});
    core->start();
    rig.eq.run();
    EXPECT_TRUE(core->finished());
    EXPECT_EQ(core->instructions(), 0u);
}

} // namespace
} // namespace espnuca
