/**
 * @file
 * Layer replay micros: the uncontended host cost of one call into a
 * single layer, driven through its public functions only and with
 * nothing else running. Each micro times batches of calls and reports
 * the median ns per call over the batches; inputs are drawn from the
 * run's seed so that they are the same on both sides of a comparison.
 */

#ifndef ESPNUCA_PERFBENCH_MICROS_HPP_
#define ESPNUCA_PERFBENCH_MICROS_HPP_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "cache/cache_bank.hpp"
#include "cache/replacement.hpp"
#include "coherence/directory.hpp"
#include "common/rng.hpp"
#include "net/mesh.hpp"
#include "net/topology.hpp"
#include "sim/event_queue.hpp"
#include "workload/presets.hpp"
#include "workload/trace_gen.hpp"

namespace perfbench {

using namespace espnuca;

/** Median of batch timings, collected until a time budget is spent. */
class BatchTimer
{
  public:
    explicit BatchTimer(double budget_s)
        : budget_(budget_s), begin_(Clock::now())
    {
    }

    bool
    more() const
    {
        return perCall_.size() < kMinBatches ||
               std::chrono::duration<double>(Clock::now() - begin_)
                       .count() < budget_;
    }

    void start() { t0_ = Clock::now(); }

    void
    stop(std::uint64_t calls)
    {
        const double ns =
            std::chrono::duration<double, std::nano>(Clock::now() - t0_)
                .count();
        perCall_.push_back(ns / static_cast<double>(calls));
    }

    double
    median()
    {
        std::sort(perCall_.begin(), perCall_.end());
        return perCall_[perCall_.size() / 2];
    }

  private:
    using Clock = std::chrono::steady_clock;
    static constexpr std::size_t kMinBatches = 9;
    double budget_;
    Clock::time_point begin_;
    Clock::time_point t0_;
    std::vector<double> perCall_;
};

/** Keeps micro results observable so the calls are not optimized out. */
inline volatile std::uint64_t g_sink = 0;

/**
 * Mesh::deliveryTime over every (src, dst) node pair, control and data
 * sizes. Messages are spaced and the clock moves past them between
 * batches, so each call routes over idle links.
 */
inline double
routeNsPerCall(const SystemConfig &cfg, double budget_s)
{
    Topology topo(cfg);
    EventQueue eq;
    Mesh mesh(topo, eq);
    const NodeId n = topo.numNodes();
    const std::uint32_t sizes[2] = {cfg.ctrlMsgBytes, cfg.dataMsgBytes};
    constexpr Cycle kSpacing = 64;
    BatchTimer timer(budget_s);
    std::uint64_t sink = 0;
    while (timer.more()) {
        std::uint64_t calls = 0;
        const Cycle base = eq.now();
        timer.start();
        for (int rep = 0; rep < 8; ++rep)
            for (NodeId s = 0; s < n; ++s)
                for (NodeId d = 0; d < n; ++d)
                    for (const std::uint32_t bytes : sizes)
                        sink += mesh.deliveryTime(
                            s, d, bytes, base + kSpacing * calls++);
        timer.stop(calls);
        eq.schedule(kSpacing * calls + 4096, []() {});
        eq.step();
    }
    g_sink = sink;
    return timer.median();
}

/**
 * CacheBank::find on a full bank: half the lookups hit a resident
 * block, half miss, under the class masks the architectures use.
 */
inline double
findNsPerCall(const SystemConfig &cfg, std::uint64_t seed, double budget_s)
{
    CacheBank bank(cfg, 0, std::make_shared<FlatLru>());
    Rng rng(seed ^ 0xB4A7C0DEULL);
    const BlockClass classes[4] = {BlockClass::Private, BlockClass::Shared,
                                   BlockClass::Replica, BlockClass::Victim};
    for (std::uint32_t s = 0; s < bank.numSets(); ++s) {
        for (std::uint32_t w = 0; w < cfg.l2Ways; ++w) {
            BlockMeta m;
            m.addr = (rng.next() >> 20) * cfg.blockBytes;
            m.valid = true;
            m.cls = classes[rng.below(4)];
            m.owner = static_cast<CoreId>(rng.below(cfg.numCores));
            bank.insert(s, m);
        }
    }
    const ClassMask masks[4] = {kMatchAny, kMatchPrivate | kMatchReplica,
                                kMatchShared | kMatchVictim, kMatchPrivate};
    struct Query
    {
        std::uint32_t set;
        ClassMask mask;
        Addr addr;
    };
    std::vector<Query> queries(1u << 16);
    for (Query &q : queries) {
        q.set = static_cast<std::uint32_t>(rng.below(bank.numSets()));
        q.mask = masks[rng.below(4)];
        q.addr = rng.chance(0.5)
            ? bank.meta(q.set, static_cast<int>(rng.below(cfg.l2Ways))).addr
            : (rng.next() >> 20) * cfg.blockBytes + 1;
    }
    BatchTimer timer(budget_s);
    std::uint64_t sink = 0;
    while (timer.more()) {
        timer.start();
        for (const Query &q : queries)
            sink += static_cast<std::uint64_t>(
                bank.find(q.set, q.addr, q.mask) + 1);
        timer.stop(queries.size());
    }
    g_sink = sink;
    return timer.median();
}

/**
 * Directory churn: each step notes an access, looks the block up and
 * toggles one L1 holder, so entries are created and released as in a
 * run. One op is one Directory call.
 */
inline double
dirNsPerOp(const SystemConfig &cfg, std::uint64_t seed, double budget_s)
{
    Directory dir(cfg);
    Rng rng(seed ^ 0xD1EC7027ULL);
    std::vector<Addr> blocks(1u << 15);
    for (Addr &a : blocks)
        a = (rng.next() >> 20) * cfg.blockBytes;
    struct Step
    {
        Addr addr;
        CoreId core;
    };
    std::vector<Step> steps(1u << 16);
    for (Step &s : steps) {
        s.addr = blocks[rng.below(blocks.size())];
        s.core = static_cast<CoreId>(rng.below(cfg.numCores));
    }
    BatchTimer timer(budget_s);
    std::uint64_t sink = 0;
    while (timer.more()) {
        timer.start();
        for (const Step &s : steps) {
            sink += dir.noteAccess(s.addr, s.core);
            const BlockInfo *e = dir.find(s.addr);
            const L1Id id = s.core * 2;
            if (e != nullptr && e->hasL1Holder(id))
                dir.removeL1(s.addr, id);
            else
                dir.addL1(s.addr, id, false);
        }
        timer.stop(3 * steps.size());
    }
    g_sink = sink + dir.population();
    return timer.median();
}

/**
 * EventQueue schedule + step with a standing population of pending
 * events at the small delays the protocol uses. One call is one
 * schedule plus one step.
 */
inline double
eventNsPerCall(std::uint64_t seed, double budget_s)
{
    EventQueue eq;
    Rng rng(seed ^ 0xE7E27ULL);
    std::vector<Cycle> delays(1u << 12);
    for (Cycle &d : delays)
        d = 1 + rng.below(200);
    std::uint64_t fired = 0;
    for (int i = 0; i < 64; ++i)
        eq.schedule(delays[i], [&fired]() { ++fired; });
    BatchTimer timer(budget_s);
    constexpr std::uint64_t kCalls = 1u << 16;
    while (timer.more()) {
        timer.start();
        for (std::uint64_t i = 0; i < kCalls; ++i) {
            eq.schedule(delays[i & (delays.size() - 1)],
                        [&fired]() { ++fired; });
            eq.step();
        }
        timer.stop(kCalls);
    }
    g_sink = fired;
    return timer.median();
}

/** SyntheticSource::next for the workload's first active core. */
inline double
nextNsPerCall(const SystemConfig &cfg, const Workload &wl,
              std::uint64_t seed, double budget_s)
{
    CoreId core = 0;
    while (core + 1 < wl.cores.size() && wl.cores[core].ops == 0)
        ++core;
    StreamParams p = wl.cores[core];
    p.ops = std::numeric_limits<std::uint64_t>::max();
    SyntheticSource src(cfg, p, seed * 1000003ULL + core);
    BatchTimer timer(budget_s);
    constexpr std::uint64_t kCalls = 1u << 16;
    std::uint64_t sink = 0;
    TraceOp op;
    while (timer.more()) {
        timer.start();
        for (std::uint64_t i = 0; i < kCalls; ++i) {
            src.next(op);
            sink += op.addr;
        }
        timer.stop(kCalls);
    }
    g_sink = sink;
    return timer.median();
}

} // namespace perfbench

#endif // ESPNUCA_PERFBENCH_MICROS_HPP_
