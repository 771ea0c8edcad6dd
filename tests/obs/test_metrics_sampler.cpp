/**
 * @file
 * Epoch-telemetry tests: the sampler produces a monotone time series
 * of the StatsRegistry's counters, the adaptive controller's state
 * included; sample k holds the state before any event at k * interval
 * and the last one the drained state; it is never an event, so it
 * leaves the clock, the event count and the stats dump as they are
 * (with or without the watchdog); and it is bit-identical across
 * threads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>

#include "fault/fault_plan.hpp"
#include "harness/report.hpp"
#include "harness/system.hpp"
#include "obs/metrics_sampler.hpp"
#include "obs/profiler.hpp"

namespace espnuca {
namespace {

/** The value of counter `name` in `s`, or null when it was not sampled. */
const std::uint64_t *
valueOf(const obs::MetricsSample &s, const std::string &name)
{
    const auto it = std::find(s.names->begin(), s.names->end(), name);
    return it == s.names->end()
        ? nullptr
        : &s.values[static_cast<std::size_t>(it - s.names->begin())];
}

/**
 * Drain `eq` with `ms` sampling between events as System's drain loop
 * does: before the first event at or after each boundary, and once
 * more at the drain.
 */
void
drainSampled(EventQueue &eq, obs::MetricsSampler &ms)
{
    while (!eq.empty()) {
        if (ms.due() <= eq.nextEventTime())
            ms.sample();
        else
            eq.step();
    }
    ms.sample();
}

TEST(MetricsSampler, SamplesAtTheConfiguredCadence)
{
    EventQueue eq;
    // Real work every 100 cycles out to cycle 1000, then the queue
    // drains.
    for (Cycle t = 100; t <= 1000; t += 100)
        eq.schedule(t, []() {});
    obs::MetricsSampler ms(250, [&eq](StatsRegistry &reg) {
        reg.counter("events").inc(eq.executed());
    });
    drainSampled(eq, ms);
    // Samples at 250/500/750/1000, each before the events at its
    // cycle, then the drained state at the next boundary, 1250.
    ASSERT_EQ(ms.samples().size(), 5u);
    const std::uint64_t events[] = {2, 4, 7, 9, 10};
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(ms.samples()[i].cycle, 250u * (i + 1)) << i;
        EXPECT_EQ(ms.samples()[i].values.at(0), events[i]) << i;
    }
    EXPECT_EQ(eq.executed(), 10u);
}

TEST(MetricsSampler, DoesNotKeepADrainedQueueAlive)
{
    EventQueue eq;
    eq.schedule(10, []() {});
    obs::MetricsSampler ms(5, [](StatsRegistry &) {});
    drainSampled(eq, ms);
    EXPECT_EQ(eq.now(), 10u); // the clock stops at the last event
    ASSERT_EQ(ms.samples().size(), 3u);
    EXPECT_EQ(ms.samples().back().cycle, 15u);
}

TEST(MetricsSampler, SampleHoldsTheStateBeforeItsBoundary)
{
    // Sample k holds the state after every event before cycle
    // (k + 1) * interval. An unsampled twin records its state from
    // events scheduled at those cycles before the run starts: with the
    // lowest sequence numbers of their cycles, they fire before every
    // model event there, and each counts itself and the earlier ones
    // in sim.events.
    SystemConfig cfg;
    constexpr Cycle kInterval = 4000;
    const Workload wl = makeWorkload("apache", cfg, 3000, 7);
    System sampled(cfg, "esp-nuca", wl, 7, 0.0);
    sampled.enableMetrics(kInterval);
    const RunResult r = sampled.run();
    const std::size_t picks[] = {0, 5, 20};
    ASSERT_GT(r.timeseries.size(), 21u);

    System twin(cfg, "esp-nuca", wl, 7, 0.0);
    StatsRegistry regs[3];
    for (std::size_t j = 0; j < 3; ++j) {
        twin.eq().scheduleAt(r.timeseries[picks[j]].cycle, [&, j]() {
            twin.collectStats(regs[j], true);
            regs[j].counter("proto.in_flight")
                .inc(twin.protocol().inFlight());
        });
    }
    twin.run();
    for (std::size_t j = 0; j < 3; ++j) {
        SCOPED_TRACE("sample " + std::to_string(picks[j]));
        const obs::MetricsSample &s = r.timeseries[picks[j]];
        EXPECT_EQ(s.cycle, (picks[j] + 1) * kInterval);
        std::size_t compared = 0;
        for (const auto &[name, c] : regs[j].counters()) {
            if (name.rfind("prof.", 0) == 0)
                continue;
            ++compared;
            const std::uint64_t *v = valueOf(s, name);
            ASSERT_NE(v, nullptr) << name;
            if (name == "sim.events")
                EXPECT_EQ(*v + j + 1, c.value());
            else if (name == "sim.cycles")
                EXPECT_LT(*v, s.cycle); // the twin's probe reads s.cycle
            else
                EXPECT_EQ(*v, c.value()) << name;
        }
        EXPECT_EQ(compared, s.names->size());
    }
}

TEST(MetricsSampler, LastSampleCarriesTheDrainedState)
{
    SystemConfig cfg;
    constexpr Cycle kInterval = 3000;
    System sys(cfg, "esp-nuca", makeWorkload("apache", cfg, 3000, 7), 7,
               0.0);
    sys.enableMetrics(kInterval);
    const RunResult r = sys.run();
    ASSERT_FALSE(r.timeseries.empty());
    const obs::MetricsSample &last = r.timeseries.back();
    StatsRegistry reg;
    sys.collectStats(reg, true);
    for (const auto &[name, c] : reg.counters()) {
        if (name.rfind("prof.", 0) == 0)
            continue;
        ASSERT_NE(valueOf(last, name), nullptr) << name;
        EXPECT_EQ(*valueOf(last, name), c.value()) << name;
    }
    EXPECT_EQ(*valueOf(last, "proto.in_flight"), 0u);
    // Stamped with the first boundary after the last event.
    const Cycle end = reg.counterValue("sim.cycles");
    EXPECT_GT(last.cycle, end);
    EXPECT_LE(last.cycle - kInterval, end);
}

TEST(MetricsSampler, ObserversLeaveTheStatsDumpByteIdentical)
{
    const auto dump = [](Cycle interval, Cycle stall) {
        SystemConfig cfg;
        cfg.watchdogStallCycles = stall;
        System sys(cfg, "esp-nuca", makeWorkload("apache", cfg, 3000, 5),
                   5, 0.25);
        if (interval > 0)
            sys.enableMetrics(interval);
        sys.run();
        std::ostringstream os;
        sys.dumpStats(os);
        return os.str();
    };
    const std::string plain = dump(0, 0);
    EXPECT_EQ(dump(1000, 0), plain);
    EXPECT_EQ(dump(0, 100000), plain);
    EXPECT_EQ(dump(1000, 100000), plain);
}

TEST(MetricsSampler, EspRunYieldsAdaptiveTelemetry)
{
    SystemConfig cfg;
    const Workload wl = makeWorkload("apache", cfg, 5000, 7);
    System sys(cfg, "esp-nuca", wl, 7, 0.0);
    sys.enableMetrics(5000);
    const RunResult r = sys.run();
    ASSERT_FALSE(r.timeseries.empty());
    const obs::MetricsSample &last = r.timeseries.back();
    // ESP banks carry EMA monitors and helping blocks: every bank has
    // the controller's full state.
    bool any_nmax = false, any_ema = false;
    for (BankId b = 0; b < cfg.l2Banks; ++b) {
        const std::string bank = "bank." + std::to_string(b) + ".";
        for (const char *leaf : {"nmax", "hr_ref", "hr_conv", "hr_exp",
                                 "replicas", "victims", "demand",
                                 "demand_hits"})
            ASSERT_NE(valueOf(last, bank + leaf), nullptr) << bank << leaf;
        any_nmax = any_nmax || *valueOf(last, bank + "nmax") > 0;
        for (const char *ema : {"hr_ref", "hr_conv", "hr_exp"})
            any_ema = any_ema || *valueOf(last, bank + ema) > 0;
    }
    EXPECT_TRUE(any_nmax);
    EXPECT_TRUE(any_ema);
    for (const char *name : {"mesh.flits", "mesh.link_wait",
                             "mc.0.accesses", "proto.in_flight"})
        EXPECT_NE(valueOf(last, name), nullptr) << name;
    // Cumulative counters are monotone along the series.
    for (std::size_t i = 1; i < r.timeseries.size(); ++i) {
        const obs::MetricsSample &a = r.timeseries[i - 1];
        const obs::MetricsSample &b = r.timeseries[i];
        EXPECT_GE(*valueOf(b, "mesh.flits"), *valueOf(a, "mesh.flits"));
        EXPECT_GE(*valueOf(b, "mc.0.accesses"),
                  *valueOf(a, "mc.0.accesses"));
        EXPECT_GT(b.cycle, a.cycle);
    }
}

TEST(MetricsSampler, SamplesEveryExtendedCounterButProf)
{
    SystemConfig cfg;
    const Workload wl = makeWorkload("apache", cfg, 4000, 7);
    System sys(cfg, "esp-nuca", wl, 7, 0.0);
    sys.enableMetrics(4000);
    const RunResult r = sys.run();
    ASSERT_FALSE(r.timeseries.empty());
    const obs::MetricsSample &last = r.timeseries.back();
    StatsRegistry reg;
    sys.collectStats(reg, true);
    std::size_t checked = 0;
    for (const auto &[name, c] : reg.counters()) {
        if (name.rfind("prof.", 0) == 0)
            continue;
        EXPECT_NE(valueOf(last, name), nullptr) << name;
        ++checked;
    }
    EXPECT_GT(checked, 8u * cfg.l2Banks);
    for (const std::string &name : *last.names)
        EXPECT_NE(name.rfind("prof.", 0), 0u) << name;
}

TEST(MetricsSampler, SharedAndPrivateCarryNoAdaptiveSeries)
{
    SystemConfig cfg;
    for (const char *arch : {"shared", "private"}) {
        System sys(cfg, arch, makeWorkload("apache", cfg, 3000, 7), 7,
                   0.0);
        sys.enableMetrics(3000);
        const RunResult r = sys.run();
        ASSERT_FALSE(r.timeseries.empty()) << arch;
        for (const obs::MetricsSample &s : r.timeseries) {
            for (const std::string &name : *s.names) {
                for (const char *leaf : {".hr_ref", ".hr_conv", ".hr_exp",
                                         ".replicas", ".victims"})
                    EXPECT_EQ(name.find(leaf), std::string::npos)
                        << arch << ": " << name;
            }
        }
        EXPECT_NE(valueOf(r.timeseries.back(), "bank.0.demand"), nullptr);
    }
}

TEST(MetricsSampler, ProfilingLeavesTheTimeseriesUnchanged)
{
    SystemConfig cfg;
    auto series = [&cfg](bool prof) {
        obs::setProfiling(prof);
        System sys(cfg, "esp-nuca", makeWorkload("oltp", cfg, 3000, 9),
                   9, 0.0);
        sys.enableMetrics(3000);
        const RunResult r = sys.run();
        obs::setProfiling(false);
        JsonWriter w;
        writeTimeseriesJson(w, r.timeseries);
        return w.str();
    };
    const std::string plain = series(false);
    EXPECT_EQ(series(true), plain);
    EXPECT_NE(plain.find("\"bank.0.nmax\""), std::string::npos);
}

TEST(MetricsSampler, SamplingDoesNotPerturbTheRun)
{
    SystemConfig cfg;
    const RunResult plain =
        simulate(cfg, "esp-nuca", "apache", 4000, 3, 0.0);
    System sampled(cfg, "esp-nuca", makeWorkload("apache", cfg, 4000, 3),
                   3, 0.0);
    sampled.enableMetrics(2000);
    const RunResult r = sampled.run();
    EXPECT_EQ(plain.cycles, r.cycles);
    EXPECT_EQ(plain.throughput, r.throughput);
    EXPECT_EQ(plain.networkFlits, r.networkFlits);
    EXPECT_EQ(plain.offChipAccesses, r.offChipAccesses);
    EXPECT_FALSE(r.timeseries.empty());
    EXPECT_TRUE(plain.timeseries.empty());
}

TEST(MetricsSampler, TimeseriesIsBitIdenticalAcrossThreads)
{
    // The same (arch, workload, seed, interval) sampled on the main
    // thread and on a worker thread must agree sample-for-sample —
    // the parallel harness depends on this.
    SystemConfig cfg;
    auto sample = [&cfg]() {
        System sys(cfg, "esp-nuca", makeWorkload("oltp", cfg, 4000, 21),
                   21, 0.0);
        sys.enableMetrics(3000);
        JsonWriter w;
        writeTimeseriesJson(w, sys.run().timeseries);
        return w.str();
    };
    const std::string serial = sample();
    std::string threaded;
    std::thread worker([&]() { threaded = sample(); });
    worker.join();
    EXPECT_NE(serial.find("\"cycle\":3000"), std::string::npos);
    EXPECT_EQ(serial, threaded);
}

TEST(MetricsSampler, CoexistsWithTheWatchdog)
{
    // Both observers run between the same events; the run terminates
    // and reads as an unobserved one.
    SystemConfig cfg;
    const FaultPlan plan = FaultPlan::parse("watchdog=1000000");
    const Workload wl = makeWorkload("apache", cfg, 3000, 13);
    System sys(cfg, "esp-nuca", wl, 13, 0.0, &plan);
    sys.enableMetrics(2500);
    const RunResult r = sys.run();
    EXPECT_FALSE(r.timeseries.empty());
    const RunResult plain =
        simulate(cfg, "esp-nuca", "apache", 3000, 13, 0.0);
    EXPECT_EQ(plain.cycles, r.cycles);
    EXPECT_EQ(plain.throughput, r.throughput);
}

} // namespace
} // namespace espnuca
