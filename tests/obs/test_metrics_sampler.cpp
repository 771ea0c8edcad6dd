/**
 * @file
 * Epoch-telemetry tests: the sampler produces a monotone time series
 * of the StatsRegistry's counters, the adaptive controller's state
 * included, never keeps a drained queue alive (alone or together with
 * the watchdog), never perturbs the simulation, and is bit-identical
 * across threads.
 */

#include <gtest/gtest.h>

#include <algorithm>
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

TEST(MetricsSampler, SamplesAtTheConfiguredCadence)
{
    EventQueue eq;
    // Real work out to cycle 1000, then the queue drains.
    for (Cycle t = 100; t <= 1000; t += 100)
        eq.schedule(t, []() {});
    obs::MetricsSampler ms(eq, 250, [](StatsRegistry &) {});
    ms.arm();
    eq.run();
    // Ticks at 250/500/750/1000; the 1000 tick sees no real work left
    // and does not re-arm.
    ASSERT_EQ(ms.samples().size(), 4u);
    EXPECT_EQ(ms.samples()[0].cycle, 250u);
    EXPECT_EQ(ms.samples()[3].cycle, 1000u);
}

TEST(MetricsSampler, DoesNotKeepADrainedQueueAlive)
{
    EventQueue eq;
    eq.schedule(10, []() {});
    obs::MetricsSampler ms(eq, 5, [](StatsRegistry &) {});
    ms.arm();
    eq.run();
    EXPECT_LE(eq.now(), 15u); // stopped at (or just past) the last work
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
                             "mc.0.accesses", "proto.in_flight",
                             "proto.mshrs"})
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
    // Two auxiliary observers (sampler + watchdog) must not keep each
    // other alive after real work drains — the run has to terminate.
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
