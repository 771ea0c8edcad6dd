/**
 * @file
 * Self-profiling tests: the runtime gate, scope accounting, per-thread
 * aggregation, and collection into a StatsRegistry under prof.*.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/profiler.hpp"
#include "stats/stats_registry.hpp"

namespace espnuca {
namespace {

/** Profiling is process-global state: restore it around every test. */
class ProfilerTest : public ::testing::Test
{
  protected:
    void SetUp() override { obs::ProfRegistry::instance().reset(); }
    void
    TearDown() override
    {
        obs::setProfiling(false);
        obs::ProfRegistry::instance().reset();
    }
};

std::uint64_t
callsOf(const char *site)
{
    for (const auto &[name, s] : obs::ProfRegistry::instance().snapshot())
        if (name == site)
            return s.calls;
    return 0;
}

TEST_F(ProfilerTest, DisabledGateRecordsNothing)
{
    EXPECT_FALSE(obs::profilingEnabled());
    for (int i = 0; i < 5; ++i) {
        ESP_PROF_SCOPE("test.off");
    }
    EXPECT_EQ(callsOf("test.off"), 0u);
}

TEST_F(ProfilerTest, ScopesCountCallsWhenEnabled)
{
    obs::setProfiling(true);
    for (int i = 0; i < 7; ++i) {
        ESP_PROF_SCOPE("test.on");
    }
    EXPECT_EQ(callsOf("test.on"), 7u);
}

TEST_F(ProfilerTest, ThreadsAggregateIndependently)
{
    obs::setProfiling(true);
    auto burn = []() {
        for (int i = 0; i < 100; ++i) {
            ESP_PROF_SCOPE("test.mt");
        }
    };
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w)
        workers.emplace_back(burn);
    for (auto &t : workers)
        t.join();
    burn();
    EXPECT_EQ(callsOf("test.mt"), 500u);
}

TEST_F(ProfilerTest, CollectWritesProfCounters)
{
    obs::setProfiling(true);
    {
        ESP_PROF_SCOPE("test.collect");
    }
    StatsRegistry reg;
    obs::ProfRegistry::instance().collect(reg);
    EXPECT_EQ(reg.counterValue("prof.test.collect.calls"), 1u);
    // Idle sites are skipped rather than reported as zero.
    EXPECT_EQ(reg.counterValue("prof.test.off.calls"), 0u);
}

TEST_F(ProfilerTest, ResetZeroesAccumulators)
{
    obs::setProfiling(true);
    {
        ESP_PROF_SCOPE("test.reset");
    }
    EXPECT_EQ(callsOf("test.reset"), 1u);
    obs::ProfRegistry::instance().reset();
    EXPECT_EQ(callsOf("test.reset"), 0u);
}

} // namespace
} // namespace espnuca
