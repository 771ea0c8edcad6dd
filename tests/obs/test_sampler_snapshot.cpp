/**
 * @file
 * MetricsSampler snapshot/restore: the epoch-telemetry time series must
 * survive the warmup fast-forward. A checkpoint carries the warmup-side
 * samples, so a restored run's merged timeseries is element-identical
 * to the cold run's, continuous across the boundary — a plot drawn
 * from a restored run must be indistinguishable from a cold one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/snapshot.hpp"
#include "harness/report.hpp"
#include "harness/system.hpp"

namespace espnuca {
namespace {

constexpr Cycle kInterval = 5'000;
constexpr std::uint64_t kOps = 12'000;
constexpr double kWarmup = 0.5;

std::string
tmpPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() /
            ("espnuca_sampler_" + name + ".ckpt"))
        .string();
}

RunResult
runSampled(const std::string &arch, const std::string &path,
           bool *restored)
{
    SystemConfig cfg;
    return simulatePhased(cfg, arch, "apache", kOps, /*seed=*/7, kWarmup,
                          /*fault=*/nullptr, path, restored,
                          /*stats_dump=*/nullptr, kInterval);
}

void
expectSameSeries(const std::vector<obs::MetricsSample> &a,
                 const std::vector<obs::MetricsSample> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("sample " + std::to_string(i));
        EXPECT_EQ(a[i].cycle, b[i].cycle);
        EXPECT_EQ(*a[i].names, *b[i].names);
        EXPECT_EQ(a[i].values, b[i].values);
    }
}

class SamplerSnapshot : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SamplerSnapshot, RestoredTimeseriesMatchesCold)
{
    const std::string arch = GetParam();
    const std::string path = tmpPath(arch);
    std::filesystem::remove(path);

    bool restored = false;
    const RunResult cold = runSampled(arch, path, &restored);
    EXPECT_FALSE(restored);
    ASSERT_FALSE(cold.timeseries.empty());
    ASSERT_TRUE(std::filesystem::exists(path));

    const RunResult warm = runSampled(arch, path, &restored);
    EXPECT_TRUE(restored);

    expectSameSeries(cold.timeseries, warm.timeseries);
    // The JSON documents (timeseries included) must be byte-identical.
    EXPECT_EQ(runToJson(cold), runToJson(warm));
    std::filesystem::remove(path);
}

TEST_P(SamplerSnapshot, SeriesIsContinuousAcrossBoundary)
{
    const std::string arch = GetParam();
    const std::string path = tmpPath(std::string(arch) + "_cont");
    std::filesystem::remove(path);

    bool restored = false;
    runSampled(arch, path, &restored);
    const RunResult warm = runSampled(arch, path, &restored);
    ASSERT_TRUE(restored);
    ASSERT_GE(warm.timeseries.size(), 2u);

    // The restored tail continues the warmup-side series instead of
    // restarting at cycle 0: sample i is stamped (i + 1) * interval in
    // both epochs, across the fast-forward boundary too.
    for (std::size_t i = 0; i < warm.timeseries.size(); ++i)
        EXPECT_EQ(warm.timeseries[i].cycle, (i + 1) * kInterval) << i;
    std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(ArchModels, SamplerSnapshot,
                         ::testing::Values("shared", "esp-nuca",
                                           "d-nuca"),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

TEST(SamplerSnapshot, SampledCheckpointMatchesUnsampledUpToTheSampler)
{
    // The sampler is not an event: a sampled warmup checkpoint holds
    // the unsampled one's event-queue clock, executed count and FIFO
    // sequence, and the same machine state, byte for byte, up to the
    // sampler-presence flag that closes the unsampled body.
    const auto checkpoint = [](Cycle interval) {
        const std::string path = tmpPath("body" + std::to_string(interval));
        std::filesystem::remove(path);
        SystemConfig cfg;
        simulatePhased(cfg, "esp-nuca", "apache", kOps, 7, kWarmup,
                       nullptr, path, nullptr, nullptr, interval);
        SnapshotReader r = SnapshotReader::fromFile(path);
        r.header();
        std::vector<std::uint64_t> queue = {r.u64(), r.u64(), r.u64()};
        std::ifstream in(path, std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
        std::filesystem::remove(path);
        return std::make_pair(queue, bytes);
    };
    const auto [plain_queue, plain] = checkpoint(0);
    const auto [sampled_queue, sampled] = checkpoint(kInterval);
    EXPECT_EQ(sampled_queue, plain_queue); // now, executed, seq
    const std::size_t flag = plain.size() - 5; // before the CRC trailer
    ASSERT_EQ(plain[flag], 0);
    ASSERT_EQ(sampled[flag], 1);
    EXPECT_EQ(sampled.substr(0, flag), plain.substr(0, flag));
}

TEST(SamplerSnapshot, NameTableChangeAtTheBoundaryRestores)
{
    // gzip-4 runs a light system-services stream on core 4 (a sixth of
    // the per-core references). At this warmup fraction its warmup
    // share rounds to 0, so the warmup epoch has no core.4.* counters
    // and the tail does: the sampled name table changes at the
    // boundary, and the checkpoint must carry both tables.
    const std::string path = tmpPath("names");
    std::filesystem::remove(path);
    SystemConfig cfg;
    const auto run = [&](bool *restored) {
        return simulatePhased(cfg, "esp-nuca", "gzip-4", 1200, 7, 0.004,
                              nullptr, path, restored, nullptr, 500);
    };
    bool restored = false;
    const RunResult cold = run(&restored);
    EXPECT_FALSE(restored);
    const RunResult warm = run(&restored);
    EXPECT_TRUE(restored);
    ASSERT_GE(cold.timeseries.size(), 2u);
    const auto sampled = [](const obs::MetricsSample &s,
                            const std::string &name) {
        return std::count(s.names->begin(), s.names->end(), name) == 1;
    };
    EXPECT_TRUE(sampled(cold.timeseries.front(), "core.0.instructions"));
    EXPECT_FALSE(sampled(cold.timeseries.front(), "core.4.instructions"));
    EXPECT_TRUE(sampled(cold.timeseries.back(), "core.4.instructions"));
    expectSameSeries(cold.timeseries, warm.timeseries);
    EXPECT_EQ(runToJson(cold), runToJson(warm));
    std::filesystem::remove(path);
}

TEST(SamplerSnapshot, IntervalMismatchFallsBackToCold)
{
    const std::string path = tmpPath("mismatch");
    std::filesystem::remove(path);

    bool restored = false;
    SystemConfig cfg;
    simulatePhased(cfg, "esp-nuca", "apache", kOps, 7, kWarmup, nullptr,
                   path, &restored, nullptr, kInterval);
    ASSERT_TRUE(std::filesystem::exists(path));

    // Same identity, different sampling cadence: the checkpointed
    // sampler section no longer fits, so the run must fall back to a
    // cold warmup (and rewrite the checkpoint) instead of restoring a
    // series at the wrong cadence.
    const RunResult other =
        simulatePhased(cfg, "esp-nuca", "apache", kOps, 7, kWarmup,
                       nullptr, path, &restored, nullptr, kInterval * 2);
    EXPECT_FALSE(restored);
    ASSERT_FALSE(other.timeseries.empty());
    for (std::size_t i = 1; i < other.timeseries.size(); ++i)
        EXPECT_EQ(other.timeseries[i].cycle -
                      other.timeseries[i - 1].cycle,
                  kInterval * 2);
    std::filesystem::remove(path);
}

TEST(SamplerSnapshot, UnsampledRunRejectsSampledCheckpoint)
{
    const std::string path = tmpPath("presence");
    std::filesystem::remove(path);

    bool restored = false;
    SystemConfig cfg;
    simulatePhased(cfg, "esp-nuca", "apache", kOps, 7, kWarmup, nullptr,
                   path, &restored, nullptr, kInterval);
    ASSERT_TRUE(std::filesystem::exists(path));

    // No sampler this time: presence mismatch → cold fallback, and the
    // result carries no timeseries.
    const RunResult plain =
        simulatePhased(cfg, "esp-nuca", "apache", kOps, 7, kWarmup,
                       nullptr, path, &restored);
    EXPECT_FALSE(restored);
    EXPECT_TRUE(plain.timeseries.empty());
    std::filesystem::remove(path);
}

} // namespace
} // namespace espnuca
