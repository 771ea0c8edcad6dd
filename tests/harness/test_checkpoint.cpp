/**
 * @file
 * Snapshot/restore correctness: for every arch model (and under a
 * dead-way fault plan) a run that checkpoints at the warmup boundary
 * and restores from that file must produce results — including the
 * full per-component stats dump — byte-identical to the same phased
 * run executed cold, and a checkpoint must never be accepted for a
 * run with a different identity.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/snapshot.hpp"
#include "fault/fault_plan.hpp"
#include "harness/report.hpp"
#include "harness/system.hpp"

namespace espnuca {
namespace {

std::string
tmpPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() /
            ("espnuca_ckpt_" + name + ".ckpt"))
        .string();
}

struct Phased
{
    RunResult result;
    bool restored = false;
    std::string stats;
};

Phased
runPhased(const std::string &arch, const std::string &workload,
          const std::string &fault, const std::string &path,
          std::uint64_t ops = 12'000, std::uint64_t seed = 7)
{
    SystemConfig cfg;
    std::optional<FaultPlan> plan;
    if (!fault.empty())
        plan = FaultPlan::parse(fault);
    Phased p;
    p.result = simulatePhased(cfg, arch, workload, ops, seed,
                              /*warmup=*/0.5, plan ? &*plan : nullptr,
                              path, &p.restored, &p.stats);
    return p;
}

/** Every arch model; sp-nuca-shadow and asr also carry policy state in
 *  the checkpoint. */
const std::vector<std::string> kAllArchs = {
    "shared",         "private",  "sp-nuca",       "sp-nuca-static",
    "sp-nuca-shadow", "esp-nuca", "esp-nuca-flat", "d-nuca",
    "asr",            "cc-0",     "cc-30",         "cc-70",
    "cc-100"};

class CheckpointRoundTrip : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CheckpointRoundTrip, RestoreMatchesColdByteForByte)
{
    const std::string arch = GetParam();
    const std::string path = tmpPath(arch);
    std::filesystem::remove(path);

    const Phased cold = runPhased(arch, "apache", "", path);
    EXPECT_FALSE(cold.restored);
    ASSERT_TRUE(std::filesystem::exists(path));

    const Phased warm = runPhased(arch, "apache", "", path);
    EXPECT_TRUE(warm.restored);

    EXPECT_EQ(runToJson(cold.result), runToJson(warm.result));
    EXPECT_EQ(cold.stats, warm.stats);
    std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(AllArchModels, CheckpointRoundTrip,
                         ::testing::ValuesIn(kAllArchs),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

TEST(Checkpoint, RestoreMatchesColdUnderDeadWayFault)
{
    const std::string path = tmpPath("deadways");
    std::filesystem::remove(path);
    const std::string fault = "ways=*:0x3"; // two dead ways, every bank

    const Phased cold = runPhased("esp-nuca", "oltp", fault, path);
    EXPECT_FALSE(cold.restored);
    ASSERT_TRUE(std::filesystem::exists(path));

    const Phased warm = runPhased("esp-nuca", "oltp", fault, path);
    EXPECT_TRUE(warm.restored);

    EXPECT_EQ(runToJson(cold.result), runToJson(warm.result));
    EXPECT_EQ(cold.stats, warm.stats);
    std::filesystem::remove(path);
}

TEST(Checkpoint, MismatchedIdentityFallsBackToColdRun)
{
    const std::string path = tmpPath("identity");
    std::filesystem::remove(path);

    const Phased first = runPhased("esp-nuca", "apache", "", path);
    EXPECT_FALSE(first.restored);
    ASSERT_TRUE(std::filesystem::exists(path));

    // Same file, different workload: the identity header must reject
    // it and the run must complete cold. The mismatched run then
    // re-caches its own boundary at that path (last-run-wins), so the
    // next apache run is cold again — and once it has re-cached, the
    // restore reproduces the original results byte for byte. At no
    // point may a stale checkpoint be silently accepted.
    const Phased other = runPhased("esp-nuca", "jbb", "", path);
    EXPECT_FALSE(other.restored);

    const Phased recache = runPhased("esp-nuca", "apache", "", path);
    EXPECT_FALSE(recache.restored);
    EXPECT_EQ(runToJson(first.result), runToJson(recache.result));

    const Phased again = runPhased("esp-nuca", "apache", "", path);
    EXPECT_TRUE(again.restored);
    EXPECT_EQ(runToJson(first.result), runToJson(again.result));
    std::filesystem::remove(path);
}

TEST(Checkpoint, CorruptFileFallsBackToColdRun)
{
    const std::string path = tmpPath("corrupt");
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "this is not a snapshot";
    }
    const Phased p = runPhased("shared", "apache", "", path);
    EXPECT_FALSE(p.restored);
    EXPECT_GT(p.result.instructions, 0u);
    std::filesystem::remove(path);
}

TEST(Checkpoint, WrongVersionIsRejected)
{
    SnapshotIdentity id;
    id.arch = "shared";
    id.workload = "apache";
    SnapshotWriter w;
    w.header(id);
    std::string bytes = w.bytes();
    // The version field sits right after the 4-byte magic.
    bytes[4] = static_cast<char>(bytes[4] + 1);
    SnapshotReader r(bytes);
    EXPECT_THROW(r.header(), SnapshotError);
}

TEST(Checkpoint, TrailingBytesAreAnError)
{
    SnapshotWriter w;
    w.u64(42);
    w.u64(43);
    SnapshotReader r(w.bytes());
    EXPECT_EQ(r.u64(), 42u);
    EXPECT_THROW(r.finish(), SnapshotError);
    EXPECT_EQ(r.u64(), 43u);
    EXPECT_NO_THROW(r.finish());
}

TEST(Checkpoint, PhasedRunIsDeterministicAcrossProcessesShape)
{
    // Two cold phased runs (no checkpoint file at all) of the same
    // point must already be byte-identical — the snapshot round-trip
    // inside the cold path is exercised every run.
    const Phased a = runPhased("esp-nuca", "apache", "", "");
    const Phased b = runPhased("esp-nuca", "apache", "", "");
    EXPECT_FALSE(a.restored);
    EXPECT_FALSE(b.restored);
    EXPECT_EQ(runToJson(a.result), runToJson(b.result));
    EXPECT_EQ(a.stats, b.stats);
}

} // namespace
} // namespace espnuca
