/**
 * @file
 * System-assembly tests: warmup semantics, custom trace sources, and
 * measured-window accounting.
 */

#include <gtest/gtest.h>

#include <deque>
#include <sstream>
#include <string>

#include "harness/report.hpp"
#include "harness/system.hpp"

namespace espnuca {
namespace {

TEST(System, WarmupResetsStatistics)
{
    SystemConfig cfg;
    const Workload wl = makeWorkload("gzip-4", cfg, 20'000, 1);
    System cold(cfg, "shared", wl, 1, /*warmup=*/0.0);
    const RunResult rc = cold.run();
    System warm(cfg, "shared", makeWorkload("gzip-4", cfg, 20'000, 1),
                1, /*warmup=*/0.5);
    const RunResult rw = warm.run();
    // The measured window excludes warmup: fewer instructions counted,
    // and the compulsory-miss storm is gone.
    EXPECT_LT(rw.instructions, rc.instructions);
    EXPECT_LT(rw.offChipAccesses, rc.offChipAccesses);
    EXPECT_GT(rw.instructions, rc.instructions / 3);
}

TEST(System, WarmupDoesNotChangeFinalState)
{
    // Warmup only moves the statistics boundary; the simulated history
    // (and hence the cache end state) is identical.
    SystemConfig cfg;
    System a(cfg, "esp-nuca", makeWorkload("apache", cfg, 10'000, 3), 3,
             0.0);
    System b(cfg, "esp-nuca", makeWorkload("apache", cfg, 10'000, 3), 3,
             0.5);
    const RunResult ra = a.run();
    const RunResult rb = b.run();
    EXPECT_EQ(a.eq().now(), b.eq().now());
    EXPECT_EQ(a.protocol().dir().size(), b.protocol().dir().size());
    (void)ra;
    (void)rb;
}

/** Fixed-list source for the custom-sources constructor. */
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

TEST(System, CustomSourcesDriveSelectedCores)
{
    SystemConfig cfg;
    std::vector<std::unique_ptr<TraceSource>> sources(cfg.numCores);
    std::deque<TraceOp> ops;
    for (int i = 0; i < 200; ++i)
        ops.push_back({2, AccessType::Load,
                       0x100000 + static_cast<Addr>(i) * 64, false});
    sources[3] = std::make_unique<ListSource>(ops);
    System sys(cfg, "shared", "custom", std::move(sources), 1);
    const RunResult r = sys.run();
    EXPECT_EQ(r.memOps, 200u);
    EXPECT_GT(sys.coreIpc(3), 0.0);
    EXPECT_EQ(sys.coreIpc(0), 0.0);
    EXPECT_EQ(r.workload, "custom");
}

TEST(System, PerCoreIpcMatchesAggregate)
{
    SystemConfig cfg;
    const Workload wl = makeWorkload("apache", cfg, 5'000, 2);
    System sys(cfg, "shared", wl, 2);
    const RunResult r = sys.run();
    double sum = 0.0;
    int active = 0;
    for (CoreId c = 0; c < cfg.numCores; ++c) {
        if (sys.coreIpc(c) > 0.0) {
            sum += sys.coreIpc(c);
            ++active;
        }
    }
    ASSERT_GT(active, 0);
    EXPECT_NEAR(r.avgIpc, sum / active, 1e-9);
}

TEST(System, SimulateHelperMatchesManualAssembly)
{
    SystemConfig cfg;
    const RunResult a = simulate(cfg, "sp-nuca", "CG", 5'000, 11, 0.3);
    const Workload wl = makeWorkload("CG", cfg, 5'000, 11);
    System sys(cfg, "sp-nuca", wl, 11, 0.3);
    const RunResult b = sys.run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.offChipAccesses, b.offChipAccesses);
}

TEST(SystemAssembly, WorkloadAndSourceConstructorsAgree)
{
    // The Workload constructor delegates to the sources constructor via
    // syntheticSources(); both assemblies must run the same machine,
    // including across an idle core and the warmup reset.
    SystemConfig cfg;
    Workload wl = makeWorkload("apache", cfg, 3'000, 4);
    wl.cores[5].ops = 0;
    std::uint64_t total = 0;
    for (const auto &p : wl.cores)
        total += p.ops;
    for (const char *arch : {"shared", "esp-nuca"}) {
        for (const double warmup : {0.0, 0.25}) {
            SCOPED_TRACE(std::string(arch) + " warmup " +
                         std::to_string(warmup));
            System a(cfg, arch, wl, 4, warmup);
            System b(cfg, arch, wl.name, syntheticSources(cfg, wl, 4), 4,
                     warmup, total);
            const RunResult ra = a.run();
            const RunResult rb = b.run();
            EXPECT_EQ(runToJson(ra), runToJson(rb));
            EXPECT_EQ(a.coreIpc(5), 0.0);
            std::ostringstream da;
            std::ostringstream db;
            a.dumpStats(da);
            b.dumpStats(db);
            EXPECT_EQ(da.str(), db.str());
        }
    }
}

} // namespace
} // namespace espnuca
