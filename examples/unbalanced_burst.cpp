/**
 * @file
 * Scenario: unbalanced core utilization — one memory-hungry thread
 * beside idle cores (the paper's Section 3.1 limit case). A private
 * organization strands 7/8 of the cache; ESP-NUCA's victims let the
 * busy core's working set overflow into the idle cores' shared space.
 * The example also samples the victim population over time to show the
 * on-line adaptation at work.
 */

#include <cstdio>
#include <string>

#include "harness/system.hpp"

using namespace espnuca;

namespace {

Workload
singleHeavyThread(const SystemConfig &cfg, std::uint64_t ops)
{
    Workload w;
    w.name = "single-burst";
    w.cores.resize(cfg.numCores);
    for (CoreId c = 0; c < cfg.numCores; ++c)
        w.cores[c].coreId = c;
    StreamParams &p = w.cores[0];
    p.ops = ops;
    p.gapMean = 2.0;
    p.ifetchFraction = 0.05;
    p.hotBytes = 3 << 20; // 3 MB: overflows the 1 MB private partition
    p.zipfTheta = 0.45;
    p.writeFraction = 0.2;
    p.depFraction = 0.3;
    p.coreId = 0;
    return w;
}

} // namespace

int
main()
{
    SystemConfig cfg;
    const std::uint64_t ops = 120'000;

    std::printf("One 3 MB-working-set thread on core 0, cores 1-7 idle "
                "(%llu refs)\n\n",
                static_cast<unsigned long long>(ops));
    std::printf("%-10s %10s %10s %12s\n", "arch", "IPC(core0)",
                "offchip", "victims");

    for (const char *arch : {"private", "shared", "esp-nuca"}) {
        const Workload wl = singleHeavyThread(cfg, ops);
        System sys(cfg, arch, wl, 1, /*warmup=*/0.4);
        const RunResult r = sys.run();
        std::uint64_t victims = 0;
        if (auto *esp = dynamic_cast<EspNuca *>(&sys.org()))
            victims = esp->victimsCreated();
        std::printf("%-10s %10.3f %10llu %12llu\n", arch, r.avgIpc,
                    static_cast<unsigned long long>(r.offChipAccesses),
                    static_cast<unsigned long long>(victims));
    }

    // Watch the victim population and nmax adapt during an ESP run:
    // the epoch sampler records every bank's counters every 150k cycles
    // (bank.<b>.victims is the resident victim count).
    std::printf("\nESP-NUCA adaptation during the run (victims live in "
                "the idle cores' shared space):\n");
    std::printf("%-12s %16s %10s\n", "cycle", "victims-resident",
                "mean-nmax");
    constexpr Cycle kChunk = 150'000;
    System sys(cfg, "esp-nuca", singleHeavyThread(cfg, ops), 1);
    sys.enableMetrics(kChunk);
    const RunResult r = sys.run();
    const auto ends = [](const std::string &s, const std::string &tail) {
        return s.size() > tail.size() &&
               s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
    };
    for (std::size_t k = 0; k < r.timeseries.size(); ++k) {
        const bool last = k + 1 == r.timeseries.size();
        if (k >= 8 && !last)
            continue;
        const obs::MetricsSample &s = r.timeseries[k];
        std::uint64_t victims = 0, nmax = 0, banks = 0;
        for (std::size_t i = 0; i < s.names->size(); ++i) {
            const std::string &name = (*s.names)[i];
            if (name.rfind("bank.", 0) != 0)
                continue;
            if (ends(name, ".victims")) {
                victims += s.values[i];
            } else if (ends(name, ".nmax")) {
                nmax += s.values[i];
                ++banks;
            }
        }
        std::printf("%-12llu %16llu %10.2f%s\n",
                    static_cast<unsigned long long>(s.cycle),
                    static_cast<unsigned long long>(victims),
                    banks == 0 ? 0.0
                               : static_cast<double>(nmax) /
                                     static_cast<double>(banks),
                    last ? "  (end)" : "");
    }
    std::printf("\nExpected: victims accumulate in remote home banks, "
                "turning the idle 7 MB\ninto a victim cache for core 0; "
                "private strands that capacity entirely.\n");
    return 0;
}
