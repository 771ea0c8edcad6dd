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
#include <functional>

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

    // Watch the victim population and nmax adapt during an ESP run.
    std::printf("\nESP-NUCA adaptation during the run (victims live in "
                "the idle cores' shared space):\n");
    std::printf("%-12s %14s %12s %10s\n", "cycle", "victims-resident",
                "victims-made", "mean-nmax");
    const Workload wl = singleHeavyThread(cfg, ops);
    System sys(cfg, "esp-nuca", wl, 1);
    auto &esp = dynamic_cast<EspNuca &>(sys.org());
    EventQueue &eq = sys.eq();
    auto report = [&](const char *note) {
        std::uint64_t resident = 0;
        for (BankId b = 0; b < esp.numBanks(); ++b)
            resident += esp.bank(b).countClass(BlockClass::Victim);
        std::printf("%-12llu %14llu %12llu %10.2f%s\n",
                    static_cast<unsigned long long>(eq.now()),
                    static_cast<unsigned long long>(resident),
                    static_cast<unsigned long long>(
                        esp.victimsCreated()),
                    esp.meanNmax(), note);
    };
    // A read-only observer event every 150k cycles, re-armed only while
    // the simulation still has real work (see EventQueue's aux-event
    // accounting).
    constexpr Cycle kChunk = 150'000;
    std::function<void()> sample = [&]() {
        eq.noteAuxFired();
        report("");
        if (eq.now() < 8 * kChunk && eq.hasRealWork()) {
            eq.noteAuxScheduled();
            eq.schedule(kChunk, [&sample]() { sample(); });
        }
    };
    eq.noteAuxScheduled();
    eq.scheduleAt(kChunk, [&sample]() { sample(); });
    sys.run();
    report("  (end)");
    std::printf("\nExpected: victims accumulate in remote home banks, "
                "turning the idle 7 MB\ninto a victim cache for core 0; "
                "private strands that capacity entirely.\n");
    return 0;
}
