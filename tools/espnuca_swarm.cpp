/**
 * @file
 * espnuca-swarm: crash-safe sweep supervisor (DESIGN.md 5.12).
 *
 *   espnuca-swarm --results-dir DIR --shards N [options] -- worker [args]
 *
 * Fork/execs one worker process per shard — typically a figure bench
 * or espnuca-sim invocation — appending `--shard i/N --results-dir DIR
 * --heartbeat DIR/hb-i.json` to the given command line, and keeps the
 * sweep alive through arbitrary worker death: stalled workers (no
 * heartbeat change within the timeout) are SIGKILLed, dead workers are
 * restarted with exponential backoff and resume from the per-point
 * results directory, and a point that keeps killing its worker is
 * quarantined into DIR/quarantine.json after N organic deaths so the
 * rest of the grid still completes. espnuca-merge folds quarantined
 * points into the merged document's `failures` array. `--chaos RATE`
 * randomly SIGKILLs workers (expected kills/sec), the crash-safety
 * acceptance mode: induced kills are never charged against a point.
 * usage() below is the one list of options (`--help` prints it).
 *
 * Exit status: 0 when every shard completed (quarantined points are
 * reported, not fatal), 1 when any shard exhausted its restart budget,
 * 2 on CLI misuse.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/parse_num.hpp"
#include "harness/supervisor.hpp"

using namespace espnuca;

namespace {

[[noreturn]] void
usage(int code)
{
    std::printf(
        "usage: espnuca-swarm --results-dir DIR --shards N [options] "
        "-- worker [args...]\n"
        "  --results-dir DIR     per-point files, heartbeats, "
        "quarantine\n"
        "  --shards N            worker processes / grid partitions\n"
        "  --chaos RATE          randomly SIGKILL workers "
        "(expected kills/sec)\n"
        "  --chaos-seed N        seed for the chaos schedule\n"
        "  --stall-timeout MS    heartbeat silence => SIGKILL "
        "(default 120000)\n"
        "  --poll MS             supervision poll interval "
        "(default 25)\n"
        "  --quarantine-after N  organic deaths before a point is "
        "blacklisted (default 3)\n"
        "  --max-restarts N      per-shard restart budget "
        "(default 50)\n"
        "  --backoff-ms N        restart backoff base (default 20)\n"
        "  --backoff-cap-ms N    restart backoff ceiling "
        "(default 2000)\n"
        "  --quiet               suppress per-event progress lines\n");
    std::exit(code);
}

} // namespace

int
main(int argc, char **argv)
{
    SupervisorOptions opts;
    int i = 1;
    for (; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             a.c_str());
                usage(2);
            }
            return argv[++i];
        };
        // A number flag takes a plain decimal (--chaos a real >= 0); any
        // other value exits 2 naming the flag.
        auto num = [&](std::uint64_t max = ~std::uint64_t{0}) {
            return parseOrExit([&] { return parseUnsigned(next(), a, max); });
        };
        if (a == "--help" || a == "-h") {
            usage(0);
        } else if (a == "--results-dir") {
            opts.resultsDir = next();
        } else if (a == "--shards") {
            opts.shards = static_cast<std::uint32_t>(num(kMaxU32));
        } else if (a == "--chaos") {
            opts.chaosKillRate =
                parseOrExit([&] { return parseReal(next(), a); });
        } else if (a == "--chaos-seed") {
            opts.chaosSeed = num();
        } else if (a == "--stall-timeout") {
            opts.stallTimeoutMs = num();
        } else if (a == "--poll") {
            opts.pollMs = num();
        } else if (a == "--quarantine-after") {
            opts.quarantineAfter = static_cast<std::uint32_t>(num(kMaxU32));
        } else if (a == "--max-restarts") {
            opts.maxRestarts = static_cast<std::uint32_t>(num(kMaxU32));
        } else if (a == "--backoff-ms") {
            opts.backoffBaseMs = num();
        } else if (a == "--backoff-cap-ms") {
            opts.backoffCapMs = num();
        } else if (a == "--quiet") {
            opts.verbose = false;
        } else if (a == "--") {
            ++i;
            break;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", a.c_str());
            usage(2);
        }
    }
    for (; i < argc; ++i)
        opts.workerCmd.push_back(argv[i]);

    if (opts.resultsDir.empty() || opts.workerCmd.empty() ||
        opts.shards == 0) {
        std::fprintf(stderr, "--results-dir, --shards and a worker "
                             "command are required\n");
        usage(2);
    }
    if (opts.pollMs == 0)
        opts.pollMs = 1;
    if (opts.quarantineAfter == 0)
        opts.quarantineAfter = 1;

    std::error_code ec;
    std::filesystem::create_directories(opts.resultsDir, ec);
    if (ec) {
        std::fprintf(stderr, "cannot create %s: %s\n",
                     opts.resultsDir.c_str(), ec.message().c_str());
        return 1;
    }

    Supervisor sup(opts);
    const int rc = sup.run();

    std::printf("[swarm] %zu worker death(s), %zu point(s) "
                "quarantined, exit %d\n",
                sup.failures().size(), sup.quarantine().size(), rc);
    for (const QuarantineRecord &q : sup.quarantine())
        std::printf("[swarm] quarantined: %s %s/%s (%u deaths): %s\n",
                    digestHex(q.hash).c_str(), q.arch.c_str(),
                    q.workload.c_str(), q.deaths, q.error.c_str());
    return rc;
}
