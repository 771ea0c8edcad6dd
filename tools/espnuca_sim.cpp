/**
 * @file
 * espnuca-sim: command-line front end to the simulator.
 *
 *   espnuca-sim --arch esp-nuca --workload apache --ops 100000
 *   espnuca-sim --arch shared --workload CG --runs 3 --json
 *   espnuca-sim --list-archs
 *   espnuca-sim --list-workloads
 *   espnuca-sim --arch esp-nuca --workload oltp --record-trace /tmp/t
 *   espnuca-sim --arch private --replay-trace /tmp/t --cores 8
 *
 * usage() below is the one list of options (`--help` prints it);
 * options also accept the --opt=value spelling.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/parse_num.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "harness/report.hpp"
#include "harness/sweep.hpp"
#include "harness/system.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_buffer.hpp"
#include "workload/trace_file.hpp"

using namespace espnuca;

namespace {

struct Options
{
    std::string arch = "esp-nuca";
    std::string workload = "apache";
    std::uint64_t ops = 100'000;
    std::uint64_t seed = 1;
    std::uint32_t runs = 1;
    std::uint32_t jobs = 0; //!< 0 = ESPNUCA_JOBS / hardware default
    double warmup = 0.5;
    bool json = false;
    bool csv = false;
    bool stats = false;
    std::string recordTrace;
    std::string replayTrace;
    std::string faultPlan;
    std::uint32_t retries = 1; //!< attempts per run
    std::string checkpointDir; //!< warmup snapshot cache ("" = legacy)
    bool listPoints = false;   //!< print run identities, no simulation
    bool haveShard = false;
    ShardSpec shard;           //!< own only runs hashing into this shard
    std::string heartbeatPath; //!< supervised liveness file ("" = none)
    std::string traceOut;      //!< Perfetto trace path ("" = untraced)
    std::uint8_t traceMask = obs::kCatAll;
    Cycle metricsInterval = 0; //!< 0 = no epoch telemetry
    bool prof = false;
    SystemConfig system;
};

[[noreturn]] void
usage(int code)
{
    std::printf(
        "usage: espnuca-sim [options]\n"
        "  --arch NAME          architecture (see --list-archs)\n"
        "  --workload NAME      Table 1 preset (see --list-workloads)\n"
        "  --ops N              memory references per core\n"
        "  --seed N             base seed\n"
        "  --runs N             seeded repetitions (reports each run)\n"
        "  --jobs N             worker threads for multi-run mode\n"
        "                       (default ESPNUCA_JOBS or all cores)\n"
        "  --warmup F           warmup fraction before stats [0,1)\n"
        "  --json | --csv       machine-readable output\n"
        "  --stats              dump per-component statistics\n"
        "  --record-trace DIR   capture the generated streams to DIR\n"
        "  --replay-trace DIR   replay core<N>.trace files from DIR\n"
        "  --fault-plan SPEC    inject faults, e.g.\n"
        "                       'bank=3;ways=*:0x3;link=0:e:0:5000:4'\n"
        "  --watchdog N         fail after N cycles without progress\n"
        "  --max-cycles N       absolute simulated-cycle ceiling\n"
        "  --retries N          attempts per run before failing it\n"
        "  --checkpoint DIR     cache warmup snapshots under DIR and\n"
        "                       fast-forward runs that hit the cache\n"
        "                       (phased warmup mode)\n"
        "  --shard i/N          execute only the seeded runs whose\n"
        "                       stable hash lands in shard i of N\n"
        "  --list-points        print every run's point hash, shard\n"
        "                       owner and identity; simulate nothing\n"
        "  --heartbeat FILE     rewrite FILE around every run so a\n"
        "                       supervisor (espnuca-swarm) can detect\n"
        "                       stalls and attribute crashes\n"
        "  --trace-out FILE     write a Chrome/Perfetto trace of run 0\n"
        "  --trace-filter W     trace categories: all | tx | bank | core\n"
        "  --metrics-interval N sample epoch telemetry every N cycles\n"
        "  --prof               collect wall-clock self-profiling\n"
        "  --l2-mb N --banks N --ways N --mem-latency N --cores N\n"
        "  --window N --mshrs N --d N\n"
        "  --mesh CxR           mesh grid dimensions (default: let the\n"
        "                       placement builder derive them)\n"
        "  --placement SPEC     core/bank/controller placement:\n"
        "                       paper-4x3 | tiled | @FILE with an\n"
        "                       espnuca-placement-v1 map (e.g. from\n"
        "                       espnuca-place)\n"
        "  --list-archs, --list-workloads, --help\n");
    std::exit(code);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        // --opt=value spelling: split at the first '='.
        std::string inlineVal;
        bool hasInline = false;
        if (a.size() > 2 && a[0] == '-' && a[1] == '-') {
            const std::size_t eq = a.find('=');
            if (eq != std::string::npos) {
                inlineVal = a.substr(eq + 1);
                a.erase(eq);
                hasInline = true;
            }
        }
        auto next = [&]() -> const char * {
            if (hasInline)
                return inlineVal.c_str();
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             a.c_str());
                usage(2);
            }
            return argv[++i];
        };
        // A number flag takes a plain decimal in its field's range; any
        // other value exits 2 naming the flag.
        auto num = [&](std::uint64_t max = kMaxU32) {
            return parseOrExit([&] { return parseUnsigned(next(), a, max); });
        };
        if (a == "--help" || a == "-h") {
            usage(0);
        } else if (a == "--list-archs") {
            for (const char *n :
                 {"shared", "private", "sp-nuca", "sp-nuca-static",
                  "sp-nuca-shadow", "esp-nuca", "esp-nuca-flat",
                  "d-nuca", "asr", "cc-0", "cc-30", "cc-70", "cc-100"})
                std::printf("%s\n", n);
            std::exit(0);
        } else if (a == "--list-workloads") {
            for (const auto &w : allWorkloads())
                std::printf("%s\n", w.c_str());
            std::exit(0);
        } else if (a == "--arch") {
            o.arch = next();
        } else if (a == "--workload") {
            o.workload = next();
        } else if (a == "--ops") {
            o.ops = num(~std::uint64_t{0});
        } else if (a == "--seed") {
            o.seed = num(~std::uint64_t{0});
        } else if (a == "--runs") {
            o.runs = static_cast<std::uint32_t>(num());
        } else if (a == "--jobs") {
            o.jobs = static_cast<std::uint32_t>(num());
        } else if (a == "--warmup") {
            o.warmup = parseOrExit([&] { return parseReal(next(), a, 1.0); });
        } else if (a == "--json") {
            o.json = true;
        } else if (a == "--stats") {
            o.stats = true;
        } else if (a == "--csv") {
            o.csv = true;
        } else if (a == "--record-trace") {
            o.recordTrace = next();
        } else if (a == "--replay-trace") {
            o.replayTrace = next();
        } else if (a == "--fault-plan") {
            o.faultPlan = next();
        } else if (a == "--watchdog") {
            o.system.watchdogStallCycles = num(~std::uint64_t{0});
        } else if (a == "--max-cycles") {
            o.system.watchdogMaxCycles = num(~std::uint64_t{0});
        } else if (a == "--retries") {
            o.retries = static_cast<std::uint32_t>(num());
        } else if (a == "--checkpoint") {
            o.checkpointDir = next();
        } else if (a == "--shard") {
            try {
                o.shard = ShardSpec::parse(next());
                o.haveShard = true;
            } catch (const std::exception &e) {
                std::fprintf(stderr, "%s\n", e.what());
                usage(2);
            }
        } else if (a == "--list-points") {
            o.listPoints = true;
        } else if (a == "--heartbeat") {
            o.heartbeatPath = next();
        } else if (a == "--trace-out") {
            o.traceOut = next();
        } else if (a == "--trace-filter") {
            const std::string w = next();
            if (!obs::parseTraceFilter(w, o.traceMask)) {
                std::fprintf(stderr, "unknown trace filter: %s\n",
                             w.c_str());
                usage(2);
            }
        } else if (a == "--metrics-interval") {
            o.metricsInterval = num(~std::uint64_t{0});
        } else if (a == "--prof") {
            o.prof = true;
        } else if (a == "--l2-mb") {
            o.system.l2SizeBytes = num(~std::uint64_t{0} >> 20) << 20;
        } else if (a == "--banks") {
            o.system.l2Banks = static_cast<std::uint32_t>(num());
        } else if (a == "--ways") {
            o.system.l2Ways = static_cast<std::uint32_t>(num());
        } else if (a == "--mem-latency") {
            o.system.memLatency = num(~std::uint64_t{0});
        } else if (a == "--cores") {
            o.system.numCores = static_cast<std::uint32_t>(num());
        } else if (a == "--window") {
            o.system.windowSize = static_cast<std::uint32_t>(num());
        } else if (a == "--mshrs") {
            o.system.maxOutstanding = static_cast<std::uint32_t>(num());
        } else if (a == "--d") {
            o.system.degradationShift = static_cast<std::uint32_t>(num());
        } else if (a == "--mesh") {
            std::tie(o.system.meshCols, o.system.meshRows) =
                parseOrExit([&] { return parseGrid(next(), a); });
        } else if (a == "--placement") {
            std::string v = next();
            if (!v.empty() && v[0] == '@') {
                // Inline the file's content: the config (and every
                // digest derived from it) must cover the map itself,
                // not a path that may point at different bytes later.
                std::ifstream in(v.substr(1));
                if (!in) {
                    std::fprintf(stderr,
                                 "--placement: cannot open %s\n",
                                 v.c_str() + 1);
                    std::exit(2);
                }
                std::ostringstream ss;
                ss << in.rdbuf();
                v = ss.str();
            }
            o.system.placement = v;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", a.c_str());
            usage(2);
        }
    }
    // Structured diagnosis instead of an assert mid-construction: name
    // the offending knob for arithmetic inconsistencies (validate())
    // and for placement-content errors (forConfig()).
    const std::string err = o.system.validate();
    if (!err.empty()) {
        std::fprintf(stderr, "inconsistent system configuration: %s\n",
                     err.c_str());
        std::exit(2);
    }
    try {
        (void)PlacementMap::forConfig(o.system);
    } catch (const PlacementError &e) {
        std::fprintf(stderr, "inconsistent system configuration: %s\n",
                     e.what());
        std::exit(2);
    }
    // The phased (--checkpoint) path builds its System internally and
    // has no trace or recording hook: refuse instead of silently
    // writing nothing.
    const char *unhooked = !o.traceOut.empty()      ? "--trace-out"
                           : !o.recordTrace.empty() ? "--record-trace"
                                                    : nullptr;
    if (!o.checkpointDir.empty() && unhooked != nullptr) {
        std::fprintf(stderr, "--checkpoint cannot be combined with %s\n",
                     unhooked);
        usage(2);
    }
    // --record-trace writes core<N>.trace files into an existing
    // directory.
    if (!o.recordTrace.empty() &&
        !std::filesystem::is_directory(o.recordTrace)) {
        std::fprintf(stderr, "--record-trace: %s is not a directory\n",
                     o.recordTrace.c_str());
        std::exit(2);
    }
    // A replay with nothing to replay (missing or empty directory)
    // would "succeed" with all-zero statistics.
    if (!o.replayTrace.empty()) {
        bool any = false;
        for (CoreId c = 0; c < o.system.numCores && !any; ++c)
            any = std::ifstream(o.replayTrace + "/core" +
                                std::to_string(c) + ".trace")
                      .good();
        if (!any) {
            std::fprintf(stderr,
                         "--replay-trace: no core<N>.trace file in %s\n",
                         o.replayTrace.c_str());
            std::exit(2);
        }
    }
    return o;
}

/** Experiment-level view of the CLI options (digest, checkpoint key). */
ExperimentConfig
cliConfig(const Options &o)
{
    ExperimentConfig cfg;
    cfg.system = o.system;
    cfg.opsPerCore = o.ops;
    cfg.runs = o.runs;
    cfg.baseSeed = o.seed;
    cfg.warmupFraction = o.warmup;
    cfg.faultPlan = o.faultPlan;
    cfg.maxAttempts = o.retries;
    cfg.checkpointDir = o.checkpointDir;
    return cfg;
}

/** Stable identity of seeded run r: arch x workload x seed x config —
 *  the same partitioning scheme the bench sweep engine uses, applied
 *  at the granularity espnuca-sim works at (individual runs). */
std::uint64_t
runHash(const Options &o, std::uint32_t r)
{
    const ExperimentConfig cfg = cliConfig(o);
    SnapshotWriter w;
    w.str(o.arch);
    w.str(o.workload);
    w.u64(cfg.seedOf(r));
    w.u64(experimentConfigDigest(cfg));
    // Finalized like pointHash(): raw FNV-1a parity is too structured
    // for `hash % N` shard assignment (see sweep.hpp).
    return splitmix64(fnv1a(w.bytes().data(), w.bytes().size()));
}

/**
 * Arm the observability hooks, run, and drain the trace. `traced` is
 * true only for the first repetition — one trace file per invocation.
 */
RunResult
runSystem(const Options &o, System &sys, bool traced)
{
    if (o.metricsInterval > 0)
        sys.enableMetrics(o.metricsInterval);
    if (traced)
        sys.enableTracing(o.traceMask);
    RunResult r = sys.run();
    if (traced)
        sys.exportTrace(o.traceOut);
    if (o.stats)
        sys.reportStats(std::cout, r);
    return r;
}

RunResult
runOnce(const Options &o, std::uint64_t seed, const FaultPlan *plan,
        bool traced)
{
    const SystemConfig &cfg = o.system;
    if (!o.replayTrace.empty()) {
        std::vector<std::unique_ptr<TraceSource>> sources(cfg.numCores);
        std::uint64_t total = 0;
        for (CoreId c = 0; c < cfg.numCores; ++c) {
            const std::string path =
                o.replayTrace + "/core" + std::to_string(c) + ".trace";
            std::ifstream probe(path);
            if (probe.good()) {
                sources[c] = std::make_unique<FileTraceSource>(path);
                total += o.ops; // upper bound for the warmup threshold
            }
        }
        System sys(cfg, o.arch, "replay:" + o.replayTrace,
                   std::move(sources), seed, o.warmup, total, plan);
        return runSystem(o, sys, traced);
    }

    if (!o.checkpointDir.empty()) {
        // Phased warmup with snapshot fast-forward: the warmup prefix
        // runs (or restores) as its own drained epoch, so the System is
        // built internally and runSystem's observability hooks don't
        // apply; --stats still works through the phased stats dump.
        std::string stats;
        const RunResult r = simulatePhased(
            cfg, o.arch, o.workload, o.ops, seed, o.warmup, plan,
            checkpointPath(cliConfig(o), o.arch, o.workload, seed),
            nullptr, o.stats ? &stats : nullptr, o.metricsInterval);
        if (o.stats)
            std::cout << stats;
        return r;
    }

    const Workload wl = makeWorkload(o.workload, cfg, o.ops, seed);
    if (!o.recordTrace.empty()) {
        auto sources = syntheticSources(cfg, wl, seed);
        std::uint64_t total = 0;
        for (CoreId c = 0; c < cfg.numCores; ++c) {
            if (!sources[c])
                continue;
            total += wl.cores[c].ops;
            sources[c] = std::make_unique<RecordingSource>(
                std::move(sources[c]),
                o.recordTrace + "/core" + std::to_string(c) + ".trace");
        }
        System sys(cfg, o.arch, wl.name, std::move(sources), seed,
                   o.warmup, total, plan);
        return runSystem(o, sys, traced);
    }

    System sys(cfg, o.arch, wl, seed, o.warmup, plan);
    return runSystem(o, sys, traced);
}

/**
 * One crash-isolated CLI run: retry with a fresh seed-derived stream up
 * to o.retries times (ExperimentConfig::seedOf), then surface the final
 * failure as data. A malformed replay trace is bad input, not a failed
 * run: its TraceFormatError propagates, and main exits 2.
 */
RunOutcome
attemptCli(const Options &o, std::uint32_t r, const FaultPlan *plan)
{
    RunOutcome out;
    const bool traced = !o.traceOut.empty() && r == 0;
    const std::uint32_t tries = o.retries == 0 ? 1 : o.retries;
    const ExperimentConfig cfg = cliConfig(o);
    for (std::uint32_t a = 0; a < tries; ++a) {
        const std::uint64_t seed = cfg.seedOf(r, a);
        try {
            out.result = runOnce(o, seed, plan, traced);
            return out;
        } catch (const TraceFormatError &) {
            throw; // bad input: every retry reads the same file
        } catch (const std::exception &e) {
            out.failure = RunFailure{r, seed, a + 1, e.what()};
        }
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);

    std::optional<FaultPlan> plan;
    if (!o.faultPlan.empty()) {
        try {
            plan = FaultPlan::parse(o.faultPlan);
            plan->validate(o.system);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 2;
        }
    }
    const FaultPlan *planPtr = plan ? &*plan : nullptr;

    const std::uint32_t shardCount = o.haveShard ? o.shard.count : 1;
    const std::uint32_t shardIndex = o.haveShard ? o.shard.index : 0;

    if (o.listPoints) {
        std::printf("%-16s %5s %4s %12s  %s\n", "hash", "shard", "run",
                    "seed", "config_digest");
        const ExperimentConfig cfg = cliConfig(o);
        std::size_t mine = 0;
        for (std::uint32_t r = 0; r < o.runs; ++r) {
            const std::uint64_t h = runHash(o, r);
            const auto owner = static_cast<std::uint32_t>(h % shardCount);
            if (owner == shardIndex)
                ++mine;
            std::printf("%s %5u %4u %12llu  %s\n",
                        digestHex(h).c_str(), owner, r,
                        static_cast<unsigned long long>(cfg.seedOf(r)),
                        digestHex(experimentConfigDigest(cfg)).c_str());
        }
        std::printf("%u run(s)", o.runs);
        if (o.haveShard)
            std::printf(", %zu in shard %u/%u", mine, shardIndex,
                        shardCount);
        std::printf("; build %s\n", buildDescribe().c_str());
        return 0;
    }

    // Stable shard partition over the seeded runs: every shard walks
    // the same hashes, so N shards cover each run exactly once.
    std::vector<std::uint32_t> selected;
    selected.reserve(o.runs);
    for (std::uint32_t r = 0; r < o.runs; ++r)
        if (!o.haveShard || runHash(o, r) % shardCount == shardIndex)
            selected.push_back(r);

    if (o.prof)
        obs::setProfiling(true);

    if (o.csv)
        std::printf("%s\n", csvHeader().c_str());
    JsonWriter json;
    if (o.json) {
        // --prof wraps the legacy run array in {"runs": ..., "prof": ...};
        // without it the output shape is unchanged.
        if (o.prof) {
            json.beginObject();
            json.key("runs");
        }
        json.beginArray();
    }

    // Multi-run mode fans the seeds across a worker pool; results are
    // reported in seed order, so the output matches a serial sweep.
    // Trace recording, lifecycle tracing and stats dumps write as they
    // run, so those modes stay serial.
    const std::uint32_t jobs =
        o.jobs != 0 ? o.jobs : ThreadPool::defaultJobs();
    const bool parallel = jobs > 1 && selected.size() > 1 && !o.stats &&
                          o.recordTrace.empty() && o.traceOut.empty();
    std::optional<ThreadPool> pool;
    std::vector<std::future<RunOutcome>> futs;
    if (parallel) {
        pool.emplace(jobs);
        futs.reserve(selected.size());
        for (const std::uint32_t r : selected)
            futs.push_back(pool->submit(
                [&o, r, planPtr]() { return attemptCli(o, r, planPtr); }));
    }

    Heartbeat hb;
    hb.total = selected.size();
    hb.arch = o.arch;
    hb.workload = o.workload;
    hb.state = "start";
    writeHeartbeat(o.heartbeatPath, hb);

    RunningStats thr;
    std::uint32_t failed = 0;
    for (std::size_t k = 0; k < selected.size(); ++k) {
        const std::uint32_t r = selected[k];
        hb.state = "run-start";
        hb.pointHash = runHash(o, r);
        hb.index = r;
        writeHeartbeat(o.heartbeatPath, hb);
        RunOutcome out;
        try {
            out = parallel ? futs[k].get() : attemptCli(o, r, planPtr);
        } catch (const TraceFormatError &e) {
            std::fprintf(stderr, "--replay-trace: %s\n", e.what());
            return 2;
        }
        ++hb.done;
        hb.state = "run-done";
        writeHeartbeat(o.heartbeatPath, hb);
        if (!out.result) {
            ++failed;
            const RunFailure &f = out.failure;
            if (o.json) {
                json.beginObject();
                json.field("run", static_cast<std::uint64_t>(f.runIndex));
                json.field("seed", f.seed);
                json.field("attempts",
                           static_cast<std::uint64_t>(f.attempts));
                json.field("error", f.error);
                json.endObject();
            } else {
                std::fprintf(stderr,
                             "run %u FAILED after %u attempt(s): %s\n", r,
                             f.attempts, f.error.c_str());
            }
            continue;
        }
        const RunResult &res = *out.result;
        thr.record(res.throughput);
        if (o.json) {
            writeRunJson(json, res);
        } else if (o.csv) {
            std::printf("%s\n", runToCsv(res).c_str());
        } else {
            std::printf("run %u: arch=%s workload=%s throughput=%.3f "
                        "avgIpc=%.3f accessTime=%.2f offchip=%llu\n",
                        r, res.arch.c_str(), res.workload.c_str(),
                        res.throughput, res.avgIpc, res.avgAccessTime,
                        static_cast<unsigned long long>(
                            res.offChipAccesses));
        }
    }
    hb.state = "shard-done";
    hb.pointHash = 0;
    writeHeartbeat(o.heartbeatPath, hb);
    StatsRegistry profReg;
    if (o.prof)
        obs::ProfRegistry::instance().collect(profReg);
    if (o.json) {
        json.endArray();
        if (o.prof) {
            json.key("prof");
            json.beginObject();
            for (const auto &[name, c] : profReg.counters())
                json.field(name, c.value());
            json.endObject();
            json.endObject();
        }
        std::printf("%s\n", json.str().c_str());
    } else if (!o.csv && selected.size() > 1) {
        std::printf("throughput mean=%.3f ci95=%.3f over %zu runs\n",
                    thr.mean(), thr.ci95(), selected.size());
    }
    // With --stats every per-run dump already carries the prof.* lines.
    if (o.prof && !o.json && !o.stats) {
        std::ostringstream os;
        profReg.dump(os);
        std::printf("%s", os.str().c_str());
    }
    return failed == 0 ? 0 : 1;
}
