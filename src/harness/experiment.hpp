/**
 * @file
 * Experiment runner: repeats each (architecture, workload) data point
 * over several seeded runs with workload perturbation, reports mean and
 * 95 % confidence interval (paper Section 4.2), and provides the
 * normalization and table-printing helpers the figure benches share.
 *
 * Because every simulate() call is an independent, seed-deterministic
 * unit, the harness also offers a parallel runner: (arch, workload,
 * seed) triples fan out across a ThreadPool and the per-run results are
 * folded back into RunningStats in deterministic seed order, so the
 * parallel statistics are bit-identical to the serial ones.
 */

#ifndef ESPNUCA_HARNESS_EXPERIMENT_HPP_
#define ESPNUCA_HARNESS_EXPERIMENT_HPP_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/parse_num.hpp"
#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "common/thread_pool.hpp"
#include "fault/fault_plan.hpp"
#include "harness/ledger.hpp"
#include "harness/system.hpp"
#include "obs/profiler.hpp"
#include "stats/running_stats.hpp"

namespace espnuca {

/** A seeded run that failed every attempt (crash-isolated harness). */
struct RunFailure
{
    std::uint32_t runIndex = 0; //!< repetition r within the point
    std::uint64_t seed = 0;     //!< seed of the final failed attempt
    std::uint32_t attempts = 0; //!< attempts consumed (>= 1)
    std::string error;          //!< what() of the final failure
};

/** Aggregated outcome of several seeded runs of one data point. */
struct DataPoint
{
    std::string arch;
    std::string workload;
    /** Point key when it differs from the default arch/workload key —
     *  labels custom-config grids (e.g. fig11's "esp-nuca@32c") in
     *  bench documents. Empty for default-keyed points. */
    std::string key;
    RunningStats throughput;
    RunningStats avgIpc;
    RunningStats avgAccessTime;
    RunningStats onChipLatency;
    RunningStats offChip;
    std::array<RunningStats,
               static_cast<std::size_t>(ServiceLevel::kNumLevels)>
        levelContribution;
    RunResult lastRun; //!< one representative run (diagnostics)
    std::vector<RunFailure> failures; //!< runs that exhausted retries
};

/** Experiment configuration shared by the benches. */
struct ExperimentConfig
{
    SystemConfig system;
    std::uint64_t opsPerCore = 60'000;
    std::uint32_t runs = 3;
    std::uint64_t baseSeed = 12345;
    double warmupFraction = 0.5; //!< cache warmup before stats start
    std::uint32_t jobs = 0;      //!< worker threads; 0 = auto

    // -- Fault isolation ----------------------------------------------
    std::string faultPlan;          //!< FaultPlan::parse spec ("" = none)
    std::uint32_t maxAttempts = 2;  //!< tries per run before PointFailure
    std::uint32_t retryBackoffMs = 0; //!< wall-clock pause between tries

    // -- Warmup checkpointing ------------------------------------------
    /**
     * When non-empty, runs execute in the phased warmup mode
     * (simulatePhased) and cache their warmup-boundary snapshots under
     * this directory, keyed by snapshot identity: re-running a point —
     * or any point sharing its (arch, workload, seed, warmup, config,
     * fault) prefix — fast-forwards past the entire warmup. Phased
     * results are self-consistent but not identical to the default
     * continuous-warmup results, so this is strictly opt-in.
     */
    std::string checkpointDir;

    /**
     * Benches honor four environment knobs so the default sweep over
     * every bench binary stays fast while full-fidelity runs remain a
     * single export away:
     *   ESPNUCA_OPS      — references per core (default per bench)
     *   ESPNUCA_RUNS     — seeded runs per data point
     *   ESPNUCA_JOBS     — worker threads for the parallel runner
     *                      (default: hardware concurrency; 1 = serial)
     *   ESPNUCA_CKPT_DIR — warmup checkpoint cache directory (phased
     *                      run mode; empty = legacy continuous warmup)
     * plus two layout knobs mirroring espnuca-sim's --mesh/--placement
     * (both alter the config digest, so sweeps under different layouts
     * never merge):
     *   ESPNUCA_MESH      — mesh dimensions as CxR
     *   ESPNUCA_PLACEMENT — builder name or espnuca-placement-v1 text
     * A number knob that is not a plain decimal in its field's range
     * prints a NumberError naming the variable and exits 2.
     */
    static ExperimentConfig
    fromEnv(std::uint64_t default_ops = 60'000,
            std::uint32_t default_runs = 3)
    {
        ExperimentConfig e;
        e.opsPerCore = default_ops;
        e.runs = default_runs;
        parseOrExit([&e] {
            if (const char *s = std::getenv("ESPNUCA_OPS"))
                e.opsPerCore = parseUnsigned(s, "ESPNUCA_OPS");
            if (const char *s = std::getenv("ESPNUCA_RUNS"))
                e.runs = static_cast<std::uint32_t>(
                    parseUnsigned(s, "ESPNUCA_RUNS", kMaxU32));
            if (const char *s = std::getenv("ESPNUCA_MESH"))
                std::tie(e.system.meshCols, e.system.meshRows) =
                    parseGrid(s, "ESPNUCA_MESH");
        });
        if (const char *s = std::getenv("ESPNUCA_CKPT_DIR"))
            e.checkpointDir = s;
        if (const char *s = std::getenv("ESPNUCA_PLACEMENT"))
            e.system.placement = s;
        return e;
    }

    /** Worker count after resolving `jobs == 0` against the env. */
    std::uint32_t
    resolveJobs() const
    {
        return jobs != 0 ? jobs : ThreadPool::defaultJobs();
    }

    /** Seed of repetition `r` (shared by every runner). */
    std::uint64_t
    seedOf(std::uint32_t r) const
    {
        return baseSeed + r * 7919;
    }

    /**
     * Seed of attempt `attempt` of repetition `r`. Attempt 0 is exactly
     * the legacy seedOf(r) — a run that succeeds first try is
     * bit-identical whether or not retries are enabled. Retries draw a
     * fresh SplitMix64-derived stream so a seed-correlated crash is not
     * simply replayed, while staying a pure function of (baseSeed, r,
     * attempt) for reproducibility.
     */
    std::uint64_t
    seedOf(std::uint32_t r, std::uint32_t attempt) const
    {
        const std::uint64_t base = seedOf(r);
        return attempt == 0
            ? base
            : splitmix64(base ^ (0x9E3779B97F4A7C15ULL * attempt));
    }
};

/**
 * Digest of every result-affecting experiment knob (field order is part
 * of the identity). Worker count and retry pacing affect scheduling
 * only, never results, and are excluded — a sweep sharded across
 * processes with different -j merges cleanly. The checkpoint directory
 * path is likewise excluded, but whether phased warmup is enabled at
 * all is included: phased and continuous warmup produce different
 * (each self-consistent) results.
 */
inline std::uint64_t
experimentConfigDigest(const ExperimentConfig &cfg)
{
    SnapshotWriter w;
    w.u64(systemConfigDigest(cfg.system));
    w.u64(cfg.opsPerCore);
    w.u32(cfg.runs);
    w.u64(cfg.baseSeed);
    w.f64(cfg.warmupFraction);
    w.str(cfg.faultPlan);
    w.u32(cfg.maxAttempts);
    w.b(!cfg.checkpointDir.empty());
    return fnv1a(w.bytes().data(), w.bytes().size());
}

/**
 * Warmup-checkpoint cache file for one seeded run. The name is only a
 * cache key — simulatePhased still validates the full identity header,
 * so a colliding or stale file degrades to a cold run, never a wrong
 * one. Creates the cache directory on first use.
 */
inline std::string
checkpointPath(const ExperimentConfig &cfg, const std::string &arch,
               const std::string &workload, std::uint64_t seed)
{
    std::error_code ec;
    std::filesystem::create_directories(cfg.checkpointDir, ec);
    SnapshotWriter w;
    w.str(arch);
    w.str(workload);
    w.u64(seed);
    w.u64(cfg.opsPerCore);
    w.f64(cfg.warmupFraction);
    w.u64(systemConfigDigest(cfg.system));
    w.str(cfg.faultPlan);
    const std::uint64_t h = fnv1a(w.bytes().data(), w.bytes().size());
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(h));
    return cfg.checkpointDir + "/" + hex + ".ckpt";
}

/** Outcome of one crash-isolated seeded run: a result or a failure. */
struct RunOutcome
{
    std::optional<RunResult> result; //!< engaged on success
    RunFailure failure;              //!< meaningful when !result
};

/**
 * One seeded run with fault isolation: a throwing or watchdog-tripped
 * attempt is retried (bounded backoff, fresh seed-derived stream) up to
 * cfg.maxAttempts times, then reported as a structured RunFailure so
 * the rest of the experiment matrix completes. Never throws — every
 * failure mode becomes data. Attempt 0 uses the legacy seedOf(r), so
 * successful runs are bit-identical to the pre-retry harness.
 */
inline RunOutcome
attemptRun(const ExperimentConfig &cfg, const std::string &arch,
           const std::string &workload, std::uint32_t r)
{
    ESP_PROF_SCOPE("harness.attempt");
    RunOutcome out;
    std::optional<FaultPlan> plan;
    try {
        if (!cfg.faultPlan.empty())
            plan = FaultPlan::parse(cfg.faultPlan);
    } catch (const std::exception &e) {
        out.failure = RunFailure{r, cfg.seedOf(r), 0, e.what()};
        return out;
    }
    const std::uint32_t tries = cfg.maxAttempts == 0 ? 1 : cfg.maxAttempts;
    for (std::uint32_t a = 0; a < tries; ++a) {
        if (a > 0 && cfg.retryBackoffMs > 0) {
            // Bounded exponential backoff: backoff * 2^(a-1), <= 1 s.
            const std::uint64_t ms =
                std::min<std::uint64_t>(
                    static_cast<std::uint64_t>(cfg.retryBackoffMs)
                        << (a - 1),
                    1000);
            std::this_thread::sleep_for(std::chrono::milliseconds(ms));
        }
        const std::uint64_t seed = cfg.seedOf(r, a);
        try {
            if (cfg.checkpointDir.empty()) {
                out.result = simulate(cfg.system, arch, workload,
                                      cfg.opsPerCore, seed,
                                      cfg.warmupFraction,
                                      plan ? &*plan : nullptr);
            } else {
                out.result = simulatePhased(
                    cfg.system, arch, workload, cfg.opsPerCore, seed,
                    cfg.warmupFraction, plan ? &*plan : nullptr,
                    checkpointPath(cfg, arch, workload, seed));
            }
            return out;
        } catch (const WatchdogError &e) {
            // A tripped watchdog is a first-class ledger event: fleet
            // tooling watches for these, not generic retries.
            RunLedger::process().event("watchdog-fire", a + 1, e.what());
            out.failure = RunFailure{r, seed, a + 1, e.what()};
        } catch (const std::exception &e) {
            out.failure = RunFailure{r, seed, a + 1, e.what()};
        }
        if (a + 1 < tries)
            RunLedger::process().event("run-retry", a + 1,
                                       out.failure.error);
    }
    return out;
}

/**
 * Fold crash-isolated outcomes into a data point: successes aggregate
 * into the statistics (in the order given — keep it the seed order),
 * exhausted runs land in DataPoint::failures.
 */
inline DataPoint
foldOutcomes(const std::string &arch, const std::string &workload,
             const std::vector<RunOutcome> &outcomes)
{
    ESP_PROF_SCOPE("harness.fold");
    DataPoint p;
    p.arch = arch;
    p.workload = workload;
    for (const RunOutcome &o : outcomes) {
        if (!o.result) {
            p.failures.push_back(o.failure);
            continue;
        }
        const RunResult &res = *o.result;
        p.throughput.record(res.throughput);
        p.avgIpc.record(res.avgIpc);
        p.avgAccessTime.record(res.avgAccessTime);
        p.onChipLatency.record(res.onChipLatency);
        p.offChip.record(static_cast<double>(res.offChipAccesses));
        for (std::size_t i = 0; i < p.levelContribution.size(); ++i)
            p.levelContribution[i].record(res.levelContribution[i]);
        p.lastRun = res;
    }
    return p;
}

/** Run one data point over the configured seeds, serially. */
inline DataPoint
runPoint(const ExperimentConfig &cfg, const std::string &arch,
         const std::string &workload)
{
    std::vector<RunOutcome> outs;
    outs.reserve(cfg.runs);
    for (std::uint32_t r = 0; r < cfg.runs; ++r)
        outs.push_back(attemptRun(cfg, arch, workload, r));
    return foldOutcomes(arch, workload, outs);
}

/**
 * Run one data point with the seeded repetitions fanned out over a
 * thread pool. Results are harvested in seed order, so the returned
 * statistics are bit-identical to runPoint's. With one job (or one
 * run) this falls back to the serial path — no pool, no threads.
 *
 * @param pool optional externally owned pool (shared across points);
 *        when null a pool of cfg.resolveJobs() workers is created
 */
inline DataPoint
runPointParallel(const ExperimentConfig &cfg, const std::string &arch,
                 const std::string &workload, ThreadPool *pool = nullptr)
{
    const std::uint32_t jobs = pool ? pool->size() : cfg.resolveJobs();
    if (jobs <= 1 || cfg.runs <= 1)
        return runPoint(cfg, arch, workload);
    std::optional<ThreadPool> owned;
    if (pool == nullptr) {
        owned.emplace(jobs);
        pool = &*owned;
    }
    std::vector<std::future<RunOutcome>> futs;
    futs.reserve(cfg.runs);
    const ExperimentConfig copy = cfg; // workers outlive caller scope
    for (std::uint32_t r = 0; r < cfg.runs; ++r) {
        futs.push_back(pool->submit([copy, arch, workload, r]() {
            return attemptRun(copy, arch, workload, r);
        }));
    }
    std::vector<RunOutcome> outs;
    outs.reserve(cfg.runs);
    for (auto &f : futs)
        outs.push_back(f.get()); // seed order; attemptRun never throws
    return foldOutcomes(arch, workload, outs);
}

/**
 * A batch of (arch, workload) data points executed together. Benches
 * declare every point they will read up front, call run() once — which
 * fans all (point, seed) pairs across the worker pool — and then read
 * the aggregated points while printing their tables. Statistics are
 * bit-identical to calling runPoint per point, in any job count.
 */
class ExperimentMatrix
{
  public:
    /** One declared data point (the sweep engine iterates these). */
    struct Entry
    {
        ExperimentConfig cfg;
        std::string arch;
        std::string workload;
        std::string key;
    };

    explicit ExperimentMatrix(ExperimentConfig base)
        : base_(std::move(base))
    {
    }

    /** Declare a point under the base configuration (deduplicated). */
    void
    add(const std::string &arch, const std::string &workload)
    {
        add(base_, arch, workload, defaultKey(arch, workload));
    }

    /**
     * Declare a point under a custom configuration. `key` names the
     * point for at(); the default key is derived from arch+workload, so
     * points differing only in configuration need explicit keys.
     */
    void
    add(const ExperimentConfig &cfg, const std::string &arch,
        const std::string &workload, const std::string &key)
    {
        if (index_.count(key) != 0)
            return;
        index_[key] = entries_.size();
        entries_.push_back(Entry{cfg, arch, workload, key});
    }

    /**
     * Execute every declared point. Safe to call once; the points are
     * then immutable. With an effective job count of 1 the runs execute
     * inline (declaration-then-seed order) without any pool.
     */
    void
    run(ThreadPool *pool = nullptr)
    {
        ESP_ASSERT(points_.empty(), "matrix already ran");
        const std::uint32_t jobs =
            pool ? pool->size() : base_.resolveJobs();
        std::optional<ThreadPool> owned;
        if (pool == nullptr && jobs > 1) {
            owned.emplace(jobs);
            pool = &*owned;
        }
        // Fan out: one crash-isolated task per (point, seed); harvest
        // per point in seed order. A poisoned point records failures
        // while every other point completes. Serial fallback runs the
        // same loop inline.
        std::vector<std::vector<std::future<RunOutcome>>> futs;
        if (jobs > 1) {
            futs.resize(entries_.size());
            for (std::size_t e = 0; e < entries_.size(); ++e) {
                const Entry &en = entries_[e];
                futs[e].reserve(en.cfg.runs);
                for (std::uint32_t r = 0; r < en.cfg.runs; ++r) {
                    futs[e].push_back(pool->submit(
                        [cfg = en.cfg, arch = en.arch,
                         workload = en.workload, r]() {
                            return attemptRun(cfg, arch, workload, r);
                        }));
                }
            }
        }
        points_.reserve(entries_.size());
        for (std::size_t e = 0; e < entries_.size(); ++e) {
            const Entry &en = entries_[e];
            std::vector<RunOutcome> outs;
            outs.reserve(en.cfg.runs);
            for (std::uint32_t r = 0; r < en.cfg.runs; ++r) {
                if (jobs > 1)
                    outs.push_back(futs[e][r].get());
                else
                    outs.push_back(
                        attemptRun(en.cfg, en.arch, en.workload, r));
            }
            points_.push_back(
                foldOutcomes(en.arch, en.workload, outs));
            if (en.key != defaultKey(en.arch, en.workload))
                points_.back().key = en.key;
        }
    }

    /** Point by (arch, workload) under the default key. */
    const DataPoint &
    at(const std::string &arch, const std::string &workload) const
    {
        return at(defaultKey(arch, workload));
    }

    /** Point by explicit key. */
    const DataPoint &
    at(const std::string &key) const
    {
        ESP_ASSERT(!points_.empty(), "matrix not run yet");
        auto it = index_.find(key);
        if (it == index_.end())
            ESP_PANIC("unknown experiment point: " + key);
        return points_[it->second];
    }

    /** All points in declaration order (valid after run()). */
    const std::vector<DataPoint> &points() const { return points_; }

    /** Declared points in declaration order (valid before run()). */
    const std::vector<Entry> &entries() const { return entries_; }

    const ExperimentConfig &config() const { return base_; }

    /** The implicit key of an (arch, workload) point (unit separator —
     *  never collides with user keys). */
    static std::string
    defaultKey(const std::string &arch, const std::string &workload)
    {
        return arch + '\x1f' + workload;
    }

  private:

    ExperimentConfig base_;
    std::vector<Entry> entries_;
    std::map<std::string, std::size_t> index_;
    std::vector<DataPoint> points_;
};

/** Geometric mean over a set of per-workload values. */
inline double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x > 0.0 ? x : 1e-12);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

/** Print a standard figure header. */
inline void
printHeader(const std::string &title, const ExperimentConfig &cfg)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("ops/core=%llu runs=%u jobs=%u cores=%u L2=%lluMB banks=%u\n",
                static_cast<unsigned long long>(cfg.opsPerCore),
                cfg.runs, cfg.resolveJobs(), cfg.system.numCores,
                static_cast<unsigned long long>(
                    cfg.system.l2SizeBytes >> 20),
                cfg.system.l2Banks);
    std::printf("==============================================================\n");
}

} // namespace espnuca

#endif // ESPNUCA_HARNESS_EXPERIMENT_HPP_
