/**
 * @file
 * Full-system assembly: topology + mesh + memory controllers + coherence
 * protocol + one L2 organization + 8 trace cores, with a single run()
 * producing the metrics every figure of the paper consumes.
 */

#ifndef ESPNUCA_HARNESS_SYSTEM_HPP_
#define ESPNUCA_HARNESS_SYSTEM_HPP_

#include <array>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "arch/arch_factory.hpp"
#include "harness/ledger.hpp"
#include "harness/stats_json.hpp"
#include "stats/stats_registry.hpp"
#include "coherence/protocol.hpp"
#include "cpu/trace_core.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/watchdog.hpp"
#include "net/placement.hpp"
#include "obs/metrics_sampler.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_buffer.hpp"
#include "obs/trace_export.hpp"
#include "workload/presets.hpp"
#include "workload/trace_gen.hpp"

namespace espnuca {

/** Outcome of one simulated run. */
struct RunResult
{
    std::string arch;
    std::string workload;
    Cycle cycles = 0;              //!< makespan (all active cores done)
    std::uint64_t instructions = 0;
    std::uint64_t memOps = 0;
    double throughput = 0.0;       //!< instructions / makespan cycle
    double avgIpc = 0.0;           //!< mean per-core IPC (active cores)

    // Access-time decomposition (Figure 6): average cycles per memory
    // reference contributed by each service level.
    std::array<double, static_cast<std::size_t>(ServiceLevel::kNumLevels)>
        levelContribution{};
    std::array<std::uint64_t,
               static_cast<std::size_t>(ServiceLevel::kNumLevels)>
        levelCounts{};
    double avgAccessTime = 0.0;    //!< sum of the contributions

    // Figure 7 metrics.
    std::uint64_t offChipAccesses = 0;
    double onChipLatency = 0.0;

    // Diagnostics.
    std::uint64_t l2DemandAccesses = 0;
    std::uint64_t l2DemandHits = 0;
    std::uint64_t networkFlits = 0;
    std::uint64_t privatizations = 0;
    double meanNmax = 0.0;         //!< ESP-NUCA only

    /** Epoch telemetry (empty unless a MetricsSampler was enabled). */
    std::vector<obs::MetricsSample> timeseries;

    /** Pre-serialized StatsRegistry JSON (empty unless the caller
     *  requested per-run stats in the machine-readable output). */
    std::string statsJson;
};

/**
 * One generator per core of `wl`, each on its own seed-derived stream;
 * slots of idle cores (`ops == 0`) stay null. This is the only place
 * the per-core stream-seed formula lives.
 */
inline std::vector<std::unique_ptr<TraceSource>>
syntheticSources(const SystemConfig &cfg, const Workload &wl,
                 std::uint64_t seed)
{
    ESP_ASSERT(wl.cores.size() == cfg.numCores,
               "workload core count mismatch");
    std::vector<std::unique_ptr<TraceSource>> sources(cfg.numCores);
    for (CoreId c = 0; c < cfg.numCores; ++c)
        if (wl.cores[c].ops > 0)
            sources[c] = std::make_unique<SyntheticSource>(
                cfg, wl.cores[c], seed * 1000003ULL + c);
    return sources;
}

/** One assembled CMP instance (one architecture, one workload, one seed). */
class System
{
  public:
    /**
     * @param warmup_fraction fraction of the total reference count run
     *        before the statistics reset (cache warmup; paper-style
     *        measurements use ~0.4, unit tests use 0)
     */
    System(const SystemConfig &cfg, const std::string &arch_name,
           const Workload &wl, std::uint64_t seed,
           double warmup_fraction = 0.0, const FaultPlan *fault = nullptr)
        : System(cfg, arch_name, wl.name, syntheticSources(cfg, wl, seed),
                 seed, warmup_fraction, workloadOps(wl), fault)
    {
    }

    /**
     * Assemble a system around caller-provided trace sources (replay,
     * capture, custom generators). `sources[c] == nullptr` leaves core
     * c idle. `total_ops` (if non-zero) sizes the warmup threshold.
     */
    System(const SystemConfig &cfg, const std::string &arch_name,
           const std::string &workload_name,
           std::vector<std::unique_ptr<TraceSource>> sources,
           std::uint64_t seed, double warmup_fraction = 0.0,
           std::uint64_t total_ops = 0, const FaultPlan *fault = nullptr)
        : cfg_(cfg), topo_(cfg), eq_(), mesh_(topo_, eq_),
          org_(makeArch(arch_name, cfg, seed)),
          proto_(cfg, topo_, mesh_, eq_, *org_), archName_(arch_name),
          workloadName_(workload_name)
    {
        ESP_ASSERT(cfg.valid(), "inconsistent system configuration");
        wireObservability();
        setupFault(fault);
        warmupThreshold_ = static_cast<std::uint64_t>(
            warmup_fraction * static_cast<double>(total_ops));
        attachCores(std::move(sources));
    }

    /**
     * Execute to completion and harvest the metrics.
     *
     * Throws WatchdogError instead of hanging or aborting when the
     * protocol stops making forward progress (stuck in-flight
     * transactions) or when the event queue drains with transactions
     * still outstanding — both carry a structured diagnostic dump so
     * the harness can record the failure and move on.
     */
    RunResult
    run()
    {
        runEpoch();
        RunResult r;
        r.arch = archName_;
        r.workload = workloadName_;
        double ipc_sum = 0.0;
        std::uint32_t measured_cores = 0;
        Cycle last_finish = 0;
        for (auto &core : cores_) {
            if (!core)
                continue;
            ESP_ASSERT(core->finished(), "core did not finish");
            last_finish = std::max(last_finish, core->finishCycle());
            r.instructions += core->measuredInstructions();
            r.memOps += core->measuredMemOps();
            if (core->measuredInstructions() > 0) {
                ipc_sum += core->ipc();
                ++measured_cores;
            }
        }
        // Makespan of the measured window (post-warmup).
        r.cycles = last_finish > measStart_ ? last_finish - measStart_
                                            : last_finish;
        r.throughput = r.cycles == 0
            ? 0.0
            : static_cast<double>(r.instructions) /
                  static_cast<double>(r.cycles);
        r.avgIpc = measured_cores == 0 ? 0.0 : ipc_sum / measured_cores;

        std::uint64_t refs = 0;
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(ServiceLevel::kNumLevels);
             ++i) {
            refs += proto_.levelStats(static_cast<ServiceLevel>(i)).count;
        }
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(ServiceLevel::kNumLevels);
             ++i) {
            const auto &ls =
                proto_.levelStats(static_cast<ServiceLevel>(i));
            r.levelCounts[i] = ls.count;
            r.levelContribution[i] =
                refs == 0 ? 0.0
                          : static_cast<double>(ls.totalLatency) /
                                static_cast<double>(refs);
            r.avgAccessTime += r.levelContribution[i];
        }
        r.offChipAccesses = proto_.offChipServices();
        r.onChipLatency = proto_.onChipLatency();
        r.l2DemandAccesses = org_->totalDemandAccesses();
        r.l2DemandHits = org_->totalDemandHits();
        r.networkFlits = mesh_.totalFlits();
        r.privatizations = proto_.privatizations();
        if (auto *esp = dynamic_cast<EspNuca *>(org_.get()))
            r.meanNmax = esp->meanNmax();
        if (sampler_)
            r.timeseries = sampler_->samples();
        return r;
    }

    // -- Observability ---------------------------------------------------

    /** Capture the full transaction trace (call before run()). */
    void
    enableTracing(std::uint8_t cat_mask = obs::kCatAll)
    {
        tracer_.enableFull(cat_mask);
    }

    /**
     * Sample epoch telemetry every `interval` cycles into run(): each
     * sample records every counter of the extended collection except
     * the host-clock prof.* ones, plus the in-flight transaction count,
     * a live level that a drain always leaves at 0.
     */
    void
    enableMetrics(Cycle interval)
    {
        sampler_ = std::make_unique<obs::MetricsSampler>(
            interval, [this](StatsRegistry &reg) {
                collectModelStats(reg, true);
                reg.counter("proto.in_flight").inc(proto_.inFlight());
            });
    }

    obs::Tracer &tracer() { return tracer_; }

    /**
     * Drain the captured trace as Chrome/Perfetto trace_event JSON.
     * Returns false (with a warning) when the file cannot be written.
     */
    bool
    exportTrace(const std::string &path)
    {
        std::ofstream out(path);
        if (!out) {
            ESP_LOG(Warn, "obs",
                    "cannot open " + path + " for trace output");
            return false;
        }
        obs::writeChromeTrace(out, tracer_.snapshot(),
                              sampler_ ? &sampler_->samples() : nullptr);
        return out.good();
    }

    /** Per-core IPC (0 for idle cores; valid after the run drains). */
    double
    coreIpc(CoreId c) const
    {
        return cores_.at(c) ? cores_.at(c)->ipc() : 0.0;
    }

    /**
     * Register every component's statistics into `reg` under the
     * unified naming scheme (DESIGN.md 5.13). The default collection
     * is the frozen set dumpStats() has always printed; `extended`
     * adds metrics that only the JSON stats block and the epoch
     * sampler see, never the byte-compared text dump: watchdog.*, and
     * the per-bank EMAs and helping-block occupancy (L2Org).
     */
    void
    collectStats(StatsRegistry &reg, bool extended = false) const
    {
        collectModelStats(reg, extended);
        // Wall-clock self-profiling (prof.*); empty unless --prof ran.
        obs::ProfRegistry::instance().collect(reg);
    }

    /**
     * Collect every component's statistics into a registry and dump
     * them as sorted "name value" lines (gem5-style stats file).
     */
    void
    dumpStats(std::ostream &os) const
    {
        StatsRegistry reg;
        collectStats(reg);
        reg.dump(os);
    }

    /**
     * dumpStats() into `os`, plus the extended collection's JSON twin
     * into `r.statsJson` (the "stats" block of machine-readable output).
     */
    void
    reportStats(std::ostream &os, RunResult &r) const
    {
        dumpStats(os);
        StatsRegistry ext;
        collectStats(ext, true);
        r.statsJson = statsToJson(ext);
    }

    // -- Snapshot/restore ------------------------------------------------
    //
    // The continuous warmup resets statistics mid-flight when the
    // warmup threshold trips, which leaves in-flight transactions and a
    // populated event wheel — state that cannot be serialized cheaply.
    // simulatePhased() instead runs the warmup as a complete epoch, lets
    // the machine drain, resets statistics at the quiesced boundary and
    // attaches fresh tail cores whose sources continue the warmup
    // streams. The drained boundary is exactly what a snapshot captures.

    /**
     * Serialize the complete simulation state at a drained epoch
     * boundary (clock, protocol, network, L2 organization, and each
     * active core's generator state). The caller writes the header.
     * Throws SnapshotError when a core is not driven by a
     * SyntheticSource (replay/capture runs are not checkpointable).
     */
    void
    saveSnapshot(SnapshotWriter &w) const
    {
        ESP_ASSERT(eq_.pending() == 0,
                   "snapshots capture a drained boundary only");
        w.u64(eq_.now());
        w.u64(eq_.executed());
        w.u64(eq_.seq());
        w.u64(measStart_);
        w.u64(issued_);
        proto_.save(w);
        mesh_.save(w);
        org_->save(w);
        w.u32(cfg_.numCores);
        for (CoreId c = 0; c < cfg_.numCores; ++c) {
            const bool present = cores_[c] != nullptr;
            w.b(present);
            if (!present)
                continue;
            const auto *src = dynamic_cast<const SyntheticSource *>(
                &cores_[c]->source());
            if (src == nullptr)
                throw SnapshotError(
                    "only synthetic sources are checkpointable");
            src->save(w);
        }
        // Sampler section: the warmup epoch's timeseries rides in the
        // checkpoint so a restored run merges a complete series.
        w.b(sampler_ != nullptr);
        if (sampler_)
            sampler_->save(w);
    }

    /**
     * Restore a snapshot body (the caller has already consumed and
     * validated the header) and attach the tail: `tail.cores[c].ops`
     * further references per core. A core active in the warmup epoch
     * continues its serialized generator stream; one idle in the warmup
     * but active in the tail gets a fresh generator — exactly what the
     * cold path constructs.
     */
    void
    loadSnapshot(SnapshotReader &r, const Workload &tail,
                 std::uint64_t seed)
    {
        ESP_ASSERT(eq_.pending() == 0,
                   "snapshots restore into a drained system only");
        const Cycle now = r.u64();
        const std::uint64_t executed = r.u64();
        const std::uint64_t seq = r.u64();
        eq_.restoreDrained(now, executed, seq);
        measStart_ = r.u64();
        issued_ = r.u64();
        proto_.load(r);
        mesh_.load(r);
        org_->load(r);
        if (r.u32() != cfg_.numCores)
            throw SnapshotError("core-count mismatch");
        auto tails = syntheticSources(cfg_, tail, seed);
        for (CoreId c = 0; c < cfg_.numCores; ++c) {
            if (!r.b())
                continue;
            if (tails[c])
                static_cast<SyntheticSource &>(*tails[c])
                    .load(r, tail.cores[c].ops);
            else // warmup-only stream: consume its state, attach nothing
                SyntheticSource(cfg_, tail.cores[c], 0).load(r);
        }
        // A sampler-presence or cadence mismatch would splice together
        // an inconsistent timeseries: refuse, the caller cold-runs.
        const bool had_sampler = r.b();
        if (had_sampler != (sampler_ != nullptr))
            throw SnapshotError("metrics-sampler presence mismatch");
        if (sampler_)
            sampler_->load(r);
        attachTailSources(std::move(tails));
    }

    Protocol &protocol() { return proto_; }
    L2Org &org() { return *org_; }
    EventQueue &eq() { return eq_; }
    Mesh &mesh() { return mesh_; }
    const Topology &topo() const { return topo_; }

    /** Structured diagnostic snapshot (watchdog failure payload). */
    std::string
    diagnosticDump() const
    {
        std::ostringstream os;
        os << "system: arch=" << archName_ << " workload=" << workloadName_
           << " now=" << eq_.now() << " pending=" << eq_.pending()
           << " executed=" << eq_.executed() << "\n";
        proto_.dumpDiagnostics(os);
        // Replayable event history: the tail of the trace ring (or of
        // the full capture) rides inside every WatchdogError, and from
        // there into the harness failures JSON.
        const auto tail = tracer_.tail(obs::kDiagTailLines);
        if (!tail.empty()) {
            os << "trace tail (" << tail.size()
               << " most recent record(s)):\n";
            for (const auto &rec : tail) {
                os << "  @" << rec.time << " " << toString(rec.kind)
                   << " tx " << rec.tx << " core "
                   << static_cast<unsigned>(rec.core) << " addr 0x"
                   << std::hex << rec.addr << std::dec << " a=" << rec.a
                   << " b=" << rec.b << "\n";
            }
        }
        return os.str();
    }

  private:
    // The phased path drives the epoch steps below one at a time.
    friend RunResult simulatePhased(const SystemConfig &, const std::string &,
                                    const std::string &, std::uint64_t,
                                    std::uint64_t, double, const FaultPlan *,
                                    const std::string &, bool *,
                                    std::string *, Cycle);

    /** References the whole workload issues (sizes the warmup). */
    static std::uint64_t
    workloadOps(const Workload &wl)
    {
        std::uint64_t total = 0;
        for (const auto &p : wl.cores)
            total += p.ops;
        return total;
    }

    /**
     * Replace the cores with fresh ones wrapping `sources` (null slots
     * stay idle). Every core issues through one path: count the
     * reference, trip the warmup reset at the threshold, then hand the
     * reference to the protocol.
     */
    void
    attachCores(std::vector<std::unique_ptr<TraceSource>> sources)
    {
        ESP_ASSERT(sources.size() == cfg_.numCores,
                   "need one source slot per core");
        MemoryIssueFn issue = [this](CoreId c, AccessType t, Addr a,
                                     OpDone done) {
            if (++issued_ == warmupThreshold_)
                endWarmup();
            proto_.access(c, t, a, std::move(done));
        };
        // Grown by push_back on purpose: sizing the vector up front
        // shifts the heap layout so that glibc trims the heap after each
        // System and the next one re-faults its pages (perfbench
        // setup_s on CG-shared, 4-vCPU host: 0.4 ms -> 2.2 ms).
        cores_.clear();
        for (CoreId c = 0; c < cfg_.numCores; ++c)
            cores_.push_back(sources[c]
                                 ? std::make_unique<TraceCore>(
                                       cfg_, c, eq_, issue,
                                       std::move(sources[c]))
                                 : nullptr);
    }

    /**
     * Run the attached cores to completion: start them, arm the
     * watchdog, drain the event queue and verify quiescence.
     */
    void
    runEpoch()
    {
        ESP_PROF_SCOPE("system.run");
        for (auto &core : cores_)
            if (core)
                core->start();
        const bool watch = watchdog_ && watchdog_->enabled();
        if (watch) {
            // Stall post-mortems ship with an event history: keep a
            // bounded trace tail even when full tracing is off.
            if (!tracer_.enabled())
                tracer_.enableRing(obs::kDiagRingCapacity);
            watchdog_->arm();
        }
        if (sampler_ || watch)
            drainObserved(watch);
        else
            eq_.run();
        if (watchdog_)
            watchdog_->checkDrained();
        ESP_ASSERT(proto_.inFlight() == 0,
                   "transactions still in flight after drain");
        proto_.forgetOffChip();
    }

    /**
     * Drain the event queue with the observers run between events:
     * before the first event at or after a boundary of the sampler or
     * the watchdog, that observer handles the boundary. Neither is an
     * event, so the clock and the event counters read as in a run
     * without them. The last sample records the drained state.
     */
    void
    drainObserved(bool watch)
    {
        ESP_PROF_SCOPE("sim.drain");
        while (!eq_.empty()) {
            const Cycle next = eq_.nextEventTime();
            if (sampler_ && sampler_->due() <= next)
                sampler_->sample();
            else if (watch && watchdog_->due() <= next)
                watchdog_->check();
            else
                eq_.step();
        }
        if (sampler_)
            sampler_->sample();
    }

    /** Epoch boundary: zero every statistic, open the window here. */
    void
    resetAtBoundary()
    {
        proto_.resetStats();
        mesh_.resetStats();
        for (std::uint32_t m = 0; m < cfg_.memControllers; ++m)
            proto_.memCtrl(m).resetStats();
        for (BankId b = 0; b < org_->numBanks(); ++b)
            org_->bank(b).resetStats();
        measStart_ = eq_.now();
    }

    /** Continuous-warmup boundary: reset, then snapshot every core. */
    void
    endWarmup()
    {
        resetAtBoundary();
        for (auto &core : cores_)
            if (core)
                core->snapshotMeasurement();
    }

    /**
     * Replace the warmup cores with tail cores wrapping `sources` and
     * open the measured window at the current — drained — simulation
     * time. The tail never re-trips the warmup reset.
     */
    void
    attachTailSources(std::vector<std::unique_ptr<TraceSource>> sources)
    {
        ESP_ASSERT(eq_.pending() == 0,
                   "tail sources attach at a drained boundary only");
        warmupThreshold_ = 0;
        attachCores(std::move(sources));
        for (auto &core : cores_)
            if (core)
                core->snapshotMeasurement();
        measStart_ = eq_.now();
    }

    /** collectStats() without the host-clock prof.* counters. */
    void
    collectModelStats(StatsRegistry &reg, bool extended) const
    {
        reg.counter("sim.cycles").inc(eq_.now());
        reg.counter("sim.events").inc(eq_.executed());
        proto_.registerStats(reg);
        mesh_.registerStats(reg);
        injection_.registerStats(reg);
        org_->registerStats(reg, extended);
        for (CoreId c = 0; c < cfg_.numCores; ++c) {
            if (!cores_[c])
                continue;
            const StatsScope core =
                StatsScope(reg, "core").sub(std::to_string(c));
            core.counter("instructions").inc(cores_[c]->instructions());
            core.counter("mem_ops").inc(cores_[c]->memOps());
            core.average("ipc").record(cores_[c]->ipc());
        }
        if (extended && watchdog_)
            watchdog_->registerStats(reg);
    }

    /** Hand every emitting component its pointer to our tracer. */
    void
    wireObservability()
    {
        proto_.setTracer(&tracer_);
        mesh_.setTracer(&tracer_);
    }

    /** Apply the fault plan (if any) and wire up the watchdog. */
    void
    setupFault(const FaultPlan *fault)
    {
        if (fault != nullptr && !fault->empty()) {
            injection_ =
                applyFaultPlan(*fault, cfg_, topo_, *org_, proto_, mesh_);
        }
        WatchdogConfig wcfg;
        wcfg.stallBudget = fault != nullptr && fault->watchdogStall != 0
            ? fault->watchdogStall
            : cfg_.watchdogStallCycles;
        wcfg.maxCycles = fault != nullptr && fault->watchdogMax != 0
            ? fault->watchdogMax
            : cfg_.watchdogMaxCycles;
        watchdog_ = std::make_unique<Watchdog>(
            eq_, wcfg, [this]() { return proto_.completions(); },
            [this]() { return std::uint64_t{proto_.inFlight()}; },
            [this]() { return diagnosticDump(); });
    }

    SystemConfig cfg_;
    Topology topo_;
    EventQueue eq_;
    Mesh mesh_;
    std::unique_ptr<L2Org> org_;
    Protocol proto_;
    std::string archName_;
    std::string workloadName_;
    std::vector<std::unique_ptr<TraceCore>> cores_;
    std::unique_ptr<Watchdog> watchdog_;
    InjectionReport injection_;
    obs::Tracer tracer_;
    std::unique_ptr<obs::MetricsSampler> sampler_;
    std::uint64_t issued_ = 0;
    std::uint64_t warmupThreshold_ = 0;
    Cycle measStart_ = 0;
};

/** Convenience: build + run one (arch, workload, seed) data point. */
inline RunResult
simulate(const SystemConfig &cfg, const std::string &arch,
         const std::string &workload, std::uint64_t ops_per_core,
         std::uint64_t seed, double warmup_fraction = 0.0,
         const FaultPlan *fault = nullptr)
{
    const Workload wl = makeWorkload(workload, cfg, ops_per_core, seed);
    System sys(cfg, arch, wl, seed, warmup_fraction, fault);
    return sys.run();
}

/** Digest over every result-affecting SystemConfig field. The field
 *  order is part of the snapshot identity: changing it invalidates
 *  checkpoints exactly like a version bump would. */
inline std::uint64_t
systemConfigDigest(const SystemConfig &cfg)
{
    SnapshotWriter w;
    w.u32(cfg.numCores);
    w.u32(cfg.windowSize);
    w.u32(cfg.issueWidth);
    w.u32(cfg.maxOutstanding);
    w.u32(cfg.l1SizeBytes);
    w.u32(cfg.l1Ways);
    w.u32(cfg.blockBytes);
    w.u64(cfg.l1Latency);
    w.u64(cfg.l1TagLatency);
    w.u64(cfg.l2SizeBytes);
    w.u32(cfg.l2Banks);
    w.u32(cfg.l2Ways);
    w.u64(cfg.l2Latency);
    w.u64(cfg.l2TagLatency);
    w.u64(cfg.routerLatency);
    w.u64(cfg.linkLatency);
    w.u32(cfg.linkBytes);
    w.u32(cfg.ctrlMsgBytes);
    w.u32(cfg.dataMsgBytes);
    w.u64(cfg.memLatency);
    w.u64(cfg.memCyclePerAccess);
    w.u32(cfg.memControllers);
    w.u64(cfg.watchdogStallCycles);
    w.u64(cfg.watchdogMaxCycles);
    w.u32(cfg.emaBits);
    w.u32(cfg.emaShift);
    w.u32(cfg.degradationShift);
    w.u32(cfg.conventionalSamples);
    w.u32(cfg.referenceSamples);
    w.u32(cfg.explorerSamples);
    w.u32(cfg.monitorPeriod);
    // Byte of the retired EMA-batching switch (always on): kept so every
    // paper-config digest keeps its historical value.
    w.b(true);
    // Layout knobs joined the config after the digest format froze:
    // they are appended only when non-default, so every paper-config
    // digest (sweep point hashes, snapshot identities, provenance
    // JSON) keeps its historical value, while any --mesh/--placement
    // override perturbs it.
    if (!cfg.placementIsDefault()) {
        w.u32(cfg.meshCols);
        w.u32(cfg.meshRows);
        w.str(cfg.placement);
    }
    return fnv1a(w.bytes().data(), w.bytes().size());
}

/** Digest of a fault plan via its canonical text (0 = no plan). */
inline std::uint64_t
faultPlanDigest(const FaultPlan *fault)
{
    return fault == nullptr || fault->empty() ? 0
                                              : fnv1a(fault->toString());
}

/**
 * Phased variant of simulate(): the warmup runs as a complete, drained
 * epoch and the measured tail starts from a quiesced boundary — which
 * makes the boundary serializable. When `checkpoint_path` is non-empty,
 * a valid checkpoint for the same identity fast-forwards past the
 * entire warmup; a missing or mismatched one falls back to a cold run
 * and (re)writes the checkpoint.
 *
 * The cold path serializes and immediately restores its own boundary,
 * so cold and warm-restored runs of the same point execute the tail
 * from literally identical state: their RunResults and stats dumps are
 * byte-identical by construction (the checkpoint tests enforce this).
 * Note phased results differ from simulate()'s continuous-warmup
 * results: the boundary drain is a deliberate semantic change that
 * only the phased/checkpointed paths opt into.
 *
 * @param restored   set to whether a checkpoint fast-forward happened
 * @param stats_dump when non-null, receives dumpStats() of the run
 * @param metrics_interval when non-zero, sample epoch telemetry every
 *        N cycles across BOTH epochs; a checkpoint then carries the
 *        warmup samples, so warm-restored and cold timeseries match
 */
inline RunResult
simulatePhased(const SystemConfig &cfg, const std::string &arch,
               const std::string &workload, std::uint64_t ops_per_core,
               std::uint64_t seed, double warmup_fraction = 0.0,
               const FaultPlan *fault = nullptr,
               const std::string &checkpoint_path = "",
               bool *restored = nullptr,
               std::string *stats_dump = nullptr,
               Cycle metrics_interval = 0)
{
    // Split every core's stream into a warmup prefix and a tail.
    const Workload wl = makeWorkload(workload, cfg, ops_per_core, seed);
    Workload warm = wl;
    Workload tail = wl;
    std::uint64_t warm_total = 0;
    for (CoreId c = 0; c < cfg.numCores; ++c) {
        const std::uint64_t ops = wl.cores[c].ops;
        warm.cores[c].ops = static_cast<std::uint64_t>(
            warmup_fraction * static_cast<double>(ops));
        tail.cores[c].ops = ops - warm.cores[c].ops;
        warm_total += warm.cores[c].ops;
    }
    if (restored != nullptr)
        *restored = false;

    SnapshotIdentity id;
    id.arch = arch;
    id.workload = workload;
    id.seed = seed;
    id.warmOps = warm_total;
    id.configDigest = systemConfigDigest(cfg);
    id.faultDigest = faultPlanDigest(fault);
    id.placeDigest = placementDigest(cfg);

    auto finishRun = [stats_dump](System &sys) {
        RunResult res = sys.run();
        if (stats_dump != nullptr) {
            std::ostringstream os;
            sys.reportStats(os, res);
            *stats_dump = os.str();
        }
        return res;
    };

    // Warm path: restore the boundary and run only the tail.
    if (!checkpoint_path.empty() && warm_total > 0) {
        try {
            SnapshotReader r = SnapshotReader::fromFile(checkpoint_path);
            if (r.header() == id) {
                System sys(cfg, arch, workload,
                           std::vector<std::unique_ptr<TraceSource>>(
                               cfg.numCores),
                           seed, 0.0, 0, fault);
                if (metrics_interval > 0)
                    sys.enableMetrics(metrics_interval);
                sys.loadSnapshot(r, tail, seed);
                r.finish();
                if (restored != nullptr)
                    *restored = true;
                RunLedger::process().event("checkpoint-load", warm_total,
                                           checkpoint_path);
                return finishRun(sys);
            }
            // Identity mismatch: cold run below rewrites the file.
        } catch (const SnapshotError &) {
            // Unreadable/stale checkpoint: cold run rewrites it.
        }
    }

    // Cold path: warmup epoch, boundary snapshot, restore-in-place.
    System sys(cfg, arch, workload, syntheticSources(cfg, warm, seed), seed,
               0.0, 0, fault);
    if (metrics_interval > 0)
        sys.enableMetrics(metrics_interval);
    if (warm_total > 0)
        sys.runEpoch();
    sys.resetAtBoundary();
    SnapshotWriter w;
    w.header(id);
    sys.saveSnapshot(w);
    if (!checkpoint_path.empty() && warm_total > 0 &&
        w.writeFile(checkpoint_path)) // best effort; failure = no reuse
        RunLedger::process().event("checkpoint-save", warm_total,
                                   checkpoint_path);
    // Round-trip through the freshly written bytes so the tail sources
    // are constructed by the exact code path a warm restore takes.
    SnapshotReader r(w.bytes());
    r.header();
    sys.loadSnapshot(r, tail, seed);
    r.finish();
    return finishRun(sys);
}

} // namespace espnuca

#endif // ESPNUCA_HARNESS_SYSTEM_HPP_
