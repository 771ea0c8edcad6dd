/**
 * @file
 * Bench-side assembly of one simulated CMP, built from the same public
 * constructors System uses (Topology, EventQueue, Mesh, the L2
 * architecture, Protocol, TraceCore, SyntheticSource) and wired the same
 * way, so a Rig run reproduces System::run() exactly: same RunResult,
 * same statistics. The Rig exists because System hides the boundaries
 * between the layers. Here every call into a layer passes through code
 * the benchmark owns, which records a span around it when a SpanLog is
 * attached:
 *
 *   step     EventQueue::step()            (top level)
 *   next     TraceSource::next()           (core pulls its next op)
 *   access   MemoryIssueFn -> Protocol::access()
 *   done     the OpDone completion callback into the core
 *   search   L2Org::search()               (thin arch subclass)
 *   fill     L2Org::onMemFill()
 *   l1evict  L2Org::onL1Eviction()
 *
 * Spans stay in memory until the run ends; self time per layer is each
 * span's duration minus its children's, so the layers attribute host
 * time exclusively.
 */

#ifndef ESPNUCA_PERFBENCH_RIG_HPP_
#define ESPNUCA_PERFBENCH_RIG_HPP_

#include <array>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "arch/esp_nuca.hpp"
#include "arch/snuca.hpp"
#include "coherence/protocol.hpp"
#include "cpu/trace_core.hpp"
#include "fault/fault_injector.hpp"
#include "fault/watchdog.hpp"
#include "harness/system.hpp"
#include "obs/profiler.hpp"
#include "workload/presets.hpp"
#include "workload/trace_gen.hpp"

namespace perfbench {

using namespace espnuca;

/** The layer boundaries the Rig records. */
enum class Layer : std::uint8_t {
    Step,
    Next,
    Access,
    Done,
    Search,
    Fill,
    L1Evict,
};
inline constexpr std::size_t kNumLayers = 7;

inline const char *
layerName(Layer l)
{
    static constexpr const char *kNames[kNumLayers] = {
        "step", "next", "access", "done", "search", "fill", "l1evict"};
    return kNames[static_cast<std::size_t>(l)];
}

/** One recorded call. Spans are appended in start order and nest. */
struct Span
{
    std::uint64_t start;  //!< ns since the log's epoch
    std::uint32_t dur;    //!< ns
    std::uint32_t parent; //!< enclosing span index, SpanLog::kNone at top
    std::uint32_t ref;    //!< request id (see SpanLog::begin)
    Layer layer;
    std::uint8_t core;
};

/** Append-only in-memory span store (chunked: no reallocation copies). */
class SpanLog
{
  public:
    static constexpr std::uint32_t kNone = 0xffffffffu;
    static constexpr std::uint8_t kNoCore = 0xff;

    SpanLog() : epoch_(Clock::now()) {}
    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    /**
     * Open a span under the innermost open one. The request id is
     * (core, per-core reference index) for next/access/done, and
     * (core, transaction id) for the architecture calls; kNone where the
     * caller cannot name a request (steps, L1 evictions). Steps carry
     * core kNoCore.
     */
    std::uint32_t
    begin(Layer l, std::uint32_t core, std::uint32_t ref)
    {
        const std::uint32_t idx = size_;
        if ((idx & kChunkMask) == 0)
            chunks_.emplace_back(new Span[kChunk]);
        at(idx) = Span{nowNs(), 0, open_, ref, l,
                       static_cast<std::uint8_t>(core)};
        ++size_;
        open_ = idx;
        return idx;
    }

    void
    end(std::uint32_t idx)
    {
        Span &s = at(idx);
        s.dur = static_cast<std::uint32_t>(nowNs() - s.start);
        open_ = s.parent;
    }

    /** Exclusive (self) host ns per layer: durations minus children. */
    std::array<std::int64_t, kNumLayers>
    selfNs() const
    {
        std::array<std::int64_t, kNumLayers> self{};
        for (std::uint32_t i = 0; i < size_; ++i) {
            const Span &s = at(i);
            self[static_cast<std::size_t>(s.layer)] += s.dur;
            if (s.parent != kNone)
                self[static_cast<std::size_t>(at(s.parent).layer)] -= s.dur;
        }
        return self;
    }

    /** Write every span as CSV. @return false when the file failed. */
    bool
    writeCsv(const std::string &path) const
    {
        std::ofstream out(path);
        out << "index,layer,start_ns,end_ns,parent,core,ref\n";
        for (std::uint32_t i = 0; i < size_; ++i) {
            const Span &s = at(i);
            out << i << ',' << layerName(s.layer) << ',' << s.start << ','
                << s.start + s.dur << ',';
            if (s.parent == kNone)
                out << "-1";
            else
                out << s.parent;
            out << ',';
            if (s.core == kNoCore)
                out << "-1";
            else
                out << unsigned{s.core};
            out << ',';
            if (s.ref == kNone)
                out << "-1";
            else
                out << s.ref;
            out << '\n';
        }
        return out.good();
    }

  private:
    using Clock = std::chrono::steady_clock;
    static constexpr std::uint32_t kChunkBits = 16;
    static constexpr std::uint32_t kChunk = 1u << kChunkBits;
    static constexpr std::uint32_t kChunkMask = kChunk - 1;

    std::uint64_t
    nowNs() const
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - epoch_)
                .count());
    }

    Span &
    at(std::uint32_t i)
    {
        return chunks_[i >> kChunkBits][i & kChunkMask];
    }
    const Span &
    at(std::uint32_t i) const
    {
        return chunks_[i >> kChunkBits][i & kChunkMask];
    }

    Clock::time_point epoch_;
    std::vector<std::unique_ptr<Span[]>> chunks_;
    std::uint32_t size_ = 0;
    std::uint32_t open_ = kNone;
};

/** RAII span; a null log records nothing. */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, Layer l, std::uint32_t core, std::uint32_t ref)
        : log_(log), idx_(log != nullptr ? log->begin(l, core, ref) : 0)
    {
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;
    ~SpanScope()
    {
        if (log_ != nullptr)
            log_->end(idx_);
    }

  private:
    SpanLog *log_;
    std::uint32_t idx_;
};

/** The architecture under test with its three entry points spanned. */
template <typename Base>
class TracedArch final : public Base
{
  public:
    template <typename... Args>
    explicit TracedArch(SpanLog *log, Args &&...args)
        : Base(std::forward<Args>(args)...), log_(log)
    {
    }

    void
    search(Transaction &tx) override
    {
        const SpanScope s(log_, Layer::Search, tx.core,
                          static_cast<std::uint32_t>(tx.id));
        Base::search(tx);
    }

    void
    onMemFill(Transaction &tx, Cycle t) override
    {
        const SpanScope s(log_, Layer::Fill, tx.core,
                          static_cast<std::uint32_t>(tx.id));
        Base::onMemFill(tx, t);
    }

    bool
    onL1Eviction(CoreId c, const BlockMeta &blk, Cycle t) override
    {
        const SpanScope s(log_, Layer::L1Evict, c, SpanLog::kNone);
        return Base::onL1Eviction(c, blk, t);
    }

  private:
    SpanLog *log_;
};

/** The subset of makeArch() the benchmark workloads use. */
inline std::unique_ptr<L2Org>
makeTracedArch(const std::string &name, const SystemConfig &cfg,
               SpanLog *log)
{
    if (name == "esp-nuca")
        return std::make_unique<TracedArch<EspNuca>>(
            log, cfg, EspReplacement::ProtectedLru);
    if (name == "shared")
        return std::make_unique<TracedArch<Snuca>>(log, cfg);
    throw std::invalid_argument("the benchmark rig has no arch " + name);
}

/** A core's trace source with next() spanned. */
class TracedSource final : public TraceSource
{
  public:
    TracedSource(std::unique_ptr<TraceSource> inner, SpanLog *log,
                 CoreId core)
        : inner_(std::move(inner)), log_(log), core_(core)
    {
    }

    bool
    next(TraceOp &op) override
    {
        const SpanScope s(log_, Layer::Next, core_, index_++);
        return inner_->next(op);
    }

  private:
    std::unique_ptr<TraceSource> inner_;
    SpanLog *log_;
    CoreId core_;
    std::uint32_t index_ = 0;
};

/** What a Rig run leaves besides the RunResult. */
struct RigStats
{
    StatsRegistry reg;                //!< System::collectStats equivalent
    std::uint64_t issuedRefs = 0;     //!< whole run, warmup included
    std::uint64_t attributedRefs = 0; //!< level attributions, whole run
    std::uint64_t windowEvents = 0;   //!< events after the warmup reset
    std::size_t pendingPeak = 0;      //!< largest eq.pending() seen
    std::size_t dirEntries = 0;       //!< Directory::population() at end
    bool coresFinished = true;        //!< every active core ran dry
    double drainNs = 0.0;             //!< host ns starting + stepping
    double harvestNs = 0.0;           //!< host ns of harvest + stats
};

/**
 * One system, assembled like System(cfg, arch, wl, seed, warmup) with
 * no fault plan. `log` (may be null) receives the spans.
 */
class Rig
{
  public:
    Rig(const SystemConfig &cfg, const std::string &arch,
        const Workload &wl, std::uint64_t seed, double warmup_fraction,
        SpanLog *log)
        : cfg_(cfg), topo_(cfg), eq_(), mesh_(topo_, eq_),
          org_(makeTracedArch(arch, cfg, log)),
          proto_(cfg, topo_, mesh_, eq_, *org_), arch_(arch),
          workload_(wl.name), log_(log)
    {
        ESP_ASSERT(wl.cores.size() == cfg.numCores,
                   "workload core count mismatch");
        proto_.setTracer(&tracer_);
        mesh_.setTracer(&tracer_);
        WatchdogConfig wcfg;
        wcfg.stallBudget = cfg_.watchdogStallCycles;
        wcfg.maxCycles = cfg_.watchdogMaxCycles;
        watchdog_ = std::make_unique<Watchdog>(
            eq_, wcfg, [this]() { return proto_.completions(); },
            [this]() { return std::uint64_t{proto_.inFlight()}; },
            [this]() {
                std::ostringstream os;
                proto_.dumpDiagnostics(os);
                return os.str();
            });
        std::uint64_t total_ops = 0;
        for (const auto &p : wl.cores)
            total_ops += p.ops;
        warmupThreshold_ = static_cast<std::uint64_t>(
            warmup_fraction * static_cast<double>(total_ops));
        refIndex_.assign(cfg.numCores, 0);
        MemoryIssueFn issue = [this](CoreId c, AccessType t, Addr a,
                                     OpDone done) {
            if (++issued_ == warmupThreshold_)
                endWarmup();
            const std::uint32_t ref = refIndex_[c]++;
            if (log_ == nullptr) {
                proto_.access(c, t, a, std::move(done));
                return;
            }
            const SpanScope s(log_, Layer::Access, c, ref);
            // Park the core's callback so the spanned wrapper stays
            // small enough for OpDone's inline buffer.
            const std::uint32_t slot = park(std::move(done));
            proto_.access(c, t, a,
                          [this, slot, c, ref](ServiceLevel l, Cycle lat) {
                              const SpanScope d(log_, Layer::Done, c, ref);
                              OpDone fn = std::move(parked_[slot]);
                              freeSlots_.push_back(slot);
                              fn(l, lat);
                          });
        };
        for (CoreId c = 0; c < cfg.numCores; ++c) {
            const StreamParams &p = wl.cores[c];
            if (p.ops == 0) {
                cores_.push_back(nullptr);
                continue;
            }
            auto src = std::make_unique<TracedSource>(
                std::make_unique<SyntheticSource>(cfg, p,
                                                  seed * 1000003ULL + c),
                log_, c);
            cores_.push_back(std::make_unique<TraceCore>(
                cfg, c, eq_, issue, std::move(src)));
            expectedOps_.push_back({c, p.ops});
        }
    }

    /** Start, drain, harvest. Throws WatchdogError on a stalled run. */
    RunResult
    run(RigStats &st)
    {
        using Clock = std::chrono::steady_clock;
        const auto t0 = Clock::now();
        for (auto &core : cores_)
            if (core)
                core->start();
        if (watchdog_->enabled()) {
            if (!tracer_.enabled())
                tracer_.enableRing(obs::kDiagRingCapacity);
            watchdog_->arm();
        }
        std::size_t peak = 0;
        while (!eq_.empty()) {
            if (eq_.pending() > peak)
                peak = eq_.pending();
            const SpanScope s(log_, Layer::Step, SpanLog::kNoCore,
                              SpanLog::kNone);
            eq_.step();
        }
        watchdog_->checkDrained();
        const auto t1 = Clock::now();
        RunResult r = harvest(st);
        const auto t2 = Clock::now();
        st.pendingPeak = peak;
        st.drainNs = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count());
        st.harvestNs = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1)
                .count());
        return r;
    }

  private:
    std::uint32_t
    park(OpDone done)
    {
        if (freeSlots_.empty()) {
            parked_.push_back(std::move(done));
            return static_cast<std::uint32_t>(parked_.size() - 1);
        }
        const std::uint32_t slot = freeSlots_.back();
        freeSlots_.pop_back();
        parked_[slot] = std::move(done);
        return slot;
    }

    std::uint64_t
    attributed() const
    {
        std::uint64_t n = 0;
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(ServiceLevel::kNumLevels); ++i)
            n += proto_.levelStats(static_cast<ServiceLevel>(i)).count;
        return n;
    }

    /** System::endWarmup, plus the bench's own window bookkeeping. */
    void
    endWarmup()
    {
        attributedBeforeReset_ = attributed();
        eventsBeforeReset_ = eq_.executed();
        obs::ProfRegistry::instance().reset();
        proto_.resetStats();
        mesh_.resetStats();
        for (std::uint32_t m = 0; m < cfg_.memControllers; ++m)
            proto_.memCtrl(m).resetStats();
        for (BankId b = 0; b < org_->numBanks(); ++b)
            org_->bank(b).resetStats();
        for (auto &core : cores_)
            if (core)
                core->snapshotMeasurement();
        measStart_ = eq_.now();
    }

    /** System::run's harvest and System::collectStats. */
    RunResult
    harvest(RigStats &st)
    {
        RunResult r;
        r.arch = arch_;
        r.workload = workload_;
        double ipc_sum = 0.0;
        std::uint32_t measured_cores = 0;
        Cycle last_finish = 0;
        for (auto &core : cores_) {
            if (!core)
                continue;
            st.coresFinished = st.coresFinished && core->finished();
            last_finish = std::max(last_finish, core->finishCycle());
            r.instructions += core->measuredInstructions();
            r.memOps += core->measuredMemOps();
            st.issuedRefs += core->memOps();
            if (core->measuredInstructions() > 0) {
                ipc_sum += core->ipc();
                ++measured_cores;
            }
        }
        for (const auto &[c, ops] : expectedOps_)
            st.coresFinished =
                st.coresFinished && cores_[c]->memOps() == ops;
        r.cycles = last_finish > measStart_ ? last_finish - measStart_
                                            : last_finish;
        r.throughput = r.cycles == 0
            ? 0.0
            : static_cast<double>(r.instructions) /
                  static_cast<double>(r.cycles);
        r.avgIpc = measured_cores == 0 ? 0.0 : ipc_sum / measured_cores;
        const std::uint64_t refs = attributed();
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(ServiceLevel::kNumLevels); ++i) {
            const auto &ls = proto_.levelStats(static_cast<ServiceLevel>(i));
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

        st.attributedRefs = attributedBeforeReset_ + refs;
        st.windowEvents = eq_.executed() - eventsBeforeReset_;
        st.dirEntries = proto_.dir().population();
        StatsRegistry &reg = st.reg;
        reg.counter("sim.cycles").inc(eq_.now());
        reg.counter("sim.events").inc(eq_.executed());
        proto_.registerStats(reg);
        mesh_.registerStats(reg);
        InjectionReport{}.registerStats(reg);
        org_->registerStats(reg);
        for (CoreId c = 0; c < cfg_.numCores; ++c) {
            if (!cores_[c])
                continue;
            const StatsScope core =
                StatsScope(reg, "core").sub(std::to_string(c));
            core.counter("instructions").inc(cores_[c]->instructions());
            core.counter("mem_ops").inc(cores_[c]->memOps());
            core.average("ipc").record(cores_[c]->ipc());
        }
        return r;
    }

    SystemConfig cfg_;
    Topology topo_;
    EventQueue eq_;
    Mesh mesh_;
    std::unique_ptr<L2Org> org_;
    Protocol proto_;
    std::string arch_;
    std::string workload_;
    SpanLog *log_;
    obs::Tracer tracer_;
    std::unique_ptr<Watchdog> watchdog_;
    std::vector<std::unique_ptr<TraceCore>> cores_;
    std::vector<std::pair<CoreId, std::uint64_t>> expectedOps_;
    std::vector<std::uint32_t> refIndex_;
    std::vector<OpDone> parked_;
    std::vector<std::uint32_t> freeSlots_;
    std::uint64_t issued_ = 0;
    std::uint64_t warmupThreshold_ = 0;
    std::uint64_t attributedBeforeReset_ = 0;
    std::uint64_t eventsBeforeReset_ = 0;
    Cycle measStart_ = 0;
};

} // namespace perfbench

#endif // ESPNUCA_PERFBENCH_RIG_HPP_
