/**
 * @file
 * espnuca-bench: the simulator's benchmark. One invocation runs
 * one named workload, single-threaded, and prints every metric by name
 * and unit, then one JSON result line.
 *
 *   espnuca-bench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--ops N] [--spans FILE]
 *
 * Timed phase (both modes): for S seconds, build the workload with
 * makeWorkload(preset, cfg, ops, seed), hand it to System with the
 * continuous 0.5 warmup of espnuca-sim, and run it to completion. Each
 * repetition simulates the same closed batch; the medians of set-up time
 * and of references per host second are reported.
 *
 * --trace 1 adds three passes, reported as per-layer metrics:
 *   count pass  the bench-side Rig (rig.hpp) with the prof.* call
 *               counters on, reset at the warmup point; exact counts
 *   traced pass the Rig with spans around every layer call; self time
 *   micros      each layer alone through its public functions
 * Both Rig passes must reproduce the timed run's RunResult digest and
 * statistics exactly, which proves the Rig is the same program.
 *
 * Every run is checked; a run that throws or fails a check counts as
 * failed, and the JSON line reports attempted and failed runs.
 */

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "micros.hpp"
#include "rig.hpp"

namespace perfbench {
namespace {

/** A benchmark workload: one architecture on one preset. */
struct WorkloadSpec
{
    const char *name;
    const char *arch;
    const char *preset;
    std::uint64_t opsPerCore; //!< a few host seconds per simulated batch
};

/**
 * Why these three (see README.md): apache-esp is the paper's headline
 * design on its headline class (helping blocks, monitor, sharing);
 * mcf4-esp drives the same layers down the off-chip miss path; CG-shared
 * bypasses every ESP mechanism, so an ESP-only change must not move it.
 * mcf4-esp runs 150k references per core because around 200k its
 * directory table crosses a doubling threshold for some seeds and not
 * others, which would make peak_rss_mb bimodal across seeds.
 */
constexpr WorkloadSpec kWorkloads[] = {
    {"apache-esp", "esp-nuca", "apache", 200000},
    {"mcf4-esp", "esp-nuca", "mcf-4", 150000},
    {"CG-shared", "shared", "CG", 200000},
};

constexpr double kWarmup = 0.5;
/** Set-up-only constructions before the timed loop (setup_s samples). */
constexpr int kSetupSamples = 30;
constexpr int kMinTimedReps = 3;
constexpr double kMicroBudgetS = 0.25;

struct Options
{
    const WorkloadSpec *spec = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::uint64_t ops = 0; //!< references per core; 0 = the workload's
    std::string spans;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "espnuca-bench: %s\n"
                 "usage: espnuca-bench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--ops N] [--spans FILE]\n"
                 "workloads: apache-esp mcf4-esp CG-shared\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseU64(const std::string &flag, const std::string &v)
{
    std::uint64_t out = 0;
    const auto [end, ec] =
        std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc() || end != v.data() + v.size())
        usage(flag + " wants a non-negative integer, got '" + v + "'");
    return out;
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--workload") {
            for (const WorkloadSpec &w : kWorkloads)
                if (v == w.name)
                    o.spec = &w;
            if (o.spec == nullptr)
                usage("unknown workload '" + v + "'");
        } else if (a == "--seed") {
            o.seed = parseU64(a, v);
        } else if (a == "--seconds") {
            o.seconds = static_cast<double>(parseU64(a, v));
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace wants 0 or 1");
            o.trace = v == "1";
        } else if (a == "--ops") {
            o.ops = parseU64(a, v);
            if (o.ops == 0)
                usage("--ops must be positive");
        } else if (a == "--spans") {
            o.spans = v;
        } else {
            usage("unknown option " + a);
        }
    }
    if (o.spec == nullptr)
        usage("--workload is required");
    if (o.ops == 0)
        o.ops = o.spec->opsPerCore;
    return o;
}

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

std::uint64_t
totalOps(const Workload &wl)
{
    std::uint64_t n = 0;
    for (const auto &p : wl.cores)
        n += p.ops;
    return n;
}

/** Hash of every simulated field of a RunResult. */
std::uint64_t
resultDigest(const RunResult &r)
{
    SnapshotWriter w;
    w.u64(r.cycles);
    w.u64(r.instructions);
    w.u64(r.memOps);
    w.f64(r.throughput);
    w.f64(r.avgIpc);
    for (const double v : r.levelContribution)
        w.f64(v);
    for (const std::uint64_t v : r.levelCounts)
        w.u64(v);
    w.f64(r.avgAccessTime);
    w.u64(r.offChipAccesses);
    w.f64(r.onChipLatency);
    w.u64(r.l2DemandAccesses);
    w.u64(r.l2DemandHits);
    w.u64(r.networkFlits);
    w.u64(r.privatizations);
    w.f64(r.meanNmax);
    return fnv1a(w.bytes().data(), w.bytes().size());
}

/** The stats dump minus the host-time prof.* lines. */
std::string
simulatedStats(const StatsRegistry &reg)
{
    std::ostringstream all;
    reg.dump(all);
    std::istringstream in(all.str());
    std::string out;
    for (std::string line; std::getline(in, line);)
        if (line.rfind("prof.", 0) != 0)
            out += line + '\n';
    return out;
}

/** Attempted/failed run accounting with named check failures. */
class Tally
{
  public:
    /** Run `body` as one attempted run. */
    void
    attempt(const std::string &label, const std::function<void()> &body)
    {
        ++attempted_;
        label_ = label;
        ok_ = true;
        try {
            body();
        } catch (const std::exception &e) {
            check(false, std::string("threw: ") + e.what());
        }
        if (!ok_)
            ++failed_;
    }

    void
    check(bool ok, const std::string &what)
    {
        if (ok)
            return;
        ok_ = false;
        problems_.push_back(label_ + ": " + what);
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &problems() const { return problems_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool ok_ = true;
    std::string label_;
    std::vector<std::string> problems_;
};

/**
 * Checks every run gets, from its workload, result and statistics:
 * every active core issued its whole batch, the service levels account
 * for every measured reference, and the run did real work.
 */
void
checkRun(Tally &t, const SystemConfig &cfg, const Workload &wl,
         const RunResult &r, const StatsRegistry &reg)
{
    for (CoreId c = 0; c < cfg.numCores; ++c) {
        if (wl.cores[c].ops == 0)
            continue;
        const std::string key = "core." + std::to_string(c) + ".mem_ops";
        t.check(reg.counterValue(key) == wl.cores[c].ops,
                "core " + std::to_string(c) + " did not finish its " +
                    std::to_string(wl.cores[c].ops) + " references");
    }
    // Continuous warmup resets the books mid-flight: references the
    // cores issued before the reset but that completed after it are
    // attributed to a level without being measured memOps. There are
    // at most numCores x maxOutstanding of them.
    std::uint64_t levels = 0;
    for (const std::uint64_t n : r.levelCounts)
        levels += n;
    const std::uint64_t slack =
        std::uint64_t{cfg.numCores} * cfg.maxOutstanding;
    t.check(levels >= r.memOps && levels <= r.memOps + slack,
            "sum of levelCounts " + std::to_string(levels) +
                " does not match memOps " + std::to_string(r.memOps));
    for (const char *name : {"proto.accesses", "proto.transactions",
                             "proto.completions", "mesh.flits"})
        t.check(reg.counterValue(name) != 0,
                std::string(name) + " is zero");
}

struct TimedPhase
{
    std::vector<double> setupS;
    std::vector<double> refsPerS;
    RunResult result;
    std::string stats;
    std::uint64_t digest = 0;
};

TimedPhase
runTimed(const Options &o, const SystemConfig &cfg, Tally &tally)
{
    const WorkloadSpec &w = *o.spec;
    TimedPhase tp;
    for (int i = 0; i < kSetupSamples; ++i) {
        const auto t0 = Clock::now();
        const Workload wl = makeWorkload(w.preset, cfg, o.ops, o.seed);
        const System sys(cfg, w.arch, wl, o.seed, kWarmup);
        tp.setupS.push_back(secondsSince(t0));
    }
    // A traced invocation reports per-layer metrics only; its timed runs
    // just supply the reference result the Rig passes must reproduce, so
    // it keeps to the minimum repetitions.
    const double seconds = o.trace ? 0.0 : o.seconds;
    const auto begin = Clock::now();
    for (int rep = 0; rep < kMinTimedReps || secondsSince(begin) < seconds;
         ++rep) {
        tally.attempt("timed run " + std::to_string(rep), [&]() {
            const auto t0 = Clock::now();
            const Workload wl = makeWorkload(w.preset, cfg, o.ops, o.seed);
            System sys(cfg, w.arch, wl, o.seed, kWarmup);
            const double setup = secondsSince(t0);
            const auto t1 = Clock::now();
            const RunResult r = sys.run();
            const double run_s = secondsSince(t1);
            StatsRegistry reg;
            sys.collectStats(reg);
            checkRun(tally, cfg, wl, r, reg);
            const std::uint64_t digest = resultDigest(r);
            if (tp.stats.empty()) { // the first run that got this far
                tp.result = r;
                tp.stats = simulatedStats(reg);
                tp.digest = digest;
            } else {
                tally.check(digest == tp.digest,
                            "repetition changed the simulated result");
            }
            tp.setupS.push_back(setup);
            tp.refsPerS.push_back(static_cast<double>(totalOps(wl)) /
                                  run_s);
            std::printf("timed run %d: set-up %.6f s, run %.6f s, "
                        "%.1f refs/s\n",
                        rep, setup, run_s, tp.refsPerS.back());
        });
    }
    return tp;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** One Rig pass: its result, statistics and (when asked) prof counts. */
struct RigPass
{
    RunResult result;
    RigStats st;
    StatsRegistry prof;
};

RigPass
runRig(const Options &o, const SystemConfig &cfg, const TimedPhase &tp,
       const char *label, SpanLog *log, bool profile, Tally &tally)
{
    const WorkloadSpec &w = *o.spec;
    RigPass p;
    tally.attempt(label, [&]() {
        const Workload wl = makeWorkload(w.preset, cfg, o.ops, o.seed);
        Rig rig(cfg, w.arch, wl, o.seed, kWarmup, log);
        obs::setProfiling(profile);
        p.result = rig.run(p.st);
        obs::setProfiling(false);
        if (profile)
            obs::ProfRegistry::instance().collect(p.prof);
        checkRun(tally, cfg, wl, p.result, p.st.reg);
        tally.check(p.st.coresFinished, "a core did not finish");
        tally.check(p.st.attributedRefs == p.st.issuedRefs,
                    "whole-run level attributions " +
                        std::to_string(p.st.attributedRefs) +
                        " != issued references " +
                        std::to_string(p.st.issuedRefs));
        tally.check(resultDigest(p.result) == tp.digest,
                    "model.digest differs from the timed run");
        tally.check(simulatedStats(p.st.reg) == tp.stats,
                    "statistics differ from the timed run");
    });
    return p;
}

double
hostNs(const RigPass &p)
{
    return p.st.drainNs + p.st.harvestNs;
}

/** Per-layer metrics: count pass, traced pass, micros, cross-checks. */
std::vector<Metric>
perLayer(const Options &o, const SystemConfig &cfg, const TimedPhase &tp,
         Tally &tally)
{
    const WorkloadSpec &w = *o.spec;
    std::vector<Metric> m;
    const RunResult &r = tp.result;

    const RigPass cnt =
        runRig(o, cfg, tp, "count pass", nullptr, true, tally);
    const StatsRegistry &reg = cnt.st.reg;
    auto prof = [&cnt](const char *site) {
        return static_cast<double>(cnt.prof.counterValue(
            std::string("prof.") + site + ".calls"));
    };
    auto stat = [&reg](const std::string &name) {
        return static_cast<double>(reg.counterValue(name));
    };
    const double refs = static_cast<double>(r.memOps);
    const double tx = stat("proto.transactions");
    double mc_acc = 0.0;
    double mc_wait = 0.0;
    for (std::uint32_t i = 0; i < cfg.memControllers; ++i) {
        mc_acc += stat("mc." + std::to_string(i) + ".accesses");
        mc_wait += stat("mc." + std::to_string(i) + ".queue_wait");
    }
    double evictions = 0.0;
    for (std::uint32_t b = 0; b < cfg.l2Banks; ++b)
        evictions += stat("bank." + std::to_string(b) + ".evictions");

    // The instrument's overhead is the traced pass against the same
    // assembly untraced, run just before and just after it so that
    // drift in host speed cancels.
    const RigPass before =
        runRig(o, cfg, tp, "untraced pass", nullptr, false, tally);
    auto log = std::make_unique<SpanLog>();
    const RigPass trc =
        runRig(o, cfg, tp, "traced pass", log.get(), false, tally);
    const auto self_ns = log->selfNs();
    if (!o.spans.empty() && !log->writeCsv(o.spans))
        std::fprintf(stderr, "espnuca-bench: cannot write %s\n",
                     o.spans.c_str());
    log.reset(); // the spans can take hundreds of MB
    const RigPass after =
        runRig(o, cfg, tp, "untraced pass", nullptr, false, tally);
    const double issued = static_cast<double>(trc.st.issuedRefs);
    auto self = [&](Layer l) {
        return ratio(
            static_cast<double>(self_ns[static_cast<std::size_t>(l)]),
            issued);
    };
    const double untraced_ns = 0.5 * (hostNs(before) + hostNs(after));
    const double total_ns_per_ref = ratio(trc.st.drainNs, issued);

    m.push_back({"workload.next_ns", self(Layer::Next), "ns/ref"});
    m.push_back({"coherence.access_ns", self(Layer::Access), "ns/ref"});
    m.push_back({"arch.search_ns", self(Layer::Search), "ns/ref"});
    m.push_back({"arch.fill_ns", self(Layer::Fill), "ns/ref"});
    m.push_back({"arch.l1_evict_ns", self(Layer::L1Evict), "ns/ref"});
    m.push_back({"cpu.done_ns", self(Layer::Done), "ns/ref"});
    m.push_back({"sim.step_self_ns", self(Layer::Step), "ns/ref"});
    m.push_back({"trace.total_ns_per_ref", total_ns_per_ref, "ns/ref"});
    m.push_back({"sim.pending_peak",
                 static_cast<double>(cnt.st.pendingPeak), "events"});
    m.push_back({"harness.harvest_ms", trc.st.harvestNs / 1e6, "ms"});
    m.push_back({"trace.overhead_pct",
                 100.0 * (ratio(hostNs(trc), untraced_ns) - 1.0), "%"});

    m.push_back({"sim.events_per_ref",
                 ratio(static_cast<double>(cnt.st.windowEvents), refs),
                 "1/ref"});
    m.push_back({"net.routes_per_ref", ratio(prof("mesh.route"), refs),
                 "1/ref"});
    m.push_back({"net.flits_per_ref", ratio(stat("mesh.flits"), refs),
                 "1/ref"});
    m.push_back({"net.link_wait_cycles_per_ref",
                 ratio(stat("mesh.link_wait"), refs), "cycles/ref"});
    m.push_back({"cache.probes_per_tx", ratio(prof("proto.probe"), tx),
                 "1/tx"});
    m.push_back({"cache.finds_per_tx", ratio(prof("set.find"), tx),
                 "1/tx"});
    m.push_back({"cache.replacements_per_tx", ratio(evictions, tx),
                 "1/tx"});
    m.push_back({"cache.l2_demand_hit_ratio",
                 ratio(static_cast<double>(r.l2DemandHits),
                       static_cast<double>(r.l2DemandAccesses)),
                 "ratio"});
    m.push_back({"arch.helping_ops_per_ref",
                 ratio(prof("esp.helping"), refs), "1/ref"});
    m.push_back({"arch.monitor_updates_per_ref",
                 ratio(prof("bank.ema"), refs), "1/ref"});
    m.push_back({"coherence.tx_per_ref", ratio(tx, refs), "1/ref"});
    m.push_back({"coherence.invals_per_tx",
                 ratio(stat("proto.invals_sent"), tx), "1/tx"});
    m.push_back({"coherence.writebacks_per_ref",
                 ratio(stat("proto.writebacks"), refs), "1/ref"});
    m.push_back({"coherence.dir_entries",
                 static_cast<double>(cnt.st.dirEntries), "blocks"});
    m.push_back({"mem.accesses_per_ref", ratio(mc_acc, refs), "1/ref"});
    m.push_back({"mem.queue_wait_cycles_per_access",
                 ratio(mc_wait, mc_acc), "cycles/access"});

    std::uint64_t levels = 0;
    for (const std::uint64_t n : r.levelCounts)
        levels += n;
    m.push_back({"model.cycles", static_cast<double>(r.cycles), "cycles"});
    m.push_back({"model.throughput_ipc", r.throughput, "instr/cycle"});
    m.push_back({"model.avg_access_cycles", r.avgAccessTime, "cycles"});
    m.push_back({"model.offchip_share",
                 ratio(static_cast<double>(r.offChipAccesses),
                       static_cast<double>(levels)),
                 "ratio"});
    // 53 bits, so the JSON number holds the digest exactly.
    m.push_back({"model.digest", static_cast<double>(tp.digest >> 11),
                 "hash"});

    const Workload wl = makeWorkload(w.preset, cfg, o.ops, o.seed);
    const double route = routeNsPerCall(cfg, kMicroBudgetS);
    const double find = findNsPerCall(cfg, o.seed, kMicroBudgetS);
    const double dir = dirNsPerOp(cfg, o.seed, kMicroBudgetS);
    const double event = eventNsPerCall(o.seed, kMicroBudgetS);
    const double next = nextNsPerCall(cfg, wl, o.seed, kMicroBudgetS);
    m.push_back({"net.route_ns_per_call", route, "ns/call"});
    m.push_back({"cache.find_ns_per_call", find, "ns/call"});
    m.push_back({"coherence.dir_ns_per_op", dir, "ns/op"});
    m.push_back({"sim.event_ns_per_call", event, "ns/call"});
    m.push_back({"workload.next_ns_per_call", next, "ns/call"});

    // A layer alone cannot cost more per reference than the whole
    // traced run: calls/ref x uncontended ns/call <= total ns/ref.
    // Directory calls are bounded below by one per transaction.
    tally.attempt("micro cross-check", [&]() {
        const struct
        {
            const char *layer;
            double callsPerRef;
            double nsPerCall;
        } rows[] = {
            {"net", ratio(prof("mesh.route"), refs), route},
            {"cache", ratio(prof("set.find"), refs), find},
            {"coherence", ratio(tx, refs), dir},
            {"sim", ratio(static_cast<double>(cnt.st.windowEvents), refs),
             event},
            {"workload", 1.0, next},
        };
        for (const auto &row : rows) {
            const double ns = row.callsPerRef * row.nsPerCall;
            tally.check(ns <= total_ns_per_ref,
                        std::string(row.layer) + " micro " +
                            std::to_string(ns) + " ns/ref exceeds the " +
                            std::to_string(total_ns_per_ref) +
                            " ns/ref traced total");
        }
    });
    return m;
}

/** Shortest round-trip decimal form (JSON number). */
std::string
number(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string
jsonLine(bool correct, const Tally &t, const std::vector<Metric> &ms)
{
    std::string s = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(t.attempted()) +
                    ", \"failed\": " + std::to_string(t.failed()) +
                    ", \"metrics\": {";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        if (i > 0)
            s += ", ";
        s += "\"" + ms[i].name + "\": {\"value\": " + number(ms[i].value) +
             ", \"unit\": \"" + ms[i].unit + "\"}";
    }
    return s + "}}";
}

void
printTable(const char *title, const std::vector<Metric> &ms)
{
    std::printf("%s\n", title);
    for (const Metric &m : ms)
        std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

int
benchMain(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    const SystemConfig cfg;
    Tally tally;
    const TimedPhase tp = runTimed(o, cfg, tally);
    const std::vector<Metric> e2e = {
        {"refs_per_s", median(tp.refsPerS), "1/s"},
        {"setup_s", median(tp.setupS), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    std::printf("workload %s (%s x %s), seed %llu, %llu refs/core, "
                "%zu timed runs\n",
                o.spec->name, o.spec->arch, o.spec->preset,
                static_cast<unsigned long long>(o.seed),
                static_cast<unsigned long long>(o.ops), tp.refsPerS.size());
    printTable("end-to-end (host time; median over timed runs)", e2e);
    std::vector<Metric> layers;
    if (o.trace) {
        layers = perLayer(o, cfg, tp, tally);
        printTable("per-layer (ns: host time; counts: simulated, per "
                   "measured reference)",
                   layers);
    }
    std::printf("runs: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(tally.attempted()),
                static_cast<unsigned long long>(tally.failed()));
    for (const std::string &p : tally.problems())
        std::printf("FAILED CHECK %s\n", p.c_str());
    const bool correct = tally.failed() == 0 && !tp.refsPerS.empty();
    std::printf("%s\n",
                jsonLine(correct, tally, o.trace ? layers : e2e).c_str());
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::benchMain(argc, argv);
}
