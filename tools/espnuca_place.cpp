/**
 * @file
 * espnuca-place: search for a core/controller placement minimizing the
 * traffic-weighted average hop distance of a workload on a k x k mesh.
 *
 * The objective is an analytic stand-in for the simulator's network
 * latency: per-core reference intensity and traffic split (private
 * bank cluster / shared banks / memory controllers) are derived from
 * the same StreamParams the trace generator runs on, and each flow is
 * charged the Manhattan hop count its placement implies. Banks stay
 * co-located with their owning core (the builders' convention), so the
 * search space is the cores' routers (distinct) and the controllers'
 * routers (distinct whenever memControllers <= meshCols, matching
 * PlacementMap::validate).
 *
 * Two engines share the objective:
 *   --mode exhaustive  enumerate every assignment (small grids only;
 *                      guarded by --max-states)
 *   --mode anneal      seeded simulated annealing from the tiled layout
 *   --mode both        run both and report disagreement
 *
 * `--out FILE` writes the winner as an espnuca-placement-v1 map that
 * `espnuca-sim --placement @FILE` accepts. `--require-improvement` /
 * `--require-agreement` turn the quality claims into exit codes so
 * ctest can assert them without a wrapper script.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/config.hpp"
#include "common/parse_num.hpp"
#include "common/rng.hpp"
#include "net/placement.hpp"
#include "workload/presets.hpp"

namespace {

using namespace espnuca;

struct Options
{
    SystemConfig system;
    std::string workload = "apache";
    std::string mode = "anneal";
    std::string outFile;
    std::uint64_t seed = 1;
    std::uint64_t iters = 20000;
    std::uint64_t maxStates = 2000000;
    bool requireImprovement = false;
    bool requireAgreement = false;
    double agreementEps = 1e-9;
};

/** Per-core analytic traffic model derived from the workload preset. */
struct Traffic
{
    std::vector<double> weight;     //!< reference intensity (0 = idle)
    std::vector<double> sharedFrac; //!< to the pooled shared banks
    std::vector<double> memFrac;    //!< off-chip (controller) estimate
};

Traffic
deriveTraffic(const Workload &w)
{
    Traffic t;
    t.weight.resize(w.cores.size(), 0.0);
    t.sharedFrac.resize(w.cores.size(), 0.0);
    t.memFrac.resize(w.cores.size(), 0.0);
    for (std::size_t c = 0; c < w.cores.size(); ++c) {
        const StreamParams &p = w.cores[c];
        if (p.ops == 0)
            continue;
        // References per instruction slot.
        t.weight[c] = 1.0 / (1.0 + p.gapMean);
        // Shared-region data plus shared code fetches travel to banks
        // spread over the whole chip; everything else stays in the
        // core's own cluster.
        t.sharedFrac[c] = std::min(
            0.95, p.sharedFraction + p.osFraction +
                      p.ifetchFraction * p.codeSharedFraction);
        // Off-chip estimate: streaming accesses miss by construction,
        // plus a small base miss rate for the resident sets.
        t.memFrac[c] = std::min(0.95, 0.05 + 0.5 * p.coldFraction);
    }
    return t;
}

struct Layout
{
    std::uint32_t cols = 0;
    std::uint32_t rows = 0;
    std::vector<NodeId> corePos; //!< router per core, distinct
    std::vector<NodeId> memPos;  //!< router per controller
};

std::uint32_t
hopsBetween(const Layout &l, NodeId a, NodeId b)
{
    const std::uint32_t ax = a % l.cols, ay = a / l.cols;
    const std::uint32_t bx = b % l.cols, by = b / l.cols;
    return (ax > bx ? ax - bx : bx - ax) + (ay > by ? ay - by : by - ay);
}

/**
 * Traffic-weighted average hops per reference. Banks are co-located
 * with their owners and every core owns the same number of banks, so
 * the shared-traffic term averages over core routers directly.
 */
double
cost(const Layout &l, const Traffic &t)
{
    double total = 0.0, wsum = 0.0;
    const double nCores = static_cast<double>(l.corePos.size());
    const double nMcs = static_cast<double>(l.memPos.size());
    for (std::size_t c = 0; c < l.corePos.size(); ++c) {
        if (t.weight[c] == 0.0)
            continue;
        double dShared = 0.0;
        for (NodeId n : l.corePos)
            dShared += hopsBetween(l, l.corePos[c], n);
        dShared /= nCores;
        double dMem = 0.0;
        for (NodeId n : l.memPos)
            dMem += hopsBetween(l, l.corePos[c], n);
        dMem /= nMcs;
        total += t.weight[c] *
                 (t.sharedFrac[c] * dShared + t.memFrac[c] * dMem);
        wsum += t.weight[c];
    }
    return wsum == 0.0 ? 0.0 : total / wsum;
}

Layout
fromPlacement(const PlacementMap &p)
{
    Layout l;
    l.cols = p.cols;
    l.rows = p.rows;
    l.corePos = p.coreNodes;
    l.memPos = p.memNodes;
    return l;
}

PlacementMap
toPlacement(const Layout &l, const SystemConfig &cfg)
{
    PlacementMap p;
    p.name = "custom";
    p.cols = l.cols;
    p.rows = l.rows;
    p.coreNodes = l.corePos;
    p.memNodes = l.memPos;
    p.bankNodes.resize(cfg.l2Banks);
    for (BankId b = 0; b < cfg.l2Banks; ++b)
        p.bankNodes[b] = l.corePos[b / cfg.banksPerCore()];
    return p;
}

/** Distinct-controller constraint (mirrors PlacementMap::validate). */
bool
mcsMustBeDistinct(const Layout &l)
{
    return l.memPos.size() <= l.cols;
}

// -- Exhaustive engine ---------------------------------------------------

struct Exhaustive
{
    const Traffic &traffic;
    std::uint64_t statesLeft;
    Layout best;
    double bestCost = -1.0;
    bool truncated = false;

    void
    run(Layout &l)
    {
        std::vector<char> used(l.cols * l.rows, 0);
        placeCores(l, used, 0);
    }

    void
    placeCores(Layout &l, std::vector<char> &used, std::size_t c)
    {
        if (truncated)
            return;
        if (c == l.corePos.size()) {
            std::vector<char> mused(used.size(), 0);
            placeMcs(l, mused, 0);
            return;
        }
        const NodeId nodes = static_cast<NodeId>(used.size());
        for (NodeId n = 0; n < nodes; ++n) {
            if (used[n])
                continue;
            used[n] = 1;
            l.corePos[c] = n;
            placeCores(l, used, c + 1);
            used[n] = 0;
        }
    }

    void
    placeMcs(Layout &l, std::vector<char> &mused, std::size_t m)
    {
        if (truncated)
            return;
        if (m == l.memPos.size()) {
            if (statesLeft == 0) {
                truncated = true;
                return;
            }
            --statesLeft;
            const double c = cost(l, traffic);
            if (bestCost < 0.0 || c < bestCost) {
                bestCost = c;
                best = l;
            }
            return;
        }
        const bool distinct = mcsMustBeDistinct(l);
        const NodeId nodes = static_cast<NodeId>(mused.size());
        for (NodeId n = 0; n < nodes; ++n) {
            if (distinct && mused[n])
                continue;
            mused[n] = 1;
            l.memPos[m] = n;
            placeMcs(l, mused, m + 1);
            mused[n] = 0;
        }
    }
};

// -- Annealing engine ----------------------------------------------------

Layout
anneal(const Layout &start, const Traffic &traffic, std::uint64_t iters,
       std::uint64_t seed, double *outCost)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x91aceULL);
    Layout cur = start;
    Layout best = start;
    double curCost = cost(cur, traffic);
    double bestCost = curCost;
    const double t0 = std::max(0.5 * curCost, 0.05);
    const double tEnd = 1e-4;
    const std::uint32_t nodes = cur.cols * cur.rows;
    std::vector<char> coreAt(nodes, 0);
    for (NodeId n : cur.corePos)
        coreAt[n] = 1;

    for (std::uint64_t it = 0; it < iters; ++it) {
        const double temp =
            t0 * std::pow(tEnd / t0,
                          static_cast<double>(it) /
                              static_cast<double>(iters ? iters : 1));
        Layout cand = cur;
        const std::uint64_t kind = rng.below(10);
        if (kind < 4 && cur.corePos.size() < nodes) {
            // Move one core to a free router.
            const std::size_t c = rng.below(cand.corePos.size());
            NodeId n = static_cast<NodeId>(rng.below(nodes));
            while (coreAt[n])
                n = static_cast<NodeId>(rng.below(nodes));
            cand.corePos[c] = n;
        } else if (kind < 8 && cur.corePos.size() >= 2) {
            // Swap two cores (the only core move on a full grid).
            const std::size_t a = rng.below(cand.corePos.size());
            std::size_t b = rng.below(cand.corePos.size());
            while (b == a)
                b = rng.below(cand.corePos.size());
            std::swap(cand.corePos[a], cand.corePos[b]);
        } else {
            // Move one controller.
            const std::size_t m = rng.below(cand.memPos.size());
            NodeId n = static_cast<NodeId>(rng.below(nodes));
            if (mcsMustBeDistinct(cand)) {
                auto taken = [&](NodeId v) {
                    for (std::size_t k = 0; k < cand.memPos.size(); ++k)
                        if (k != m && cand.memPos[k] == v)
                            return true;
                    return false;
                };
                while (taken(n))
                    n = static_cast<NodeId>(rng.below(nodes));
            }
            cand.memPos[m] = n;
        }
        const double candCost = cost(cand, traffic);
        const double delta = candCost - curCost;
        if (delta <= 0.0 || rng.chance(std::exp(-delta / temp))) {
            for (NodeId n : cur.corePos)
                coreAt[n] = 0;
            cur = cand;
            curCost = candCost;
            for (NodeId n : cur.corePos)
                coreAt[n] = 1;
            if (curCost < bestCost) {
                bestCost = curCost;
                best = cur;
            }
        }
    }
    *outCost = bestCost;
    return best;
}

// -- CLI -----------------------------------------------------------------

int
usage(int code)
{
    std::fprintf(
        code == 0 ? stdout : stderr,
        "usage: espnuca-place [options]\n"
        "  --cores N          core count (default 8)\n"
        "  --banks N          L2 bank count (default 4 per core)\n"
        "  --mem N            memory controllers (default 4)\n"
        "  --mesh CxR         mesh dimensions (default: tiled builder)\n"
        "  --workload NAME    traffic model source (default apache)\n"
        "  --mode M           exhaustive | anneal | both (default anneal)\n"
        "  --iters N          annealing iterations (default 20000)\n"
        "  --seed S           annealing seed (default 1)\n"
        "  --max-states N     exhaustive state guard (default 2000000)\n"
        "  --out FILE         write best espnuca-placement-v1 map\n"
        "  --require-improvement   exit 1 unless best < tiled baseline\n"
        "  --require-agreement     exit 1 unless engines agree (both)\n");
    return code;
}

bool
parseOptions(int argc, char **argv, Options &o)
{
    o.system.memControllers = 4;
    bool banksSet = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", a.c_str());
                std::exit(usage(2));
            }
            return argv[++i];
        };
        // A number flag takes a plain decimal in its field's range; any
        // other value exits 2 naming the flag.
        auto num = [&](std::uint64_t max = ~std::uint64_t{0}) {
            return parseOrExit([&] { return parseUnsigned(next(), a, max); });
        };
        if (a == "--help" || a == "-h") {
            std::exit(usage(0));
        } else if (a == "--cores") {
            o.system.numCores = static_cast<std::uint32_t>(num(kMaxU32));
        } else if (a == "--banks") {
            o.system.l2Banks = static_cast<std::uint32_t>(num(kMaxU32));
            banksSet = true;
        } else if (a == "--mem") {
            o.system.memControllers =
                static_cast<std::uint32_t>(num(kMaxU32));
        } else if (a == "--mesh") {
            std::tie(o.system.meshCols, o.system.meshRows) =
                parseOrExit([&] { return parseGrid(next(), a); });
        } else if (a == "--workload") {
            o.workload = next();
        } else if (a == "--mode") {
            o.mode = next();
        } else if (a == "--iters") {
            o.iters = num();
        } else if (a == "--seed") {
            o.seed = num();
        } else if (a == "--max-states") {
            o.maxStates = num();
        } else if (a == "--out") {
            o.outFile = next();
        } else if (a == "--require-improvement") {
            o.requireImprovement = true;
        } else if (a == "--require-agreement") {
            o.requireAgreement = true;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", a.c_str());
            return false;
        }
    }
    if (!banksSet)
        o.system.l2Banks = 4 * o.system.numCores;
    // Keep 256 KB banks so any bank count yields a power-of-two set
    // count (the scaling benches use the same convention).
    o.system.l2SizeBytes =
        static_cast<std::uint64_t>(o.system.l2Banks) * 256 * 1024;
    o.system.placement = "tiled";
    if (o.mode != "exhaustive" && o.mode != "anneal" && o.mode != "both") {
        std::fprintf(stderr, "unknown mode: %s\n", o.mode.c_str());
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parseOptions(argc, argv, o))
        return usage(2);
    const std::string diag = o.system.validate();
    if (!diag.empty()) {
        std::fprintf(stderr, "inconsistent system configuration: %s\n",
                     diag.c_str());
        return 2;
    }
    PlacementMap naive;
    try {
        naive = PlacementMap::forConfig(o.system);
    } catch (const PlacementError &e) {
        std::fprintf(stderr, "inconsistent system configuration: %s\n",
                     e.what());
        return 2;
    }

    const Workload w = makeWorkload(o.workload, o.system, 1000, o.seed);
    const Traffic traffic = deriveTraffic(w);
    const Layout start = fromPlacement(naive);
    const double naiveCost = cost(start, traffic);
    std::printf("mesh %ux%u cores %u banks %u mcs %u workload %s\n",
                start.cols, start.rows, o.system.numCores, o.system.l2Banks,
                o.system.memControllers, o.workload.c_str());
    std::printf("tiled-cost %.6f\n", naiveCost);

    Layout best = start;
    double bestCost = naiveCost;
    double exCost = -1.0, anCost = -1.0;

    if (o.mode == "exhaustive" || o.mode == "both") {
        Exhaustive ex{traffic, o.maxStates, {}, -1.0, false};
        Layout l = start;
        ex.run(l);
        if (ex.truncated) {
            std::fprintf(stderr,
                         "exhaustive search exceeded --max-states %llu; "
                         "use --mode anneal\n",
                         static_cast<unsigned long long>(o.maxStates));
            return 2;
        }
        exCost = ex.bestCost;
        std::printf("exhaustive-cost %.6f\n", exCost);
        if (exCost < bestCost) {
            bestCost = exCost;
            best = ex.best;
        }
    }
    if (o.mode == "anneal" || o.mode == "both") {
        double c = 0.0;
        const Layout l = anneal(start, traffic, o.iters, o.seed, &c);
        anCost = c;
        std::printf("anneal-cost %.6f (iters %llu seed %llu)\n", anCost,
                    static_cast<unsigned long long>(o.iters),
                    static_cast<unsigned long long>(o.seed));
        if (anCost < bestCost) {
            bestCost = anCost;
            best = l;
        }
    }
    std::printf("best-cost %.6f improvement %.2f%%\n", bestCost,
                naiveCost > 0.0
                    ? 100.0 * (naiveCost - bestCost) / naiveCost
                    : 0.0);

    PlacementMap result = toPlacement(best, o.system);
    try {
        result.validate(o.system);
    } catch (const PlacementError &e) {
        std::fprintf(stderr, "internal error: search produced an invalid "
                             "placement: %s\n",
                     e.what());
        return 2;
    }
    if (!o.outFile.empty()) {
        std::ofstream out(o.outFile);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", o.outFile.c_str());
            return 2;
        }
        out << result.serialize();
        std::printf("wrote %s (digest %016llx)\n", o.outFile.c_str(),
                    static_cast<unsigned long long>(result.digest()));
    }

    int rc = 0;
    if (o.requireAgreement) {
        if (exCost < 0.0 || anCost < 0.0) {
            std::fprintf(stderr, "--require-agreement needs --mode both\n");
            return 2;
        }
        if (std::fabs(exCost - anCost) > o.agreementEps) {
            std::fprintf(stderr,
                         "engines disagree: exhaustive %.9f vs anneal "
                         "%.9f\n",
                         exCost, anCost);
            rc = 1;
        }
    }
    if (o.requireImprovement && !(bestCost < naiveCost)) {
        std::fprintf(stderr,
                     "no improvement over the tiled baseline "
                     "(%.6f vs %.6f)\n",
                     bestCost, naiveCost);
        rc = 1;
    }
    return rc;
}
