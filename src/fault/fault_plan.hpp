/**
 * @file
 * Deterministic, seed-driven fault plan. A plan describes the hardware
 * degradation a run must survive: whole-bank outages (remapped around by
 * the AddressMap), per-set way-disable masks, timed NoC link-degradation
 * windows, plus two machinery knobs — a dropped protocol completion
 * (induced stall, exercises the watchdog) and watchdog thresholds.
 *
 * Grammar (clauses separated by ';', whitespace ignored):
 *
 *   seed=N                     seed for randomized placement (rand=)
 *   bank=ID                    dead bank (repeatable)
 *   ways=<bank|*>:<mask>       disable the masked ways in one bank or in
 *                              every live bank (mask is hex or decimal)
 *   link=<node>:<e|w|n|s>:<from>:<until>:<factor>
 *                              multiply the link's serialization by
 *                              <factor> for cycles [from, until)
 *   rand=<banks>:<ways>        seed-derived placement: <banks> dead
 *                              banks and a <ways>-way disable mask per
 *                              surviving bank
 *   drop-tx=N                  drop the completion of transaction id N
 *                              (deterministic induced protocol stall)
 *   watchdog=<stall>[:<max>]   watchdog no-progress budget and absolute
 *                              cycle ceiling
 *
 * Everything a plan injects is a pure function of (plan text, seed), so
 * two runs with the same plan and workload seed are bit-identical.
 */

#ifndef ESPNUCA_FAULT_FAULT_PLAN_HPP_
#define ESPNUCA_FAULT_FAULT_PLAN_HPP_

#include <cctype>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/parse_num.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace espnuca {

/** Raised on malformed or inconsistent fault plans. */
class FaultPlanError : public std::invalid_argument
{
  public:
    explicit FaultPlanError(const std::string &what)
        : std::invalid_argument("fault plan: " + what)
    {
    }
};

/** A declarative fault-injection plan. */
struct FaultPlan
{
    /** Disable `mask` ways in `bank`; kInvalidBank means "every bank". */
    struct WayDisable
    {
        BankId bank = kInvalidBank;
        std::uint64_t mask = 0;
    };

    /** Serialization factor `factor` on one directed link in a window. */
    struct LinkFault
    {
        NodeId node = 0;
        std::uint32_t dir = 0; //!< Mesh::Dir encoding (0=E 1=W 2=N 3=S)
        Cycle from = 0;
        Cycle until = 0; //!< exclusive
        std::uint32_t factor = 1;
    };

    std::uint64_t seed = 0;
    std::vector<BankId> deadBanks;
    std::vector<WayDisable> wayDisables;
    std::vector<LinkFault> linkFaults;
    std::uint32_t randDeadBanks = 0;
    std::uint32_t randWaysPerBank = 0;
    std::uint64_t dropTransaction = 0;
    Cycle watchdogStall = 0;
    Cycle watchdogMax = 0;

    /** True when the plan injects nothing at all. */
    bool
    empty() const
    {
        return deadBanks.empty() && wayDisables.empty() &&
               linkFaults.empty() && randDeadBanks == 0 &&
               randWaysPerBank == 0 && dropTransaction == 0 &&
               watchdogStall == 0 && watchdogMax == 0;
    }

    /** Parse the grammar above; throws FaultPlanError on bad input. */
    static FaultPlan
    parse(const std::string &spec)
    {
        FaultPlan p;
        std::size_t pos = 0;
        while (pos <= spec.size()) {
            std::size_t end = spec.find(';', pos);
            if (end == std::string::npos)
                end = spec.size();
            std::string clause = trim(spec.substr(pos, end - pos));
            pos = end + 1;
            if (clause.empty())
                continue;
            const std::size_t eq = clause.find('=');
            if (eq == std::string::npos)
                throw FaultPlanError("clause without '=': " + clause);
            const std::string key = trim(clause.substr(0, eq));
            const std::string val = trim(clause.substr(eq + 1));
            if (key == "seed") {
                p.seed = parseNum(val, "seed");
            } else if (key == "bank") {
                p.deadBanks.push_back(
                    static_cast<BankId>(parseNum(val, "bank", kMaxId)));
            } else if (key == "ways") {
                p.wayDisables.push_back(parseWays(val));
            } else if (key == "link") {
                p.linkFaults.push_back(parseLink(val));
            } else if (key == "rand") {
                const auto f = splitFields(val, "rand");
                if (f.size() != 2)
                    throw FaultPlanError(
                        "rand wants <banks>:<ways>: " + val);
                p.randDeadBanks = static_cast<std::uint32_t>(
                    parseNum(f[0], "rand banks", kMaxU32));
                p.randWaysPerBank = static_cast<std::uint32_t>(
                    parseNum(f[1], "rand ways", kMaxU32));
            } else if (key == "drop-tx") {
                p.dropTransaction = parseNum(val, "drop-tx");
            } else if (key == "watchdog") {
                const auto f = splitFields(val, "watchdog");
                if (f.empty() || f.size() > 2)
                    throw FaultPlanError(
                        "watchdog wants <stall>[:<max>]: " + val);
                p.watchdogStall = parseNum(f[0], "watchdog stall");
                if (f.size() == 2)
                    p.watchdogMax = parseNum(f[1], "watchdog max");
            } else {
                throw FaultPlanError("unknown clause: " + key);
            }
        }
        return p;
    }

    /** Canonical round-trippable text of this plan. */
    std::string
    toString() const
    {
        std::ostringstream os;
        const char *sep = "";
        auto emit = [&os, &sep]() -> std::ostringstream & {
            os << sep;
            sep = ";";
            return os;
        };
        if (seed != 0)
            emit() << "seed=" << seed;
        for (BankId b : deadBanks)
            emit() << "bank=" << b;
        for (const WayDisable &w : wayDisables) {
            emit() << "ways=";
            if (w.bank == kInvalidBank)
                os << '*';
            else
                os << w.bank;
            os << ":0x" << std::hex << w.mask << std::dec;
        }
        for (const LinkFault &l : linkFaults)
            emit() << "link=" << l.node << ':' << "ewns"[l.dir] << ':'
                   << l.from << ':' << l.until << ':' << l.factor;
        if (randDeadBanks != 0 || randWaysPerBank != 0)
            emit() << "rand=" << randDeadBanks << ':' << randWaysPerBank;
        if (dropTransaction != 0)
            emit() << "drop-tx=" << dropTransaction;
        if (watchdogStall != 0 || watchdogMax != 0) {
            emit() << "watchdog=" << watchdogStall;
            if (watchdogMax != 0)
                os << ':' << watchdogMax;
        }
        return os.str();
    }

    /** Consistency against a concrete geometry; throws on violation. */
    void
    validate(const SystemConfig &cfg) const
    {
        for (BankId b : deadBanks)
            if (b >= cfg.l2Banks)
                throw FaultPlanError("dead bank " + std::to_string(b) +
                                     " out of range");
        const std::uint64_t way_space =
            cfg.l2Ways >= 64 ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << cfg.l2Ways) - 1;
        for (const WayDisable &w : wayDisables) {
            if (w.bank != kInvalidBank && w.bank >= cfg.l2Banks)
                throw FaultPlanError("ways bank " +
                                     std::to_string(w.bank) +
                                     " out of range");
            if ((w.mask & ~way_space) != 0)
                throw FaultPlanError("way mask exceeds " +
                                     std::to_string(cfg.l2Ways) +
                                     " ways");
        }
        for (const LinkFault &l : linkFaults) {
            if (l.dir > 3)
                throw FaultPlanError("link direction out of range");
            if (l.factor < 1)
                throw FaultPlanError("link factor must be >= 1");
            if (l.until <= l.from)
                throw FaultPlanError("link window must be non-empty");
        }
        if (resolveDeadBanks(cfg).size() >= cfg.l2Banks)
            throw FaultPlanError("plan kills every bank");
        if (randWaysPerBank >= cfg.l2Ways)
            throw FaultPlanError("rand ways would disable a whole set");
    }

    /**
     * Explicit plus seed-derived dead banks, deduplicated, ascending.
     * Pure function of (plan, seed): the randomized picks come from an
     * Rng seeded with `seed`, so the same plan text always degrades the
     * same hardware.
     */
    std::vector<BankId>
    resolveDeadBanks(const SystemConfig &cfg) const
    {
        std::vector<bool> dead(cfg.l2Banks, false);
        for (BankId b : deadBanks)
            if (b < cfg.l2Banks)
                dead[b] = true;
        Rng rng(seed ^ 0xFA17ED5EEDULL);
        std::uint32_t placed = 0;
        std::uint32_t guard = 0;
        while (placed < randDeadBanks && guard < cfg.l2Banks * 64) {
            const BankId b =
                static_cast<BankId>(rng.below(cfg.l2Banks));
            if (!dead[b]) {
                dead[b] = true;
                ++placed;
            }
            ++guard;
        }
        std::vector<BankId> out;
        for (BankId b = 0; b < cfg.l2Banks; ++b)
            if (dead[b])
                out.push_back(b);
        return out;
    }

    /**
     * Bank remap table: identity for live banks; each dead bank maps to
     * the next live bank in ring order (deterministic, keeps remapped
     * load roughly adjacent to the dead bank's mesh position).
     */
    std::vector<BankId>
    bankRemap(const SystemConfig &cfg) const
    {
        const std::vector<BankId> dead = resolveDeadBanks(cfg);
        std::vector<bool> is_dead(cfg.l2Banks, false);
        for (BankId b : dead)
            is_dead[b] = true;
        std::vector<BankId> table(cfg.l2Banks);
        for (BankId b = 0; b < cfg.l2Banks; ++b) {
            BankId t = b;
            for (std::uint32_t hop = 0;
                 hop < cfg.l2Banks && is_dead[t]; ++hop)
                t = (t + 1) % cfg.l2Banks;
            if (is_dead[t])
                throw FaultPlanError("no live bank to remap to");
            table[b] = t;
        }
        return table;
    }

    /**
     * Per-bank way-disable masks after resolving `ways=` clauses and the
     * seed-derived `rand=` component. Dead banks get a full mask (their
     * arrays are fenced off even though no request should reach them).
     */
    std::vector<std::uint64_t>
    resolveWayMasks(const SystemConfig &cfg) const
    {
        const std::uint64_t full =
            cfg.l2Ways >= 64 ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << cfg.l2Ways) - 1;
        std::vector<std::uint64_t> masks(cfg.l2Banks, 0);
        std::vector<bool> is_dead(cfg.l2Banks, false);
        for (BankId b : resolveDeadBanks(cfg))
            is_dead[b] = true;
        for (const WayDisable &w : wayDisables) {
            if (w.bank == kInvalidBank) {
                for (BankId b = 0; b < cfg.l2Banks; ++b)
                    masks[b] |= w.mask;
            } else {
                masks[w.bank] |= w.mask;
            }
        }
        if (randWaysPerBank != 0) {
            Rng rng(seed ^ kWaySeedMix);
            for (BankId b = 0; b < cfg.l2Banks; ++b) {
                std::uint32_t placed = 0;
                std::uint32_t guard = 0;
                while (placed < randWaysPerBank &&
                       guard < cfg.l2Ways * 64) {
                    const std::uint32_t w = static_cast<std::uint32_t>(
                        rng.below(cfg.l2Ways));
                    const std::uint64_t bit = std::uint64_t{1} << w;
                    if ((masks[b] & bit) == 0) {
                        masks[b] |= bit;
                        ++placed;
                    }
                    ++guard;
                }
            }
        }
        for (BankId b = 0; b < cfg.l2Banks; ++b) {
            if (is_dead[b])
                masks[b] = full;
            else
                masks[b] &= full;
        }
        return masks;
    }

  private:
    /** Domain separator between bank and way randomization streams. */
    static constexpr std::uint64_t kWaySeedMix = 0xD15AB1EDC0FFEEULL;

    static std::string
    trim(const std::string &s)
    {
        std::size_t b = 0;
        std::size_t e = s.size();
        while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
            ++b;
        while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
            --e;
        return s.substr(b, e - b);
    }

    /** Largest bank or node id: the all-ones u32 is the "none"/"every
     *  bank" sentinel, so a number may not spell it. */
    static constexpr std::uint64_t kMaxId = kMaxU32 - 1;

    /** An unsigned decimal, 0x-hex or 0-octal number no larger than
     *  `max` (the field it is stored in). */
    static std::uint64_t
    parseNum(const std::string &s, const char *what,
             std::uint64_t max = ~std::uint64_t{0})
    {
        try {
            return parseUnsigned(s, what, max, 0);
        } catch (const NumberError &e) {
            throw FaultPlanError(e.what());
        }
    }

    static std::vector<std::string>
    splitFields(const std::string &s, const char *what)
    {
        std::vector<std::string> out;
        std::size_t pos = 0;
        while (pos <= s.size()) {
            std::size_t end = s.find(':', pos);
            if (end == std::string::npos)
                end = s.size();
            out.push_back(trim(s.substr(pos, end - pos)));
            if (end == s.size())
                break;
            pos = end + 1;
        }
        if (out.empty())
            throw FaultPlanError(std::string(what) + ": empty value");
        return out;
    }

    static WayDisable
    parseWays(const std::string &val)
    {
        const auto f = splitFields(val, "ways");
        if (f.size() != 2)
            throw FaultPlanError("ways wants <bank|*>:<mask>: " + val);
        WayDisable w;
        if (f[0] == "*")
            w.bank = kInvalidBank;
        else
            w.bank =
                static_cast<BankId>(parseNum(f[0], "ways bank", kMaxId));
        w.mask = parseNum(f[1], "ways mask");
        if (w.mask == 0)
            throw FaultPlanError("ways mask must be non-zero");
        return w;
    }

    static LinkFault
    parseLink(const std::string &val)
    {
        const auto f = splitFields(val, "link");
        if (f.size() != 5)
            throw FaultPlanError(
                "link wants <node>:<dir>:<from>:<until>:<factor>: " +
                val);
        LinkFault l;
        l.node = static_cast<NodeId>(parseNum(f[0], "link node", kMaxId));
        if (f[1] == "e")
            l.dir = 0;
        else if (f[1] == "w")
            l.dir = 1;
        else if (f[1] == "n")
            l.dir = 2;
        else if (f[1] == "s")
            l.dir = 3;
        else
            throw FaultPlanError("link direction must be e|w|n|s: " +
                                 f[1]);
        l.from = parseNum(f[2], "link from");
        l.until = parseNum(f[3], "link until");
        l.factor = static_cast<std::uint32_t>(
            parseNum(f[4], "link factor", kMaxU32));
        return l;
    }
};

} // namespace espnuca

#endif // ESPNUCA_FAULT_FAULT_PLAN_HPP_
