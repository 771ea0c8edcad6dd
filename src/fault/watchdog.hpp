/**
 * @file
 * Protocol watchdog: detects a simulation that has stopped making
 * forward progress (stuck MSHRs, a drained event queue with outstanding
 * transactions, or a runaway clock) and fails fast with a structured
 * diagnostic dump instead of hanging the experiment harness.
 *
 * The watchdog is not an event. The System's drain loop calls check()
 * before the first event at or after each check boundary (every
 * checkPeriod cycles from arm()), so it only *reads* state: a run with
 * the watchdog armed produces byte-identical statistics to the same
 * run without it, and no check runs after the queue drains. The
 * drained-queue-with-outstanding-transactions case is covered by
 * checkDrained(), which the system harness calls right after the
 * queue empties.
 *
 * Failures are C++ exceptions (WatchdogError), not panics: the
 * experiment harness catches them per run, retries with a fresh
 * seed-derived stream, and records a structured failure in the report
 * when the retry budget is exhausted.
 */

#ifndef ESPNUCA_FAULT_WATCHDOG_HPP_
#define ESPNUCA_FAULT_WATCHDOG_HPP_

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/types.hpp"
#include "sim/event_queue.hpp"
#include "stats/stats_registry.hpp"

namespace espnuca {

/** Thresholds for the watchdog; zeros disable the respective check. */
struct WatchdogConfig
{
    Cycle stallBudget = 0; //!< cycles without progress before failing
    Cycle maxCycles = 0;   //!< absolute simulated-cycle ceiling
    Cycle checkPeriod = 0; //!< cycles between checks; 0 = derived
};

/**
 * A stalled or runaway simulation, carrying the diagnostic dump the
 * protocol produced at detection time.
 */
class WatchdogError : public std::runtime_error
{
  public:
    WatchdogError(const std::string &what, std::string dump)
        : std::runtime_error(what + "\n" + dump), dump_(std::move(dump))
    {
    }

    /** The structured diagnostic snapshot: the per-state in-flight
     * histogram (named FSM states), outstanding transactions each with
     * its lifecycle state, lock queues, wheel occupancy. Where a stall
     * piles up — e.g. everything in lock-wait behind one transaction
     * stuck in miss-mem-wait — reads straight off the state names. */
    const std::string &dump() const { return dump_; }

  private:
    std::string dump_;
};

/**
 * Progress monitor run between events. Generic over three
 * probes so it unit-tests without a full protocol stack:
 *   progress — monotone counter that advances whenever real work
 *              completes (accesses issued + transactions completed)
 *   inFlight — outstanding transaction count
 *   dump     — diagnostic snapshot builder, invoked only on failure
 */
class Watchdog
{
  public:
    using CountFn = std::function<std::uint64_t()>;
    using DumpFn = std::function<std::string()>;

    Watchdog(EventQueue &eq, WatchdogConfig cfg, CountFn progress,
             CountFn in_flight, DumpFn dump)
        : eq_(eq), cfg_(cfg), progress_(std::move(progress)),
          inFlight_(std::move(in_flight)), dump_(std::move(dump))
    {
        if (cfg_.checkPeriod == 0) {
            const Cycle base = cfg_.stallBudget != 0 ? cfg_.stallBudget
                                                     : cfg_.maxCycles;
            cfg_.checkPeriod = base / 4 != 0 ? base / 4 : 64;
        }
    }

    /** True when any check is active. */
    bool
    enabled() const
    {
        return cfg_.stallBudget != 0 || cfg_.maxCycles != 0;
    }

    /** Take the progress baseline now and put the first check one
     *  period on (no-op when disabled). */
    void
    arm()
    {
        if (!enabled())
            return;
        lastProgress_ = progress_();
        lastChange_ = eq_.now();
        due_ = eq_.now() + cfg_.checkPeriod;
    }

    /** The cycle of the next check. */
    Cycle due() const { return due_; }

    /**
     * Run the check at due() and move due() one period on. Throws
     * WatchdogError when due() is past the cycle ceiling, or when no
     * progress was seen for the stall budget with transactions in
     * flight.
     */
    void
    check()
    {
        const Cycle at = due_;
        due_ += cfg_.checkPeriod;
        ++checks_;
        if (cfg_.maxCycles != 0 && at > cfg_.maxCycles) {
            throw WatchdogError(
                "simulation exceeded the " +
                    std::to_string(cfg_.maxCycles) +
                    "-cycle ceiling (now at cycle " + std::to_string(at) +
                    ")",
                dump_());
        }
        const std::uint64_t p = progress_();
        if (p != lastProgress_) {
            lastProgress_ = p;
            lastChange_ = at;
        } else if (cfg_.stallBudget != 0 && inFlight_() > 0 &&
                   at - lastChange_ >= cfg_.stallBudget) {
            throw WatchdogError(
                "no forward progress for " +
                    std::to_string(at - lastChange_) + " cycles with " +
                    std::to_string(inFlight_()) +
                    " transaction(s) in flight",
                dump_());
        }
    }

    /**
     * Post-drain check: an empty event queue with transactions still
     * outstanding is a protocol stall (e.g. a lost completion), no
     * matter how the watchdog is configured.
     */
    void
    checkDrained() const
    {
        const std::uint64_t outstanding = inFlight_();
        if (outstanding == 0)
            return;
        throw WatchdogError(
            "event queue drained with " + std::to_string(outstanding) +
                " transaction(s) still in flight at cycle " +
                std::to_string(eq_.now()),
            dump_());
    }

    std::uint64_t checksRun() const { return checks_; }

    /**
     * Register under watchdog.* — part of the *extended* collection
     * only (JSON stats / counter tracks), never of the frozen
     * byte-compared text dump.
     */
    void
    registerStats(StatsRegistry &reg) const
    {
        const StatsScope wd(reg, "watchdog");
        wd.counter("checks").inc(checks_);
    }

  private:
    EventQueue &eq_;
    WatchdogConfig cfg_;
    CountFn progress_;
    CountFn inFlight_;
    DumpFn dump_;
    std::uint64_t lastProgress_ = 0;
    Cycle lastChange_ = 0;
    Cycle due_ = 0;
    std::uint64_t checks_ = 0;
};

} // namespace espnuca

#endif // ESPNUCA_FAULT_WATCHDOG_HPP_
