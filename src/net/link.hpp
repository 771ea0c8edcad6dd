/**
 * @file
 * Directed mesh link with flit-level bandwidth accounting. Links are
 * 128 bits wide (Table 2): a 72 B data message serializes into 5 flits,
 * a control message into 1 flit; the link injects one flit per cycle.
 *
 * Because the simulator reserves whole paths analytically (including
 * hops that will be reached far in the future, e.g. the response leg of
 * a 300-cycle memory access), occupancy is kept as a small sorted list
 * of busy intervals rather than a single "free-at" scalar: a message
 * reserving a far-future window must not block earlier traffic that
 * physically crosses the wire first (backfilling).
 */

#ifndef ESPNUCA_NET_LINK_HPP_
#define ESPNUCA_NET_LINK_HPP_

#include <cstdint>
#include <vector>

#include "common/snapshot.hpp"
#include "common/types.hpp"

namespace espnuca {

/** One direction of a physical channel. */
class Link
{
  public:
    Link() = default;

    /**
     * Hard cap on the busy-interval list. Pathological reservation
     * patterns (notably long fault-injected degradation windows, whose
     * inflated serialization shreds the schedule into many small
     * fragments) could otherwise grow the list without bound; at the
     * cap the smallest inter-interval gaps are merged away, which only
     * ever over-reserves the wire (conservative, deterministic).
     */
    static constexpr std::size_t kMaxIntervals = 1024;

    /**
     * Reserve the link for one message.
     *
     * @param head_arrival cycle the message head reaches the link input
     * @param flits message length in flits (>= 1)
     * @param latency link traversal latency in cycles
     * @param horizon current simulation time; intervals wholly in the
     *        past are pruned (no arrival may precede it)
     * @return cycle at which the full message has crossed the link
     */
    Cycle
    transmit(Cycle head_arrival, std::uint32_t flits, Cycle latency,
             Cycle horizon = 0)
    {
        prune(horizon);
        // Earliest conflict-free start >= head_arrival (first fit).
        // Under a fault-injected degradation window the message
        // serializes `factor` times slower, so its footprint is
        // recomputed whenever the candidate start moves.
        Cycle t = head_arrival;
        std::uint32_t eff = flits * factorAt(t);
        if (busy_.empty() || t >= busy_.back().end) {
            // Fast path (the common case on lightly loaded links): the
            // reservation lands after all existing traffic, so append —
            // merging with a touching predecessor exactly as the
            // general path's coalesce would — without scanning.
            if (!busy_.empty() && busy_.back().end == t)
                busy_.back().end = t + eff;
            else
                busy_.push_back(Busy{t, t + eff});
        } else {
            std::size_t pos = 0;
            for (; pos < busy_.size(); ++pos) {
                const Busy &b = busy_[pos];
                if (t + eff <= b.start)
                    break; // fits in the gap before this interval
                if (b.end > t) {
                    t = b.end; // pushed past it
                    eff = flits * factorAt(t);
                }
            }
            busy_.insert(busy_.begin() + static_cast<std::ptrdiff_t>(pos),
                         Busy{t, t + eff});
            coalesce(pos);
        }
        if (busy_.size() > peakIntervals_)
            peakIntervals_ = busy_.size();
        if (busy_.size() > kMaxIntervals)
            compact();
        waitCycles_ += t - head_arrival;
        flitsSent_ += flits;
        degradedCycles_ += eff - flits;
        ++messages_;
        return t + latency + (eff - 1);
    }

    // -- Fault model ---------------------------------------------------

    /**
     * Degrade the link for cycles [from, until): every message whose
     * transmission starts inside the window serializes `factor` times
     * slower (a factor of 1 is a no-op window). Overlapping windows
     * take the worst factor.
     */
    void
    degrade(Cycle from, Cycle until, std::uint32_t factor)
    {
        degradations_.push_back(Degradation{from, until, factor});
    }

    /** Serialization multiplier in effect at cycle `t` (>= 1). */
    std::uint32_t
    factorAt(Cycle t) const
    {
        std::uint32_t f = 1;
        for (const Degradation &d : degradations_)
            if (t >= d.from && t < d.until && d.factor > f)
                f = d.factor;
        return f;
    }

    /** True when any degradation window is configured. */
    bool degraded() const { return !degradations_.empty(); }

    /** Number of live busy intervals (diagnostics). */
    std::size_t intervals() const { return busy_.size(); }

    /** High-water mark of the busy-interval list (leak visibility). */
    std::size_t peakIntervals() const { return peakIntervals_; }

    /** Interval-merge operations forced by the kMaxIntervals cap. */
    std::uint64_t compactions() const { return compactions_; }

    /** Extra wire cycles paid to degradation windows. */
    Cycle degradedCycles() const { return degradedCycles_; }

    /** Total flits pushed through this link (utilization stat). */
    std::uint64_t flitsSent() const { return flitsSent_; }

    /** Total messages that crossed this link. */
    std::uint64_t messages() const { return messages_; }

    /** Accumulated queueing delay suffered at this link. */
    Cycle waitCycles() const { return waitCycles_; }

    /** Clear occupancy and stats; degradation windows are configuration
     * and survive. */
    void
    reset()
    {
        busy_.clear();
        resetStats();
    }

    /** Clear the statistics only (warmup boundary). */
    void
    resetStats()
    {
        flitsSent_ = 0;
        messages_ = 0;
        waitCycles_ = 0;
        degradedCycles_ = 0;
        compactions_ = 0;
        peakIntervals_ = busy_.size();
    }

    // -- Snapshot/restore ----------------------------------------------

    /** Serialize occupancy and statistics. Degradation windows are
     *  configuration (re-applied from the fault plan at construction)
     *  and not part of the snapshot. */
    void
    save(SnapshotWriter &w) const
    {
        w.u64(busy_.size());
        for (const Busy &b : busy_) {
            w.u64(b.start);
            w.u64(b.end);
        }
        w.u64(flitsSent_);
        w.u64(messages_);
        w.u64(compactions_);
        w.u64(peakIntervals_);
        w.u64(waitCycles_);
        w.u64(degradedCycles_);
    }

    void
    load(SnapshotReader &r)
    {
        busy_.clear();
        const std::uint64_t n = r.count(2 * sizeof(std::uint64_t));
        busy_.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            Busy b;
            b.start = r.u64();
            b.end = r.u64();
            busy_.push_back(b);
        }
        flitsSent_ = r.u64();
        messages_ = r.u64();
        compactions_ = r.u64();
        peakIntervals_ = r.u64();
        waitCycles_ = r.u64();
        degradedCycles_ = r.u64();
    }

  private:
    struct Busy
    {
        Cycle start;
        Cycle end; //!< exclusive
    };

    void
    prune(Cycle horizon)
    {
        std::size_t dead = 0;
        while (dead < busy_.size() && busy_[dead].end <= horizon)
            ++dead;
        if (dead > 0)
            busy_.erase(busy_.begin(),
                        busy_.begin() + static_cast<std::ptrdiff_t>(dead));
    }

    /** Merge the interval at `pos` with adjacent touching intervals. */
    void
    coalesce(std::size_t pos)
    {
        if (pos + 1 < busy_.size() &&
            busy_[pos].end >= busy_[pos + 1].start) {
            busy_[pos].end = busy_[pos + 1].end;
            busy_.erase(busy_.begin() +
                        static_cast<std::ptrdiff_t>(pos + 1));
        }
        if (pos > 0 && busy_[pos - 1].end >= busy_[pos].start) {
            busy_[pos - 1].end = busy_[pos].end;
            busy_.erase(busy_.begin() + static_cast<std::ptrdiff_t>(pos));
        }
    }

    /**
     * Enforce kMaxIntervals by repeatedly merging the pair of adjacent
     * intervals with the smallest gap between them (ties: the earliest
     * pair). Merging turns free time into reserved time — future
     * messages may be scheduled later than strictly necessary, never
     * earlier — so correctness and determinism are preserved.
     */
    void
    compact()
    {
        while (busy_.size() > kMaxIntervals) {
            std::size_t best = 0;
            Cycle best_gap = busy_[1].start - busy_[0].end;
            for (std::size_t i = 1; i + 1 < busy_.size(); ++i) {
                const Cycle gap = busy_[i + 1].start - busy_[i].end;
                if (gap < best_gap) {
                    best_gap = gap;
                    best = i;
                }
            }
            busy_[best].end = busy_[best + 1].end;
            busy_.erase(busy_.begin() +
                        static_cast<std::ptrdiff_t>(best + 1));
            ++compactions_;
        }
    }

    struct Degradation
    {
        Cycle from;
        Cycle until; //!< exclusive
        std::uint32_t factor;
    };

    std::vector<Busy> busy_;
    std::vector<Degradation> degradations_;
    std::uint64_t flitsSent_ = 0;
    std::uint64_t messages_ = 0;
    std::uint64_t compactions_ = 0;
    std::size_t peakIntervals_ = 0;
    Cycle waitCycles_ = 0;
    Cycle degradedCycles_ = 0;
};

} // namespace espnuca

#endif // ESPNUCA_NET_LINK_HPP_
