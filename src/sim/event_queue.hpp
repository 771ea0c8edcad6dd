/**
 * @file
 * Discrete-event simulation kernel. A single global clock in core cycles;
 * events are closures ordered by (time, insertion sequence) so execution
 * is fully deterministic.
 *
 * Implementation: a hierarchical timing wheel. Nearly every delay the
 * simulator schedules is a small bounded link/bank latency (router and
 * link hops, tag/data occupancy, a DRAM access at worst), so the kernel
 * keeps one FIFO bucket per cycle for the next kWheelSpan cycles and a
 * far level (a small binary heap) for the rare event beyond that.
 * Schedule and pop are O(1): a masked index plus a vector append, with
 * a 4-word occupancy bitmap locating the next non-empty cycle. The
 * far level is drained into the wheel as the clock advances, before
 * any same-cycle event can be scheduled directly, which preserves the
 * strict (time, insertion-seq) ordering contract — see DESIGN.md
 * "Event kernel" for the argument.
 *
 * Events are InlineFn closures (no heap for typical captures) stored
 * in a per-queue slab with a freelist, so steady-state scheduling
 * performs no allocation at all.
 *
 * Every event is model work: observers (the metrics sampler, the
 * watchdog) run between events, so the clock and the executed-event
 * count are the same with and without them.
 */

#ifndef ESPNUCA_SIM_EVENT_QUEUE_HPP_
#define ESPNUCA_SIM_EVENT_QUEUE_HPP_

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/inline_fn.hpp"
#include "common/log.hpp"
#include "common/types.hpp"
#include "obs/profiler.hpp"

namespace espnuca {

/**
 * Callback executed when an event fires. The 128-byte inline buffer is
 * sized for the fattest hot closure in the simulator: the probe
 * continuation, which carries the architecture's search lambda plus
 * bank/set/time context. Everything the protocol, cores and mesh
 * schedule stays inline; larger captures fall back to the heap rather
 * than failing to compile.
 */
using EventFn = InlineFn<void(), 128>;

/**
 * Deterministic event queue. Ties at the same cycle fire in insertion
 * order (FIFO), which both matches hardware intuition (earlier-scheduled
 * work wins) and guarantees bit-identical runs for a given seed.
 */
class EventQueue
{
  public:
    /** Cycles covered by the near wheel (one FIFO bucket per cycle). */
    static constexpr std::uint32_t kWheelBits = 8;
    static constexpr std::uint32_t kWheelSpan = 1u << kWheelBits;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Cycle now() const { return now_; }

    /** Schedule fn to run `delay` cycles from now. */
    void
    schedule(Cycle delay, EventFn fn)
    {
        std::uint32_t idx;
        if (free_.empty()) {
            pool_.push_back(std::move(fn));
            idx = static_cast<std::uint32_t>(pool_.size() - 1);
        } else {
            idx = free_.back();
            free_.pop_back();
            pool_[idx] = std::move(fn);
        }
        commit(now_ + delay, idx);
    }

    // Raw-callable overloads: construct the closure directly in its
    // slab slot instead of building a temporary EventFn and relocating
    // it, which removes one relocation per scheduled event.
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventFn>>>
    void
    schedule(Cycle delay, F &&f)
    {
        emplaceAt(now_ + delay, std::forward<F>(f));
    }

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventFn>>>
    void
    scheduleAt(Cycle when, F &&f)
    {
        emplaceAt(when, std::forward<F>(f));
    }

    /** True when no events remain. */
    bool empty() const { return pending_ == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return pending_; }

    /** Time of the next pending event (queue must be non-empty). */
    Cycle
    nextEventTime() const
    {
        ESP_ASSERT(pending_ != 0, "no pending events");
        if (inWheel_ != 0)
            return nextWheelTime();
        return far_.front().when;
    }

    /** Execute the single next event, advancing the clock. */
    void
    step()
    {
        ESP_ASSERT(pending_ != 0, "stepping an empty queue");
        // Fast path: the current cycle's bucket still has events. Far
        // events always lie at or beyond now_ + kWheelSpan, so nothing
        // can precede the bucket — skip the bitmap scan and advance.
        Bucket *bp = &buckets_[static_cast<std::uint32_t>(now_) & kMask];
        if (bp->head == bp->q.size()) {
            advanceTo(nextEventTime());
            bp = &buckets_[static_cast<std::uint32_t>(now_) & kMask];
        }
        Bucket &b = *bp;
        ESP_ASSERT(b.head < b.q.size(), "wheel bucket out of sync");
        const std::uint32_t idx = b.q[b.head++];
        if (b.head == b.q.size()) {
            b.q.clear();
            b.head = 0;
            bitmap_[(static_cast<std::uint32_t>(now_) & kMask) >> 6] &=
                ~(std::uint64_t{1}
                  << ((static_cast<std::uint32_t>(now_) & kMask) & 63));
        }
        --pending_;
        --inWheel_;
        ++executed_;
        // Move the closure out before firing so the slot can be reused
        // by anything the callback schedules (the move leaves the
        // slot empty).
        EventFn fn = std::move(pool_[idx]);
        free_.push_back(idx);
        fn();
    }

    /** Run until the queue drains. */
    void
    run()
    {
        ESP_PROF_SCOPE("sim.drain");
        drain();
    }

    /** Total events executed so far (diagnostic). */
    std::uint64_t executed() const { return executed_; }

    // -- Snapshot/restore ------------------------------------------------

    /** Sequence counter (snapshot identity of FIFO tie-breaking). */
    std::uint64_t seq() const { return seq_; }

    /**
     * Restore the clock, executed-event count and FIFO sequence counter
     * of a drained queue. Only legal while empty: the wheel, far heap
     * and slab hold no events at an epoch boundary, so the counters are
     * the queue's entire logical state.
     */
    void
    restoreDrained(Cycle now, std::uint64_t executed, std::uint64_t seq)
    {
        ESP_ASSERT(pending_ == 0, "restoring a non-empty event queue");
        ESP_ASSERT(now >= now_, "restoring the clock backwards");
        now_ = now;
        executed_ = executed;
        seq_ = seq;
    }

  private:
    // Kept out of line of run() so the profiling scope's guard/EH
    // bookkeeping cannot perturb the drain loop's codegen.
    void
    drain()
    {
        while (pending_ != 0)
            step();
    }

    static constexpr std::uint32_t kMask = kWheelSpan - 1;
    static constexpr std::uint32_t kBitmapWords = kWheelSpan / 64;

    /** One cycle's FIFO of event-slab indices. */
    struct Bucket
    {
        std::vector<std::uint32_t> q;
        std::uint32_t head = 0;
    };

    /** Far-level entry; seq breaks same-cycle ties on migration. */
    struct FarEntry
    {
        Cycle when;
        std::uint64_t seq;
        std::uint32_t idx;
    };

    struct FarLater
    {
        bool
        operator()(const FarEntry &a, const FarEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** In-place variant: the callable is constructed in the slot. */
    template <typename F>
    void
    emplaceAt(Cycle when, F &&f)
    {
        ESP_ASSERT(when >= now_, "scheduling into the past");
        std::uint32_t idx;
        if (free_.empty()) {
            pool_.emplace_back(std::forward<F>(f));
            idx = static_cast<std::uint32_t>(pool_.size() - 1);
        } else {
            idx = free_.back();
            free_.pop_back();
            pool_[idx].emplace(std::forward<F>(f));
        }
        commit(when, idx);
    }

    void
    commit(Cycle when, std::uint32_t idx)
    {
        ++seq_;
        ++pending_;
        if (when < now_ + kWheelSpan) {
            pushBucket(when, idx);
        } else {
            far_.push_back(FarEntry{when, seq_ - 1, idx});
            std::push_heap(far_.begin(), far_.end(), FarLater{});
        }
    }

    void
    pushBucket(Cycle when, std::uint32_t idx)
    {
        const std::uint32_t b = static_cast<std::uint32_t>(when) & kMask;
        if (buckets_[b].q.empty())
            bitmap_[b >> 6] |= std::uint64_t{1} << (b & 63);
        buckets_[b].q.push_back(idx);
        ++inWheel_;
    }

    /**
     * Earliest occupied wheel cycle. All wheel events lie in
     * [now_, now_ + kWheelSpan), so the circular bitmap scan starting
     * at now_'s bucket visits them in time order.
     */
    Cycle
    nextWheelTime() const
    {
        const std::uint32_t start = static_cast<std::uint32_t>(now_) &
                                    kMask;
        for (std::uint32_t probed = 0; probed < kWheelSpan;) {
            const std::uint32_t b = (start + probed) & kMask;
            const std::uint32_t word = b >> 6;
            // Mask off bits below b inside its word, then scan whole
            // words; `probed` advances to each candidate's distance.
            std::uint64_t bits = bitmap_[word] &
                                 (~std::uint64_t{0} << (b & 63));
            if (bits != 0) {
                const std::uint32_t bit = static_cast<std::uint32_t>(
                    __builtin_ctzll(bits));
                const std::uint32_t idx = (word << 6) | bit;
                return now_ + ((idx - start) & kMask);
            }
            probed += 64 - (b & 63);
        }
        ESP_ASSERT(false, "inWheel_ count out of sync with bitmap");
        return now_;
    }

    /**
     * Advance the clock to `t` and migrate far events whose time fell
     * inside the new window. Migration happens heap-ordered, i.e. in
     * (when, seq) order, and strictly before any callback at `t` can
     * append to those buckets — so every bucket stays seq-sorted.
     */
    void
    advanceTo(Cycle t)
    {
        now_ = t;
        while (!far_.empty() && far_.front().when < now_ + kWheelSpan) {
            std::pop_heap(far_.begin(), far_.end(), FarLater{});
            const FarEntry e = far_.back();
            far_.pop_back();
            pushBucket(e.when, e.idx);
        }
    }

    std::array<Bucket, kWheelSpan> buckets_{};
    std::array<std::uint64_t, kBitmapWords> bitmap_{};
    std::vector<FarEntry> far_; //!< min-heap on (when, seq)

    std::vector<EventFn> pool_; //!< event slab; index-stable storage
    std::vector<std::uint32_t> free_;

    Cycle now_ = 0;
    std::uint64_t seq_ = 0;
    std::size_t pending_ = 0;
    std::size_t inWheel_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace espnuca

#endif // ESPNUCA_SIM_EVENT_QUEUE_HPP_
