/**
 * @file
 * Trace-driven out-of-order core model (Table 2: 64-entry window, 4-wide
 * issue, 16 outstanding memory requests).
 *
 * The model is event-driven, not cycle-ticked: instruction slots are
 * accounted in quarter-cycles (issue width 4), the reorder window is a
 * ring of completion times (instruction i may not issue before
 * instruction i - W completed), and loads park in the ring with an
 * unknown completion until the memory system calls back. This yields
 * realistic memory-level parallelism and latency sensitivity at a tiny
 * event cost.
 */

#ifndef ESPNUCA_CPU_TRACE_CORE_HPP_
#define ESPNUCA_CPU_TRACE_CORE_HPP_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/log.hpp"
#include "common/types.hpp"
#include "sim/event_queue.hpp"

namespace espnuca {

/** One trace item: `gap` non-memory instructions, then a memory op. */
struct TraceOp
{
    std::uint32_t gap = 0;
    AccessType type = AccessType::Load;
    Addr addr = 0;
    /**
     * Address depends on the previous load's data (pointer chase /
     * index lookup): the op cannot issue before that load completes.
     * Without dependence chains an out-of-order core hides nearly all
     * on-chip latency behind its MSHRs, which real codes do not allow.
     */
    bool dependsOnPrev = false;
};

/** Pull-model instruction/reference stream. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;
    /** Produce the next item; false when the trace is exhausted. */
    virtual bool next(TraceOp &op) = 0;
};

/**
 * The memory-system entry point a core drives: issue a reference, get a
 * completion callback (service level + latency).
 */
using MemoryIssueFn = std::function<void(CoreId, AccessType, Addr,
                                         OpDone)>;

/** One simulated core. */
class TraceCore
{
  public:
    TraceCore(const SystemConfig &cfg, CoreId id, EventQueue &eq,
              MemoryIssueFn issue, std::unique_ptr<TraceSource> src)
        : cfg_(cfg), id_(id), eq_(eq), issue_(std::move(issue)),
          src_(std::move(src)),
          ring_(cfg.windowSize, 0)
    {
    }

    /** Kick the core off at the current simulation time. */
    void
    start()
    {
        eq_.schedule(0, [this]() { tryAdvance(); });
    }

    bool finished() const { return finished_; }
    Cycle finishCycle() const { return finishCycle_; }
    std::uint64_t instructions() const { return instrIndex_; }
    std::uint64_t memOps() const { return memOps_; }

    /**
     * Mark the start of the measured window (end of cache warmup):
     * instructions/IPC reported from here on exclude the warmup.
     */
    void
    snapshotMeasurement()
    {
        measInstr_ = instrIndex_;
        measMemOps_ = memOps_;
        measCycle_ = eq_.now();
    }

    /** Instructions retired inside the measured window. */
    std::uint64_t
    measuredInstructions() const
    {
        return instrIndex_ - measInstr_;
    }

    /** Memory references issued inside the measured window. */
    std::uint64_t
    measuredMemOps() const
    {
        return memOps_ - measMemOps_;
    }

    /** Retired instructions per cycle over the measured window. */
    double
    ipc() const
    {
        if (!finished_ || finishCycle_ <= measCycle_)
            return 0.0;
        return static_cast<double>(measuredInstructions()) /
               static_cast<double>(finishCycle_ - measCycle_);
    }

    /** The trace source driving this core (snapshot extraction). */
    TraceSource &source() { return *src_; }
    const TraceSource &source() const { return *src_; }

  private:
    static constexpr std::uint64_t kPending =
        std::numeric_limits<std::uint64_t>::max();

    /** Quarter-cycle slot of a cycle. */
    std::uint64_t slotOf(Cycle c) const { return c * cfg_.issueWidth; }

    /**
     * Window constraint for the next instruction: completion slot of
     * instruction (index - W), stored at the same ring position.
     */
    std::uint64_t ringSlot() const
    {
        return ring_[instrIndex_ % cfg_.windowSize];
    }

    void
    tryAdvance()
    {
        if (inRun_ || finished_)
            return;
        inRun_ = true;
        // Nothing can issue earlier than the current simulation time.
        const std::uint64_t now_slot = slotOf(eq_.now());
        if (slot_ < now_slot)
            slot_ = now_slot;
        while (true) {
            if (!haveOp_) {
                if (!src_->next(op_)) {
                    traceDone_ = true;
                    break;
                }
                haveOp_ = true;
                gapLeft_ = op_.gap;
            }
            // Issue the non-memory instructions preceding the op.
            bool blocked = false;
            while (gapLeft_ > 0) {
                const std::uint64_t required = ringSlot();
                if (required == kPending) {
                    blocked = true; // window head is an incomplete load
                    break;
                }
                if (required > slot_)
                    slot_ = required;
                ring_[instrIndex_ % cfg_.windowSize] = slot_;
                ++instrIndex_;
                ++slot_;
                --gapLeft_;
            }
            if (blocked)
                break;
            // Issue the memory operation itself.
            const std::uint64_t required = ringSlot();
            if (required == kPending)
                break; // window full on an incomplete load
            if (outstanding_ >= cfg_.maxOutstanding)
                break; // MSHRs exhausted
            if (op_.dependsOnPrev) {
                if (lastLoadSlot_ == kPending)
                    break; // the producer load is still in flight
                if (lastLoadSlot_ + 1 > slot_)
                    slot_ = lastLoadSlot_ + 1;
            }
            if (required > slot_)
                slot_ = required;
            const std::uint64_t my_index = instrIndex_;
            const bool is_store = op_.type == AccessType::Store;
            // Stores retire through the store buffer at issue; loads and
            // ifetches complete when the data returns.
            ring_[my_index % cfg_.windowSize] = is_store ? slot_ : kPending;
            if (!is_store) {
                lastLoadIndex_ = my_index;
                lastLoadSlot_ = kPending;
            }
            ++instrIndex_;
            ++memOps_;
            const Cycle issue_cycle =
                std::max<Cycle>(slot_ / cfg_.issueWidth, eq_.now());
            ++slot_;
            ++outstanding_;
            haveOp_ = false;
            const AccessType type = op_.type;
            const Addr addr = op_.addr;
            eq_.scheduleAt(issue_cycle, [this, type, addr, my_index,
                                         is_store]() {
                issue_(id_, type, addr,
                       [this, my_index, is_store](ServiceLevel,
                                                  Cycle) {
                           onComplete(my_index, is_store);
                       });
            });
        }
        inRun_ = false;
        maybeFinish();
    }

    void
    onComplete(std::uint64_t index, bool is_store)
    {
        ESP_ASSERT(outstanding_ > 0, "completion without outstanding op");
        --outstanding_;
        if (!is_store) {
            // The ring slot still belongs to this instruction unless the
            // window has wrapped past it (then nobody waits on it).
            auto &slot = ring_[index % cfg_.windowSize];
            if (slot == kPending)
                slot = slotOf(eq_.now());
            if (index == lastLoadIndex_)
                lastLoadSlot_ = slotOf(eq_.now());
        }
        if (slotOf(eq_.now()) > lastCompletionSlot_)
            lastCompletionSlot_ = slotOf(eq_.now());
        tryAdvance();
    }

    void
    maybeFinish()
    {
        if (finished_ || !traceDone_ || outstanding_ != 0)
            return;
        finished_ = true;
        const std::uint64_t end_slot =
            std::max(slot_, lastCompletionSlot_);
        finishCycle_ = (end_slot + cfg_.issueWidth - 1) / cfg_.issueWidth;
    }

    SystemConfig cfg_;
    CoreId id_;
    EventQueue &eq_;
    MemoryIssueFn issue_;
    std::unique_ptr<TraceSource> src_;

    std::vector<std::uint64_t> ring_; //!< completion slots, W deep
    std::uint64_t slot_ = 0;          //!< next issue slot (quarter cycles)
    std::uint64_t instrIndex_ = 0;
    std::uint64_t memOps_ = 0;
    std::uint32_t outstanding_ = 0;
    std::uint64_t lastCompletionSlot_ = 0;
    std::uint64_t lastLoadIndex_ = 0;
    std::uint64_t lastLoadSlot_ = 0; //!< kPending while in flight
    std::uint64_t measInstr_ = 0;
    std::uint64_t measMemOps_ = 0;
    Cycle measCycle_ = 0;

    TraceOp op_{};
    bool haveOp_ = false;
    std::uint32_t gapLeft_ = 0;
    bool traceDone_ = false;
    bool finished_ = false;
    bool inRun_ = false;
    Cycle finishCycle_ = 0;
};

} // namespace espnuca

#endif // ESPNUCA_CPU_TRACE_CORE_HPP_
