/**
 * @file
 * Off-chip memory controller: fixed DRAM round-trip latency plus a
 * bandwidth queue (one block transfer per `memCyclePerAccess` cycles).
 * Controllers sit on the mesh's central row (Figure 1a) and serve
 * block-interleaved address ranges.
 */

#ifndef ESPNUCA_MEM_MEMORY_CONTROLLER_HPP_
#define ESPNUCA_MEM_MEMORY_CONTROLLER_HPP_

#include <cstdint>

#include "common/config.hpp"
#include "common/snapshot.hpp"
#include "common/types.hpp"

namespace espnuca {

/**
 * One DRAM channel. The latency model is: a request that arrives at
 * `t` is issued at max(t, channelFreeAt); data is back at the controller
 * `memLatency` cycles later; the channel is busy `memCyclePerAccess`
 * cycles per request. This saturates realistically when private-cache
 * organizations blow up the off-chip rate.
 */
class MemoryController
{
  public:
    explicit MemoryController(const SystemConfig &cfg) : cfg_(cfg) {}

    /**
     * Account one block access (read or writeback).
     * @param arrival cycle the request reaches the controller
     * @return cycle the data (or write ack) is ready at the controller
     */
    Cycle
    access(Cycle arrival)
    {
        const Cycle start = arrival > freeAt_ ? arrival : freeAt_;
        queueWait_ += start - arrival;
        freeAt_ = start + cfg_.memCyclePerAccess;
        ++accesses_;
        return start + cfg_.memLatency;
    }

    /** Total accesses served. */
    std::uint64_t accesses() const { return accesses_; }

    /** Accumulated queueing delay (bandwidth pressure indicator). */
    Cycle queueWait() const { return queueWait_; }

    /** Clear state and statistics. */
    void
    reset()
    {
        freeAt_ = 0;
        resetStats();
    }

    /** Clear the statistics only (warmup boundary). */
    void
    resetStats()
    {
        accesses_ = 0;
        queueWait_ = 0;
    }

    // -- Snapshot/restore ----------------------------------------------

    void
    save(SnapshotWriter &w) const
    {
        w.u64(freeAt_);
        w.u64(accesses_);
        w.u64(queueWait_);
    }

    void
    load(SnapshotReader &r)
    {
        freeAt_ = r.u64();
        accesses_ = r.u64();
        queueWait_ = r.u64();
    }

  private:
    SystemConfig cfg_;
    Cycle freeAt_ = 0;
    std::uint64_t accesses_ = 0;
    Cycle queueWait_ = 0;
};

} // namespace espnuca

#endif // ESPNUCA_MEM_MEMORY_CONTROLLER_HPP_
