/**
 * @file
 * Completion stage of the transaction FSM: the finish() event that
 * drives MissMemWait -> MissFillPlace (off-chip fill placement),
 * * -> Attributing (service-level accounting, waiter wake-up) and
 * Attributing -> Done (teardown), plus the latency attribution helper
 * and the aggregate on-chip latency statistic.
 */

#include "coherence/protocol.hpp"

#include <algorithm>
#include <utility>

#include "coherence/l2_org.hpp"
#include "common/log.hpp"
#include "obs/profiler.hpp"

namespace espnuca {

void
Protocol::attribute(Transaction &tx, Cycle completion)
{
    auto &ls = levels_[static_cast<std::size_t>(tx.level)];
    for (const auto &w : tx.waiters) {
#if ESPNUCA_TX_AUDIT
        audit_.checkWaiterLatency(tx.id, completion, w.issue);
#endif
        ++ls.count;
        ls.totalLatency += completion - w.issue;
    }
}

void
Protocol::finish(Transaction *tx, Cycle completion)
{
    completion = std::max(completion, eq_.now());

    // Fault injection: swallow this transaction's completion event.
    // The transaction stays in flight and its block lock never drains —
    // the canonical protocol stall the watchdog must detect.
    if (dropTxId_ != 0 && tx->id == dropTxId_) {
        ++droppedCompletions_;
        return;
    }

    eq_.scheduleAt(completion, [this, tx, id = tx->id, completion]() {
        ESP_PROF_SCOPE("proto.finish");
        ESP_ASSERT(tx->id == id, "finishing a dead transaction");
        // The fill placement and the L1 fill below both probe the
        // block's directory entry; warm its slot while the transition
        // and attribution bookkeeping run.
        dir_.prefetch(tx->addr);
        if (tracer_)
            tracer_->setCurrentTx(id);

        // Off-chip read fills pass through the placement stage before
        // attribution; every other service level attributes directly.
        const bool mem_fill =
            tx->level == ServiceLevel::OffChip && !tx->isWrite;
        transition(*tx,
                   mem_fill ? TxState::MissFillPlace
                            : TxState::Attributing,
                   completion);

        // Attribute at completion so waiters that merged in while the
        // transaction was finishing are counted too.
        attribute(*tx, completion);
        if (tracer_ && tracer_->enabled())
            tracer_->record(obs::TraceKind::TxComplete, completion, id,
                            tx->addr,
                            static_cast<std::uint16_t>(
                                tx->waiters.size()),
                            static_cast<std::uint8_t>(tx->core),
                            static_cast<std::uint32_t>(tx->level));

        // Apply the memory-side fill placement for off-chip reads before
        // the L1 fill so owner-token assignment sees the L2 copy.
        if (mem_fill) {
            org_.onMemFill(*tx, completion);
            transition(*tx, TxState::Attributing, completion);
        }
        // Writes sweep once more at completion: our own lock-serialized
        // history can have recreated copies since collectTokens ran
        // (e.g. an in-flight upgrade whose L1 line was evicted to L2 by
        // a same-core fill). Invalidating them here is coherent — they
        // hold the pre-write data this write supersedes.
        if (tx->isWrite)
            sweepForWrite(*tx);
        fillRequesterL1(*tx);

        // Wake the waiting references.
        for (auto &w : tx->waiters)
            w.done(tx->level, completion - w.issue);

#if ESPNUCA_TX_AUDIT
        audit_.checkDone(tx->id, tx->isWrite,
                         l1IdOf(tx->core, tx->type == AccessType::Ifetch),
                         dir_.find(tx->addr));
#endif
        transition(*tx, TxState::Done, completion);

        const MshrKey key{tx->core, tx->addr,
                          tx->type == AccessType::Ifetch, tx->isWrite};
        mshrs_.erase(key);
        const Addr a = tx->addr;
        txSlab_.release(tx); // slot may be reused by the next access
        ++completions_;      // watchdog forward-progress signal
        releaseLock(a);
    });
}

double
Protocol::onChipLatency() const
{
    std::uint64_t count = 0;
    Cycle total = 0;
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(ServiceLevel::kNumLevels); ++i) {
        if (static_cast<ServiceLevel>(i) == ServiceLevel::OffChip)
            continue;
        count += levels_[i].count;
        total += levels_[i].totalLatency;
    }
    return count == 0
        ? 0.0
        : static_cast<double>(total) / static_cast<double>(count);
}

} // namespace espnuca
