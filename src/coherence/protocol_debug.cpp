/**
 * @file
 * Diagnostic views of the transaction FSM: the per-state in-flight
 * histogram and the human-readable dump the fault watchdog attaches to
 * its stall report (named transaction states, lock queue depths).
 */

#include "coherence/protocol.hpp"

#include <algorithm>
#include <ostream>
#include <utility>
#include <vector>

namespace espnuca {

std::array<std::size_t, kNumTxStates>
Protocol::inFlightByState() const
{
    std::array<std::size_t, kNumTxStates> hist{};
    for (const auto &[key, tx] : mshrs_)
        ++hist[static_cast<std::size_t>(tx->state)];
    return hist;
}

void
Protocol::dumpDiagnostics(std::ostream &os) const
{
    os << "protocol state: " << mshrs_.size()
       << " transaction(s) in flight, "
       << locks_.size() << " block lock(s) held, " << mshrs_.size()
       << " MSHR(s) allocated, " << completions_ << " completed, "
       << droppedCompletions_ << " completion(s) dropped by fault plan\n";

    // In-flight population by FSM state: a stall shows up as a pile-up
    // in one named state (e.g. everything parked in LockWait behind a
    // transaction whose completion was dropped).
    const std::array<std::size_t, kNumTxStates> hist = inFlightByState();
    os << "  in flight by state:";
    bool any = false;
    for (std::size_t s = 0; s < kNumTxStates; ++s) {
        if (hist[s] == 0)
            continue;
        os << " " << toString(static_cast<TxState>(s)) << "=" << hist[s];
        any = true;
    }
    if (!any)
        os << " (none)";
    os << "\n";

    // Sort by id for a deterministic dump regardless of hash order.
    std::vector<const Transaction *> txs;
    txs.reserve(mshrs_.size());
    for (const auto &[key, tx] : mshrs_)
        txs.push_back(tx);
    std::sort(txs.begin(), txs.end(),
              [](const Transaction *a, const Transaction *b) {
                  return a->id < b->id;
              });
    for (const Transaction *tx : txs) {
        os << "  tx " << tx->id << ": core " << tx->core << " "
           << (tx->isWrite ? "write" : "read") << " addr 0x" << std::hex
           << tx->addr << std::dec << " state " << toString(tx->state)
           << " issued @" << tx->issueTime
           << " waiters " << tx->waiters.size()
           << (tx->memStarted ? " mem-started" : "") << "\n";
    }

    std::vector<std::pair<Addr, std::size_t>> depths;
    depths.reserve(locks_.size());
    for (const auto &[a, q] : locks_)
        depths.emplace_back(a, q.size());
    std::sort(depths.begin(), depths.end());
    for (const auto &[a, d] : depths)
        os << "  lock 0x" << std::hex << a << std::dec << ": queue depth "
           << d << "\n";
}

} // namespace espnuca
