/**
 * @file
 * Protocol audit layer: per-transition invariant checking and edge
 * coverage for the transaction FSM (tx_state.hpp).
 *
 * Compiled in by default (and in the Debug/ASan CI lanes); a Release
 * configure sets ESPNUCA_AUDIT_OFF and the whole layer reduces to empty
 * inline bodies — the protocol microbenchmark must measure no cost.
 *
 * The auditor is strictly read-only with respect to simulation state:
 * an audited run produces bit-identical statistics to an unaudited one.
 * Violations throw TxAuditError (an exception, not a panic) so the
 * negative tests — and the crash-isolated experiment harness — can
 * observe a clean failure.
 *
 * Invariants enforced per transition:
 *   - the edge appears in the static table kTxEdges (this subsumes
 *     "exactly one l2Hit/l2Miss per search": re-entering HitReturn or
 *     MissMemWait is simply not a table edge);
 *   - the block lock is held from the moment the transaction queues on
 *     it until teardown (every edge out of a state past Issued);
 *   - startMemory() only fires while the search is still open and the
 *     transaction has not been served by the L2 (checkMemStart);
 *   - waiter latencies are monotone: completion never precedes a
 *     merged waiter's issue time (checkWaiterLatency);
 *   - at Done, a write left the directory with the requester as the
 *     sole L1 owner and no L2 copies (checkDone).
 */

#ifndef ESPNUCA_COHERENCE_TX_AUDIT_HPP_
#define ESPNUCA_COHERENCE_TX_AUDIT_HPP_

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "coherence/directory.hpp"
#include "coherence/tx_state.hpp"
#include "common/types.hpp"

#if !defined(ESPNUCA_AUDIT_OFF)
#define ESPNUCA_TX_AUDIT 1
#else
#define ESPNUCA_TX_AUDIT 0
#endif

namespace espnuca {

/** A protocol invariant violation caught by the audit layer. */
class TxAuditError : public std::logic_error
{
  public:
    explicit TxAuditError(const std::string &what)
        : std::logic_error("tx-audit: " + what)
    {
    }
};

#if ESPNUCA_TX_AUDIT

/** Per-protocol FSM auditor: legality, invariants, edge coverage. */
class TxAudit
{
  public:
    /**
     * Check one transition against the static table and count its
     * edge. `lock_held` reports whether the per-block lock queue for
     * the transaction's address exists at the moment of the move.
     */
    void
    transition(std::uint64_t id, Addr addr, TxState from, TxState to,
               bool lock_held)
    {
        const int e = txEdgeIndex(from, to);
        if (e < 0)
            throw TxAuditError(
                "illegal transition " + std::string(toString(from)) +
                " -> " + toString(to) + " (tx " + std::to_string(id) +
                ", addr " + std::to_string(addr) + ")");
        if (from != TxState::Issued && !lock_held)
            throw TxAuditError(
                "transition " + std::string(toString(from)) + " -> " +
                toString(to) + " without the block lock held (tx " +
                std::to_string(id) + ")");
        ++edgeCount_[static_cast<std::size_t>(e)];
    }

    /** The parallel off-chip fetch may only start while searching. */
    void
    checkMemStart(std::uint64_t id, TxState state, bool served_by_l2)
    {
        if (state != TxState::Searching)
            throw TxAuditError("startMemory in state " +
                               std::string(toString(state)) + " (tx " +
                               std::to_string(id) + ")");
        if (served_by_l2)
            throw TxAuditError("startMemory after servedByL2 (tx " +
                               std::to_string(id) + ")");
    }

    /** Waiter latency monotonicity at attribution. */
    void
    checkWaiterLatency(std::uint64_t id, Cycle completion, Cycle issue)
    {
        if (completion < issue)
            throw TxAuditError(
                "waiter latency underflow: completion " +
                std::to_string(completion) + " < issue " +
                std::to_string(issue) + " (tx " + std::to_string(id) +
                ")");
    }

    /** Directory owner / L2-copy consistency at teardown. */
    void
    checkDone(std::uint64_t id, bool is_write, std::uint32_t self_l1,
              const BlockInfo *e)
    {
        if (!is_write)
            return;
        if (e == nullptr)
            throw TxAuditError("write completed without a directory "
                               "entry (tx " +
                               std::to_string(id) + ")");
        if (e->ownerKind() != OwnerKind::L1 || e->ownerIndex() != self_l1 ||
            e->numL1Holders() != 1 || e->anyL2Copy())
            throw TxAuditError(
                "write done but requester is not the sole owner (tx " +
                std::to_string(id) + ": holders " +
                std::to_string(e->numL1Holders()) + ", l2Copies " +
                std::to_string(e->numL2Copies()) + ")");
    }

    /** Per-edge transition counts, indexed like kTxEdges. */
    const std::array<std::uint64_t, kNumTxEdges> &
    edgeCounts() const
    {
        return edgeCount_;
    }

    /** Merge another auditor's counters (coverage across runs). */
    void
    merge(const TxAudit &other)
    {
        for (std::size_t i = 0; i < kNumTxEdges; ++i)
            edgeCount_[i] += other.edgeCount_[i];
    }

    /** Names of the table edges this auditor never saw. */
    std::vector<std::string>
    uncoveredEdges() const
    {
        std::vector<std::string> out;
        for (std::size_t i = 0; i < kNumTxEdges; ++i)
            if (edgeCount_[i] == 0)
                out.push_back(std::string(toString(kTxEdges[i].from)) +
                              " -> " + toString(kTxEdges[i].to));
        return out;
    }

  private:
    std::array<std::uint64_t, kNumTxEdges> edgeCount_{};
};

#else // !ESPNUCA_TX_AUDIT

/** Release stub: every hook is an empty inline body. */
class TxAudit
{
  public:
    void
    transition(std::uint64_t, Addr, TxState, TxState, bool)
    {
    }
    void
    checkMemStart(std::uint64_t, TxState, bool)
    {
    }
    void
    checkWaiterLatency(std::uint64_t, Cycle, Cycle)
    {
    }
    void
    checkDone(std::uint64_t, bool, std::uint32_t, const BlockInfo *)
    {
    }
};

#endif // ESPNUCA_TX_AUDIT

} // namespace espnuca

#endif // ESPNUCA_COHERENCE_TX_AUDIT_HPP_
