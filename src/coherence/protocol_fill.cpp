/**
 * @file
 * Fill/placement stage of the transaction FSM: token collection for
 * writes, the completion-time coherence sweep, L1 fills and evictions,
 * and the memory writeback path. These helpers run inside the
 * HitReturn/Upgrading/MissFillPlace stages on behalf of finish().
 */

#include "coherence/protocol.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "coherence/l2_org.hpp"
#include "common/log.hpp"
#include "obs/profiler.hpp"

namespace espnuca {

Cycle
Protocol::collectTokens(Transaction &tx, Cycle t_ordering)
{
    const BlockInfo *e = dir_.find(tx.addr);
    if (e == nullptr)
        return t_ordering;
    const L1Id self = l1IdOf(tx.core, tx.type == AccessType::Ifetch);
    Cycle last_ack = t_ordering;
    const NodeId home = topo_.bankNode(map_.sharedBank(tx.addr));

    // Invalidate every other L1 holder. The holder set is snapshot as
    // a bitmask (the drops below mutate the live entry) and walked in
    // ascending L1Id order, matching the old target-list iteration.
    const L1HolderMask l1_targets = e->l1Holders().withCleared(self);
    l1_targets.forEachSet([&](std::uint32_t bit) {
        const L1Id h = static_cast<L1Id>(bit);
        const NodeId n = topo_.coreNode(coreOfL1(h));
        const Cycle t_inv =
            mesh_.deliveryTime(home, n, cfg_.ctrlMsgBytes, t_ordering);
        const Cycle t_ack = mesh_.deliveryTime(
            n, tx.reqNode, cfg_.ctrlMsgBytes, t_inv + cfg_.l1TagLatency);
        last_ack = std::max(last_ack, t_ack);
        ++invalsSent_;
        dropL1Copy(tx.addr, h);
    });

    // Invalidate every L2 copy (tokens flow to the writer).
    e = dir_.find(tx.addr); // may have been released above
    const L2CopyMask l2_targets =
        e != nullptr ? e->l2Copies() : L2CopyMask{};
    l2_targets.forEachSet([&](std::uint32_t bit) {
        const BankId b = static_cast<BankId>(bit);
        const NodeId n = topo_.bankNode(b);
        const Cycle t_inv =
            mesh_.deliveryTime(home, n, cfg_.ctrlMsgBytes, t_ordering);
        const Cycle t_ack = mesh_.deliveryTime(
            n, tx.reqNode, cfg_.ctrlMsgBytes,
            t_inv + cfg_.l2TagLatency);
        last_ack = std::max(last_ack, t_ack);
        ++invalsSent_;
        const auto [set, way] = org_.findCopy(b, tx.addr);
        ESP_ASSERT(way != kNoWay, "directory bit without a bank copy");
        org_.bank(b).invalidate(set, way);
        dir_.removeL2(tx.addr, b);
    });
    return last_ack;
}

void
Protocol::sweepForWrite(Transaction &tx)
{
    const BlockInfo *e = dir_.find(tx.addr);
    if (e == nullptr)
        return;
    const L1Id self = l1IdOf(tx.core, tx.type == AccessType::Ifetch);
    // Snapshot the holder masks before mutating the live entry; the
    // ascending bit walk preserves the old target-list order.
    const L1HolderMask l1_targets = e->l1Holders().withCleared(self);
    l1_targets.forEachSet([&](std::uint32_t bit) {
        dropL1Copy(tx.addr, static_cast<L1Id>(bit));
    });
    e = dir_.find(tx.addr);
    if (e == nullptr)
        return;
    const L2CopyMask l2_targets = e->l2Copies();
    l2_targets.forEachSet([&](std::uint32_t bit) {
        const BankId b = static_cast<BankId>(bit);
        const auto [set, way] = org_.findCopy(b, tx.addr);
        ESP_ASSERT(way != kNoWay, "directory bit without a bank copy");
        org_.bank(b).invalidate(set, way);
        dir_.removeL2(tx.addr, b);
    });
}

void
Protocol::dropL1Copy(Addr a, L1Id id)
{
    l1s_[id].invalidate(a);
    dir_.removeL1(a, id);
}

void
Protocol::writebackToMemory(Addr a, NodeId from_node, Cycle t)
{
    const std::uint32_t mc = map_.memController(a);
    const NodeId mc_node = topo_.memNode(mc);
    const Cycle arrival =
        mesh_.deliveryTime(from_node, mc_node, cfg_.dataMsgBytes, t);
    mcs_[mc].access(arrival);
    ++writebacks_;
    if (tracer_ && tracer_->enabled())
        tracer_->record(obs::TraceKind::MemWriteback, arrival,
                        tracer_->currentTx(), a,
                        static_cast<std::uint16_t>(mc), 0, 0);
}

void
Protocol::fillRequesterL1(Transaction &tx)
{
    const L1Id id = l1IdOf(tx.core, tx.type == AccessType::Ifetch);
    L1Cache &l1 = l1s_[id];
    const Cycle t = eq_.now();

    // Refresh path: the block is already resident (write upgrade, or a
    // lock-serialized read filled it before this same-core write/read).
    const int resident = l1.lookup(tx.addr);
    if (resident != kNoWay) {
        l1.touch(tx.addr, resident);
        if (tx.isWrite) {
            l1.markDirty(tx.addr, resident);
            l1.setOwnerToken(tx.addr, resident, true);
            dir_.setOwner(tx.addr, OwnerKind::L1, id);
        }
        return;
    }

    bool owner = tx.isWrite;
    if (!tx.isWrite) {
        // A read fill takes the owner token only when nobody else can
        // act as the on-chip supplier.
        const BlockInfo *e = dir_.find(tx.addr);
        owner = e == nullptr || (!e->onChip());
    }
    const BlockMeta evicted = l1.fill(tx.addr, tx.isWrite, owner);
    dir_.addL1(tx.addr, id, owner);
    if (tx.isWrite) {
        const BlockInfo *e = dir_.find(tx.addr);
        ESP_ASSERT(e && e->numL1Holders() == 1 && !e->anyL2Copy(),
                   "writer is not the sole holder");
        dir_.setOwner(tx.addr, OwnerKind::L1, id);
    }
    if (evicted.valid)
        handleL1Eviction(tx.core, id, evicted, t);
}

void
Protocol::handleL1Eviction(CoreId c, L1Id id, const BlockMeta &evicted,
                           Cycle t)
{
    // Let the organization place the block first so the directory entry
    // (and the block's private/shared status) survives the L1 -> L2
    // move; only then clear the L1 holder bit. The placement path ends
    // in directory updates for this address; warm the slot while the
    // organization computes the target bank/set.
    dir_.prefetch(evicted.addr);
    const bool stored = org_.onL1Eviction(c, evicted, t);
    dir_.removeL1(evicted.addr, id);
    if (!stored && evicted.dirty)
        writebackToMemory(evicted.addr, topo_.coreNode(c), t);
}

} // namespace espnuca
