/**
 * @file
 * Search stage of the transaction FSM: the typed resolution entries
 * resolve(L2HitAt) / resolve(L2MissAt) driving Searching -> {HitReturn,
 * MissMemWait}, and the parallel off-chip fetch (Figure 2b step 2). The
 * bank probe itself is a template, defined in l2_org.hpp.
 */

#include "coherence/protocol.hpp"

#include <algorithm>
#include <utility>

#include "coherence/l2_org.hpp"
#include "common/log.hpp"
#include "obs/profiler.hpp"

namespace espnuca {

void
Protocol::resolve(Transaction &tx, const L2HitAt &hit)
{
    handleL2Hit(tx, hit.bank, hit.set, hit.way, hit.tagDone);
}

void
Protocol::resolve(Transaction &tx, const L2MissAt &miss)
{
    handleL2Miss(tx, miss.lastNode, miss.t);
}

void
Protocol::handleL2Hit(Transaction &tx, BankId bank,
                      std::uint32_t set_index, int way, Cycle tag_done)
{
    ESP_ASSERT(!tx.servedByL2, "double l2Hit");
    if (tracer_)
        tracer_->setCurrentTx(tx.id);
    // Revalidate: the block may have been displaced or migrated between
    // the probe and this call.
    const int live_way = org_.bank(bank).findAny(set_index, tx.addr);
    if (live_way == kNoWay) {
        handleL2Miss(tx, topo_.bankNode(bank), tag_done);
        return;
    }
    way = live_way;
    transition(tx, TxState::HitReturn, tag_done);
    tx.servedByL2 = true;
    tx.hitBank = bank;
    tx.hitSet = set_index;
    tx.hitWay = way;

    CacheBank &b = org_.bank(bank);
    b.touch(set_index, way);
    b.bumpHits(set_index, way);
    const Cycle data_done = b.dataAccess(tag_done);
    const NodeId node = topo_.bankNode(bank);
    const Cycle data_at_req =
        mesh_.deliveryTime(node, tx.reqNode, cfg_.dataMsgBytes, data_done);

    // Attribution: requester's partition -> local/private; the shared
    // home bank -> shared; any other bank -> remote L2.
    if (map_.isLocalBank(tx.core, bank))
        tx.level = ServiceLevel::LocalPrivateL2;
    else if (bank == map_.sharedBank(tx.addr))
        tx.level = ServiceLevel::SharedL2;
    else
        tx.level = ServiceLevel::RemoteL2;

    Cycle completion = data_at_req;
    if (tx.isWrite) {
        // Token collection is ordered at the home bank (TokenD).
        const NodeId home = topo_.bankNode(map_.sharedBank(tx.addr));
        const Cycle t_home =
            node == home
                ? data_done
                : mesh_.deliveryTime(node, home, cfg_.ctrlMsgBytes,
                                     data_done);
        completion = std::max(completion, collectTokens(tx, t_home));
    } else {
        org_.onL2ReadHit(tx, bank, set_index, way, data_done);
    }
    finish(&tx, completion);
}

void
Protocol::handleL2Miss(Transaction &tx, NodeId last_node, Cycle t)
{
    ESP_ASSERT(!tx.servedByL2, "l2Miss after l2Hit");
    if (tracer_)
        tracer_->setCurrentTx(tx.id);
    const NodeId home = topo_.bankNode(map_.sharedBank(tx.addr));
    const Cycle t_home =
        last_node == home
            ? t
            : mesh_.deliveryTime(last_node, home, cfg_.ctrlMsgBytes, t);

    // TokenD: the home directory knows the L1 holders.
    const BlockInfo *e = dir_.find(tx.addr);
    const L1Id self = l1IdOf(tx.core, tx.type == AccessType::Ifetch);
    L1Id source = 0;
    bool have_source = false;
    if (e && e->anyL1Holder()) {
        if (e->ownerKind() == OwnerKind::L1 && e->ownerIndex() != self) {
            source = static_cast<L1Id>(e->ownerIndex());
            have_source = true;
        } else {
            // Nearest holder to the requester supplies the data; the
            // ascending bit walk keeps the old loop's tie-breaking.
            std::uint32_t best_hops = ~0u;
            e->l1Holders().withCleared(self).forEachSet(
                [&](std::uint32_t bit) {
                    const L1Id h = static_cast<L1Id>(bit);
                    const std::uint32_t d = topo_.hops(
                        tx.reqNode, topo_.coreNode(coreOfL1(h)));
                    if (d < best_hops) {
                        best_hops = d;
                        source = h;
                        have_source = true;
                    }
                });
        }
    }

    if (have_source) {
        // A remote L1 supplies the data: an on-chip return.
        transition(tx, TxState::HitReturn, t_home);
        const NodeId src_node = topo_.coreNode(coreOfL1(source));
        const Cycle t_fwd = mesh_.deliveryTime(
            home, src_node, cfg_.ctrlMsgBytes, t_home);
        // Forwarded L1s respond after an L1 array read.
        const Cycle data_at_req = mesh_.deliveryTime(
            src_node, tx.reqNode, cfg_.dataMsgBytes,
            t_fwd + cfg_.l1Latency);
        tx.level = ServiceLevel::RemoteL1;
        Cycle completion = data_at_req;
        if (tx.isWrite)
            completion = std::max(completion, collectTokens(tx, t_home));
        finish(&tx, completion);
        return;
    }

    // Directory-guided remote L2 copy (e.g. a peer tile holding a spilled
    // or replicated block in the private-cache organizations): the home
    // directory forwards the request to the nearest holding bank.
    if (e != nullptr && e->anyL2Copy()) {
        transition(tx, TxState::HitReturn, t_home);
        BankId src_bank = kInvalidBank;
        std::uint32_t best_hops = ~0u;
        e->l2Copies().forEachSet([&](std::uint32_t bit) {
            const BankId b = static_cast<BankId>(bit);
            const std::uint32_t d =
                topo_.hops(tx.reqNode, topo_.bankNode(b));
            if (d < best_hops) {
                best_hops = d;
                src_bank = b;
            }
        });
        const auto [set, way] = org_.findCopy(src_bank, tx.addr);
        ESP_ASSERT(way != kNoWay, "directory bit without a bank copy");
        const NodeId bank_node = topo_.bankNode(src_bank);
        const Cycle t_fwd = mesh_.deliveryTime(
            home, bank_node, cfg_.ctrlMsgBytes, t_home);
        CacheBank &b = org_.bank(src_bank);
        const Cycle data_done = b.dataAccess(b.tagProbe(t_fwd));
        const Cycle data_at_req = mesh_.deliveryTime(
            bank_node, tx.reqNode, cfg_.dataMsgBytes, data_done);
        b.touch(set, way);
        tx.servedByL2 = true;
        tx.hitBank = src_bank;
        tx.hitSet = set;
        tx.hitWay = way;
        if (map_.isLocalBank(tx.core, src_bank))
            tx.level = ServiceLevel::LocalPrivateL2;
        else if (src_bank == map_.sharedBank(tx.addr))
            tx.level = ServiceLevel::SharedL2;
        else
            tx.level = ServiceLevel::RemoteL2;
        Cycle completion = data_at_req;
        if (tx.isWrite)
            completion = std::max(completion, collectTokens(tx, t_home));
        else
            org_.onL2ReadHit(tx, src_bank, set, way, data_done);
        finish(&tx, completion);
        return;
    }

    // Off chip.
    if (!tx.memStarted)
        startMemory(tx, home, t_home);
    transition(tx, TxState::MissMemWait, t_home);
    tx.level = ServiceLevel::OffChip;
    Cycle completion = std::max(tx.memDataAtReq, t_home);
    if (tx.isWrite)
        completion = std::max(completion, collectTokens(tx, t_home));
    finish(&tx, completion);
}

void
Protocol::startMemory(Transaction &tx, NodeId from_node, Cycle t)
{
    if (tx.memStarted)
        return;
#if ESPNUCA_TX_AUDIT
    audit_.checkMemStart(tx.id, tx.state, tx.servedByL2);
#endif
    tx.memStarted = true;
    if (tracer_)
        tracer_->setCurrentTx(tx.id);
    const std::uint32_t mc = map_.memController(tx.addr);
    const NodeId mc_node = topo_.memNode(mc);
    const Cycle t_req =
        mesh_.deliveryTime(from_node, mc_node, cfg_.ctrlMsgBytes, t);
    const Cycle t_ready = mcs_[mc].access(t_req);
    tx.memDataAtReq = mesh_.deliveryTime(mc_node, tx.reqNode,
                                         cfg_.dataMsgBytes, t_ready);
    ++offChipFetches_;
    if (tracer_ && tracer_->enabled())
        tracer_->record(obs::TraceKind::MemFill, t_req, tx.id, tx.addr,
                        static_cast<std::uint16_t>(mc),
                        static_cast<std::uint8_t>(tx.core),
                        static_cast<std::uint32_t>(tx.memDataAtReq -
                                                   t_req));
}

} // namespace espnuca
