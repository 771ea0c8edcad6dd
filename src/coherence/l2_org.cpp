/**
 * @file
 * Shared helpers for L2 organizations.
 */

#include "coherence/l2_org.hpp"

#include "coherence/protocol.hpp"

namespace espnuca {

L2Org::L2Org(const SystemConfig &cfg, const BankSpec &banks)
    : cfg_(cfg), map_(cfg)
{
    banks_.reserve(cfg_.l2Banks);
    for (BankId b = 0; b < cfg_.l2Banks; ++b)
        banks_.push_back(std::make_unique<CacheBank>(
            cfg_, b, banks.policy(b), banks.withMonitor));
}

std::uint32_t
L2Org::invalidateAllL2Copies(Addr a)
{
    Directory &d = proto().dir();
    const BlockInfo *e = d.find(a);
    if (e == nullptr)
        return 0;
    // Snapshot the copy mask before the removals mutate the entry; the
    // ascending bit walk preserves the old target-list order.
    const L2CopyMask targets = e->l2Copies();
    targets.forEachSet([&](std::uint32_t bit) {
        const BankId b = static_cast<BankId>(bit);
        const auto [set, way] = findCopy(b, a);
        ESP_ASSERT(way != kNoWay, "directory bit without a bank copy");
        banks_[b]->invalidate(set, way);
        d.removeL2(a, b);
    });
    return targets.count();
}

InsertResult
L2Org::applyInsert(BankId b, std::uint32_t set, const BlockMeta &blk,
                   bool owner_token)
{
    // The bank may already hold a copy (timing races are legal: e.g. a
    // status flip while a stale private-mapped copy lingers). Merging
    // into the resident copy is the coherent outcome — duplicate copies
    // in one bank would be the real bug.
    const BlockInfo *e = proto().dir().find(blk.addr);
    if (e != nullptr && e->hasL2Copy(b)) {
        const auto [eset, eway] = findCopy(b, blk.addr);
        ESP_ASSERT(eway != kNoWay, "directory bit without a bank copy");
        const BlockMeta m = banks_[b]->meta(eset, eway);
        if (blk.dirty && !m.dirty)
            banks_[b]->setDirty(eset, eway, true);
        if (owner_token && !m.hasOwnerToken) {
            banks_[b]->setOwnerToken(eset, eway, true);
            proto().dir().setOwner(blk.addr, OwnerKind::L2Bank, b);
        }
        banks_[b]->touch(eset, eway);
        InsertResult res;
        res.inserted = true;
        return res;
    }
    BlockMeta incoming = blk;
    incoming.valid = true;
    incoming.hasOwnerToken = owner_token;
    InsertResult res = banks_[b]->insert(set, incoming);
    if (!res.inserted)
        return res;
    if (res.evicted.valid) {
        proto().dir().removeL2(res.evicted.addr, b);
        // Protected-LRU displacement: the policy chose to sacrifice
        // this block (helping blocks first, by design).
        if (obs::Tracer *tr = proto().tracer(); tr && tr->enabled())
            tr->record(obs::TraceKind::L2Evict, proto().eq().now(),
                       tr->currentTx(), res.evicted.addr,
                       static_cast<std::uint16_t>(b), 0,
                       static_cast<std::uint32_t>(res.evicted.cls));
    }
    proto().dir().addL2(blk.addr, b, owner_token);
    return res;
}

void
L2Org::dropDisplaced(const BlockMeta &blk, BankId from_bank, Cycle t)
{
    if (blk.dirty) {
        proto().writebackToMemory(
            blk.addr, proto().topo().bankNode(from_bank), t);
    }
}

bool
L2Org::insertWithDrop(BankId b, std::uint32_t set, const BlockMeta &blk,
                      bool owner_token, Cycle t)
{
    const InsertResult res = applyInsert(b, set, blk, owner_token);
    if (res.inserted && res.evicted.valid)
        dropDisplaced(res.evicted, b, t);
    return res.inserted;
}

InsertResult
L2Org::storeOrRefresh(BankId b, std::uint32_t set, const BlockMeta &blk,
                      bool owner_token)
{
    const int way = banks_[b]->findAny(set, blk.addr);
    if (way != kNoWay) {
        const BlockMeta m = banks_[b]->meta(set, way);
        if (blk.dirty && !m.dirty)
            banks_[b]->setDirty(set, way, true);
        if (owner_token && !m.hasOwnerToken) {
            banks_[b]->setOwnerToken(set, way, true);
            proto().dir().setOwner(blk.addr, OwnerKind::L2Bank, b);
        }
        banks_[b]->touch(set, way);
        InsertResult res;
        res.inserted = true;
        return res;
    }
    return applyInsert(b, set, blk, owner_token);
}

std::uint64_t
L2Org::totalDemandAccesses() const
{
    std::uint64_t n = 0;
    for (const auto &b : banks_)
        n += b->demandAccesses();
    return n;
}

std::uint64_t
L2Org::totalDemandHits() const
{
    std::uint64_t n = 0;
    for (const auto &b : banks_)
        n += b->demandHits();
    return n;
}

} // namespace espnuca
