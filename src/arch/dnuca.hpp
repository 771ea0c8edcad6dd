/**
 * @file
 * D-NUCA baseline ([13], used with the idealized perfect-search CMP
 * variant of [4] as the paper's Section 6.1 describes). A block is
 * pinned by its address to one *bankset* — a pair of tiles, one in
 * each vertical half of the grid (on the paper's 4x3 placement the
 * banksets are exactly the mesh columns); within its bankset it can
 * migrate between the near-half and far-half tiles toward its
 * requesters, and shared data may hold one copy per half (bounded
 * replication). The tile pairing comes from Topology's placement, so
 * the model runs unchanged on 16/32/64-core tiled grids. The search is
 * idealized: the requester goes straight to the bank holding the
 * block, paying no discovery traffic. Cross-bankset distance can never
 * be optimized away — the structural weakness the paper observes on
 * private-heavy workloads.
 */

#ifndef ESPNUCA_ARCH_DNUCA_HPP_
#define ESPNUCA_ARCH_DNUCA_HPP_

#include <memory>
#include <string>

#include "coherence/l2_org.hpp"
#include "coherence/protocol.hpp"

namespace espnuca {

/** Dynamically-mapped NUCA with column banksets and idealized search. */
class Dnuca : public L2Org
{
  public:
    explicit Dnuca(const SystemConfig &cfg)
        : L2Org(cfg, BankSpec::shared(std::make_shared<FlatLru>()))
    {
    }

    std::string name() const override { return "d-nuca"; }

    /** Logical bankset (grid-half tile pair) this address lives in.
     *  The shape comes from Topology's placement, not from hardcoded
     *  4x3 column math; on the paper layout banksets ARE the mesh
     *  columns, bit for bit. */
    std::uint32_t
    column(Addr a) const
    {
        const unsigned col_bits = exactLog2(proto().topo().numBanksets());
        return static_cast<std::uint32_t>(
            bits(a, cfg_.blockOffsetBits(), col_bits));
    }

    /** The bankset member in the top- or bottom-half tile. */
    BankId
    candidateBank(bool bottom_half, Addr a) const
    {
        const Topology &topo = proto().topo();
        const unsigned col_bits = exactLog2(topo.numBanksets());
        const unsigned pos_bits = exactLog2(cfg_.banksPerCore());
        const CoreId tile = topo.banksetTile(bottom_half, column(a));
        // remap(): a dead bank's bankset member folds onto its fault
        // remap target, like every other organization's bank functions.
        return map_.remap(tile * cfg_.banksPerCore() +
                          static_cast<BankId>(
                              bits(a, cfg_.blockOffsetBits() + col_bits,
                                   pos_bits)));
    }

    /** The bankset bank on the requesting core's grid half. */
    BankId
    nearBank(CoreId c, Addr a) const
    {
        return candidateBank(proto().topo().coreHalf(c), a);
    }

    /** Set index used for bankset blocks. */
    std::uint32_t setIndex(Addr a) const { return map_.sharedSet(a); }

    void
    search(Transaction &tx) override
    {
        // Idealized perfect search: go straight to whichever bankset
        // bank holds the block (the near-row copy when both do).
        const BlockInfo *e = proto().dir().find(tx.addr);
        BankId target = kInvalidBank;
        if (e != nullptr) {
            const BankId near = nearBank(tx.core, tx.addr);
            const BankId far = candidateBank(
                !proto().topo().coreHalf(tx.core), tx.addr);
            if (e->hasL2Copy(near))
                target = near;
            else if (e->hasL2Copy(far))
                target = far;
        }
        if (target == kInvalidBank) {
            proto().resolve(tx, L2MissAt{tx.reqNode, tx.searchStart});
            return;
        }
        const std::uint32_t set = setIndex(tx.addr);
        proto().probe(
            tx, target, set, kMatchAny,
            tx.reqNode, tx.searchStart,
            [this, &tx, target, set](const ProbeResult &r, Cycle t) {
                if (r.way != kNoWay)
                    proto().resolve(tx, L2HitAt{target, set, r.way, t});
                else
                    proto().resolve(
                        tx, L2MissAt{proto().topo().bankNode(target), t});
            });
    }

    void
    onMemFill(Transaction &tx, Cycle t) override
    {
        BlockMeta blk;
        blk.addr = tx.addr;
        blk.valid = true;
        blk.cls = BlockClass::Shared; // class is unused by D-NUCA
        blk.owner = kInvalidCore;
        insertWithDrop(nearBank(tx.core, tx.addr), setIndex(tx.addr),
                       blk, /*owner_token=*/true, t);
    }

    bool
    onL1Eviction(CoreId c, const BlockMeta &blk, Cycle t) override
    {
        // Refresh an existing bankset copy when present, preferring the
        // near-row one; otherwise (re)insert on the requester's row.
        const BlockInfo *e = proto().dir().find(blk.addr);
        BankId target = nearBank(c, blk.addr);
        if (e != nullptr && !e->hasL2Copy(target)) {
            const BankId far =
                candidateBank(!proto().topo().coreHalf(c), blk.addr);
            if (e->hasL2Copy(far))
                target = far;
        }
        BlockMeta store = blk;
        store.cls = BlockClass::Shared;
        store.owner = kInvalidCore;
        const InsertResult res = storeOrRefresh(
            target, setIndex(blk.addr), store, blk.hasOwnerToken);
        if (res.evicted.valid)
            dropDisplaced(res.evicted, target, t);
        return res.inserted;
    }

    void
    onL2ReadHit(Transaction &tx, BankId bank, std::uint32_t set, int way,
                Cycle t) override
    {
        const BankId near = nearBank(tx.core, tx.addr);
        if (bank == near)
            return; // already on the requester's row
        const BlockInfo *e = proto().dir().find(tx.addr);
        if (e != nullptr && e->hasL2Copy(near))
            return;
        const bool shared = e != nullptr && e->sharedStatus();
        proto().mesh().deliveryTime(proto().topo().bankNode(bank),
                                    proto().topo().bankNode(near),
                                    cfg_.dataMsgBytes, t);
        if (shared) {
            // Bounded replication: one copy per row.
            BlockMeta copy = this->bank(bank).meta(set, way);
            copy.dirty = false;
            copy.hasOwnerToken = false;
            const InsertResult res =
                applyInsert(near, setIndex(tx.addr), copy, false);
            if (res.inserted) {
                ++replications_;
                if (res.evicted.valid)
                    dropDisplaced(res.evicted, near, t);
                // Demote the far-row copy: replication behaves like
                // lazy migration with a grace period, so the capacity
                // cost of two copies is reclaimed quickly when the far
                // row has no readers of its own.
                this->bank(bank).set(set).demote(way);
            }
            return;
        }
        // Migration: move the sole copy to the requester's row.
        CacheBank &b = this->bank(bank);
        BlockMeta blk = b.meta(set, way);
        b.invalidate(set, way);
        proto().dir().removeL2(blk.addr, bank);
        const InsertResult res = applyInsert(
            near, setIndex(blk.addr), blk, blk.hasOwnerToken);
        if (res.inserted) {
            ++migrations_;
            if (res.evicted.valid)
                dropDisplaced(res.evicted, near, t);
        } else if (blk.dirty) {
            proto().writebackToMemory(blk.addr,
                                      proto().topo().bankNode(near), t);
        }
    }

    std::uint64_t migrations() const { return migrations_; }
    std::uint64_t replications() const { return replications_; }

    void
    saveExtra(SnapshotWriter &w) const override
    {
        w.u64(migrations_);
        w.u64(replications_);
    }

    void
    loadExtra(SnapshotReader &r) override
    {
        migrations_ = r.u64();
        replications_ = r.u64();
    }

  private:
    std::uint64_t migrations_ = 0;
    std::uint64_t replications_ = 0;
};

} // namespace espnuca

#endif // ESPNUCA_ARCH_DNUCA_HPP_
