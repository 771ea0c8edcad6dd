/**
 * @file
 * SP-NUCA (paper Section 2): a shared S-NUCA substrate where every block
 * carries a private bit. Blocks fill as private into the requester's
 * nearest banks (private mapping); a second core's access resets the bit
 * and migrates the block to its shared home bank. The search follows
 * Figure 2b: local private bank (1), shared home bank + memory (2),
 * remote private banks in parallel (3').
 *
 * The private/shared way partition inside each set is dynamic, decided
 * by the replacement policy: flat LRU by default, or the Figure 4
 * comparison points (static 12/4 partition, shadow tags).
 */

#ifndef ESPNUCA_ARCH_SP_NUCA_HPP_
#define ESPNUCA_ARCH_SP_NUCA_HPP_

#include <memory>
#include <string>

#include "coherence/l2_org.hpp"
#include "coherence/protocol.hpp"
#include "common/slab.hpp"

namespace espnuca {

/** Way-partitioning flavor for SP-NUCA (Figure 4). */
enum class SpPartition : std::uint8_t {
    FlatLru,    //!< the paper's cost-effective choice
    Static,     //!< fixed 12 private / 4 shared ways (after [23])
    ShadowTags, //!< utility-driven, 8 shadow tags per set (after [19, 8])
};

/** Shared-Private NUCA. */
class SpNuca : public L2Org
{
  public:
    explicit SpNuca(const SystemConfig &cfg,
                    SpPartition partition = SpPartition::FlatLru)
        : SpNuca(cfg, partition, partitionBanks(cfg, partition))
    {
    }

    std::string
    name() const override
    {
        switch (partition_) {
          case SpPartition::Static: return "sp-nuca-static";
          case SpPartition::ShadowTags: return "sp-nuca-shadow";
          default: return "sp-nuca";
        }
    }

    bool placesHelpingBlocks() const override { return true; }

    void
    search(Transaction &tx) override
    {
        // Step 1 (Figure 2b): the requester's private bank.
        const BankId priv = map_.privateBank(tx.core, tx.addr);
        const std::uint32_t pset = map_.privateSet(tx.addr);
        proto().probe(
            tx, priv, pset, localMatch(), tx.reqNode, tx.searchStart,
            [this, &tx, priv, pset](const ProbeResult &r, Cycle t) {
                if (r.way != kNoWay) {
                    proto().resolve(tx, L2HitAt{priv, pset, r.way, t});
                    return;
                }
                searchShared(tx, priv, t);
            });
    }

    void
    onMemFill(Transaction &tx, Cycle t) override
    {
        // Fresh blocks are private and live near their only user.
        BlockMeta blk;
        blk.addr = tx.addr;
        blk.valid = true;
        blk.dirty = false;
        blk.cls = BlockClass::Private;
        blk.owner = tx.core;
        const BankId bank = map_.privateBank(tx.core, tx.addr);
        const InsertResult res = applyInsert(
            bank, map_.privateSet(tx.addr), blk, /*owner_token=*/true);
        if (res.inserted && res.evicted.valid)
            onL2Displaced(res.evicted, bank, t);
    }

    bool
    onL1Eviction(CoreId c, const BlockMeta &blk, Cycle t) override
    {
        const BlockInfo *e = proto().dir().find(blk.addr);
        const bool shared = e != nullptr && e->sharedStatus();
        BlockMeta store = blk;
        BankId bank;
        std::uint32_t set;
        if (shared) {
            store.cls = BlockClass::Shared;
            store.owner = kInvalidCore;
            bank = map_.sharedBank(blk.addr);
            set = map_.sharedSet(blk.addr);
        } else {
            store.cls = BlockClass::Private;
            store.owner = c;
            bank = map_.privateBank(c, blk.addr);
            set = map_.privateSet(blk.addr);
        }
        const InsertResult res =
            storeOrRefresh(bank, set, store, blk.hasOwnerToken);
        if (res.evicted.valid)
            onL2Displaced(res.evicted, bank, t);
        if (res.inserted && shared)
            maybeCreateReplica(c, blk, t);
        return res.inserted;
    }

    void
    onL2ReadHit(Transaction &tx, BankId bank, std::uint32_t set, int way,
                Cycle t) override
    {
        const BlockMeta m = this->bank(bank).meta(set, way);
        if (m.cls == BlockClass::Private && m.owner != tx.core) {
            // Privatization (Figure 2b step 3'): reset the private bit
            // and migrate the block to its shared home bank.
            migrateToShared(bank, set, way, t);
            return;
        }
        if (m.cls == BlockClass::Replica && tx.core != m.owner) {
            // A remote core was served by someone else's replica (the
            // home copy is gone): re-establish the home copy so future
            // sharers take the fast home path again.
            reestablishHome(bank, set, way, t);
            return;
        }
        if (m.cls == BlockClass::Victim) {
            if (tx.core == m.owner) {
                // The owner reclaimed its victim: swap it back into the
                // private partition.
                swapVictimBack(tx.core, bank, set, way, t);
            } else {
                // A second core touched remote private data: the block
                // becomes first-class shared in place (it already lives
                // in its home bank's shared set).
                this->bank(bank).setClass(set, way, BlockClass::Shared,
                                          kInvalidCore);
            }
        }
    }

  protected:
    /** For subclasses that build their banks their own way (ESP-NUCA). */
    SpNuca(const SystemConfig &cfg, SpPartition partition,
           const BankSpec &banks)
        : L2Org(cfg, banks), partition_(partition)
    {
    }

    /** Tag-match class filter for the requester's own partition. */
    virtual ClassMask localMatch() const { return kMatchPrivate; }

    /** Tag-match class filter at the shared home bank. */
    virtual ClassMask homeMatch() const { return kMatchShared; }

    /** Tag-match class filter when probing remote private banks. */
    virtual ClassMask
    remoteMatch() const
    {
        return kMatchPrivate | kMatchReplica;
    }

    /** Hook: ESP-NUCA creates victims from displaced private blocks. */
    virtual void
    onL2Displaced(const BlockMeta &blk, BankId from_bank, Cycle t)
    {
        dropDisplaced(blk, from_bank, t);
    }

    /** Hook: ESP-NUCA creates replicas of shared blocks on L1 evicts. */
    virtual void
    maybeCreateReplica(CoreId c, const BlockMeta &blk, Cycle t)
    {
        (void)c;
        (void)blk;
        (void)t;
    }

    /** The banks of the selected partition flavor (no monitors). */
    static BankSpec
    partitionBanks(const SystemConfig &cfg, SpPartition partition)
    {
        switch (partition) {
          case SpPartition::Static:
            return BankSpec::shared(std::make_shared<StaticPartitionLru>(
                cfg.l2Ways * 3 / 4, cfg.l2Ways));
          case SpPartition::ShadowTags:
            // Stateful: one instance per bank.
            return {[sets = cfg.l2SetsPerBank(), ways = cfg.l2Ways](BankId) {
                        return std::make_shared<ShadowTagPolicy>(sets, ways);
                    },
                    /*withMonitor=*/false};
          case SpPartition::FlatLru:
            break;
        }
        return BankSpec::shared(std::make_shared<FlatLru>());
    }

    /** Figure 2b step 2: shared home bank, memory in parallel. */
    void
    searchShared(Transaction &tx, BankId from_bank, Cycle t)
    {
        const BankId home = map_.sharedBank(tx.addr);
        const std::uint32_t sset = map_.sharedSet(tx.addr);
        const NodeId from = proto().topo().bankNode(from_bank);
        // TokenD: the request is forwarded to the memory controller in
        // parallel only when the directory shows the block is off chip.
        const BlockInfo *e = proto().dir().find(tx.addr);
        if (e == nullptr || !e->onChip())
            proto().startMemory(tx, from, t);
        proto().probe(
            tx, home, sset, homeMatch(), from, t,
            [this, &tx, home, sset](const ProbeResult &r, Cycle t2) {
                if (r.way != kNoWay) {
                    proto().resolve(tx, L2HitAt{home, sset, r.way, t2});
                    return;
                }
                searchRemotePrivate(tx, home, t2);
            });
    }

    /** Figure 2b step 3': probe the other private banks in parallel. */
    void
    searchRemotePrivate(Transaction &tx, BankId home, Cycle t)
    {
        const NodeId home_node = proto().topo().bankNode(home);
        // Fan-out state lives on a slab and is captured as a raw
        // pointer, which keeps the probe continuations trivially
        // copyable (a shared_ptr would reintroduce a refcount and a
        // manage dispatch on every event relocation). Every sibling
        // continuation fires exactly once — probes are never dropped —
        // so the last one to fire returns the slot.
        // The broadcast fans out in core-id space (one probe per other
        // core's private bank); hop costs come from the placement via
        // bankNode(), so the search is placement-independent and runs
        // unchanged on non-paper meshes.
        RemoteSearch *state = searchSlab_.acquire();
        state->remaining = cfg_.numCores - 1;
        state->pendingResponses = cfg_.numCores - 1;
        state->lastResponse = t;
        for (CoreId c = 0; c < cfg_.numCores; ++c) {
            if (c == tx.core)
                continue;
            const BankId b = map_.privateBank(c, tx.addr);
            const std::uint32_t pset = map_.privateSet(tx.addr);
            proto().probe(
                tx, b, pset, remoteMatch(), home_node, t,
                [this, &tx, b, pset, home_node, state](const ProbeResult &r,
                                                       Cycle t2) {
                    RemoteSearch &s = *state;
                    const bool last = --s.remaining == 0;
                    if (!s.resolved) {
                        if (r.way != kNoWay) {
                            s.resolved = true;
                            proto().resolve(tx,
                                            L2HitAt{b, pset, r.way, t2});
                        } else {
                            // Negative responses return to the home
                            // bank; the all-miss verdict lands with the
                            // slowest of them.
                            const Cycle back = proto().mesh().deliveryTime(
                                proto().topo().bankNode(b), home_node,
                                cfg_.ctrlMsgBytes, t2);
                            s.lastResponse =
                                std::max(s.lastResponse, back);
                            if (--s.pendingResponses == 0) {
                                s.resolved = true;
                                proto().resolve(
                                    tx,
                                    L2MissAt{home_node, s.lastResponse});
                            }
                        }
                    }
                    if (last)
                        searchSlab_.release(state);
                });
        }
    }

    /** Copy a replica-served block back into its shared home bank. */
    void
    reestablishHome(BankId bank, std::uint32_t set, int way, Cycle t)
    {
        BlockMeta blk = this->bank(bank).meta(set, way);
        const BankId home = map_.sharedBank(blk.addr);
        const BlockInfo *e = proto().dir().find(blk.addr);
        if (e != nullptr && e->hasL2Copy(home))
            return;
        blk.cls = BlockClass::Shared;
        blk.owner = kInvalidCore;
        blk.dirty = false; // the replica is a clean copy
        proto().mesh().deliveryTime(proto().topo().bankNode(bank),
                                    proto().topo().bankNode(home),
                                    cfg_.dataMsgBytes, t);
        const InsertResult res = applyInsert(
            home, map_.sharedSet(blk.addr), blk, /*owner_token=*/false);
        if (res.inserted && res.evicted.valid)
            onL2Displaced(res.evicted, home, t);
    }

    /** Reset the private bit and move the block to its home bank. */
    void
    migrateToShared(BankId bank, std::uint32_t set, int way, Cycle t)
    {
        CacheBank &b = this->bank(bank);
        BlockMeta blk = b.meta(set, way);
        b.invalidate(set, way);
        proto().dir().removeL2(blk.addr, bank);
        blk.cls = BlockClass::Shared;
        blk.owner = kInvalidCore;
        const BankId home = map_.sharedBank(blk.addr);
        // The data travels from the private bank to the home bank.
        proto().mesh().deliveryTime(proto().topo().bankNode(bank),
                                    proto().topo().bankNode(home),
                                    cfg_.dataMsgBytes, t);
        const InsertResult res = applyInsert(
            home, map_.sharedSet(blk.addr), blk, blk.hasOwnerToken);
        if (res.inserted && res.evicted.valid)
            onL2Displaced(res.evicted, home, t);
        else if (!res.inserted && blk.dirty)
            proto().writebackToMemory(
                blk.addr, proto().topo().bankNode(home), t);
    }

    /** Move a reclaimed victim back into the owner's private bank. */
    void
    swapVictimBack(CoreId c, BankId bank, std::uint32_t set, int way,
                   Cycle t)
    {
        CacheBank &b = this->bank(bank);
        BlockMeta blk = b.meta(set, way);
        b.invalidate(set, way);
        proto().dir().removeL2(blk.addr, bank);
        blk.cls = BlockClass::Private;
        blk.owner = c;
        const BankId priv = map_.privateBank(c, blk.addr);
        proto().mesh().deliveryTime(proto().topo().bankNode(bank),
                                    proto().topo().bankNode(priv),
                                    cfg_.dataMsgBytes, t);
        const InsertResult res = applyInsert(
            priv, map_.privateSet(blk.addr), blk, blk.hasOwnerToken);
        if (res.inserted && res.evicted.valid)
            onL2Displaced(res.evicted, priv, t);
        else if (!res.inserted && blk.dirty)
            proto().writebackToMemory(
                blk.addr, proto().topo().bankNode(priv), t);
    }

    SpPartition partition_;

  private:
    struct RemoteSearch
    {
        std::uint32_t remaining = 0; //!< continuations yet to fire
        std::uint32_t pendingResponses = 0;
        Cycle lastResponse = 0;
        bool resolved = false;
    };
    // Recycles fan-out state; events may outlive a bounded run, so the
    // slab (whose chunks are never moved or freed while it lives) is
    // the only safe owner.
    Slab<RemoteSearch, 64> searchSlab_;
};

} // namespace espnuca

#endif // ESPNUCA_ARCH_SP_NUCA_HPP_
