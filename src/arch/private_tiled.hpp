/**
 * @file
 * Tiled private L2 (the paper's "Private" baseline): each core owns its 4
 * nearest banks as a private S-NUCA, with unrestricted replication —
 * every L1 write-back is stored in the local tile (paper 6.1). Remote
 * data is found through the TokenD directory (cache-to-cache transfer).
 */

#ifndef ESPNUCA_ARCH_PRIVATE_TILED_HPP_
#define ESPNUCA_ARCH_PRIVATE_TILED_HPP_

#include <memory>
#include <string>

#include "coherence/l2_org.hpp"
#include "coherence/protocol.hpp"

namespace espnuca {

/** Fully private tiled organization. */
class PrivateTiled : public L2Org
{
  public:
    explicit PrivateTiled(const SystemConfig &cfg)
        : L2Org(cfg, BankSpec::shared(std::make_shared<FlatLru>()))
    {
    }

    std::string name() const override { return "private"; }

    void
    search(Transaction &tx) override
    {
        // A core only ever probes its own tile; anything else is found
        // through the directory (l2Miss fallback paths).
        const BankId local = map_.privateBank(tx.core, tx.addr);
        const std::uint32_t set = map_.privateSet(tx.addr);
        proto().probe(
            tx, local, set, kMatchAny,
            tx.reqNode, tx.searchStart,
            [this, &tx, local, set](const ProbeResult &r, Cycle t) {
                if (r.way != kNoWay)
                    proto().resolve(tx, L2HitAt{local, set, r.way, t});
                else
                    proto().resolve(
                        tx, L2MissAt{proto().topo().bankNode(local), t});
            });
    }

    void
    onMemFill(Transaction &tx, Cycle t) override
    {
        // Tiled hierarchies allocate L2 on L1 eviction, not on fill.
        (void)tx;
        (void)t;
    }

    bool
    onL1Eviction(CoreId c, const BlockMeta &blk, Cycle t) override
    {
        BlockMeta store = blk;
        store.cls = BlockClass::Private;
        store.owner = c;
        const BankId bank = map_.privateBank(c, blk.addr);
        const InsertResult res = storeOrRefresh(
            bank, map_.privateSet(blk.addr), store, blk.hasOwnerToken);
        if (res.evicted.valid)
            dropDisplaced(res.evicted, bank, t);
        return res.inserted;
    }
};

} // namespace espnuca

#endif // ESPNUCA_ARCH_PRIVATE_TILED_HPP_
