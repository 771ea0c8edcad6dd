/**
 * @file
 * Static-NUCA shared L2 (the paper's "Shared" baseline): every block has
 * exactly one possible location, the home bank given by the shared
 * address interpretation.
 */

#ifndef ESPNUCA_ARCH_SNUCA_HPP_
#define ESPNUCA_ARCH_SNUCA_HPP_

#include <memory>
#include <string>

#include "coherence/l2_org.hpp"
#include "coherence/protocol.hpp"

namespace espnuca {

/** Shared static NUCA. */
class Snuca : public L2Org
{
  public:
    explicit Snuca(const SystemConfig &cfg)
        : L2Org(cfg, BankSpec::shared(std::make_shared<FlatLru>()))
    {
    }

    std::string name() const override { return "shared"; }

    void
    search(Transaction &tx) override
    {
        const BankId home = map_.sharedBank(tx.addr);
        const std::uint32_t set = map_.sharedSet(tx.addr);
        proto().probe(
            tx, home, set, kMatchAny,
            tx.reqNode, tx.searchStart,
            [this, &tx, home, set](const ProbeResult &r, Cycle t) {
                if (r.way != kNoWay)
                    proto().resolve(tx, L2HitAt{home, set, r.way, t});
                else
                    proto().resolve(
                        tx, L2MissAt{proto().topo().bankNode(home), t});
            });
    }

    void
    onMemFill(Transaction &tx, Cycle t) override
    {
        BlockMeta blk;
        blk.addr = tx.addr;
        blk.valid = true;
        blk.dirty = false;
        blk.cls = BlockClass::Shared;
        blk.owner = kInvalidCore;
        insertWithDrop(map_.sharedBank(tx.addr), map_.sharedSet(tx.addr),
                       blk, /*owner_token=*/true, t);
    }

    bool
    onL1Eviction(CoreId c, const BlockMeta &blk, Cycle t) override
    {
        (void)c;
        BlockMeta store = blk;
        store.cls = BlockClass::Shared;
        store.owner = kInvalidCore;
        const InsertResult res =
            storeOrRefresh(map_.sharedBank(blk.addr),
                           map_.sharedSet(blk.addr), store,
                           blk.hasOwnerToken);
        if (res.evicted.valid)
            dropDisplaced(res.evicted, map_.sharedBank(blk.addr), t);
        return res.inserted;
    }
};

} // namespace espnuca

#endif // ESPNUCA_ARCH_SNUCA_HPP_
