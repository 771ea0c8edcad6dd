/**
 * @file
 * Cooperative Caching baseline (CC, [5]): a tiled private L2 with
 * cache-to-cache sharing of clean data (via the directory) plus
 * cooperative spilling — when the last on-chip L2 copy of a block is
 * displaced from a tile, it is forwarded once (N = 1 chance forwarding)
 * to a random peer tile with a statically configured cooperation
 * probability (the paper evaluates 0 %, 30 %, 70 % and 100 %).
 */

#ifndef ESPNUCA_ARCH_CC_HPP_
#define ESPNUCA_ARCH_CC_HPP_

#include <memory>
#include <string>

#include "coherence/l2_org.hpp"
#include "coherence/protocol.hpp"
#include "common/rng.hpp"

namespace espnuca {

/** Cooperative Caching with a fixed cooperation probability. */
class CooperativeCaching : public L2Org
{
  public:
    CooperativeCaching(const SystemConfig &cfg, double coop_probability,
                       std::uint64_t seed = 1)
        : L2Org(cfg, BankSpec::shared(std::make_shared<FlatLru>())),
          coopProb_(coop_probability), rng_(seed ^ 0xcc00ccffu)
    {
        ESP_ASSERT(coop_probability >= 0.0 && coop_probability <= 1.0,
                   "cooperation probability out of range");
    }

    std::string
    name() const override
    {
        return "cc-" + std::to_string(
                           static_cast<int>(coopProb_ * 100 + 0.5));
    }

    bool placesHelpingBlocks() const override { return true; }

    void
    search(Transaction &tx) override
    {
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
        (void)tx;
        (void)t; // tiled: L2 allocates on L1 eviction
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
            handleTileEviction(c, res.evicted, bank, t);
        return res.inserted;
    }

    std::uint64_t spills() const { return spills_; }

    void
    saveExtra(SnapshotWriter &w) const override
    {
        std::uint64_t s[4];
        rng_.saveState(s);
        for (std::uint64_t v : s)
            w.u64(v);
        w.u64(spills_);
    }

    void
    loadExtra(SnapshotReader &r) override
    {
        std::uint64_t s[4];
        for (std::uint64_t &v : s)
            v = r.u64();
        rng_.loadState(s);
        spills_ = r.u64();
    }

  private:
    /**
     * A block displaced from a tile: spill singlets once to a random
     * peer with probability coopProb_; everything else leaves the chip.
     */
    void
    handleTileEviction(CoreId c, const BlockMeta &evicted, BankId bank,
                       Cycle t)
    {
        // Victim class marks "already spilled once" (1-chance forwarding).
        const BlockInfo *e = proto().dir().find(evicted.addr);
        const bool singlet = e == nullptr || !e->anyL2Copy();
        if (evicted.cls == BlockClass::Victim || !singlet ||
            !rng_.chance(coopProb_)) {
            dropDisplaced(evicted, bank, t);
            return;
        }
        // Choose a random peer tile, uniformly in core-id space (the
        // CC proposal spills blindly; distance to the chosen peer is
        // whatever the placement makes it, so this needs no change on
        // non-paper meshes).
        CoreId peer = static_cast<CoreId>(
            rng_.below(cfg_.numCores - 1));
        if (peer >= c)
            ++peer;
        BlockMeta spill = evicted;
        spill.cls = BlockClass::Victim;
        spill.owner = c;
        const BankId dest = map_.privateBank(peer, evicted.addr);
        proto().mesh().deliveryTime(proto().topo().bankNode(bank),
                                    proto().topo().bankNode(dest),
                                    cfg_.dataMsgBytes, t);
        const InsertResult res = applyInsert(
            dest, map_.privateSet(evicted.addr), spill,
            evicted.hasOwnerToken);
        if (!res.inserted) {
            dropDisplaced(evicted, bank, t);
            return;
        }
        ++spills_;
        if (res.evicted.valid)
            dropDisplaced(res.evicted, dest, t);
    }

    double coopProb_;
    Rng rng_;
    std::uint64_t spills_ = 0;
};

} // namespace espnuca

#endif // ESPNUCA_ARCH_CC_HPP_
