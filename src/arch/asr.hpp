/**
 * @file
 * Adaptive Selective Replication baseline (ASR, [3]): a tiled private L2
 * where shared, clean blocks evicted from the L1 are replicated into the
 * local tile with a per-core probability chosen from discrete levels
 * {0, 1/4, 1/2, 1}. A per-core cost/benefit estimator (replica hits
 * saved remote latency vs. displacement-induced misses, tracked through
 * a ghost-tag FIFO) moves the level up or down each epoch.
 */

#ifndef ESPNUCA_ARCH_ASR_HPP_
#define ESPNUCA_ARCH_ASR_HPP_

#include <array>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "coherence/l2_org.hpp"
#include "coherence/protocol.hpp"
#include "common/rng.hpp"

namespace espnuca {

/** Tiled private L2 with adaptive selective replication. */
class Asr : public L2Org
{
  public:
    explicit Asr(const SystemConfig &cfg, std::uint64_t seed = 1)
        : L2Org(cfg, BankSpec::shared(std::make_shared<FlatLru>())),
          rng_(seed ^ 0xa5a5a5a5u), perCore_(cfg.numCores)
    {
    }

    std::string name() const override { return "asr"; }
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
                if (r.way != kNoWay) {
                    if (r.cls == BlockClass::Replica) {
                        // Benefit: a replica hit saved a remote access.
                        perCore_[tx.core].benefit +=
                            remoteSavingEstimate();
                    }
                    proto().resolve(tx, L2HitAt{local, set, r.way, t});
                } else {
                    noteLocalMiss(tx.core, tx.addr);
                    proto().resolve(
                        tx, L2MissAt{proto().topo().bankNode(local), t});
                }
                epochMaybe(tx.core);
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
        const BlockInfo *e = proto().dir().find(blk.addr);
        const bool shared = e != nullptr && e->sharedStatus();
        const bool must_keep = blk.dirty || blk.hasOwnerToken;
        const BankId bank = map_.privateBank(c, blk.addr);

        if (shared && !must_keep) {
            // Clean shared data: replicate selectively.
            if (!rng_.chance(kLevels[perCore_[c].level]))
                return true; // dropped by choice; nothing dirty is lost
            BlockMeta store = blk;
            store.cls = BlockClass::Replica;
            store.owner = c;
            if (e->hasL2Copy(bank))
                return true; // already replicated locally
            const InsertResult res = applyInsert(
                bank, map_.privateSet(blk.addr), store, false);
            if (res.inserted) {
                ++replicasCreated_;
                if (res.evicted.valid)
                    noteReplicaDisplacement(c, res.evicted, bank, t);
            }
            return true;
        }

        BlockMeta store = blk;
        store.cls = BlockClass::Private;
        store.owner = c;
        const InsertResult res = storeOrRefresh(
            bank, map_.privateSet(blk.addr), store, blk.hasOwnerToken);
        if (res.evicted.valid)
            dropDisplaced(res.evicted, bank, t);
        return res.inserted;
    }

    /** Current replication level of a core (0..3; tests/diagnostics). */
    std::uint32_t level(CoreId c) const { return perCore_[c].level; }
    std::uint64_t replicasCreated() const { return replicasCreated_; }

    void
    saveExtra(SnapshotWriter &w) const override
    {
        std::uint64_t s[4];
        rng_.saveState(s);
        for (std::uint64_t v : s)
            w.u64(v);
        w.u64(perCore_.size());
        for (const CoreState &st : perCore_) {
            w.u32(st.level);
            w.f64(st.benefit);
            w.f64(st.cost);
            w.u64(st.events);
            w.u64(st.ghosts.size());
            for (Addr a : st.ghosts)
                w.u64(a);
        }
        w.u64(replicasCreated_);
    }

    void
    loadExtra(SnapshotReader &r) override
    {
        std::uint64_t s[4];
        for (std::uint64_t &v : s)
            v = r.u64();
        rng_.loadState(s);
        if (r.u64() != perCore_.size())
            throw SnapshotError("asr core-count mismatch");
        for (CoreState &st : perCore_) {
            st.level = r.u32();
            st.benefit = r.f64();
            st.cost = r.f64();
            st.events = r.u64();
            st.ghosts.clear();
            const std::uint64_t n = r.u64();
            for (std::uint64_t i = 0; i < n; ++i)
                st.ghosts.push_back(r.u64());
        }
        replicasCreated_ = r.u64();
    }

  private:
    static constexpr std::array<double, 4> kLevels = {0.0, 0.25, 0.5,
                                                      1.0};

    struct CoreState
    {
        std::uint32_t level = 1;
        double benefit = 0.0;
        double cost = 0.0;
        std::uint64_t events = 0;
        std::deque<Addr> ghosts; //!< blocks displaced by replicas
    };

    /** Rough remote-vs-local saving per replica hit (cycles). */
    double
    remoteSavingEstimate() const
    {
        return 4.0 * (cfg_.routerLatency + cfg_.linkLatency);
    }

    void
    noteReplicaDisplacement(CoreId c, const BlockMeta &evicted,
                            BankId bank, Cycle t)
    {
        CoreState &st = perCore_[c];
        st.ghosts.push_back(evicted.addr);
        while (st.ghosts.size() > 512)
            st.ghosts.pop_front();
        dropDisplaced(evicted, bank, t);
    }

    void
    noteLocalMiss(CoreId c, Addr a)
    {
        CoreState &st = perCore_[c];
        for (auto it = st.ghosts.begin(); it != st.ghosts.end(); ++it) {
            if (*it == a) {
                // Cost: this miss was manufactured by replication.
                st.cost += static_cast<double>(cfg_.memLatency);
                st.ghosts.erase(it);
                break;
            }
        }
    }

    void
    epochMaybe(CoreId c)
    {
        CoreState &st = perCore_[c];
        if (++st.events < 4096)
            return;
        if (st.benefit > st.cost * 1.25 && st.level < kLevels.size() - 1)
            ++st.level;
        else if (st.cost > st.benefit * 1.25 && st.level > 0)
            --st.level;
        st.events = 0;
        st.benefit = 0.0;
        st.cost = 0.0;
    }

    Rng rng_;
    std::vector<CoreState> perCore_;
    std::uint64_t replicasCreated_ = 0;
};

} // namespace espnuca

#endif // ESPNUCA_ARCH_ASR_HPP_
