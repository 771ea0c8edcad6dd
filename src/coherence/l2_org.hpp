/**
 * @file
 * Base class for every L2 organization under study (S-NUCA, Private,
 * SP-NUCA, ESP-NUCA, D-NUCA, ASR, CC). The organization owns the 32 L2
 * banks and drives the on-chip search of each transaction through the
 * protocol's probe service and the typed resolve(L2HitAt/L2MissAt)
 * stage entries; it also decides placement on fills, L1-writeback
 * handling, and what happens to displaced blocks.
 */

#ifndef ESPNUCA_COHERENCE_L2_ORG_HPP_
#define ESPNUCA_COHERENCE_L2_ORG_HPP_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/address_map.hpp"
#include "cache/cache_bank.hpp"
#include "coherence/protocol.hpp"
#include "common/config.hpp"
#include "common/snapshot.hpp"
#include "common/types.hpp"

namespace espnuca {

/**
 * How an organization's banks are built: the replacement policy each
 * bank gets and whether every bank carries an ESP-NUCA hit-rate monitor.
 */
struct BankSpec
{
    std::function<std::shared_ptr<ReplacementPolicy>(BankId)> policy;
    bool withMonitor = false;

    /** Every bank shares the one (stateless) policy instance `p`. */
    static BankSpec
    shared(std::shared_ptr<ReplacementPolicy> p, bool with_monitor = false)
    {
        return {[p = std::move(p)](BankId) { return p; }, with_monitor};
    }
};

/** Interface every studied cache architecture implements. */
class L2Org
{
  public:
    /**
     * Build the cfg.l2Banks banks as `banks` says. This is the only
     * place banks are created, so each organization builds them once;
     * subclasses pass their spec up the constructor chain.
     */
    L2Org(const SystemConfig &cfg, const BankSpec &banks);
    virtual ~L2Org() = default;

    L2Org(const L2Org &) = delete;
    L2Org &operator=(const L2Org &) = delete;

    /** Wire up the protocol after construction (two-phase init). */
    void attach(Protocol &p) { proto_ = &p; }

    /** Architecture name for reports. */
    virtual std::string name() const = 0;

    /**
     * Drive the on-chip L2 search for `tx` starting at tx.searchStart
     * from tx.reqNode. Must eventually call proto().resolve(tx,
     * L2HitAt{...}) or proto().resolve(tx, L2MissAt{...}) exactly once
     * (the FSM auditor enforces this: a second resolution is not a
     * legal edge), and may call proto().startMemory(...) where the
     * paper's flow forwards to the memory controller in parallel.
     */
    virtual void search(Transaction &tx) = 0;

    /**
     * Placement after an off-chip fill completes (time `t`). The data is
     * on its way to the requester; organizations that allocate L2 on
     * fill insert a copy here. Fire-and-forget traffic may be billed.
     */
    virtual void onMemFill(Transaction &tx, Cycle t) = 0;

    /**
     * An L1 evicted `blk` (dirty or clean) at time `t`. The organization
     * places it (tile insert, replica creation, home writeback) or lets
     * it leave the chip. The L1 holder bit has already been cleared.
     * @return true when the block (if dirty) was preserved somewhere;
     *         false lets the protocol write dirty data back to memory.
     */
    virtual bool onL1Eviction(CoreId c, const BlockMeta &blk, Cycle t) = 0;

    /**
     * A read hit at (bank,set,way) completed for `tx` at time `t`.
     * Hook for migration / promotion / replica decisions.
     */
    virtual void
    onL2ReadHit(Transaction &tx, BankId bank, std::uint32_t set, int way,
                Cycle t)
    {
        (void)tx;
        (void)bank;
        (void)set;
        (void)way;
        (void)t;
    }

    /** Number of banks (always cfg.l2Banks). */
    std::uint32_t numBanks() const
    {
        return static_cast<std::uint32_t>(banks_.size());
    }

    CacheBank &bank(BankId b) { return *banks_.at(b); }
    const CacheBank &bank(BankId b) const { return *banks_.at(b); }

    /**
     * Register per-bank statistics under bank.* (unified naming,
     * DESIGN.md 5.13). Names are frozen — stats dumps are
     * byte-compared across refactors. `extended` adds the monitor's
     * raw fixed-point set-class EMAs (hr_ref/hr_conv/hr_exp) and, for
     * organizations that place helping blocks, their occupancy
     * (replicas/victims); the text dump never carries them.
     */
    void
    registerStats(StatsRegistry &reg, bool extended = false) const
    {
        const StatsScope banks(reg, "bank");
        for (BankId b = 0; b < numBanks(); ++b) {
            const CacheBank &bk = bank(b);
            const StatsScope s = banks.sub(std::to_string(b));
            s.counter("accesses").inc(bk.accesses());
            s.counter("demand").inc(bk.demandAccesses());
            s.counter("demand_hits").inc(bk.demandHits());
            s.counter("evictions").inc(bk.evictions());
            const HitRateMonitor *mon = bk.monitor();
            if (mon)
                s.counter("nmax").inc(mon->nmax());
            if (extended && mon) {
                s.counter("hr_ref").inc(mon->emaReference());
                s.counter("hr_conv").inc(mon->emaConventional());
                s.counter("hr_exp").inc(mon->emaExplorer());
            }
            if (extended && placesHelpingBlocks()) {
                s.counter("replicas").inc(bk.countClass(BlockClass::Replica));
                s.counter("victims").inc(bk.countClass(BlockClass::Victim));
            }
        }
    }

    /** Whether the organization stores replicas or victims (helping
     *  blocks) in its banks. */
    virtual bool placesHelpingBlocks() const { return false; }

    const AddressMap &map() const { return map_; }
    AddressMap &map() { return map_; } //!< fault injection installs remaps

    /**
     * Locate a copy of `a` in a bank, whichever mapping it was stored
     * under. @return {set, way} with way == kNoWay when absent.
     */
    std::pair<std::uint32_t, int>
    findCopy(BankId b, Addr a) const
    {
        const std::uint32_t ps = map_.privateSet(a);
        int w = banks_.at(b)->findAny(ps, a);
        if (w != kNoWay)
            return {ps, w};
        const std::uint32_t ss = map_.sharedSet(a);
        if (ss != ps) {
            w = banks_.at(b)->findAny(ss, a);
            if (w != kNoWay)
                return {ss, w};
        }
        return {0, kNoWay};
    }

    /**
     * Remove every L2 copy of `a` (write invalidation); keeps the
     * directory consistent. Returns the number of copies dropped.
     */
    std::uint32_t invalidateAllL2Copies(Addr a);

    /** Aggregate L2 demand statistics across banks. */
    std::uint64_t totalDemandAccesses() const;
    std::uint64_t totalDemandHits() const;

    // -- Snapshot/restore ----------------------------------------------

    /**
     * Serialize every bank (sets, monitors, stats), each bank's
     * replacement-policy state, and the architecture's own adaptive
     * state via saveExtra(). The address map is configuration (fault
     * remaps are re-applied at construction) and not serialized.
     */
    void
    save(SnapshotWriter &w) const
    {
        w.u32(numBanks());
        for (BankId b = 0; b < numBanks(); ++b) {
            banks_[b]->save(w);
            banks_[b]->policy().save(w);
        }
        saveExtra(w);
    }

    void
    load(SnapshotReader &r)
    {
        if (r.u32() != numBanks())
            throw SnapshotError("l2 bank-count mismatch");
        for (BankId b = 0; b < numBanks(); ++b) {
            banks_[b]->load(r);
            banks_[b]->policy().load(r);
        }
        loadExtra(r);
    }

    /** Architecture-specific adaptive state (RNGs, epoch counters). */
    virtual void saveExtra(SnapshotWriter &w) const { (void)w; }
    virtual void loadExtra(SnapshotReader &r) { (void)r; }

  protected:
    Protocol &proto() { return *proto_; }
    const Protocol &proto() const { return *proto_; }

    /**
     * Insert `blk` into (bank, set) keeping the directory consistent for
     * both the inserted and the displaced block. The caller decides what
     * to do with `.evicted` (writeback, victim creation, drop).
     */
    InsertResult applyInsert(BankId b, std::uint32_t set,
                             const BlockMeta &blk, bool owner_token);

    /**
     * Default handling for a displaced block whose directory bit has
     * already been cleared by applyInsert: dirty data is written back to
     * memory (fire-and-forget), clean data simply leaves the chip.
     */
    void dropDisplaced(const BlockMeta &blk, BankId from_bank, Cycle t);

    /** applyInsert + dropDisplaced convenience. @return inserted? */
    bool insertWithDrop(BankId b, std::uint32_t set, const BlockMeta &blk,
                        bool owner_token, Cycle t);

    /**
     * Store an L1-evicted block: when the target bank already holds a
     * copy, refresh it (dirty bit, recency, owner token) instead of
     * inserting a duplicate. @return the insert outcome ("inserted" is
     * true for the refresh case too).
     */
    InsertResult storeOrRefresh(BankId b, std::uint32_t set,
                                const BlockMeta &blk, bool owner_token);

    SystemConfig cfg_;
    AddressMap map_;
    Protocol *proto_ = nullptr;
    std::vector<std::unique_ptr<CacheBank>> banks_;
};

/**
 * Bank probe (declared in protocol.hpp): defined here because the body
 * needs CacheBank and L2Org complete.
 */
template <typename CB>
void
Protocol::probe(Transaction &tx, BankId bank, std::uint32_t set_index,
                ClassMask match, NodeId from_node, Cycle t, CB cb)
{
    if (tracer_)
        tracer_->setCurrentTx(tx.id);
    CacheBank &b = org_.bank(bank);
    // The probe event fires after at least one event-queue hop; start
    // pulling the set's object line (and, once that lands, its tag and
    // metadata arrays) toward the cache now so the find() below doesn't
    // eat the DRAM misses on the critical path.
    b.prefetchSet(set_index);
    const NodeId node = topo_.bankNode(bank);
    const Cycle arrival =
        mesh_.deliveryTime(from_node, node, cfg_.ctrlMsgBytes, t);
    const Cycle tag_done = b.tagProbe(arrival);
    b.prefetchTags(set_index);
    // The tag match is evaluated when the probe event fires, so a block
    // migrated or displaced in the meantime is genuinely missed (the
    // "false misses due to migrating blocks" of token coherence).
    // The transaction may already have completed when the event fires
    // (a sibling probe of a parallel fan-out hit first and finish()
    // destroyed it), so the lambda captures the address by value; late
    // continuations bail out on their own resolved flag before touching
    // the transaction.
    eq_.scheduleAt(tag_done, [this, addr = tx.addr, &b, set_index, match,
                              cb = std::move(cb), txid = tx.id,
                              core = tx.core]() {
        ESP_PROF_SCOPE("proto.probe");
        const Cycle tag_done = eq_.now(); // the event fires at tag_done
        ProbeResult r;
        r.way = b.find(set_index, addr, match);
        if (r.way != kNoWay) {
            r.cls = b.meta(set_index, r.way).cls;
            r.firstClassHit = isFirstClass(r.cls);
        }
        // Demand-stream accounting (h = 1 only on a first-class hit,
        // paper 3.3). Only the utility-learning policies consume the
        // demand block classification; for everyone else the bank skips
        // the policy callback, so the directory lookup that computes the
        // classification is skipped too.
        BlockClass demand_cls = BlockClass::Private;
        if (b.wantsDemandStream()) {
            const BlockInfo *e = dir_.find(addr);
            if (e && e->sharedStatus())
                demand_cls = BlockClass::Shared;
        }
        b.recordDemand(set_index, addr, demand_cls, r.firstClassHit);
        if (tracer_ && tracer_->enabled())
            tracer_->record(obs::TraceKind::BankProbe, tag_done, txid,
                            addr, static_cast<std::uint16_t>(b.id()),
                            static_cast<std::uint8_t>(core),
                            static_cast<std::uint32_t>(r.way + 1));
        cb(r, tag_done);
    });
}

} // namespace espnuca

#endif // ESPNUCA_COHERENCE_L2_ORG_HPP_
