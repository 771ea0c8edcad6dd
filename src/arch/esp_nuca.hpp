/**
 * @file
 * ESP-NUCA (paper Section 3): SP-NUCA extended with helping blocks.
 *
 * - Replicas: on an L1 eviction of a shared block whose home bank is
 *   outside the requester's partition, a clean copy is offered to the
 *   local private bank.
 * - Victims: when a first-class private block is displaced from its
 *   private bank, it is offered to its shared home bank as a victim.
 * - Both admissions are governed by the protected-LRU policy and the
 *   per-bank hit-rate monitor that adapts nmax on line (Sections
 *   3.2/3.3); the Figure 5 "flat LRU" variant admits helping blocks
 *   without any protection.
 */

#ifndef ESPNUCA_ARCH_ESP_NUCA_HPP_
#define ESPNUCA_ARCH_ESP_NUCA_HPP_

#include <memory>
#include <string>

#include "arch/sp_nuca.hpp"
#include "common/rng.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_buffer.hpp"

namespace espnuca {

/** Replacement flavor for ESP-NUCA (Figure 5). */
enum class EspReplacement : std::uint8_t {
    ProtectedLru, //!< the proposal: protected LRU + monitor
    FlatLru,      //!< unprotected helping blocks (Figure 5 comparison)
};

/** Enhanced Shared-Private NUCA. */
class EspNuca : public SpNuca
{
  public:
    explicit EspNuca(const SystemConfig &cfg,
                     EspReplacement repl = EspReplacement::ProtectedLru)
        : SpNuca(cfg, SpPartition::FlatLru,
                 // The flat variant keeps SP-NUCA's FlatLru banks.
                 repl == EspReplacement::ProtectedLru
                     ? BankSpec::shared(std::make_shared<ProtectedLru>(),
                                        /*with_monitor=*/true)
                     : BankSpec::shared(std::make_shared<FlatLru>())),
          repl_(repl)
    {
    }

    std::string
    name() const override
    {
        return repl_ == EspReplacement::ProtectedLru ? "esp-nuca"
                                                     : "esp-nuca-flat";
    }

    /** Aggregate current nmax over the banks (diagnostics/examples). */
    double
    meanNmax() const
    {
        if (repl_ != EspReplacement::ProtectedLru)
            return 0.0;
        double sum = 0.0;
        for (BankId b = 0; b < numBanks(); ++b)
            sum += bank(b).monitor()->nmax();
        return sum / numBanks();
    }

    std::uint64_t replicasCreated() const { return replicasCreated_; }
    std::uint64_t victimsCreated() const { return victimsCreated_; }

    /** Ablation knob: also offer replicas on remote home read hits. */
    void setReadHitReplication(bool v) { readHitReplication_ = v; }

    /** Ablation knob: offer replicas on L1 evictions of shared blocks. */
    void setEvictReplication(bool v) { evictReplication_ = v; }

    /** Ablation knob: replica-creation pacing probability. */
    void setReplicaRate(double r) { replicaRate_ = r; }

  protected:
    /** The local partition also matches replicas. */
    ClassMask
    localMatch() const override
    {
        return kMatchPrivate | kMatchReplica;
    }

    /** The home bank also matches victims. */
    ClassMask
    homeMatch() const override
    {
        return kMatchShared | kMatchVictim;
    }

    /** Displaced first-class private blocks become victims at home. */
    void
    onL2Displaced(const BlockMeta &blk, BankId from_bank, Cycle t) override
    {
        ESP_PROF_SCOPE("esp.helping");
        if (blk.cls != BlockClass::Private) {
            dropDisplaced(blk, from_bank, t);
            return;
        }
        const BankId home = map_.sharedBank(blk.addr);
        // Victims only make sense for *remote* private data (paper 3.1);
        // if the home bank sits in the owner's own partition the
        // eviction proceeds normally.
        if (blk.owner == kInvalidCore ||
            map_.isLocalBank(blk.owner, home)) {
            dropDisplaced(blk, from_bank, t);
            return;
        }
        BlockMeta victim = blk;
        victim.cls = BlockClass::Victim;
        proto().mesh().deliveryTime(proto().topo().bankNode(from_bank),
                                    proto().topo().bankNode(home),
                                    cfg_.dataMsgBytes, t);
        const InsertResult res =
            applyInsert(home, map_.sharedSet(blk.addr), victim,
                        blk.hasOwnerToken);
        if (!res.inserted) {
            dropDisplaced(blk, from_bank, t);
            return;
        }
        ++victimsCreated_;
        if (obs::Tracer *tr = proto().tracer(); tr && tr->enabled())
            tr->record(obs::TraceKind::VictimCreate, t, tr->currentTx(),
                       blk.addr, static_cast<std::uint16_t>(home),
                       static_cast<std::uint8_t>(blk.owner),
                       static_cast<std::uint32_t>(from_bank));
        // No victim chaining: whatever a victim displaces is dropped.
        if (res.evicted.valid)
            dropDisplaced(res.evicted, home, t);
    }

    /**
     * Multiple-reader exploitation (paper 3.1): a remote core reading a
     * first-class shared block at its home also earns a local replica
     * offer, so hot read-shared data converges to every reader's
     * partition (admission still gated by the protected LRU).
     */
    void
    onL2ReadHit(Transaction &tx, BankId bank, std::uint32_t set, int way,
                Cycle t) override
    {
        SpNuca::onL2ReadHit(tx, bank, set, way, t);
        if (!readHitReplication_)
            return;
        const int live = this->bank(bank).findAny(set, tx.addr);
        if (live == kNoWay)
            return; // migrated / reclassified by the base handler
        const BlockMeta m = this->bank(bank).meta(set, live);
        if (m.cls != BlockClass::Shared)
            return;
        // Reuse filter: only blocks with demonstrated L2 reuse earn
        // replicas — one-touch blocks never pay back the capacity they
        // would steal from first-class data.
        if (m.hits < 2)
            return;
        BlockMeta copy = m;
        copy.dirty = false;
        copy.hasOwnerToken = false;
        offerReplica(tx.core, copy, t);
    }

    /** Clean local copies of shared data on L1 eviction. */
    void
    maybeCreateReplica(CoreId c, const BlockMeta &blk, Cycle t) override
    {
        if (evictReplication_)
            offerReplica(c, blk, t);
    }

    /** Offer a clean replica to the requester's private bank. */
    void
    offerReplica(CoreId c, const BlockMeta &blk, Cycle t)
    {
        ESP_PROF_SCOPE("esp.helping");
        // Churn throttle: replica creation is pacing-limited so that a
        // block bouncing between eviction and re-creation cannot evict
        // first-class data every round trip.
        if (!throttle_.chance(replicaRate_))
            return;
        const BankId home = map_.sharedBank(blk.addr);
        if (map_.isLocalBank(c, home))
            return; // the home copy is already local
        const BankId priv = map_.privateBank(c, blk.addr);
        const BlockInfo *e = proto().dir().find(blk.addr);
        if (e != nullptr && e->hasL2Copy(priv))
            return; // a local replica already exists
        BlockMeta replica;
        replica.addr = blk.addr;
        replica.valid = true;
        replica.dirty = false; // the home copy holds the dirty data
        replica.cls = BlockClass::Replica;
        replica.owner = c;
        const InsertResult res = applyInsert(
            priv, map_.privateSet(blk.addr), replica,
            /*owner_token=*/false);
        if (!res.inserted)
            return;
        ++replicasCreated_;
        if (obs::Tracer *tr = proto().tracer(); tr && tr->enabled())
            tr->record(obs::TraceKind::ReplicaCreate, t, tr->currentTx(),
                       blk.addr, static_cast<std::uint16_t>(priv),
                       static_cast<std::uint8_t>(c), 0);
        if (res.evicted.valid)
            dropDisplaced(res.evicted, priv, t);
    }

    void
    saveExtra(SnapshotWriter &w) const override
    {
        std::uint64_t s[4];
        throttle_.saveState(s);
        for (std::uint64_t v : s)
            w.u64(v);
        w.u64(replicasCreated_);
        w.u64(victimsCreated_);
    }

    void
    loadExtra(SnapshotReader &r) override
    {
        std::uint64_t s[4];
        for (std::uint64_t &v : s)
            v = r.u64();
        throttle_.loadState(s);
        replicasCreated_ = r.u64();
        victimsCreated_ = r.u64();
    }

  private:
    bool readHitReplication_ = true;
    bool evictReplication_ = true;
    double replicaRate_ = 0.10;
    Rng throttle_{0xE5B1CA5ULL};
    EspReplacement repl_;
    std::uint64_t replicasCreated_ = 0;
    std::uint64_t victimsCreated_ = 0;
};

} // namespace espnuca

#endif // ESPNUCA_ARCH_ESP_NUCA_HPP_
