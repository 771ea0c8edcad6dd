/**
 * @file
 * One L2 NUCA bank: an array of w-way sets, a replacement policy, an
 * optional hit-rate monitor (ESP-NUCA), and sequential-access timing
 * (Table 2: 5-cycle data access, 2-cycle tag access, one access in
 * flight at a time).
 */

#ifndef ESPNUCA_CACHE_CACHE_BANK_HPP_
#define ESPNUCA_CACHE_CACHE_BANK_HPP_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cache/cache_set.hpp"
#include "cache/hit_rate_monitor.hpp"
#include "cache/replacement.hpp"
#include "common/config.hpp"
#include "common/log.hpp"
#include "common/types.hpp"

namespace espnuca {

/** Outcome of a bank insertion. */
struct InsertResult
{
    bool inserted = false; //!< false when the policy refused the block
    BlockMeta evicted;     //!< valid == true when a block was displaced
};

/** A single NUCA bank. */
class CacheBank
{
  public:
    /**
     * @param cfg system configuration (geometry and latencies)
     * @param id this bank's index
     * @param policy replacement strategy (shared across banks is fine for
     *        stateless policies; stateful ones get one instance per bank)
     * @param with_monitor attach an ESP-NUCA hit-rate monitor
     */
    CacheBank(const SystemConfig &cfg, BankId id,
              std::shared_ptr<ReplacementPolicy> policy,
              bool with_monitor = false)
        : cfg_(cfg), id_(id), policy_(std::move(policy)),
          sets_(cfg.l2SetsPerBank(), CacheSet(cfg.l2Ways))
    {
        ESP_ASSERT(policy_ != nullptr, "bank needs a replacement policy");
        wantsDemand_ = policy_->wantsDemandStream();
        if (with_monitor) {
            monitor_ = std::make_unique<HitRateMonitor>(
                cfg, cfg.l2SetsPerBank(), cfg.l2Ways);
        }
    }

    BankId id() const { return id_; }
    std::uint32_t numSets() const
    {
        return static_cast<std::uint32_t>(sets_.size());
    }

    CacheSet &set(std::uint32_t s) { return sets_[s]; }
    const CacheSet &set(std::uint32_t s) const { return sets_[s]; }

    // -- Timing --------------------------------------------------------

    /**
     * Account a tag probe (Table 2: 2 cycles). The bank is sequential,
     * serving one phase at a time.
     * @param arrival cycle the request reaches the bank
     * @return cycle the tag check completes
     */
    Cycle
    tagProbe(Cycle arrival)
    {
        return occupy(arrival, cfg_.l2TagLatency);
    }

    /**
     * Account the data phase following a tag hit (sequential access:
     * total latency l2Latency, of which l2TagLatency was the tag phase).
     * Also used for fills/writebacks into the array.
     * @param arrival cycle the data phase may start
     * @return cycle the data is available
     */
    Cycle
    dataAccess(Cycle arrival)
    {
        return occupy(arrival, cfg_.l2Latency - cfg_.l2TagLatency);
    }

    // -- Content -------------------------------------------------------

    /** Hint: pull set `s`'s object line into cache (hides the pointer
     * chase of a find() scheduled to run shortly). */
    void
    prefetchSet(std::uint32_t s) const
    {
        __builtin_prefetch(&sets_[s]);
    }

    /** Hint: pull set `s`'s tag/metadata arrays into cache. */
    void
    prefetchTags(std::uint32_t s) const
    {
        sets_[s].prefetchTags();
    }

    /** Find `addr` in set `s` under the class/tag match `mask`. */
    int
    find(std::uint32_t s, Addr addr, ClassMask mask) const
    {
        return sets_[s].find(addr, mask);
    }

    /** Find `addr` in set `s` under any class. */
    int
    findAny(std::uint32_t s, Addr addr) const
    {
        return sets_[s].findAny(addr);
    }

    /** Way metadata of set `s`, by value (CacheSet::way). */
    BlockMeta
    meta(std::uint32_t s, int way) const
    {
        return sets_[s].way(way);
    }

    /** Reclassify a valid way in place (e.g. victim -> shared). */
    void
    setClass(std::uint32_t s, int way, BlockClass cls, CoreId owner)
    {
        sets_[s].setClass(way, cls, owner);
    }

    /** Set a way's dirty bit. */
    void
    setDirty(std::uint32_t s, int way, bool v)
    {
        sets_[s].setDirty(way, v);
    }

    /** Set a way's owner-token bit. */
    void
    setOwnerToken(std::uint32_t s, int way, bool v)
    {
        sets_[s].setOwnerToken(way, v);
    }

    /** Saturating demand-hit counter bump. */
    void
    bumpHits(std::uint32_t s, int way)
    {
        sets_[s].bumpHits(way);
    }

    /**
     * Does the policy consume the per-access demand stream? Cached at
     * construction so the probe path can skip the directory
     * classification lookup without a virtual call.
     */
    bool wantsDemandStream() const { return wantsDemand_; }

    /** Promote to MRU. */
    void
    touch(std::uint32_t s, int way)
    {
        sets_[s].touch(way);
    }

    /**
     * Record the outcome of a demand reference for the monitor and the
     * learning policies. `first_class_hit` follows the paper's h
     * definition (1 only when a first-class block was hit).
     */
    void
    recordDemand(std::uint32_t s, Addr addr, BlockClass cls,
                 bool first_class_hit)
    {
        if (monitor_)
            monitor_->record(s, first_class_hit);
        if (wantsDemand_)
            policy_->onDemandAccess(s, addr, cls, first_class_hit);
        if (first_class_hit)
            ++demandHits_;
        ++demandAccesses_;
    }

    /**
     * Insert a block; the policy picks (or refuses) the victim way.
     * The evicted block's metadata is returned to the caller, which owns
     * the consequent writeback / victim-creation decision.
     */
    InsertResult
    insert(std::uint32_t s, const BlockMeta &incoming)
    {
        ESP_ASSERT(incoming.valid, "inserting an invalid block");
        CacheSet &cset = sets_[s];
        ESP_ASSERT(cset.findAny(incoming.addr) == kNoWay,
                   "inserting a duplicate block");
        InsertResult res;
        const int way = policy_->chooseWay(cset, incoming.cls, context(s));
        if (way == kNoWay)
            return res;
        const BlockMeta victim = cset.way(way);
        if (victim.valid) {
            res.evicted = victim;
            policy_->onEvict(s, victim);
            ++evictions_;
        }
        cset.assign(way, incoming);
        cset.touch(way);
        res.inserted = true;
        return res;
    }

    /** Drop a block (coherence invalidation); returns the old metadata. */
    BlockMeta
    invalidate(std::uint32_t s, int way)
    {
        CacheSet &cset = sets_[s];
        const BlockMeta old = cset.way(way);
        ESP_ASSERT(old.valid, "invalidating an invalid way");
        cset.clearWay(way);
        cset.demote(way);
        return old;
    }

    /** Replacement context for a set (category + nmax). */
    ReplacementContext
    context(std::uint32_t s) const
    {
        ReplacementContext ctx;
        ctx.setIndex = s;
        if (monitor_) {
            ctx.category = monitor_->category(s);
            ctx.nmax = monitor_->nmax();
        }
        return ctx;
    }

    // -- Fault model ---------------------------------------------------

    /**
     * Fence off the masked ways in every set (fault injection; applied
     * before the bank holds data). A fully masked bank refuses every
     * insert, which is the belt-and-braces behaviour for dead banks the
     * address remap should already keep traffic away from.
     */
    void
    disableWays(std::uint64_t mask)
    {
        for (auto &s : sets_)
            s.disableWays(mask);
        disabledWays_ = sets_.empty() ? 0
                                      : sets_.front().numWays() -
                                            sets_.front().enabledWays();
    }

    /** Ways disabled per set by fault injection. */
    std::uint32_t disabledWays() const { return disabledWays_; }

    /** Monitor access (null for non-ESP banks). */
    HitRateMonitor *monitor() { return monitor_.get(); }
    const HitRateMonitor *monitor() const { return monitor_.get(); }

    ReplacementPolicy &policy() { return *policy_; }

    // -- Stats -----------------------------------------------------------
    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t demandAccesses() const { return demandAccesses_; }
    std::uint64_t demandHits() const { return demandHits_; }
    std::uint64_t evictions() const { return evictions_; }
    Cycle waitCycles() const { return waitCycles_; }

    /** Clear the statistics only (warmup boundary); contents kept. */
    void
    resetStats()
    {
        accesses_ = 0;
        demandAccesses_ = 0;
        demandHits_ = 0;
        evictions_ = 0;
        waitCycles_ = 0;
    }

    /** Count valid blocks of a class across the whole bank (tests). */
    std::uint64_t
    countClass(BlockClass c) const
    {
        std::uint64_t n = 0;
        for (const auto &s : sets_)
            n += s.countIf(classBit(c));
        return n;
    }

    // -- Snapshot/restore ----------------------------------------------

    /** Serialize contents, timing and statistics. The replacement
     *  policy serializes separately (the organization owns it: stateful
     *  policies are per-bank, stateless ones shared). */
    void
    save(SnapshotWriter &w) const
    {
        w.u32(numSets());
        for (const auto &s : sets_)
            s.save(w);
        w.b(monitor_ != nullptr);
        if (monitor_)
            monitor_->save(w);
        w.u32(disabledWays_);
        w.u64(freeAt_);
        w.u64(waitCycles_);
        w.u64(accesses_);
        w.u64(demandAccesses_);
        w.u64(demandHits_);
        w.u64(evictions_);
    }

    void
    load(SnapshotReader &r)
    {
        if (r.u32() != numSets())
            throw SnapshotError("bank set-count mismatch");
        for (auto &s : sets_)
            s.load(r);
        if (r.b() != (monitor_ != nullptr))
            throw SnapshotError("bank monitor presence mismatch");
        if (monitor_)
            monitor_->load(r);
        disabledWays_ = r.u32();
        freeAt_ = r.u64();
        waitCycles_ = r.u64();
        accesses_ = r.u64();
        demandAccesses_ = r.u64();
        demandHits_ = r.u64();
        evictions_ = r.u64();
    }

  private:
    Cycle
    occupy(Cycle arrival, Cycle lat)
    {
        const Cycle start = arrival > freeAt_ ? arrival : freeAt_;
        waitCycles_ += start - arrival;
        freeAt_ = start + lat;
        ++accesses_;
        return start + lat;
    }

    SystemConfig cfg_;
    BankId id_;
    std::shared_ptr<ReplacementPolicy> policy_;
    std::vector<CacheSet> sets_;
    std::unique_ptr<HitRateMonitor> monitor_;

    bool wantsDemand_ = false;
    std::uint32_t disabledWays_ = 0;
    Cycle freeAt_ = 0;
    Cycle waitCycles_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t demandAccesses_ = 0;
    std::uint64_t demandHits_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace espnuca

#endif // ESPNUCA_CACHE_CACHE_BANK_HPP_
