/**
 * @file
 * Private L1 cache (one instruction + one data instance per core,
 * Table 2: 32 KB, 4-way, 64 B blocks, 3-cycle access). Reuses the
 * generic CacheSet; replacement is plain LRU.
 */

#ifndef ESPNUCA_COHERENCE_L1_CACHE_HPP_
#define ESPNUCA_COHERENCE_L1_CACHE_HPP_

#include <cstdint>
#include <vector>

#include "cache/cache_set.hpp"
#include "common/bitops.hpp"
#include "common/config.hpp"
#include "common/log.hpp"
#include "common/types.hpp"

namespace espnuca {

/** Identifier of one L1 cache: core * 2 + (0 data | 1 instruction). */
using L1Id = std::uint32_t;

inline L1Id
l1IdOf(CoreId c, bool instr)
{
    return c * 2 + (instr ? 1u : 0u);
}

inline CoreId
coreOfL1(L1Id id)
{
    return id / 2;
}

/** One L1 cache array. */
class L1Cache
{
  public:
    explicit L1Cache(const SystemConfig &cfg)
        : blockOffset_(cfg.blockOffsetBits()),
          indexBits_(exactLog2(cfg.l1Sets())),
          sets_(cfg.l1Sets(), CacheSet(cfg.l1Ways))
    {
    }

    std::uint32_t
    setIndex(Addr a) const
    {
        return static_cast<std::uint32_t>(
            bits(a, blockOffset_, indexBits_));
    }

    /** Look up a block; returns way index or kNoWay. Does not touch LRU. */
    int
    lookup(Addr a) const
    {
        return sets_[setIndex(a)].findAny(a);
    }

    bool has(Addr a) const { return lookup(a) != kNoWay; }

    /** Way metadata, by value (CacheSet::way). */
    BlockMeta
    meta(Addr a, int way) const
    {
        return sets_[setIndex(a)].way(way);
    }

    /** Mark a resident block dirty (store hit / write permission). */
    void
    markDirty(Addr a, int way)
    {
        sets_[setIndex(a)].setDirty(way, true);
    }

    /** Grant or revoke this copy's owner token. */
    void
    setOwnerToken(Addr a, int way, bool v)
    {
        sets_[setIndex(a)].setOwnerToken(way, v);
    }

    /** Promote a resident block to MRU. */
    void
    touch(Addr a, int way)
    {
        sets_[setIndex(a)].touch(way);
    }

    /**
     * Fill a block, evicting the set's LRU when full.
     * @return metadata of the displaced block (valid == false if none).
     */
    BlockMeta
    fill(Addr a, bool dirty, bool owner_token)
    {
        CacheSet &s = sets_[setIndex(a)];
        ESP_ASSERT(s.findAny(a) == kNoWay, "double fill in L1");
        int way = s.invalidWay();
        BlockMeta evicted;
        if (way == kNoWay) {
            way = s.lruWay();
            evicted = s.way(way);
        }
        BlockMeta m;
        m.addr = a;
        m.valid = true;
        m.dirty = dirty;
        m.cls = BlockClass::Private; // unused by L1
        m.owner = kInvalidCore;
        m.hasOwnerToken = owner_token;
        s.assign(way, m);
        s.touch(way);
        ++fills_;
        return evicted;
    }

    /** Drop a block (coherence invalidation); returns old metadata. */
    BlockMeta
    invalidate(Addr a)
    {
        CacheSet &s = sets_[setIndex(a)];
        const int way = s.findAny(a);
        ESP_ASSERT(way != kNoWay, "invalidating a block not in L1");
        const BlockMeta old = s.way(way);
        s.clearWay(way);
        s.demote(way);
        ++invalidations_;
        return old;
    }

    /** Number of resident valid blocks (tests). */
    std::uint64_t
    population() const
    {
        std::uint64_t n = 0;
        for (const auto &s : sets_)
            n += s.countIf(kMatchAny);
        return n;
    }

    std::uint64_t fills() const { return fills_; }
    std::uint64_t invalidations() const { return invalidations_; }

    // -- Snapshot/restore ----------------------------------------------

    void
    save(SnapshotWriter &w) const
    {
        w.u32(static_cast<std::uint32_t>(sets_.size()));
        for (const auto &s : sets_)
            s.save(w);
        w.u64(fills_);
        w.u64(invalidations_);
    }

    void
    load(SnapshotReader &r)
    {
        if (r.u32() != sets_.size())
            throw SnapshotError("L1 set-count mismatch");
        for (auto &s : sets_)
            s.load(r);
        fills_ = r.u64();
        invalidations_ = r.u64();
    }

  private:
    unsigned blockOffset_;
    unsigned indexBits_;
    std::vector<CacheSet> sets_;
    std::uint64_t fills_ = 0;
    std::uint64_t invalidations_ = 0;
};

} // namespace espnuca

#endif // ESPNUCA_COHERENCE_L1_CACHE_HPP_
